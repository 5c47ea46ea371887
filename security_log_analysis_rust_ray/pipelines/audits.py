"""Estimate-vs-exact AUDITS: the driver-checkable form of the sketch /
approximate-structure queries.

A sketch query's raw output (an HLL/CMS/Misra-Gries/quantile-grid/IVF
estimate) is not SQL-expressible, so it can only ever be a rows-only
entry in the correctness gate.  Its GUARANTEE, however, is: "the
estimate lies within the structure's error bound of the exact answer",
and the exact answer IS SQL-expressible.  Each audit below therefore

  1. runs the approximate pipeline (unchanged, the library function),
  2. independently computes the exact answer with a distributed plan,
  3. emits the exact values plus a boolean ``ok`` per row asserting the
     estimate's bound holds,

so the DuckDB oracle can restate the whole output (exact values + TRUE)
and the driver's value-hash compare verifies the estimate's contract —
converting the entry from rows-only to oracle-backed (r04 VERDICT #7).
The estimate pipelines themselves stay available as library functions
and keep their pytest error-bound witnesses.

Bounds are the same ones the pytest witnesses assert (HLL p=12 ->
sigma ~ 1.04/sqrt(4096) ~ 1.6 %, CMS e/2048 one-sided, MG n/(k+1)
guarantee, quantile-grid ~1/512 rank error), with the usual small-count
floors so toy scale factors don't flap.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..sources.readers import read_table

# ---------------------------------------------------------------------------
# HLL family
# ---------------------------------------------------------------------------

WAU_REL_TOL = 0.08        # pytest bound: 7-day register-max union, p=12
DAU_REL_TOL = 0.08        # per-day single sketch, same register budget
DISTINCT_REL_TOL = 0.05   # global single sketch (pytest: 0.05)
OVERLAP_REL_TOL = 0.05    # inclusion-exclusion: relative to the UNION size


def rolling_wau_audit(sf_dir: str) -> rd.Dataset:
    """(day, n_users, ok): exact rolling 7-day WAU (the oracle-proven
    ``rolling_wau`` plan) with ok = the HLL register-algebra estimate
    (``rolling_wau_approx``) within ``WAU_REL_TOL`` of it, per day."""
    from .relational import rolling_wau, rolling_wau_approx
    exact = rolling_wau(sf_dir).to_pandas()          # calendar-sized
    approx = rolling_wau_approx(sf_dir).to_pandas()
    m = exact.merge(approx, on="day", how="outer")
    # missing days on either side are a coverage failure -> ok False
    est = m["wau_approx"].to_numpy(dtype=np.float64, na_value=np.nan)
    ex = m["n_users"].to_numpy(dtype=np.float64, na_value=np.nan)
    ok = (np.isfinite(est) & np.isfinite(ex)
          & (np.abs(est - ex) <= np.maximum(2.0, WAU_REL_TOL * ex)))
    return rd.from_arrow(pa.table({
        "day": pa.array(m["day"].to_numpy(), pa.int64()),
        "n_users": pa.array(np.nan_to_num(ex).astype(np.int64)),
        "ok": pa.array(ok, pa.bool_())}))


def daily_active_users_audit(sf_dir: str) -> rd.Dataset:
    """(day, dau, ok): exact per-day distinct users (distinct-cell
    combiner + grouped count, one exchange) with ok = the keyed-HLL
    estimate (``daily_active_users_approx``) within ``DAU_REL_TOL``."""
    from ..stages.aggregate import grouped_count
    from ..stages.dedup import distinct_rows
    from .relational import daily_active_users_approx
    ev = read_table(sf_dir, "events", columns=["ts", "user_id"])

    def day(b: pa.Table) -> pa.Table:
        d = pc.strftime(pc.floor_temporal(b["ts"], unit="day"), "%Y-%m-%d")
        return pa.table({"day": d, "user_id": b["user_id"]})

    cells = distinct_rows(
        ev.map_batches(day, batch_format="pyarrow", batch_size=None),
        ["day", "user_id"])
    exact = grouped_count(cells, ["day"], alias="dau").to_pandas()
    approx = daily_active_users_approx(sf_dir).to_pandas()
    m = exact.merge(approx, on="day", how="outer")
    est = m["dau_approx"].to_numpy(dtype=np.float64, na_value=np.nan)
    ex = m["dau"].to_numpy(dtype=np.float64, na_value=np.nan)
    ok = (np.isfinite(est) & np.isfinite(ex)
          & (np.abs(est - ex) <= np.maximum(2.0, DAU_REL_TOL * ex)))
    out = pa.table({"day": pa.array(m["day"].astype(str), pa.string()),
                    "dau": pa.array(np.nan_to_num(ex).astype(np.int64)),
                    "ok": pa.array(ok, pa.bool_())})
    return rd.from_arrow(out)


def distinct_terms_audit(sf_dir: str) -> rd.Dataset:
    """One row (n_terms, ok): exact distinct-term count over docs_aug
    (explode -> distinct -> count, all distributed) with ok = the global
    HLL estimate within ``DISTINCT_REL_TOL``."""
    from ..stages.dedup import distinct_rows
    from .docs import approx_distinct_terms, docs_aug_ds

    def explode(b: pa.Table) -> pa.Table:
        tk = pc.split_pattern(b["text"], " ")
        if isinstance(tk, pa.ChunkedArray):
            tk = tk.combine_chunks()
        return pa.table({"term": tk.values})

    terms = docs_aug_ds(sf_dir).map_batches(
        explode, batch_format="pyarrow", batch_size=None)
    n_exact = distinct_rows(terms, ["term"]).count()
    est = int(approx_distinct_terms(sf_dir).to_pandas()
              ["approx_terms"].iloc[0])
    ok = abs(est - n_exact) <= max(2, DISTINCT_REL_TOL * n_exact)
    return rd.from_arrow(pa.table({
        "n_terms": pa.array([n_exact], pa.int64()),
        "ok": pa.array([bool(ok)], pa.bool_())}))


def service_host_overlap_audit(sf_dir: str) -> rd.Dataset:
    """One row (n_even, n_odd, n_overlap, ok): exact even/odd-day
    distinct-host counts and their intersection (the oracle-proven
    ``service_host_overlap`` plan) with ok = all three HLL estimates
    within ``OVERLAP_REL_TOL`` of the union size (the inclusion-exclusion
    error scale)."""
    from ..stages.dedup import distinct_rows
    from .reports import (parsed, service_host_overlap,
                          service_host_overlap_approx)

    base = parsed(sf_dir)

    def parity(rem):
        def f(b: pa.Table) -> pa.Table:
            d = pc.day(b["datetime"])
            return b.filter(pc.equal(pc.bit_wise_and(d, 1), rem)) \
                .select(["host"])
        return f

    n_even = distinct_rows(
        base.map_batches(parity(0), batch_format="pyarrow",
                         batch_size=None), ["host"]).count()
    n_odd = distinct_rows(
        base.map_batches(parity(1), batch_format="pyarrow",
                         batch_size=None), ["host"]).count()
    n_overlap = service_host_overlap(sf_dir).count()
    est = service_host_overlap_approx(sf_dir).to_pandas().iloc[0]
    union = n_even + n_odd - n_overlap
    tol = max(10.0, OVERLAP_REL_TOL * union)
    ok = (abs(int(est["n_even_est"]) - n_even) <= tol
          and abs(int(est["n_odd_est"]) - n_odd) <= tol
          and abs(int(est["n_overlap_est"]) - n_overlap) <= tol)
    return rd.from_arrow(pa.table({
        "n_even": pa.array([n_even], pa.int64()),
        "n_odd": pa.array([n_odd], pa.int64()),
        "n_overlap": pa.array([n_overlap], pa.int64()),
        "ok": pa.array([bool(ok)], pa.bool_())}))


# ---------------------------------------------------------------------------
# Count-min family
# ---------------------------------------------------------------------------

JOIN_PROBE_MULT = 8.0     # inner product: err ~ Ne*Nc/W, min over 4 rows


def host_counts_cms_audit(sf_dir: str) -> rd.Dataset:
    """(host, cnt, ok): exact per-host counts (grouped count over the
    parsed stream) with ok = the CMS probe's contract per host:
    est >= cnt ALWAYS (the deterministic one-sided property), and
    overshoot <= c*N/W where c = (100*n_hosts)^(1/4).  The classic
    e/W*N bound only holds per host w.p. 1 - e^-D, so auditing ALL
    hosts needs the Markov tail at the corpus's key count:
    P(min-row err > c*N/W) <= c^-D, summed over n_hosts keys < 1 %
    at this c (empirically the worst observed overshoot across
    sf0.001-0.1 is ~half this bound)."""
    from ..stages.aggregate import grouped_count
    from ..stages.joins import lookup_join
    from ..stages.sketch import CMS_W
    from .relational import host_counts_cms
    from .reports import parsed

    exact = grouped_count(
        parsed(sf_dir).map_batches(lambda b: b.select(["host"]),
                                   batch_format="pyarrow",
                                   batch_size=None),
        ["host"], alias="cnt").materialize()
    n_stream = exact.sum("cnt") or 0
    n_hosts = exact.count()
    slack = max(1.0, (100.0 * max(n_hosts, 1)) ** 0.25
                * n_stream / CMS_W)
    est = host_counts_cms(sf_dir)
    j = lookup_join(exact, est, "host", "host", nparts=8, how="left")

    def check(b: pa.Table) -> pa.Table:
        cnt = b["cnt"].to_numpy(zero_copy_only=False).astype(np.float64)
        e = b["est_cnt"].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = np.isfinite(e) & (e >= cnt) & (e - cnt <= slack)
        return pa.table({"host": b["host"], "cnt": b["cnt"],
                         "ok": pa.array(ok, pa.bool_())})

    return j.map_batches(check, batch_format="pyarrow", batch_size=None)


def join_size_probe_audit(sf_dir: str) -> rd.Dataset:
    """One row (exact_join_rows, ok): exact |events JOIN customer| via the
    grouped-count + key-semi plan (never materializing the join), with
    ok = the CMS inner-product probe's one-sided contract (est >= exact,
    overshoot <= JOIN_PROBE_MULT * Ne*Nc/W — the expectation of the
    row-wise error, min-folded over the 4 sketch rows)."""
    from ..stages.aggregate import grouped_count
    from ..stages.joins import lookup_join
    from ..stages.sketch import CMS_W
    from .relational import events_customer_join_size_approx

    ev = read_table(sf_dir, "events", columns=["user_id"])
    cu = read_table(sf_dir, "customer", columns=["c_custkey"])
    n_e = ev.count()
    n_c = cu.count()
    evc = grouped_count(ev, ["user_id"], alias="ne")
    cuc = grouped_count(cu, ["c_custkey"], alias="nc")
    j = lookup_join(evc, cuc, "user_id", "c_custkey", nparts=8)

    def prod(b: pa.Table) -> pa.Table:
        p = (b["ne"].to_numpy(zero_copy_only=False)
             * b["nc"].to_numpy(zero_copy_only=False))
        return pa.table({"p": pa.array(p, pa.int64())})

    exact = j.map_batches(prod, batch_format="pyarrow",
                          batch_size=None).sum("p") or 0
    est = int(events_customer_join_size_approx(sf_dir).to_pandas()
              ["est_join_rows"].iloc[0])
    slack = max(1.0, JOIN_PROBE_MULT * n_e * n_c / CMS_W)
    ok = est >= exact and (est - exact) <= slack
    return rd.from_arrow(pa.table({
        "exact_join_rows": pa.array([exact], pa.int64()),
        "ok": pa.array([bool(ok)], pa.bool_())}))


# ---------------------------------------------------------------------------
# Quantile-grid family
# ---------------------------------------------------------------------------

# The grid's contract is RANK error, not value error (value-space bounds
# are meaningless on stepped discrete domains): ~1/512 from the grid
# itself plus the merge interpolation across block summaries.  Empirical
# worst case across sf0.001-0.1 is 0.029 on the token-count domain (few
# distinct small ints — the hardest case); bounds set with ~2x headroom.
DOC_QTILE_RANK_EPS = 0.05    # discrete small-int token counts
QTILE_RANK_EPS = 0.03        # continuous event values (keyed grid)


def doc_length_quantiles_audit(sf_dir: str) -> rd.Dataset:
    """(q, n_tokens, ok): exact token-count quantiles (the oracle-proven
    ``doc_length_quantiles`` plan) with ok = the mergeable quantile-grid
    estimate's RANK sitting within ``DOC_QTILE_RANK_EPS`` of q — the
    sketch's actual guarantee.  Rank counts run distributed (the 4
    estimates broadcast, every block folds (count<v, count<=v, n))."""
    from ray.data.aggregate import Sum

    from .docs import (doc_length_quantiles, doc_length_quantiles_approx,
                       docs_aug_ds)
    exact = doc_length_quantiles(sf_dir).to_pandas()   # 4 rows
    approx = doc_length_quantiles_approx(sf_dir).to_pandas()
    probes = list(zip(approx["q"].to_numpy(),
                      approx["n_tokens_approx"].to_numpy()))
    ref = ray.put(probes)

    def partial(b: pa.Table) -> pa.Table:
        nt = pc.add(pc.count_substring(b["text"], " "), 1) \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        pr = ray.get(ref)
        qs_, lt, le, n = [], [], [], []
        for q, v in pr:
            qs_.append(float(q))
            lt.append(int((nt < v).sum()))
            le.append(int((nt <= v).sum()))
            n.append(len(nt))
        return pa.table({"q": pa.array(qs_, pa.float64()),
                         "lt": pa.array(lt, pa.int64()),
                         "le": pa.array(le, pa.int64()),
                         "n": pa.array(n, pa.int64())})

    fold = docs_aug_ds(sf_dir).map_batches(
        partial, batch_format="pyarrow", batch_size=None) \
        .groupby("q").aggregate(Sum("lt", alias_name="lt"),
                                Sum("le", alias_name="le"),
                                Sum("n", alias_name="n")).to_pandas()
    fold = exact.merge(fold, on="q", how="outer")
    lt = fold["lt"].to_numpy(dtype=np.float64)
    le = fold["le"].to_numpy(dtype=np.float64)
    n = fold["n"].to_numpy(dtype=np.float64)
    q = fold["q"].to_numpy()
    ok = ((le >= (q - DOC_QTILE_RANK_EPS) * n)
          & (lt <= (q + DOC_QTILE_RANK_EPS) * n))
    return rd.from_arrow(pa.table({
        "q": pa.array(q, pa.float64()),
        "n_tokens": pa.array(
            fold["n_tokens"].to_numpy().astype(np.int64)),
        "ok": pa.array(ok, pa.bool_())}))


def events_value_quantiles_audit(sf_dir: str) -> rd.Dataset:
    """(event_type, q, ok): RANK audit of the keyed quantile-grid sketch —
    for every (type, q) estimate v, the exact rank of v within that type
    must sit inside [q - eps, q + eps] (the grid's rank-error contract;
    value-space bounds are meaningless for unbounded domains).  The rank
    counts run distributed: the 15 (type, v) probes broadcast once and
    every block folds partial (count < v, count <= v, n) triples."""
    from ray.data.aggregate import Sum

    from .relational import events_value_quantiles_by_type

    est = events_value_quantiles_by_type(sf_dir).to_pandas()
    ev = read_table(sf_dir, "events", columns=["event_type", "value"])
    probes = {}          # type -> (qs, vals)
    for t, g in est.groupby("event_type"):
        probes[t] = (g["q"].to_numpy(), g["value_approx"].to_numpy())
    ref = ray.put(probes)

    def partial(b: pa.Table) -> pa.Table:
        pr = ray.get(ref)
        ts, qs_, lt, le, n = [], [], [], [], []
        t_arr = b["event_type"].to_numpy(zero_copy_only=False)
        v_arr = b["value"].to_numpy(zero_copy_only=False)
        for t, (qs2, vals) in pr.items():
            mask = t_arr == t
            sub = v_arr[mask]
            for q, v in zip(qs2, vals):
                ts.append(t)
                qs_.append(float(q))
                lt.append(int((sub < v).sum()))
                le.append(int((sub <= v).sum()))
                n.append(int(mask.sum()))
        return pa.table({"event_type": pa.array(ts, pa.string()),
                         "q": pa.array(qs_, pa.float64()),
                         "lt": pa.array(lt, pa.int64()),
                         "le": pa.array(le, pa.int64()),
                         "n": pa.array(n, pa.int64())})

    fold = ev.map_batches(partial, batch_format="pyarrow",
                          batch_size=None) \
        .groupby(["event_type", "q"]) \
        .aggregate(Sum("lt", alias_name="lt"), Sum("le", alias_name="le"),
                   Sum("n", alias_name="n")).to_pandas()
    lt = fold["lt"].to_numpy(dtype=np.float64)
    le = fold["le"].to_numpy(dtype=np.float64)
    n = fold["n"].to_numpy(dtype=np.float64)
    q = fold["q"].to_numpy()
    ok = (le >= (q - QTILE_RANK_EPS) * n) & (lt <= (q + QTILE_RANK_EPS) * n)
    return rd.from_arrow(pa.table({
        "event_type": pa.array(fold["event_type"].astype(str)),
        "q": pa.array(q, pa.float64()),
        "ok": pa.array(ok, pa.bool_())})).sort(["event_type", "q"])


# ---------------------------------------------------------------------------
# Misra-Gries family
# ---------------------------------------------------------------------------

MG_K = 16


def source_top_terms_audit(sf_dir: str, k: int = MG_K) -> rd.Dataset:
    """(source, ok): the per-group Misra-Gries CONTRACT per source —
    every term with true in-group frequency > n_g/(k+1) appears in the
    summary, and every reported lb_count lower-bounds the true count.
    True (source, term) counts run distributed (explode + grouped count,
    one exchange); the MG output is summary-sized and broadcasts."""
    from ..pipelines.streaming import _by_key_blocks
    from ..stages.aggregate import grouped_count
    from .docs import source_top_terms_approx

    mg = source_top_terms_approx(sf_dir, k=k).to_pandas()
    mg_map: dict = {}
    for s, t, lb in zip(mg["source"], mg["item"], mg["lb_count"]):
        mg_map.setdefault(s, {})[t] = int(lb)
    ref = ray.put(mg_map)

    base = read_table(sf_dir, "documents", columns=["source", "text"])

    def explode(b: pa.Table) -> pa.Table:
        tk = pc.split_pattern(b["text"], " ")
        if isinstance(tk, pa.ChunkedArray):
            tk = tk.combine_chunks()
        n = np.diff(np.asarray(tk.offsets))
        src = b["source"].to_numpy(zero_copy_only=False)
        return pa.table({"source": pa.array(np.repeat(src, n)),
                         "term": tk.values})

    counts = grouped_count(
        base.map_batches(explode, batch_format="pyarrow",
                         batch_size=None),
        ["source", "term"], alias="c")

    def check(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"source": pa.array([], pa.string()),
                             "ok": pa.array([], pa.bool_())})
        mgm = ray.get(ref)
        df = b.to_pandas()
        srcs, oks = [], []
        for s, g in df.groupby("source", sort=False):
            have = mgm.get(s, {})
            n_g = int(g["c"].sum())
            truth = dict(zip(g["term"], g["c"]))
            must = g.loc[g["c"].to_numpy() > n_g / (k + 1), "term"]
            ok = all(t in have for t in must) and \
                all(lb <= truth.get(t, 0) for t, lb in have.items())
            srcs.append(s)
            oks.append(bool(ok))
        return pa.table({"source": pa.array(srcs, pa.string()),
                         "ok": pa.array(oks, pa.bool_())})

    return _by_key_blocks(counts, ["source"]).map_batches(
        check, batch_format="pyarrow", batch_size=None).sort("source")


# ---------------------------------------------------------------------------
# ANN family — recall vs the brute-force subset
# ---------------------------------------------------------------------------

IVF_RECALL_MIN = 0.6          # pytest threshold (nprobe=4 of 16 lists)
PQ_RECALL_MIN = 0.6           # pytest threshold (PQ re-rank overfetch)


def _recall_vs_brute(sf_dir: str, approx_ds: rd.Dataset,
                     threshold: float) -> rd.Dataset:
    """One row (n_queries, ok): recall of an approximate top-k result set
    against the brute-force cosine top-k (``ann_topk``) over the same
    queries; ok = recall >= threshold.  Both result sets are queries x k
    rows (driver-sized by construction)."""
    from .ann import N_QUERIES, ann_topk
    brute = ann_topk(sf_dir).to_pandas()
    got = approx_ds.to_pandas()
    b = set(zip(brute["query_id"], brute["neighbor_id"]))
    g = set(zip(got["query_id"], got["neighbor_id"]))
    recall = len(b & g) / max(len(b), 1)
    n_queries = int(brute["query_id"].nunique())
    return rd.from_arrow(pa.table({
        "n_queries": pa.array([n_queries], pa.int64()),
        "ok": pa.array([bool(recall >= threshold)], pa.bool_())}))


def ann_ivf_recall_audit(sf_dir: str) -> rd.Dataset:
    from .ann import ann_ivf_topk
    return _recall_vs_brute(sf_dir, ann_ivf_topk(sf_dir), IVF_RECALL_MIN)


def ann_pq_recall_audit(sf_dir: str) -> rd.Dataset:
    from .ann import ann_pq_topk
    return _recall_vs_brute(sf_dir, ann_pq_topk(sf_dir), PQ_RECALL_MIN)


def ann_index_recall_audit(sf_dir: str) -> rd.Dataset:
    from .ann import ann_index_topk
    return _recall_vs_brute(sf_dir, ann_index_topk(sf_dir),
                            IVF_RECALL_MIN)


def ann_index_append_recall_audit(sf_dir: str) -> rd.Dataset:
    from .ann import ann_index_append_topk
    return _recall_vs_brute(sf_dir, ann_index_append_topk(sf_dir),
                            IVF_RECALL_MIN)
