"""Property tests for the non-SQL-expressible ops: MinHash-LSH recall vs the
exact Jaccard pairs, SimHash near-dup properties, IVF recall vs brute-force,
stub media decode determinism."""

from __future__ import annotations

import numpy as np
import pytest

from security_log_analysis_rust_ray.pipelines import ann as A
from security_log_analysis_rust_ray.pipelines import docs as D
from security_log_analysis_rust_ray.pipelines import media as M
from .conftest import SF_SMOKE


@pytest.mark.usefixtures("ray_session")
def test_minhash_vs_exact_jaccard():
    exact = D.doc_ngram_jaccard_pairs(SF_SMOKE).to_pandas()
    mh = D.minhash_pairs(SF_SMOKE).to_pandas()
    ex = set(zip(exact["a"], exact["b"]))
    got = set(zip(mh["a"], mh["b"]))
    assert ex, "exact pair set must be non-empty (aug corpus has dups)"
    # verification step guarantees precision 1.0 (every emitted pair is a
    # true >=threshold pair)
    assert got <= ex
    # 16x8 banding at j>=0.6: per-pair detection prob >= 1-(1-0.6^8)^16 ~ 0.24
    # but our dup pairs have j ~ 0.9+ -> expect high recall
    recall = len(ex & got) / len(ex)
    assert recall >= 0.9, f"LSH recall too low: {recall}"


@pytest.mark.usefixtures("ray_session")
def test_simhash_properties():
    df = D.simhash64(SF_SMOKE).to_pandas().set_index("doc_id")["simhash"]
    # exact duplicates (doc_id+1e6) hash identically
    base_ids = [i for i in df.index if i < 1_000_000 and i % 10 == 0]
    assert base_ids
    for i in base_ids:
        assert df[i] == df[i + 1_000_000]
    # near duplicates (doc_id+2e6) are Hamming-close
    near_ids = [i for i in df.index if i < 1_000_000 and i % 7 == 0]
    dists = []
    for i in near_ids:
        x = np.uint64(df[i]) ^ np.uint64(df[i + 2_000_000])
        dists.append(bin(int(x)).count("1"))
    assert np.mean(dists) < 12, f"near-dup mean hamming {np.mean(dists)}"


@pytest.mark.usefixtures("ray_session")
def test_ivf_recall_vs_bruteforce():
    bf = A.ann_topk(SF_SMOKE).to_pandas()
    iv = A.ann_ivf_topk(SF_SMOKE, nprobe=8).to_pandas()
    b = set(zip(bf["query_id"], bf["neighbor_id"]))
    i = set(zip(iv["query_id"], iv["neighbor_id"]))
    recall = len(b & i) / len(b)
    assert recall >= 0.6, f"IVF recall {recall}"
    # self-neighbor always found
    for q in bf["query_id"].unique():
        assert (q, q) in i


@pytest.mark.usefixtures("ray_session")
def test_pq_recall_vs_bruteforce():
    """PQ ADC scan + exact re-rank: high overlap with brute force, exact
    cos_sim values on the overlap (re-rank computes REAL cosine), and the
    self-neighbor always survives quantization."""
    bf = A.ann_topk(SF_SMOKE).to_pandas()
    pq_ = A.ann_pq_topk(SF_SMOKE).to_pandas()
    b = set(zip(bf["query_id"], bf["neighbor_id"]))
    p = set(zip(pq_["query_id"], pq_["neighbor_id"]))
    recall = len(b & p) / len(b)
    assert recall >= 0.7, f"PQ recall {recall}"
    merged = bf.merge(pq_, on=["query_id", "neighbor_id"],
                      suffixes=("_bf", "_pq"))
    assert (merged["cos_sim_bf"] == merged["cos_sim_pq"]).all()
    for q in bf["query_id"].unique():
        assert (q, q) in p


@pytest.mark.usefixtures("ray_session")
def test_media_features_real_ppm_decode():
    a = M.media_features(SF_SMOKE).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    b = M.media_features(SF_SMOKE).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    assert (a["checksum"].values == b["checksum"].values).all()
    # genuine decode: dims match the per-doc formula, the 8-bin histogram
    # accounts for every pixel, and the checksum matches a local re-decode
    ids = a["doc_id"].to_numpy()
    assert (a["width"].to_numpy()
            == M.PPM_W_BASE + (ids % M.PPM_W_MOD) * M.PPM_W_STEP).all()
    assert (a["height"] == M.PPM_H).all()
    bins = a[[f"b{j}" for j in range(M.FEATURE_BINS)]].to_numpy().sum(axis=1)
    assert (bins == a["width"].to_numpy() * M.PPM_H).all()
    import numpy as np
    d = int(ids[0])
    w = M.PPM_W_BASE + (d % M.PPM_W_MOD) * M.PPM_W_STEP
    px = (d * 31 + np.arange(w)[None, :] * 7
          + np.arange(M.PPM_H)[:, None] * 13) % 256
    assert int(a["checksum"].iloc[0]) == int(px.sum())


@pytest.mark.usefixtures("ray_session")
def test_ppm_y4m_codec_roundtrip():
    import numpy as np
    from security_log_analysis_rust_ray.functions import ppm, y4m
    img = (np.arange(15 * 7, dtype=np.uint8).reshape(7, 15) * 3) % 256
    assert (ppm.decode(ppm.encode_gray(img)) == img).all()
    # header with a comment parses per netpbm spec
    pl = ppm.encode_gray(img)
    commented = b"P6\n# made by a test\n15 7\n255\n" + pl.split(b"\n", 3)[3]
    assert (ppm.decode(commented) == img).all()
    cube = (np.arange(3 * 8 * 16, dtype=np.uint8).reshape(3, 8, 16) * 5) % 256
    assert (y4m.decode(y4m.encode_gray(cube)) == cube).all()
    for bad in (b"P5 1 1 255 x", b"YUV4MPEG2 W4 H4 C444\nFRAME\n"):
        try:
            ppm.decode(bad) if bad[:1] == b"P" else y4m.decode(bad)
            raise AssertionError("expected ValueError")
        except ValueError:
            pass


@pytest.mark.usefixtures("ray_session")
def test_exact_dedup_removes_known_dups():
    aug = D.docs_aug_ds(SF_SMOKE).count()
    ded = D.doc_exact_dedup(SF_SMOKE).to_pandas()
    n_exact_dups = len([1 for i in ded["doc_id"] if 0 <= i < 1_000_000 and i % 10 == 0])
    assert len(ded) == aug - n_exact_dups
    # survivors are the MINIMUM doc_id of each duplicate class
    assert not any(i >= 1_000_000 and i < 2_000_000 for i in ded["doc_id"])


@pytest.mark.usefixtures("ray_session")
def test_media_resize_and_frames():
    import numpy as np
    th = M.media_thumbnails(SF_SMOKE).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    ids = th["doc_id"].to_numpy()
    assert (th["thumb_w"].to_numpy()
            == M.PPM_W_BASE // 2 + ids % M.PPM_W_MOD).all()
    assert (th["thumb_h"] == M.PPM_H // 2).all()
    # exact 2x2 box mean of the formula pixels for one doc
    d = int(ids[0])
    w = M.PPM_W_BASE + (d % M.PPM_W_MOD) * M.PPM_W_STEP
    px = (d * 31 + np.arange(w)[None, :] * 7
          + np.arange(M.PPM_H)[:, None] * 13) % 256
    small = px.reshape(M.PPM_H // 2, 2, w // 2, 2).sum(axis=(1, 3)) // 4
    assert int(th["thumb_checksum"].iloc[0]) == int(small.sum())
    fr = M.media_frames(SF_SMOKE).to_pandas()
    assert set(fr["frame_idx"].unique()) == set(range(M.FRAME_K))
    assert len(fr) == M.FRAME_K * th.shape[0]
    # sampled frame luma matches the formula for one (doc, frame)
    r = fr.sort_values(["doc_id", "frame_idx"]).iloc[0]
    d, t = int(r["doc_id"]), int(r["src_frame"])
    lum = (d * 31 + t * 17 + np.arange(M.Y4M_W)[None, :] * 7
           + np.arange(M.Y4M_H)[:, None] * 13) % 256
    assert int(r["luma_sum"]) == int(lum.sum())


@pytest.mark.usefixtures("ray_session")
def test_doc_pack_invariants():
    bins = D.doc_pack(SF_SMOKE).to_pandas()
    stats = D.doc_token_stats(SF_SMOKE).to_pandas().set_index("doc_id")
    # every doc packed exactly once
    packed = [d for row in bins["doc_ids"] for d in row]
    assert sorted(packed) == sorted(stats.index.tolist())
    # no bin over budget unless it is a single oversized doc
    over = bins[bins["total_tokens"] > D.PACK_BUDGET]
    assert (over["n_docs"] == 1).all()
    # recorded totals match per-doc token counts
    for row in bins.itertuples():
        assert row.total_tokens == stats.loc[list(row.doc_ids), "n_tokens"].sum()
    # bins are usefully full (greedy: average fill > 50% of budget)
    multi = bins[bins["n_docs"] > 1]
    assert multi["total_tokens"].mean() > D.PACK_BUDGET * 0.5


@pytest.mark.usefixtures("ray_session")
def test_winnow_fingerprints_properties():
    """Winnowing (MOSS): exact duplicates share ALL fingerprints; near
    duplicates (5 appended tokens) share most; unrelated docs share few."""
    df = D.doc_winnow_fingerprints(SF_SMOKE).to_pandas()
    sets = {d: set(g["fp"]) for d, g in df.groupby("doc_id")}
    base = [i for i in sets if i < 1_000_000 and i % 10 == 0
            and i + 1_000_000 in sets]
    assert base
    for i in base[:20]:
        assert sets[i] == sets[i + 1_000_000]          # exact dup: identical
    near = [i for i in sets if i < 1_000_000 and i % 7 == 0
            and i + 2_000_000 in sets]
    overlaps = []
    for i in near:
        a, b = sets[i], sets[i + 2_000_000]
        overlaps.append(len(a & b) / max(1, len(a | b)))
    assert np.mean(overlaps) > 0.6, f"near-dup winnow overlap {np.mean(overlaps)}"


@pytest.mark.usefixtures("ray_session")
def test_incremental_dedup_vs_duckdb():
    """Snapshot dedup (new-vs-prior anti-join on content) against the
    NOT EXISTS oracle, on both anti_join paths (broadcast + shuffled)."""
    import duckdb
    import os
    exp = None
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF_SMOKE}/documents.parquet')")
    import __ray_entry__ as mod
    exp = con.execute(mod.oracle_sql()["doc_incremental_dedup"]).df() \
        .sort_values(["doc_id"]).reset_index(drop=True)
    for budget in (None, "0"):
        if budget is None:
            os.environ.pop("SLAR_BROADCAST_MAX_BYTES", None)
        else:
            os.environ["SLAR_BROADCAST_MAX_BYTES"] = budget
        try:
            from security_log_analysis_rust_ray import config as C
            C.set_config(None)
            got = D.doc_incremental_dedup(SF_SMOKE).to_pandas() \
                .sort_values(["doc_id"]).reset_index(drop=True)
            assert got["doc_id"].tolist() == exp["doc_id"].tolist()
            assert got["text"].tolist() == exp["text"].tolist()
        finally:
            os.environ.pop("SLAR_BROADCAST_MAX_BYTES", None)
            from security_log_analysis_rust_ray import config as C
            C.set_config(None)


@pytest.mark.usefixtures("ray_session")
def test_length_quantiles_exact_vs_duckdb():
    import duckdb
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF_SMOKE}/documents.parquet')")
    import __ray_entry__ as mod
    exp = con.execute(mod.oracle_sql()["doc_length_quantiles"]).df() \
        .sort_values("q").reset_index(drop=True)
    got = D.doc_length_quantiles(SF_SMOKE).to_pandas() \
        .sort_values("q").reset_index(drop=True)
    assert got["q"].tolist() == exp["q"].tolist()
    assert got["n_tokens"].tolist() == exp["n_tokens"].tolist()


@pytest.mark.usefixtures("ray_session")
def test_incremental_near_dedup_invariants():
    """Nightly-crawl near-dedup: precision via exact python Jaccard on
    every verified match; exact dups always dropped; survivors+dropped
    partition the new set."""
    sd = SF_SMOKE
    matches = D._incremental_near_matches(sd).to_pandas()
    assert (matches["a"] >= 1_000_000).all()   # a = new side
    assert (matches["b"] < 1_000_000).all()    # b = prior side

    docs = D.docs_aug_ds(sd).to_pandas().set_index("doc_id")["text"]

    def shingles(t):
        tk = t.split(" ")
        return {" ".join(tk[i:i + D.NGRAM])
                for i in range(max(len(tk) - D.NGRAM + 1, 0))}

    for r in matches.itertuples():           # precision 1.0
        sa, sb = shingles(docs[r.a]), shingles(docs[r.b])
        j = len(sa & sb) / len(sa | sb)
        assert j >= D.JACCARD_THRESHOLD
        assert abs(j - r.jaccard) < 1e-6  # engine rounds to 6 dp

    surv = D.doc_incremental_near_dedup(sd).to_pandas()
    new_ids = set(docs.index[docs.index >= 1_000_000])
    assert set(surv["doc_id"]) == new_ids - set(matches["a"])
    # exact duplicates (jaccard 1.0, ids in [1e6, 2e6)) must all be caught
    exact_new = {i for i in new_ids if i < 2_000_000}
    assert exact_new <= set(matches["a"])


@pytest.mark.usefixtures("ray_session")
def test_simhash_pairs_vs_bruteforce():
    # banding guarantees recall 1.0 at hamming <= 3 (pigeonhole over 4
    # bands) and the verify stage guarantees precision 1.0 -> the output
    # must EQUAL the brute-force all-pairs Hamming scan
    sig = D.simhash64(SF_SMOKE).to_pandas().sort_values("doc_id")
    ids = sig["doc_id"].to_numpy()
    sh = sig["simhash"].to_numpy().view(np.uint64)
    x = sh[:, None] ^ sh[None, :]
    dist = D._popcount64(x.ravel()).reshape(x.shape)
    iu, ju = np.triu_indices(len(ids), k=1)
    keep = dist[iu, ju] <= D.SIMHASH_MAX_HAMMING
    expect = set(zip(ids[iu[keep]].tolist(), ids[ju[keep]].tolist()))
    got = D.simhash_near_dup_pairs(SF_SMOKE).to_pandas()
    got_pairs = set(zip(got["a"].tolist(), got["b"].tolist()))
    assert expect, "aug corpus must contain hamming-close signature pairs"
    assert got_pairs == expect
    # emitted hamming values are the true distances
    lut = {(int(a), int(b)): int(dist[np.searchsorted(ids, a),
                                      np.searchsorted(ids, b)])
           for a, b in got_pairs}
    for _, r in got.iterrows():
        assert int(r["hamming"]) == lut[(int(r["a"]), int(r["b"]))]


@pytest.mark.usefixtures("ray_session")
def test_doc_lang_id_profiles(tmp_path):
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    texts = {
        1: "the cat is on a mat of and to",        # en
        2: "der hund und die katze das ist",       # de
        3: "le chat et les chiens des maisons",    # fr
        4: "el perro y los gatos las casas es",    # es
        5: "zzz qqq www",                          # no marker -> und
        6: "der el",                               # tie -> profile order: de
    }
    pq.write_table(pa.table({
        "doc_id": pa.array(list(texts), pa.int64()),
        "text": pa.array(list(texts.values()), pa.string()),
    }), str(tmp_path / "documents.parquet"))
    out = D.doc_lang_id(str(tmp_path)).to_pandas().set_index("doc_id")
    assert out.loc[1, "lang"] == "en"
    assert out.loc[2, "lang"] == "de"
    assert out.loc[3, "lang"] == "fr"
    assert out.loc[4, "lang"] == "es"
    assert out.loc[5, "lang"] == "und" and out.loc[5, "score"] == 0
    assert out.loc[6, "lang"] == "de" and out.loc[6, "score"] == 1
    assert out.loc[1, "score"] == 6  # the, is, a, of, and, to


def test_ann_partial_topk_keeps_boundary_ties():
    """The per-block partial top-k must include every tie at the boundary
    so the deterministic (sim desc, id asc) final reduce — and the exact
    SQL oracle — never lose a tied neighbor to argpartition's arbitrary
    pick (r03 review)."""
    import numpy as np

    from security_log_analysis_rust_ray.pipelines.ann import _topk_tie_idx

    sims = np.array([0.9, 0.5, 0.5, 0.5, 0.1])
    idx = set(_topk_tie_idx(sims, 2).tolist())
    assert idx == {0, 1, 2, 3}          # all three 0.5 ties kept
    assert set(_topk_tie_idx(sims, 5).tolist()) == {0, 1, 2, 3, 4}
    assert set(_topk_tie_idx(sims, 9).tolist()) == {0, 1, 2, 3, 4}


@pytest.mark.usefixtures("ray_session")
def test_doc_repetition_stats_handcrafted(tmp_path):
    """Hand-computed Gopher-style repetition signals: a degenerate
    one-word doc, a fully unique doc, and a doc with one repeated
    2-gram and one repeated 5-gram."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    texts = {
        # "a a a a a a": 5 2-grams all "a a" -> top2 = 1.0;
        # 2 5-grams, both "a a a a a" -> dup5 = 1.0
        1: "a a a a a a",
        # all tokens unique: top2 = 1/7, dup5 = 0
        2: "t1 t2 t3 t4 t5 t6 t7 t8",
        # single token: no 2-grams or 5-grams at all -> 0s, not NaN
        3: "solo",
        # "x y" appears twice among 7 2-grams; no 5-gram repeats
        4: "x y z w v x y q",
    }
    pq.write_table(pa.table({
        "doc_id": pa.array(list(texts), pa.int64()),
        "text": pa.array(list(texts.values()), pa.string()),
    }), str(tmp_path / "documents.parquet"))
    out = D.doc_repetition_stats(str(tmp_path)).to_pandas() \
        .set_index("doc_id").sort_index()
    # docs_aug adds +1M/+2M rows for doc_id%10==0 / %7==0; none here apply
    # except doc_id 7? (none) — ids 1..4 only, %7==0 and %10==0 never hit
    assert set(out.index) == {1, 2, 3, 4}
    assert out.loc[1, "top_2gram_frac"] == 1.0
    assert out.loc[1, "dup_5gram_frac"] == 1.0
    assert bool(out.loc[1, "is_repetitive"])
    assert out.loc[2, "max_2gram_cnt"] == 1
    assert out.loc[2, "top_2gram_frac"] == round(1 / 7, 6)
    assert out.loc[2, "dup_5gram_frac"] == 0.0
    assert out.loc[3, "n_tokens"] == 1
    assert out.loc[3, "max_2gram_cnt"] == 0
    assert out.loc[3, "top_2gram_frac"] == 0.0
    assert not bool(out.loc[3, "is_repetitive"])
    assert out.loc[4, "max_2gram_cnt"] == 2
    assert out.loc[4, "top_2gram_frac"] == round(2 / 7, 6)
    assert out.loc[4, "dup_5gram_frac"] == 0.0
    assert bool(out.loc[4, "is_repetitive"])  # top2 2/7 > 0.04


@pytest.mark.usefixtures("ray_session")
def test_doc_chunk_dup_stats_handcrafted(tmp_path):
    """Chunk coverage edges: docs sharing an 8-token chunk, a short doc
    with no full chunk (excluded), and trailing partial windows dropped."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    shared = "s1 s2 s3 s4 s5 s6 s7 s8"
    texts = {
        1: shared + " u1 u2 u3 u4 u5 u6 u7 u8",   # 2 chunks, 1 shared
        2: shared + " tail",                       # 1 chunk + dropped tail
        3: "short doc",                            # no full chunk: excluded
        4: "w1 w2 w3 w4 w5 w6 w7 w8 w9",           # 1 chunk, unique
    }
    pq.write_table(pa.table({
        "doc_id": pa.array(list(texts), pa.int64()),
        "text": pa.array(list(texts.values()), pa.string()),
    }), str(tmp_path / "documents.parquet"))
    out = D.doc_chunk_dup_stats(str(tmp_path)).to_pandas() \
        .set_index("doc_id").sort_index()
    assert set(out.index) == {1, 2, 4}
    assert out.loc[1, "n_chunks"] == 2
    assert out.loc[1, "n_dup_chunks"] == 1
    assert out.loc[1, "dup_chunk_frac"] == 0.5
    assert out.loc[2, "n_chunks"] == 1      # "tail" partial window dropped
    assert out.loc[2, "n_dup_chunks"] == 1
    assert out.loc[2, "dup_chunk_frac"] == 1.0
    assert out.loc[4, "n_chunks"] == 1      # "w9" dropped
    assert out.loc[4, "n_dup_chunks"] == 0
    assert out.loc[4, "dup_chunk_frac"] == 0.0


def test_cdc_insertion_resistance():
    """The reason CDC exists: after inserting one token near the head of
    a doc, content-defined boundaries realign at the next boundary token,
    so most chunks still match; fixed windows shift and lose almost all
    of them.  (Boundary rule: first byte % 4 == 0 — 'the', 'data', 'line',
    'part', 'hash' start chunks; see CDC_MOD.)"""
    import pyarrow as pa

    base_tokens = ("key agg row the scan slow fast part value merge batch "
                   "data window sort big line query join group hash small "
                   "table filter part stream value column the merge scan "
                   "row data sort join").split()
    edited = base_tokens[:2] + ["inserted"] + base_tokens[2:]

    def cdc_chunks(tokens):
        t = pa.table({"doc_id": pa.array([1], pa.int64()),
                      "text": pa.array([" ".join(tokens)])})
        return list(D._cdc_chunks_batch(t)["ch"].to_pylist())

    def fixed_chunks(tokens):
        t = pa.table({"doc_id": pa.array([1], pa.int64()),
                      "text": pa.array([" ".join(tokens)])})
        return list(D._chunk_instances_batch(t)["ch"].to_pylist())

    ca, cb = cdc_chunks(base_tokens), cdc_chunks(edited)
    fa, fb = fixed_chunks(base_tokens), fixed_chunks(edited)
    cdc_shared = len(set(ca) & set(cb)) / max(len(set(ca)), 1)
    fixed_shared = len(set(fa) & set(fb)) / max(len(set(fa)), 1)
    assert cdc_shared >= 0.6, (cdc_shared, ca, cb)
    assert cdc_shared > fixed_shared, (cdc_shared, fixed_shared)
    # chunk streams reconstruct the doc minus dropped short chunks:
    # every chunk is a contiguous token run of the source
    joined = " ".join(base_tokens)
    for ch in ca:
        assert ch in joined


@pytest.mark.usefixtures("ray_session")
def test_chunk_dup_universal_hot_chunk(tmp_path):
    """Adversarial skew: EVERY doc shares one identical 8-token chunk, so
    a single chunk group holds the whole corpus.  Unlike pair expansion
    (k^2), the chunk-dup block kernel is linear per group (group_by +
    is_in + partial sums), so this must complete and score every doc."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    n = 2000
    shared = "h1 h2 h3 h4 h5 h6 h7 h8"
    texts = [shared + f" u{i}a u{i}b u{i}c u{i}d u{i}e u{i}f u{i}g u{i}h"
             for i in range(n)]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(1, n + 1), pa.int64()),
        "text": pa.array(texts),
    }), str(tmp_path / "documents.parquet"))
    out = D.doc_chunk_dup_stats(str(tmp_path)).to_pandas()
    base = out[out["doc_id"] <= n]
    assert len(base) == n
    assert (base["n_chunks"] == 2).all()
    # the shared head chunk is a cross-doc dup for every doc; the unique
    # tail chunk is not (except docs also duplicated by the aug rows)
    assert (base["n_dup_chunks"] >= 1).all()
    assert (base["dup_chunk_frac"] >= 0.5).all()


@pytest.mark.usefixtures("ray_session")
def test_length_bucketed_pack_invariants():
    """Bucketed packing contract: every doc packed exactly once, bins
    never mix buckets, multi-doc bins stay within budget, and bucket ids
    reflect the quantile boundaries (monotone in doc length)."""
    bins = D.doc_length_bucketed_pack(SF_SMOKE).to_pandas()
    toks = D.doc_token_stats(SF_SMOKE).to_pandas() \
        .set_index("doc_id")["n_tokens"]
    packed = [d for row in bins["doc_ids"] for d in row]
    assert sorted(packed) == sorted(toks.index)          # coverage, once
    assert (bins["n_docs"] >= 1).all()
    over = bins[(bins["total_tokens"] > D.PACK_BUDGET) & (bins["n_docs"] > 1)]
    assert len(over) == 0
    # same-bucket purity + totals consistency
    qs = D.doc_length_quantiles(SF_SMOKE).to_pandas()
    bounds = sorted(int(v) for v in qs["n_tokens"])
    import numpy as np
    for row in bins.itertuples(index=False):
        lens = toks.loc[list(row.doc_ids)]
        assert int(lens.sum()) == row.total_tokens
        buckets = set(np.searchsorted(np.asarray(bounds), lens.to_numpy(),
                                      side="left"))
        assert buckets == {row.bucket}


@pytest.mark.usefixtures("ray_session")
def test_split_assign_proportions():
    out = D.doc_split_assign(SF_SMOKE).to_pandas()
    frac = out["split"].value_counts(normalize=True)
    assert 0.7 < frac.get("train", 0) < 0.9
    assert 0.05 < frac.get("val", 0) < 0.15
    assert 0.05 < frac.get("test", 0) < 0.15
    # deterministic: same ids -> same split on rerun
    out2 = D.doc_split_assign(SF_SMOKE).to_pandas()
    assert out.sort_values("doc_id").reset_index(drop=True) \
        .equals(out2.sort_values("doc_id").reset_index(drop=True))


@pytest.mark.usefixtures("ray_session")
def test_dup_weights_soft_dedup():
    """Soft-dedup contract: every doc weighted once; cluster members share
    weight 1/|cluster| (so each near-dup cluster contributes ~1.0 total
    sampling mass); unclustered docs keep weight 1.0."""
    w = D.doc_dup_weights(SF_SMOKE).to_pandas().set_index("doc_id")["weight"]
    clusters = D.dup_clusters(SF_SMOKE).to_pandas()
    docs = D.docs_aug_ds(SF_SMOKE).to_pandas()
    assert sorted(w.index) == sorted(docs["doc_id"])
    assert ((w > 0) & (w <= 1.0)).all()
    sizes = clusters.groupby("cluster")["doc_id"].count()
    for cluster, members in clusters.groupby("cluster")["doc_id"]:
        expect = round(1.0 / sizes[cluster], 6)
        assert (w.loc[members] == expect).all()
    unclustered = set(docs["doc_id"]) - set(clusters["doc_id"])
    assert unclustered and (w.loc[list(unclustered)] == 1.0).all()


@pytest.mark.usefixtures("ray_session")
def test_epoch_shuffle_determinism_and_permutation():
    """Epoch shuffle contract: output is a globally key-sorted permutation
    of the corpus; identical across reruns of the same epoch; a different
    epoch yields a different order; shard is the range partition of the
    key so shard ids are non-decreasing along the sorted stream."""
    e0 = D.doc_epoch_shuffle(SF_SMOKE, epoch=0).to_pandas()
    docs = D.docs_aug_ds(SF_SMOKE).to_pandas()
    assert sorted(e0["doc_id"]) == sorted(docs["doc_id"])
    assert (np.diff(e0["shuffle_key"].to_numpy()) >= 0).all()
    assert (np.diff(e0["shard"].to_numpy()) >= 0).all()
    assert (e0["shard"] == e0["shuffle_key"] * 8 // D.EPOCH_MOD).all()
    # deterministic rerun
    e0b = D.doc_epoch_shuffle(SF_SMOKE, epoch=0).to_pandas()
    assert e0.equals(e0b)
    # a different epoch re-permutes (same ids, different order)
    e1 = D.doc_epoch_shuffle(SF_SMOKE, epoch=1).to_pandas()
    assert sorted(e1["doc_id"]) == sorted(e0["doc_id"])
    assert not e0["doc_id"].equals(e1["doc_id"])
    # range shards are reasonably balanced under the multiplicative hash
    per = e0.groupby("shard")["doc_id"].count()
    assert len(per) == 8 and per.min() >= 0.3 * per.mean()


@pytest.mark.usefixtures("ray_session")
def test_conversation_curation_empty_boilerplate_set():
    """A threshold no text reaches must mean 'nothing dropped', not a
    crash: an all-empty derived boilerplate dataset loses its Arrow
    schema, so the composite skips the join outright."""
    from security_log_analysis_rust_ray.pipelines import reports as R
    got = R.conversation_curated_corpus(SF_SMOKE, min_convs=10**9) \
        .to_pandas()
    base = R.conversation_sft_text(SF_SMOKE).to_pandas()
    assert sorted(got["conv_id"]) == sorted(base["conv_id"])


@pytest.mark.usefixtures("ray_session")
def test_dup_weights_no_clusters_edge():
    """A threshold above 1.0 yields an empty cluster graph — every doc
    must keep weight 1.0 rather than crashing on the schema-less empty
    joins (the all-empty connected-components path)."""
    df = D.doc_dup_weights(SF_SMOKE, threshold=1.01).to_pandas()
    docs = D.docs_aug_ds(SF_SMOKE).to_pandas()
    assert sorted(df["doc_id"]) == sorted(docs["doc_id"])
    assert (df["weight"] == 1.0).all()


def test_doc_lm_score_handcrafted(tmp_path):
    """Unigram-LM scores on a 3-doc corpus with hand-computable counts:
    the common-word doc scores LOWER avg_nll than the rare-word doc, and
    every value matches the add-one-smoothed formula exactly (doc_ids
    avoid the %10/%7 augmentation residues so docs_aug == documents)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    texts = {
        1: "the the the cat",   # mostly the corpus's most common term
        2: "the zebra quux",    # two singleton terms
        3: "the the dog dog",
    }
    pq.write_table(pa.table({
        "doc_id": pa.array(list(texts), pa.int64()),
        "text": pa.array(list(texts.values()), pa.string()),
    }), str(tmp_path / "documents.parquet"))
    out = D.doc_lm_score(str(tmp_path)).to_pandas().set_index("doc_id")

    # corpus counts: the=6, cat=1, zebra=1, quux=1, dog=2 -> T=11, V=5
    cnt = {"the": 6, "cat": 1, "zebra": 1, "quux": 1, "dog": 2}
    T, V = 11, 5
    assert int(out["lm_tokens"].sum()) == T
    for did, txt in texts.items():
        toks = txt.split(" ")
        exp = float(np.mean([-np.log2((cnt[t] + 1.0) / (T + V))
                             for t in toks]))
        assert out.loc[did, "lm_tokens"] == len(toks)
        assert abs(out.loc[did, "avg_nll"] - exp) < 1e-6, did
    # ordering: common-term doc is "head", rare-term doc is "tail"
    assert out.loc[1, "avg_nll"] < out.loc[3, "avg_nll"] \
        < out.loc[2, "avg_nll"]


def test_doc_ppl_buckets_invariants():
    """Tertile buckets are ordered (every head score <= every middle
    score <= every tail score) and roughly balanced (each tertile holds
    >= 20% of docs on the smoke corpus)."""
    out = D.doc_ppl_buckets(SF_SMOKE).to_pandas()
    n = len(out)
    assert n > 0
    g = out.groupby("ppl_bucket")["avg_nll"]
    assert set(out["ppl_bucket"]) == {"head", "middle", "tail"}
    assert g.max()["head"] <= g.min()["middle"]
    assert g.max()["middle"] <= g.min()["tail"]
    for share in out["ppl_bucket"].value_counts(normalize=True):
        assert share >= 0.20


def test_doc_dsir_weights_paths_agree_and_orient():
    """DSIR importance weights: the fused broadcast path and the
    partitioned two-join path produce identical rows, every doc gets a
    weight, and target-sample docs (doc_id%10==3) average HIGHER avg_llr
    than the rest (their text defines the target distribution)."""
    from security_log_analysis_rust_ray.config import override, set_config

    fused = D.doc_dsir_weights(SF_SMOKE).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    prev = override(broadcast_max_bytes=0)
    try:
        parted = D.doc_dsir_weights(SF_SMOKE).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
    finally:
        set_config(prev)

    import pandas as pd
    pd.testing.assert_frame_equal(fused, parted)
    assert fused["doc_id"].is_unique and len(fused) > 0
    tgt = fused["doc_id"] % 10 == 3
    assert tgt.any() and (~tgt).any()
    assert fused.loc[tgt, "avg_llr"].mean() > fused.loc[~tgt, "avg_llr"].mean()


def test_doc_dsir_weights_empty_target_sample(tmp_path):
    """No doc has doc_id%10==3: the target LM is trained on nothing
    (every term COALESCEs to count 0) and the op still returns one
    finite weight per doc on both paths."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from security_log_analysis_rust_ray.config import override, set_config

    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 4], pa.int64()),
        "text": pa.array(["the cat", "the dog", "zebra quux"], pa.string()),
    }), str(tmp_path / "documents.parquet"))

    fused = D.doc_dsir_weights(str(tmp_path)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    prev = override(broadcast_max_bytes=0)
    try:
        parted = D.doc_dsir_weights(str(tmp_path)).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
    finally:
        set_config(prev)

    import pandas as pd
    pd.testing.assert_frame_equal(fused, parted)
    assert len(fused) == 3
    assert np.isfinite(fused["avg_llr"]).all()


@pytest.mark.usefixtures("ray_session")
def test_doc_source_cap_bound_and_determinism():
    """Per-source cap holds, picks are deterministic, and every kept doc
    really belongs to the source it is listed under."""
    cap = 3
    a = D.doc_source_cap(SF_SMOKE, cap=cap).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    b = D.doc_source_cap(SF_SMOKE, cap=cap).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)
    assert a["doc_id"].is_unique
    assert (a.groupby("source").size() <= cap).all()
    import pandas as pd
    from security_log_analysis_rust_ray.sources.readers import read_table
    full = read_table(SF_SMOKE, "documents",
                      columns=["doc_id", "source"]).to_pandas()
    m = a.merge(full, on="doc_id", suffixes=("", "_full"))
    assert (m["source"] == m["source_full"]).all()
    # a source with more than cap docs is actually trimmed
    if (full.groupby("source").size() > cap).any():
        assert len(a) < len(full)


@pytest.mark.usefixtures("ray_session")
def test_doc_blocklist_filter_matches_python_re():
    import re
    got = D.doc_blocklist_filter(SF_SMOKE).to_pandas()
    full = D.docs_aug_ds(SF_SMOKE).to_pandas()
    rx = re.compile(D.BLOCKLIST_RE)
    exp = full[~full["text"].map(lambda t: bool(rx.search(t)))]
    assert set(got["doc_id"]) == set(exp["doc_id"])
    assert 0 < len(got) < len(full)          # the gate genuinely splits


@pytest.mark.usefixtures("ray_session")
def test_doc_chunk_dedup_text_keep_first():
    """Exact-dup docs collapse to their remainder; the first occurrence
    keeps its text; the trailing partial window always survives."""
    out = D.doc_chunk_dedup_text(SF_SMOKE).to_pandas()
    full = D.docs_aug_ds(SF_SMOKE).to_pandas()
    got = dict(zip(out["doc_id"], out["text"]))
    assert set(got) == set(full["doc_id"])   # every doc present
    c = D.CHUNK_TOKENS
    orig = dict(zip(full["doc_id"], full["text"]))
    # the +1e6 exact copies: every full window already occurred in the
    # source doc, so only the remainder survives
    shrunk = 0
    for d, t in orig.items():
        if d >= 1_000_000 and d < 2_000_000 and (d - 1_000_000) in orig:
            toks = t.split(" ")
            rem = " ".join(toks[(len(toks) // c) * c:])
            assert got[d] == rem, d
            shrunk += 1
    assert shrunk > 0
    # within each doc, surviving text is a subsequence of whole windows:
    # a doc whose chunks are all first-seen keeps its text verbatim
    kept_verbatim = sum(got[d] == t for d, t in orig.items())
    assert kept_verbatim > 0


def test_doc_pieces_batch_edges():
    """Short docs (< window) are remainder-only; exact-multiple docs get
    an EMPTY remainder row (kept so the doc stays addressable)."""
    import pyarrow as pa
    c = D.CHUNK_TOKENS
    b = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["a b c", " ".join(str(i) for i in range(c))]),
    })
    t = D._doc_pieces_batch(b).to_pandas()
    d1 = t[t["doc_id"] == 1]
    assert list(d1["w"]) == [D._REM_W] and list(d1["piece"]) == ["a b c"]
    d2 = t[t["doc_id"] == 2].sort_values("w")
    assert list(d2["w"]) == [0, D._REM_W]
    assert d2["piece"].iloc[0] == " ".join(str(i) for i in range(c))
    assert d2["piece"].iloc[1] == ""


@pytest.mark.usefixtures("ray_session")
def test_lsh_persisted_index_matches_recompute(tmp_path):
    """Index-backed incremental near-dedup == the recompute-everything
    pipeline (signatures are batch-independent); a hash-impl mismatch in
    the manifest REFUSES to query instead of silently missing matches."""
    import json
    import os
    import pandas as pd
    idx = str(tmp_path / "lsh")
    a = D.doc_incremental_near_dedup_indexed(SF_SMOKE, index_dir=idx) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = D.doc_incremental_near_dedup(SF_SMOKE) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    # rebuild is a manifest no-op
    man = D.lsh_build_index(SF_SMOKE, idx)
    assert man["n_docs"] == 500 and not os.path.exists(idx + ".tmp")
    # a different hash implementation must refuse
    man["hash_impl"] = "polars-0.0.1"
    with open(os.path.join(idx, "manifest.json"), "w") as fh:
        json.dump(man, fh)
    with pytest.raises(RuntimeError, match="hash_impl"):
        D.doc_incremental_near_dedup_indexed(SF_SMOKE, index_dir=idx)


@pytest.mark.usefixtures("ray_session")
def test_prefix_dup_rule_across_block_boundaries(monkeypatch, tmp_path):
    # crafted corpus: prefix chains + exact dups + unrelated docs, forced
    # through MANY blocks so the successor handoff crosses boundaries
    import pyarrow as pa
    import ray.data as rd
    from security_log_analysis_rust_ray.pipelines import docs as D

    texts = ["a", "a b", "a b c", "a b", "zz", "q r", "q r s", "m"]
    ids = list(range(len(texts)))
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})
    monkeypatch.setattr(D, "docs_aug_ds",
                        lambda sf: rd.from_arrow(tbl).repartition(6))
    got = D.doc_prefix_dups("unused").to_pandas()["doc_id"].tolist()
    # prefix-of-another: "a"(0), "a b"(1 and its dup 3 — one flags the
    # other, both are prefixes of "a b c"), "q r"(5); NOT "a b c", "zz",
    # "q r s", "m"
    assert got == [0, 1, 3, 5]


def test_normalize_text_matches_duckdb():
    import duckdb
    import pyarrow as pa

    vals = ["Hello,  World!", "  spaced   out  ", "UPPER-case_mix 42",
            "already clean", "", "!!!", "a  b\tc", "Ünïcode Sträy"]
    got = D.normalize_text(pa.array(vals)).to_pylist()
    want = [r[0] for r in duckdb.sql(
        "SELECT trim(regexp_replace(regexp_replace(lower(v),"
        " '[^a-z0-9 ]', '', 'g'), ' +', ' ', 'g')) FROM"
        " (SELECT unnest($vals) AS v)", params={"vals": vals}).fetchall()]
    assert got == want


@pytest.mark.usefixtures("ray_session")
def test_normalized_dedup_absorbs_cased_variants():
    out = D.doc_normalized_dedup(SF_SMOKE).to_pandas()
    # every cased/punctuated variant (doc_id >= 3M) must lose to its base
    # doc (the normalized key collapses them onto an existing text)
    assert (out["doc_id"] < 3_000_000).all()
    # and the survivor set matches exact dedup's (normalization is a no-op
    # on the already-clean base corpus, so the keyspace is identical)
    exact = D.doc_exact_dedup(SF_SMOKE).to_pandas()
    assert set(out["doc_id"]) == set(exact["doc_id"])


@pytest.mark.usefixtures("ray_session")
def test_context_windows_invariants():
    """Every emitted pair: context holds exactly min(turn_idx, CTX_TURNS)
    'role: text' lines (turns are dense per conv), the response equals the
    transcript's text at (conv_id, turn_idx), and only assistant turns
    past turn 0 appear."""
    from security_log_analysis_rust_ray.pipelines import reports as R
    from security_log_analysis_rust_ray.sources.readers import \
        read_transcripts
    got = R.conversation_context_windows(SF_SMOKE).to_pandas()
    assert len(got) and (got["turn_idx"] >= 1).all()
    n_lines = got["context"].str.count("\n") + 1
    want_lines = got["turn_idx"].clip(upper=R.CTX_TURNS)
    assert (n_lines.to_numpy() == want_lines.to_numpy()).all()
    raw = read_transcripts(
        SF_SMOKE, columns=["conv_id", "turn_idx", "role", "text"]) \
        .to_pandas().set_index(["conv_id", "turn_idx"])
    sel = raw.loc[list(zip(got["conv_id"], got["turn_idx"]))]
    assert (sel["role"].to_numpy() == "assistant").all()
    assert (sel["text"].to_numpy() == got["response"].to_numpy()).all()
    # every assistant turn past 0 is present — nothing dropped
    n_assist = int(((raw["role"] == "assistant")
                    & (raw.index.get_level_values(1) >= 1)).sum())
    assert len(got) == n_assist


@pytest.mark.usefixtures("ray_session")
def test_near_dedup_best_matches_oracle(oracle_smoke):
    import __ray_entry__ as mod
    from security_log_analysis_rust_ray.pipelines.docs import \
        doc_near_dedup_best
    from .conftest import SF_SMOKE, assert_matches_oracle
    assert_matches_oracle(doc_near_dedup_best(SF_SMOKE), oracle_smoke,
                          mod.oracle_sql()["doc_near_dedup_best"])


@pytest.mark.usefixtures("ray_session")
def test_near_dedup_best_keeps_one_per_cluster():
    from .conftest import SF_SMOKE, to_pandas
    from security_log_analysis_rust_ray.pipelines.docs import (
        doc_near_dedup, doc_near_dedup_best, dup_clusters)

    best = to_pandas(doc_near_dedup_best(SF_SMOKE))
    base = to_pandas(doc_near_dedup(SF_SMOKE))
    # same cardinality as min-id dedup (one survivor per cluster + rest)
    assert len(best) == len(base)
    clusters = to_pandas(dup_clusters(SF_SMOKE))
    merged = clusters.merge(best, on="doc_id", how="inner")
    # exactly one survivor per cluster
    assert (merged.groupby("cluster").size() == 1).all()


@pytest.mark.usefixtures("ray_session")
def test_dedup_funnel_matches_oracle_and_monotone(oracle_smoke):
    import __ray_entry__ as mod
    from .conftest import SF_SMOKE, assert_matches_oracle, to_pandas
    from security_log_analysis_rust_ray.pipelines.docs import \
        corpus_dedup_funnel
    assert_matches_oracle(corpus_dedup_funnel(SF_SMOKE), oracle_smoke,
                          mod.oracle_sql()["corpus_dedup_funnel"])
    df = to_pandas(corpus_dedup_funnel(SF_SMOKE)).sort_values("stage")
    assert df["n_docs"].is_monotonic_decreasing


@pytest.mark.usefixtures("ray_session")
def test_weighted_sample_biases_toward_long_docs():
    """A-ES with weight = n_chars must overselect long documents: the
    sample's mean length beats the corpus mean, every winner is unique
    (without replacement), and the draw is deterministic across runs."""
    from .conftest import to_pandas
    import pyarrow.parquet as pq

    s1 = to_pandas(D.doc_weighted_sample(SF_SMOKE))
    s2 = to_pandas(D.doc_weighted_sample(SF_SMOKE))
    assert len(s1) == D.AES_K
    assert s1["doc_id"].is_unique
    assert sorted(s1["doc_id"]) == sorted(s2["doc_id"])
    corpus = pq.read_table(f"{SF_SMOKE}/documents.parquet",
                           columns=["n_chars"]).to_pandas()
    assert s1["n_chars"].mean() > corpus["n_chars"].mean()


@pytest.mark.usefixtures("ray_session")
def test_compression_ratio_invariants(tmp_path):
    """Repetitive text compresses far below random text; the signal is
    deterministic across runs."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from .conftest import to_pandas

    rng = np.random.default_rng(29)
    rand = " ".join("".join(rng.choice(list("abcdefghij"), 8))
                    for _ in range(200))
    rep = "the same phrase again " * 200
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array([rand, rep]),
                  "lang": pa.array(["en", "en"]),
                  "source": pa.array(["s", "s"]),
                  "n_chars": pa.array([len(rand), len(rep)], pa.int64())})
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, d / "documents.parquet")

    r1 = to_pandas(D.doc_compression_ratio(str(d))).set_index("doc_id")
    r2 = to_pandas(D.doc_compression_ratio(str(d))).set_index("doc_id")
    assert (r1["ratio"] == r2["ratio"]).all()
    assert r1.loc[2, "ratio"] < 0.1 < r1.loc[1, "ratio"]
