"""Distributed connected components (min-label propagation) — the custom
graph operator under near-duplicate CLUSTERING (pipelines/docs.dup_clusters).

Ray Data has no graph ops; this is the batch re-statement of hash-to-min
label propagation as dataset primitives only (VERDICT r01 #2 prescribed
exactly this, replacing a per-edge Python loop over a driver-materialized
pair graph):

  state   = (node, label) rows, label initialised to the node id
  round   = neighbor-min:  join edges with labels on dst -> per-src min
            pointer-jump:  label <- label(label)  (halves chain lengths, so
            convergence is O(log diameter) rounds, not O(diameter))
  stop    = a round changes zero labels (an anti-join count, not a collect)

Everything per round is a size-aware join / grouped min fold / count over
(node, label) rows — the driver orchestrates rounds and never materializes
edges; labels reach it only while the fold's partials fit the broadcast
budget (``stages.aggregate.grouped_fold``).  Partitioning assumption: labels
and edge endpoints hash-partition on the node id; a hot node (one doc
near-duplicated everywhere) bounds at one (node, label) row after the
per-round grouped min, so skew dies in the combiner exactly like a hot
aggregation key.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data as rd

from .aggregate import grouped_min


CC_LOCAL_MAX_EDGES = 5_000_000  # one task's worth of edge arrays (~80 MB)


def _cc_one_task(edges: rd.Dataset, src: str, dst: str) -> rd.Dataset:
    """Small-graph fast path: the whole component resolution in ONE remote
    task over numpy arrays (vectorized scatter-min + pointer jumping per
    round — never per-edge Python, never on the driver).  The pair graph of
    a near-dup pipeline is sparse — orders of magnitude smaller than the
    corpus — so it usually fits one task; past CC_LOCAL_MAX_EDGES the
    caller uses the distributed join loop instead."""
    import numpy as np
    import ray

    @ray.remote
    def solve(*blocks):
        import pyarrow as _pa
        live = [b for b in blocks if b.num_rows > 0]
        t = _pa.concat_tables(live) if live else None
        if t is None or t.num_rows == 0:
            return _pa.table({"node": _pa.array([], _pa.int64()),
                              "label": _pa.array([], _pa.int64())})
        a = t[src].to_numpy().astype(np.int64)
        b = t[dst].to_numpy().astype(np.int64)
        nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
        ai, bi = inv[:len(a)], inv[len(a):]
        label = np.arange(len(nodes), dtype=np.int64)
        while True:
            new = label.copy()
            np.minimum.at(new, ai, label[bi])
            np.minimum.at(new, bi, label[ai])
            new = new[new]  # pointer jump
            if np.array_equal(new, label):
                break
            label = new
        return _pa.table({"node": _pa.array(nodes),
                          "label": _pa.array(nodes[label])})

    refs = list(edges.to_arrow_refs())
    # blocks resolve inside the task (varargs), no driver materialization
    out = ray.get(solve.remote(*refs))
    return rd.from_arrow(out)


def connected_components(edges: rd.Dataset, src: str = "a", dst: str = "b",
                         nparts: int = 8, max_rounds: int = 50) -> rd.Dataset:
    """(node, cluster) for every node appearing in ``edges``; cluster = min
    node id of the connected component.  ``edges`` needs int64 src/dst.

    Size-aware: a pair graph under CC_LOCAL_MAX_EDGES resolves in one
    remote numpy task (vectorized, off-driver); larger graphs run the
    distributed join loop below."""
    try:
        n_edges = edges.count()
    except Exception:
        n_edges = None
    if n_edges is not None and n_edges <= CC_LOCAL_MAX_EDGES:
        return _cc_one_task(edges, src, dst)
    both = edges.map_batches(
        lambda t: pa.table({"x": t[src].cast(pa.int64()),
                            "y": t[dst].cast(pa.int64())}),
        batch_format="pyarrow", batch_size=None).union(
        edges.map_batches(
            lambda t: pa.table({"x": t[dst].cast(pa.int64()),
                                "y": t[src].cast(pa.int64())}),
            batch_format="pyarrow", batch_size=None)).materialize()

    labels = grouped_min(both, ["x"], "y") \
        .map_batches(lambda t: pa.table({"node": t["x"], "label": t["x"]}),
                     batch_format="pyarrow", batch_size=None).materialize()
    if labels.count() == 0:
        return labels

    # labels are unique per node, so every per-round join is a dim-unique
    # lookup: the size-aware lookup_join broadcasts the label table while
    # it fits the byte budget and hash-partitions both sides beyond it
    # (also sidesteps Ray 2.49's JoinOperator empty-partition crash)
    from .joins import lookup_join

    for _ in range(max_rounds):
        # neighbor-min: every dst's label flows to its src
        nbr = lookup_join(both, labels, "y", "node",
                          nparts=nparts, how="inner")
        nbr = nbr.map_batches(
            lambda t: pa.table({"node": t["x"], "label": t["label"]}),
            batch_format="pyarrow", batch_size=None)
        new = grouped_min(nbr.union(labels), ["node"], "label",
                          "label").materialize()
        # pointer jump: label <- label(label) (labels are node ids, so the
        # lookup is a self-join; every label exists as a node by induction;
        # materialized first so the self-join doesn't re-execute the plan)
        new = lookup_join(new, new, "label", "node", nparts=nparts,
                          how="inner", rename={"label": "jlabel"})
        new = new.map_batches(
            lambda t: pa.table({"node": t["node"], "label": t["jlabel"]}),
            batch_format="pyarrow", batch_size=None).materialize()
        changed = lookup_join(new, labels, "node", "node", nparts=nparts,
                              how="inner", rename={"label": "old"})
        n_changed = changed.map_batches(
            lambda t: t.filter(pa.compute.not_equal(t["label"], t["old"])),
            batch_format="pyarrow", batch_size=None).count()
        labels = new
        if n_changed == 0:
            break
    return labels


PAGERANK_LOCAL_MAX_EDGES = 5_000_000  # one task's worth of edge arrays


def _pagerank_one_task(edges: rd.Dataset, src: str, dst: str,
                       weight: str | None, iters: int,
                       damping: float,
                       restart: dict | None = None) -> rd.Dataset:
    """Small-graph fast path: the whole power iteration in ONE remote task
    over numpy scatter-adds (same semantics as the distributed loop below:
    weighted out-degree normalization, uniform dangling-mass recycling).
    A transition graph is node×node sparse — far smaller than the corpus
    that produced it — so it usually fits one task; past
    PAGERANK_LOCAL_MAX_EDGES the caller uses the distributed join loop."""
    import numpy as np
    import ray

    @ray.remote
    def solve(*blocks):
        import pyarrow as _pa
        live = [b for b in blocks if b.num_rows > 0]
        t = _pa.concat_tables(live) if live else None
        if t is None or t.num_rows == 0:
            return _pa.table({"node": _pa.array([], _pa.string()),
                              "rank": _pa.array([], _pa.float64())})
        a = t[src].to_numpy(zero_copy_only=False)
        b = t[dst].to_numpy(zero_copy_only=False)
        w = (t[weight].to_numpy(zero_copy_only=False).astype(np.float64)
             if weight is not None else np.ones(t.num_rows))
        nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
        si, di = inv[:len(a)], inv[len(a):]
        n = len(nodes)
        out_w = np.zeros(n)
        np.add.at(out_w, si, w)
        dangling = out_w == 0.0
        nw = w / out_w[si]
        if restart is None:
            p = None                       # uniform teleport
            rank = np.full(n, 1.0 / n)
        else:
            p = np.array([restart.get(v, 0.0) for v in nodes.tolist()])
            # renormalize over the nodes actually present: restart keys
            # absent from the edge-derived node set would otherwise drop
            # teleport mass and ranks would no longer sum to 1
            ps = p.sum()
            if ps <= 0.0:
                raise ValueError(
                    "pagerank: no restart key appears in the graph")
            p = p / ps
            rank = p.copy()
        for _ in range(iters):
            d_mass = rank[dangling].sum()
            contrib = np.zeros(n)
            np.add.at(contrib, di, nw * rank[si])
            if p is None:
                rank = (1.0 - damping) / n + damping * contrib \
                    + damping * d_mass / n
            else:
                rank = (1.0 - damping) * p + damping * contrib \
                    + damping * d_mass * p
        return _pa.table({"node": _pa.array(nodes),
                          "rank": _pa.array(rank, _pa.float64())})

    refs = list(edges.to_arrow_refs())
    out = ray.get(solve.remote(*refs))
    return rd.from_arrow(out)


def pagerank(edges: rd.Dataset, src: str = "src", dst: str = "dst",
             weight: str | None = None, iters: int = 20,
             damping: float = 0.85, nparts: int = 8,
             local_max_edges: int = PAGERANK_LOCAL_MAX_EDGES,
             restart: dict | None = None) -> rd.Dataset:
    """Weighted PageRank over an edge Dataset — the second iterative
    graph operator (connected_components above is the first), stated
    purely as dataset primitives:

      state  = (node, rank) rows, rank initialised to 1/N
      round  = contributions: join ranks to edges on src (size-aware
               ``lookup_join``: broadcast while the node table fits the
               byte budget, hash-partitioned past it) -> per-edge
               rank·w/out_w -> ``grouped_sum`` over dst (in-batch
               combiner, so a hot dst folds per block before the
               exchange) -> damping + uniform dangling-mass term
      driver = one scalar per round (the dangling mass), never a table

    Size-aware like connected_components: a graph under
    ``local_max_edges`` resolves in one remote numpy task (the 20-round
    join loop is pure fixed overhead at that size); larger graphs run
    the distributed loop.  Returns (node, rank) with ranks summing to 1.
    Iterative float accumulation -> no SQL oracle; pytest matches a dense
    numpy reference and asserts both paths agree."""
    import numpy as np
    import pyarrow.compute as pc

    from .aggregate import grouped_sum
    from .joins import lookup_join

    try:
        n_edges = edges.count()
    except Exception:
        n_edges = None
    if n_edges is not None and n_edges <= local_max_edges:
        return _pagerank_one_task(edges, src, dst, weight, iters, damping,
                                  restart=restart)

    w = weight
    e = edges.map_batches(
        lambda t: pa.table({
            "src": t[src], "dst": t[dst],
            "w": t[w].cast(pa.float64()) if w is not None
            else pa.array(np.ones(t.num_rows)),
        }),
        batch_format="pyarrow", batch_size=None).materialize()

    nodes = e.map_batches(
        lambda t: pa.table({"node": t["src"]}),
        batch_format="pyarrow", batch_size=None).union(
        e.map_batches(lambda t: pa.table({"node": t["dst"]}),
                      batch_format="pyarrow", batch_size=None))
    from .dedup import distinct_rows
    nodes = distinct_rows(nodes, ["node"]).materialize()
    n = nodes.count()
    if n == 0:
        return rd.from_arrow(pa.table({"node": pa.array([], pa.string()),
                                       "rank": pa.array([], pa.float64())}))

    out_w = grouped_sum(e, ["src"], "w", alias="out_w").materialize()
    # normalized edge weight w/out_w attaches ONCE (it never changes)
    e = lookup_join(e, out_w, "src", "src", nparts=nparts).map_batches(
        lambda t: pa.table({
            "src": t["src"], "dst": t["dst"],
            "nw": pc.divide(t["w"], t["out_w"]),
        }),
        batch_format="pyarrow", batch_size=None).materialize()

    if restart is None:
        pvec = None
        ranks = nodes.map_batches(
            lambda t: pa.table({"node": t["node"],
                                "rank": pa.array(
                                    np.full(t.num_rows, 1.0 / n))}),
            batch_format="pyarrow", batch_size=None).materialize()
    else:
        # personalization attaches ONCE to the node table (absent -> 0);
        # the restart set is seed-sized, so the probe table broadcasts
        rt = rd.from_arrow(pa.table({
            "node": pa.array(list(restart.keys())),
            "p": pa.array([float(v) for v in restart.values()],
                          pa.float64())})).materialize()
        pvec = lookup_join(nodes, rt, "node", "node", nparts=nparts,
                           how="left").map_batches(
            lambda t: pa.table({"node": t["node"],
                                "p": pc.fill_null(t["p"], 0.0)}),
            batch_format="pyarrow", batch_size=None).materialize()
        # renormalize over present nodes (one driver scalar): restart
        # keys missing from the graph must not bleed teleport mass
        p_sum = pvec.sum("p") or 0.0
        if p_sum <= 0.0:
            raise ValueError(
                "pagerank: no restart key appears in the graph")
        if abs(p_sum - 1.0) > 1e-12:
            scale = 1.0 / p_sum
            pvec = pvec.map_batches(
                lambda t, s=scale: pa.table({
                    "node": t["node"],
                    "p": pc.multiply(t["p"], s)}),
                batch_format="pyarrow", batch_size=None).materialize()
        ranks = pvec.map_batches(
            lambda t: t.rename_columns(["node", "rank"]),
            batch_format="pyarrow", batch_size=None).materialize()
    # dangling nodes (no out-edges) redistribute their mass uniformly
    dangling = lookup_join(ranks, out_w, "node", "src", nparts=nparts,
                           how="left").map_batches(
        lambda t: t.filter(pc.is_null(t["out_w"]))
                   .select(["node"]),
        batch_format="pyarrow", batch_size=None).materialize()

    for _ in range(iters):
        d_mass = lookup_join(dangling, ranks, "node", "node",
                             nparts=nparts).sum("rank") or 0.0
        contrib = lookup_join(e, ranks, "src", "node", nparts=nparts) \
            .map_batches(
                lambda t: pa.table({
                    "node": t["dst"],
                    "c": pc.multiply(t["nw"], t["rank"]),
                }),
                batch_format="pyarrow", batch_size=None)
        summed = grouped_sum(contrib, ["node"], "c", alias="c")
        if pvec is None:
            base = (1.0 - damping) / n + damping * d_mass / n
            ranks = lookup_join(nodes, summed, "node", "node",
                                nparts=nparts, how="left").map_batches(
                lambda t, base=base: pa.table({
                    "node": t["node"],
                    "rank": pc.add(
                        pc.multiply(pc.fill_null(t["c"], 0.0), damping),
                        base),
                }),
                batch_format="pyarrow", batch_size=None).materialize()
        else:
            # rank = d*contrib + p*((1-d) + d*d_mass): teleport AND the
            # dangling mass both return to the restart distribution
            scale = (1.0 - damping) + damping * d_mass
            ranks = lookup_join(pvec, summed, "node", "node",
                                nparts=nparts, how="left").map_batches(
                lambda t, sc=scale: pa.table({
                    "node": t["node"],
                    "rank": pc.add(
                        pc.multiply(pc.fill_null(t["c"], 0.0), damping),
                        pc.multiply(t["p"], sc)),
                }),
                batch_format="pyarrow", batch_size=None).materialize()
    return ranks


KCORE_LOCAL_MAX_EDGES = 5_000_000  # one task's worth of edge arrays


def _kcore_one_task(edges: rd.Dataset, k: int, src: str,
                    dst: str) -> rd.Dataset:
    """Small-graph k-core: peel entirely inside ONE remote numpy task
    (vectorized bincount rounds; nothing edge-sized on the driver)."""
    import ray

    refs = edges.to_arrow_refs()

    @ray.remote
    def solve(*blocks):
        import numpy as np
        ts = [b if isinstance(b, pa.Table) else pa.Table.from_blocks([b])
              for b in blocks]
        t = pa.concat_tables([x.select([src, dst]) for x in ts]) \
            if ts else None
        empty = pa.table({"node": pa.array([], pa.int64())})
        if t is None or t.num_rows == 0:
            return empty
        a = t[src].to_numpy().astype(np.int64)
        b = t[dst].to_numpy().astype(np.int64)
        # relabel to a compact id space
        nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
        x, y = inv[:len(a)], inv[len(a):]
        alive_e = np.ones(len(x), bool)
        alive_n = np.ones(len(nodes), bool)
        while True:
            deg = np.bincount(x[alive_e], minlength=len(nodes)) \
                + np.bincount(y[alive_e], minlength=len(nodes))
            low = alive_n & (deg < k)
            if not low.any():
                break
            alive_n &= ~low
            alive_e &= alive_n[x] & alive_n[y]
        return pa.table({"node": pa.array(nodes[alive_n], pa.int64())})

    return rd.from_arrow_refs([solve.remote(*refs)])


def kcore(edges: rd.Dataset, k: int, src: str = "a", dst: str = "b",
          nparts: int = 8, max_rounds: int = 100) -> rd.Dataset:
    """Nodes of the k-core: the maximal subgraph where every node keeps
    degree >= k — the standard peel (repeat: drop nodes with degree < k
    among survivors) expressed as dataset primitives.

    Each round is ONE grouped degree count over the symmetrized survivor
    edges plus two size-aware anti-joins that delete edges touching peeled
    nodes; the driver sees only the per-round peeled-node COUNT.  Rounds
    are bounded by the peel depth (a path graph peels one layer per round
    — ``max_rounds`` caps the pathological chain), and every exchange
    shrinks: edges only ever get deleted.  Size-aware like
    connected_components: graphs under ``KCORE_LOCAL_MAX_EDGES`` resolve
    in one remote numpy task.  Returns (node,) rows."""
    try:
        n_edges = edges.count()
    except Exception:
        n_edges = None
    if n_edges is not None and n_edges <= KCORE_LOCAL_MAX_EDGES:
        return _kcore_one_task(edges, k, src, dst)

    from .aggregate import grouped_count
    from .dedup import distinct_rows
    from .joins import anti_join

    both = edges.map_batches(
        lambda t: pa.table({"x": t[src].cast(pa.int64()),
                            "y": t[dst].cast(pa.int64())}),
        batch_format="pyarrow", batch_size=None).union(
        edges.map_batches(
            lambda t: pa.table({"x": t[dst].cast(pa.int64()),
                                "y": t[src].cast(pa.int64())}),
            batch_format="pyarrow", batch_size=None)).materialize()

    for _ in range(max_rounds):
        deg = grouped_count(both, ["x"], alias="deg").materialize()
        low = deg.map_batches(
            lambda t: t.filter(pa.compute.less(t["deg"], k))
                       .select(["x"]),
            batch_format="pyarrow", batch_size=None).materialize()
        if low.count() == 0:
            break
        both = anti_join(both, low, "x", "x")
        both = anti_join(both, low, "y", "x").materialize()
        if both.count() == 0:
            break
    return distinct_rows(
        both.map_batches(lambda t: pa.table({"node": t["x"]}),
                         batch_format="pyarrow", batch_size=None),
        ["node"])


BFS_LOCAL_MAX_EDGES = 5_000_000  # one task's worth of edge arrays


def _bfs_one_task(edges: rd.Dataset, seeds: rd.Dataset, src: str,
                  dst: str, seed_col: str, max_rounds: int) -> rd.Dataset:
    """Small-graph fast path: the whole multi-source BFS in ONE remote
    task over numpy arrays (per round: one boolean edge mask + one
    scatter-or — never per-edge Python, never on the driver)."""
    import numpy as np
    import ray

    @ray.remote
    def solve(n_seed, *all_blocks):
        # Ray resolves only TOP-LEVEL ObjectRefs, so seed and edge blocks
        # arrive splatted together with a count to split them back apart
        import pyarrow as _pa
        seed_blocks = all_blocks[:n_seed]
        blocks = all_blocks[n_seed:]
        live = [b for b in blocks if b.num_rows > 0]
        slive = [b for b in seed_blocks if b.num_rows > 0]
        sarr = (np.concatenate([b[seed_col].to_numpy(zero_copy_only=False)
                                for b in slive])
                if slive else np.array([], dtype=object))
        empty = _pa.table({"node": _pa.array([], _pa.string()),
                           "dist": _pa.array([], _pa.int64())})
        if not len(sarr):
            return empty
        t = _pa.concat_tables(live) if live else None
        a = (t[src].to_numpy(zero_copy_only=False)
             if t is not None and t.num_rows else np.array([], object))
        b = (t[dst].to_numpy(zero_copy_only=False)
             if t is not None and t.num_rows else np.array([], object))
        nodes, inv = np.unique(np.concatenate([a, b, sarr]),
                               return_inverse=True)
        ai = inv[:len(a)]
        bi = inv[len(a):len(a) + len(b)]
        si = inv[len(a) + len(b):]
        dist = np.full(len(nodes), -1, dtype=np.int64)
        dist[si] = 0
        frontier = np.zeros(len(nodes), dtype=bool)
        frontier[si] = True
        for d in range(1, max_rounds + 1):
            hit = frontier[ai] if len(ai) else np.array([], bool)
            nxt = np.zeros(len(nodes), dtype=bool)
            nxt[bi[hit]] = True
            nxt &= dist < 0
            if not nxt.any():
                break
            dist[nxt] = d
            frontier = nxt
        keep = dist >= 0
        return _pa.table({"node": _pa.array(nodes[keep]),
                          "dist": _pa.array(dist[keep], _pa.int64())})

    seed_refs = list(seeds.to_arrow_refs())
    refs = list(edges.to_arrow_refs())
    out = ray.get(solve.remote(len(seed_refs), *seed_refs, *refs))
    return rd.from_arrow(out)


def bfs_layers(edges: rd.Dataset, seeds: rd.Dataset, src: str = "src",
               dst: str = "dst", seed_col: str = "node", nparts: int = 8,
               max_rounds: int = 64,
               local_max_edges: int = BFS_LOCAL_MAX_EDGES) -> rd.Dataset:
    """Multi-source BFS: (node, dist) = minimum DIRECTED hop distance from
    any seed, the third iterative graph operator (components, pagerank,
    now reachability layers — the blast-radius / lineage-depth question),
    stated purely as dataset primitives:

      state    = visited (node, dist) rows, seeds at dist 0
      round d  = edges FROM the frontier (size-aware ``semi_join`` — the
                 frontier broadcasts while small), project distinct dst,
                 drop already-visited (size-aware ``anti_join``), stamp d
      stop     = the frontier empties (<= graph diameter rounds; the
                 driver sees one row count per round, never a table)

    Seeds absent from the edge set still report dist 0 (they are valid
    sources with no outgoing reach).  Unreachable nodes are omitted.
    Size-aware like the other two: a graph under ``local_max_edges``
    resolves in one remote numpy task.  Exact + deterministic -> the SQL
    oracle is a recursive CTE (min hop distance with UNION dedup)."""
    from .dedup import distinct_rows
    from .joins import anti_join, semi_join

    seeds = distinct_rows(
        seeds.map_batches(lambda t: pa.table({seed_col: t[seed_col]}),
                          batch_format="pyarrow", batch_size=None),
        [seed_col]).materialize()
    try:
        n_edges = edges.count()
    except Exception:
        n_edges = None
    if n_edges is not None and n_edges <= local_max_edges:
        return _bfs_one_task(edges, seeds, src, dst, seed_col, max_rounds)

    def stamp(d: int):
        def f(t: pa.Table) -> pa.Table:
            import numpy as np
            return pa.table({"node": t[seed_col],
                             "dist": pa.array(
                                 np.full(t.num_rows, d, np.int64))})
        return f

    visited = seeds.map_batches(stamp(0), batch_format="pyarrow",
                                batch_size=None).materialize()
    frontier = seeds
    for d in range(1, max_rounds + 1):
        nxt = semi_join(edges, frontier, src, seed_col, nparts=nparts)
        nxt = distinct_rows(
            nxt.map_batches(lambda t: pa.table({seed_col: t[dst]}),
                            batch_format="pyarrow", batch_size=None),
            [seed_col])
        nxt = anti_join(nxt, visited, seed_col, "node",
                        nparts=nparts).materialize()
        if nxt.count() == 0:
            break
        visited = visited.union(
            nxt.map_batches(stamp(d), batch_format="pyarrow",
                            batch_size=None)).materialize()
        frontier = nxt
    return visited
