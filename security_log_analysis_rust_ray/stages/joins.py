"""Equi-joins with one size rule and one exchange.

``lookup_join`` (unique-key dim attach), ``hash_join`` (m:n: inner, left or
full), ``semi_join`` and ``anti_join`` follow the rule of
``dedup.keyed_fold``: the build side (the dim, the right side, or the
distinct key set) is materialized, and its exact ``size_bytes()`` decides
the plan.  Within ``Config.broadcast_max_bytes`` (64 MB) it is collected,
shipped once with ``ray.put`` and probed per batch (``_broadcast``);
beyond it both sides go through one hash exchange on the key
(``_exchange``).  Callers do not pick the path, and a derived lazy dim is
sized as exactly as a file scan.

Each join is one per-partition kernel that both routines run:
``index_in`` + ``take`` for a lookup, an Acero ``pa.Table.join`` for m:n,
``is_in`` for membership.  Both routines drop null build keys (SQL: NULL
never equals NULL in a join) and give the build keys the probe's key
types.  The exchange is a tagged union, not ``Dataset.join``: Ray 2.49's
JoinOperator fails schema resolution ("No match ... for FieldRef") whenever
a hash partition is empty on one side (join.py:104-126 builds each side
with a bare ArrowBlockBuilder); here such a partition runs the kernel
against an empty, schema-complete table.  Before the exchange a Bloom
filter over the build keys (``stages/bloom.py``) prunes the probe side of
inner and semi joins and passes the rows an anti join keeps for certain
around the exchange.

The reference's join shapes are a broadcast lookup and a membership probe
(src/polars_analysis.rs:96-107).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..config import get_config
from .dedup import _arrow_schema, _collect_table, _use_hash_shuffle

_MARKER = "__slar_probe__"
_BUILD_PREFIX = "__slar_dim__"


def _sized(build: rd.Dataset) -> tuple[rd.Dataset, pa.Table | None]:
    """Materialize a join's build side; also collect it to one table when
    its exact bytes fit ``Config.broadcast_max_bytes`` (else ``None``)."""
    build = build.materialize()
    if build.size_bytes() <= get_config().broadcast_max_bytes:
        return build, _collect_table(build)
    return build, None


def _prepared(t: pa.Table, names: dict[str, str],
              keys: list[str]) -> pa.Table:
    """Build rows under their output names, null-key rows dropped."""
    t = t.rename_columns([names.get(c, c) for c in t.column_names])
    for k in keys:
        t = t.filter(pc.is_valid(t[k]))
    return t


def _cast_keys(t: pa.Table, schema: pa.Schema, keys: list[str]) -> pa.Table:
    for k in keys:
        typ = schema.field(k).type
        if t.schema.field(k).type != typ:
            t = t.set_column(t.schema.get_field_index(k), k, t[k].cast(typ))
    return t


def _broadcast(probe: rd.Dataset, tbl: pa.Table, names: dict[str, str],
               keys: list[str], kernel) -> rd.Dataset:
    """Ship the build table once with ``ray.put``; run ``kernel`` on every
    probe batch against it, its keys cast to the batch's key types.

    A plain TASK pool, deliberately not an actor pool: ``ray.get`` of a
    plasma-resident Arrow table is a zero-copy mmap after the first fetch
    per node, while an actor pool's min-1 CPU reservation makes join chains
    non-composable (three broadcast probes plus one hash exchange reserved
    a whole 4-CPU session and starved the shuffle tasks: a TPC-H Q5
    deadlock)."""
    ref = ray.put(_prepared(tbl, names, keys).combine_chunks())

    def run(b: pa.Table) -> pa.Table:
        return kernel(b, _cast_keys(ray.get(ref), b.schema, keys))

    return probe.map_batches(run, batch_format="pyarrow", batch_size=None)


def _exchange(probe: rd.Dataset, build: rd.Dataset, names: dict[str, str],
              keys: list[str], nparts: int, kernel,
              bloom_mode: str | None = None) -> rd.Dataset:
    """Tag both sides, hash-repartition their union on ``keys`` into
    ``nparts`` blocks and run ``kernel(probe_rows, build_rows)`` per block,
    each side as a table of its full schema (empty when the partition got
    none of its rows).  ``build`` is materialized.

    ``bloom_mode="prune"`` drops the Bloom-negative probe rows before the
    exchange (inner and semi joins: they match nothing); ``"split"`` sends
    only the Bloom-positive rows through it and unions the negative ones,
    which an anti join keeps for certain, around it.  The exact kernel
    removes the false positives, so the result does not depend on the
    filter; ``bloom.BLOOM_BITS = 0`` turns it off."""
    # imported here: bloom pulls in polars (~90 ms), which the broadcast
    # path and the workers that run its probes never need
    from . import bloom

    if probe.schema() is None:      # an empty probe side matches nothing
        return probe
    p_schema = _arrow_schema(probe)
    b_schema = pa.schema([
        pa.field(n, p_schema.field(n).type if n in keys else f.type)
        for f in _arrow_schema(build) for n in [names.get(f.name, f.name)]])

    def build_rows(t: pa.Table) -> pa.Table:
        return _cast_keys(_prepared(t, names, keys), p_schema, keys)

    definite = None
    m, k = bloom.BLOOM_BITS, bloom.BLOOM_HASHES
    if bloom_mode and m and k:
        ref = ray.put(bloom.build_bloom(
            build.map_batches(lambda t: build_rows(t).select(keys),
                              batch_format="pyarrow", batch_size=None),
            keys, m, k))

        def bloom_side(positive: bool):
            def f(b: pa.Table) -> pa.Table:
                hit = bloom.bloom_contains(ray.get(ref), b, m, k, cols=keys)
                return b.filter(pa.array(hit if positive else ~hit))
            return f

        if bloom_mode == "split":
            definite = probe.map_batches(bloom_side(False),
                                         batch_format="pyarrow",
                                         batch_size=None)
        probe = probe.map_batches(bloom_side(True), batch_format="pyarrow",
                                  batch_size=None)

    def tag_probe(t: pa.Table) -> pa.Table:
        assert _MARKER not in t.schema.names, _MARKER
        return t.append_column(
            _MARKER, pa.array(np.zeros(t.num_rows, dtype=np.int8)))

    def tag_build(t: pa.Table) -> pa.Table:
        t = build_rows(t)
        t = t.rename_columns([c if c in keys else _BUILD_PREFIX + c
                              for c in t.column_names])
        return t.append_column(
            _MARKER, pa.array(np.ones(t.num_rows, dtype=np.int8)))

    uni = probe.map_batches(tag_probe, batch_format="pyarrow",
                            batch_size=None) \
        .union(build.map_batches(tag_build, batch_format="pyarrow",
                                 batch_size=None))
    parts = _use_hash_shuffle(uni, nparts).repartition(
        num_blocks=nparts, keys=keys)

    def side(rows: pa.Table, schema: pa.Schema, prefix: str) -> pa.Table:
        if rows.num_rows == 0:
            return schema.empty_table()
        return pa.Table.from_arrays(
            [rows[f.name if f.name in keys else prefix + f.name].cast(f.type)
             for f in schema], schema=schema)

    empty = kernel(p_schema.empty_table(), b_schema.empty_table())

    def run(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or _MARKER not in t.schema.names:
            return empty
        is_build = pc.fill_null(pc.equal(t[_MARKER], 1), False)
        return kernel(side(t.filter(pc.invert(is_build)), p_schema, ""),
                      side(t.filter(is_build), b_schema, _BUILD_PREFIX))

    # Ray runs no UDF on an empty block: the empty table keeps the output
    # schema when every partition is empty
    out = parts.map_batches(run, batch_format="pyarrow", batch_size=None) \
        .union(rd.from_arrow(empty))
    return out if definite is None else out.union(definite)


def _lookup_kernel(key: str, inner: bool):
    def attach(p: pa.Table, b: pa.Table) -> pa.Table:
        idx = pc.index_in(p[key], value_set=b[key])
        if inner:
            valid = pc.is_valid(idx)
            p, idx = p.filter(valid), idx.filter(valid)
        # take with null indices yields null payload rows (left join)
        taken = b.drop_columns([key]).take(idx)
        for name in taken.column_names:
            p = p.append_column(name, taken[name])
        return p
    return attach


def _mn_kernel(keys: list[str], join_type: str):
    def join(p: pa.Table, b: pa.Table) -> pa.Table:
        payload = [c for c in b.column_names if c not in keys]
        overlap = set(payload) & set(p.column_names)
        if overlap:
            raise ValueError(f"column collision {overlap}: pass rename=")
        out = p.join(b, keys=keys, join_type=join_type)
        return out.select(p.column_names + payload)
    return join


def _member_kernel(key: str, keep: bool):
    def probe(p: pa.Table, b: pa.Table) -> pa.Table:
        hit = pc.fill_null(pc.is_in(p[key], value_set=b[key]), False)
        return p.filter(hit if keep else pc.invert(hit))
    return probe


def lookup_join(fact: rd.Dataset, dim: rd.Dataset, fact_key: str,
                dim_key: str, nparts: int = 8, how: str = "inner",
                rename: dict[str, str] | None = None) -> rd.Dataset:
    """Attach ``dim``'s non-key columns to ``fact`` rows on
    ``fact_key == dim_key``.  ``how`` in {"inner", "left"}.  The output
    drops the dim key column (like Ray's join does), keeping the fact key,
    and emits the same Arrow schema on both paths (unmatched int payload
    stays a null-able int, not a float NaN).  Assumes ``dim_key`` is
    unique in ``dim`` (it is a dim lookup); with duplicate dim keys use
    ``hash_join``.  ``rename`` maps dim payload column names to output
    names."""
    assert how in ("inner", "left"), how
    names = {**(rename or {}), dim_key: fact_key}
    dim, tbl = _sized(dim)
    kernel = _lookup_kernel(fact_key, how == "inner")
    if tbl is not None:
        return _broadcast(fact, tbl, names, [fact_key], kernel)
    return _exchange(fact, dim, names, [fact_key], nparts, kernel,
                     "prune" if how == "inner" else None)


def hash_join(left: rd.Dataset, right: rd.Dataset, on, right_on=None,
              nparts: int = 8, how: str = "inner",
              rename: dict[str, str] | None = None) -> rd.Dataset:
    """General m:n equi-join (duplicate keys allowed on BOTH sides, unlike
    ``lookup_join``'s dim-unique contract): every partition, or every left
    batch against the broadcast right side, runs a local Acero
    ``pa.Table.join``.

    ``on`` / ``right_on`` are column-name tuples (composite keys fine).
    Output = left columns + right's non-key columns (``rename`` maps right
    payload names); right key columns are dropped.  ``how`` in
    {"inner", "left", "full"}.  Null keys never match (SQL semantics);
    with ``how="left"`` null-key left rows survive with null payload.

    ``how="full"`` always takes the exchange (a per-left-batch probe cannot
    know which right rows stayed GLOBALLY unmatched): right rows land in
    exactly one key partition, so per-partition FULL OUTER (Acero,
    coalesce_keys) IS the global full outer; null-key right rows can match
    nothing, so they bypass the exchange and are stamped straight to
    output shape (their valid key components survive in the coalesced key
    columns, per SQL)."""
    on = list(on)
    right_on = list(right_on) if right_on is not None else on
    assert how in ("inner", "left", "full"), how
    assert len(on) == len(right_on)
    names = {**(rename or {}), **dict(zip(right_on, on))}
    kernel = _mn_kernel(on, {"inner": "inner", "left": "left outer",
                             "full": "full outer"}[how])

    right = right.materialize()
    # a 0-row dataset can lose its schema entirely (Ray reports
    # schema=Unknown after e.g. a repartition of an empty input): inner is
    # empty; left and full pass the left rows through (no payload column
    # CAN exist, its type is unknowable)
    if right.schema() is None:
        return left.limit(0) if how == "inner" else left
    if how != "full":
        right, tbl = _sized(right)
        if tbl is not None:
            return _broadcast(left, tbl, names, on, kernel)
        return _exchange(left, right, names, on, nparts, kernel,
                         "prune" if how == "inner" else None)

    if left.schema() is None:
        raise ValueError(
            "full outer join with a schema-less empty left side: the "
            "output's left columns are unknowable; guard the call site")
    left_schema = _arrow_schema(left)
    out_schema = pa.schema(list(left_schema) + [
        pa.field(names.get(f.name, f.name), f.type)
        for f in _arrow_schema(right) if f.name not in right_on])

    def right_nulls(t: pa.Table) -> pa.Table:
        t = t.rename_columns([names.get(c, c) for c in t.column_names])
        mask = pc.is_null(t[on[0]])
        for k in on[1:]:
            mask = pc.or_(mask, pc.is_null(t[k]))
        t = t.filter(mask)
        return pa.Table.from_arrays(
            [t[f.name].cast(f.type) if f.name in t.column_names
             else pa.nulls(t.num_rows, f.type) for f in out_schema],
            schema=out_schema)

    return _exchange(left, right, names, on, nparts, kernel).union(
        right.map_batches(right_nulls, batch_format="pyarrow",
                          batch_size=None))


def _distinct_probe_keys(keys_ds: rd.Dataset, key_col: str
                         ) -> tuple[rd.Dataset, pa.Array | None]:
    """The materialized distinct ``key_col`` values and, when they fit the
    byte budget, their non-null values as one Arrow array for the
    broadcast ``is_in`` probe (else ``None``: the exchange).  An empty key
    set is zero bytes, so it always broadcasts (a zero-length array)."""
    from .dedup import distinct_rows
    keys, tbl = _sized(distinct_rows(keys_ds, [key_col]))
    return keys, None if tbl is None \
        else tbl[key_col].combine_chunks().drop_null()


def _membership(fact: rd.Dataset, keys_ds: rd.Dataset, fact_key: str,
                key_col: str, nparts: int, keep: bool) -> rd.Dataset:
    keys, arr = _distinct_probe_keys(keys_ds, key_col)
    names, kernel = {key_col: fact_key}, _member_kernel(fact_key, keep)
    if arr is not None:
        return _broadcast(fact, pa.table({key_col: arr}), names, [fact_key],
                          kernel)
    return _exchange(fact, keys, names, [fact_key], nparts, kernel,
                     "prune" if keep else "split")


def semi_join(fact: rd.Dataset, keys_ds: rd.Dataset, fact_key: str,
              key_col: str, nparts: int = 8) -> rd.Dataset:
    """Keep fact rows whose ``fact_key`` appears in ``keys_ds[key_col]``
    (the reference's J3-style membership probe).  Null fact keys never
    match, matching SQL semantics."""
    return _membership(fact, keys_ds, fact_key, key_col, nparts, keep=True)


def anti_join(fact: rd.Dataset, keys_ds: rd.Dataset, fact_key: str,
              key_col: str, nparts: int = 8) -> rd.Dataset:
    """Drop fact rows whose ``fact_key`` appears in ``keys_ds[key_col]``
    (the J3 anti-join shape).  Null fact keys never match the probe, so
    anti KEEPS them (LEFT JOIN ... IS NULL parity)."""
    return _membership(fact, keys_ds, fact_key, key_col, nparts, keep=False)


def range_lookup_join(fact: rd.Dataset, ranges: rd.Dataset, fact_col: str,
                      lo_col: str, hi_col: str, how: str = "inner",
                      rename: dict[str, str] | None = None) -> rd.Dataset:
    """Interval-dim lookup: attach the payload of the UNIQUE range row with
    ``lo <= fact[fact_col] <= hi`` to each fact row — the GeoIP/CIDR shape
    (the reference resolves host -> country through a metadata dim,
    src/host_country_metadata.rs:95-175; at log scale the canonical form
    of that dim is an IP-range table).  A non-equi join has no hash key to
    shuffle on, so the plan is broadcast-only by design: the range dim is
    collected once (it must fit the driver — a full public GeoIP table is
    tens of MB, and the collect raises past ``broadcast_max_bytes``-scale
    inputs rather than silently building a giant probe), validated
    DISJOINT, sorted by ``lo``, shipped once with ``ray.put``, and every
    fact batch resolves with two numpy ``searchsorted`` gathers — zero
    Python per row, no exchange at all.  Overlapping ranges raise: "which
    payload?" is ambiguous and a silent first-match would diverge from a
    SQL BETWEEN join's duplicating semantics.  Null / out-of-band fact
    values never match (``how='inner'`` drops them, ``'left'`` attaches
    null payload), matching SQL.  ``how`` in {"inner", "left"}."""
    import numpy as np

    assert how in ("inner", "left"), how
    rename = rename or {}
    tbl = _collect_table(ranges).combine_chunks()
    tbl = tbl.filter(pc.and_(pc.is_valid(tbl[lo_col]),
                             pc.is_valid(tbl[hi_col])))
    lo = tbl[lo_col].to_numpy(zero_copy_only=False)
    hi = tbl[hi_col].to_numpy(zero_copy_only=False)
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    if np.any(hi < lo):
        raise ValueError("range dim has hi < lo rows")
    if len(lo) > 1 and np.any(lo[1:] <= hi[:-1]):
        raise ValueError(
            "range dim intervals overlap; range_lookup_join requires "
            "disjoint ranges (split overlapping dims upstream)")
    payload = tbl.drop_columns([lo_col, hi_col]).take(pa.array(order))
    if rename:
        payload = payload.rename_columns(
            [rename.get(c, c) for c in payload.column_names])
    ref = ray.put((lo, hi, payload))
    inner = how == "inner"

    def attach(b: pa.Table) -> pa.Table:   # task pool (see lookup_join)
        lo, hi, payload = ray.get(ref)
        v = b[fact_col].to_numpy(zero_copy_only=False)
        if len(lo):
            pos = np.searchsorted(lo, v, side="right") - 1
            ok = pos >= 0
            # NaN compares false everywhere -> null fact values miss
            with np.errstate(invalid="ignore"):
                ok[ok] &= v[ok] <= hi[pos[ok]]
        else:
            pos = np.full(len(v), -1)
            ok = np.zeros(len(v), dtype=bool)
        if inner:
            b = b.filter(pa.array(ok))
            idx = pa.array(pos[ok], pa.int64())
        else:
            idx = pa.array(np.where(ok, pos, -1), pa.int64())
            idx = pc.if_else(pc.equal(idx, -1), pa.nulls(len(idx),
                                                         pa.int64()), idx)
        taken = payload.take(idx)
        for name in taken.column_names:
            b = b.append_column(name, taken[name])
        return b

    return fact.map_batches(attach, batch_format="pyarrow")


def skew_join(fact: rd.Dataset, dim: rd.Dataset, fact_key: str,
              dim_key: str, nparts: int = 8, how: str = "inner",
              n_hot: int = 32,
              hot_keys: pa.Array | None = None) -> rd.Dataset:
    """Skew-mitigated fact⋈dim join: the hot-key answer for the ONE
    all-to-all Ray Data can't combiner away.  A hash join hash-partitions
    the fact on the key, so one hot key (a default user id, an empty
    host, a viral doc) lands its entire row mass on ONE aggregator and
    the stage runs at that straggler's speed — the salting advice every
    100-TB groupby note gives, applied to joins.

    Plan (the classic skew-split / Spark skew-hint shape, driven by this
    repo's own sketch): one Misra-Gries pass over the fact
    (``sketch.heavy_hitters`` — per-block k-counter summaries, a few KB
    to the driver) names the hot keys; callers that already know them
    pass ``hot_keys`` and skip the pass.  The fact splits ONCE with a
    vectorized ``is_in`` mask:

      * HOT rows join map-side against the (tiny, <= n_hot keys)
        matching dim slice broadcast via ray.put — zero exchange, so the
        hot mass never converges on one partition;
      * COLD rows run the normal size-aware ``lookup_join``.

    The union is the exact join (hot and cold key sets are disjoint).
    ``how`` in {"inner", "left"}; dim keys assumed unique (it is a dim
    lookup)."""
    from .sketch import heavy_hitters

    if hot_keys is None:
        hh = heavy_hitters(fact.select_columns([fact_key]), fact_key,
                           k=n_hot)
        # string keys; ``split`` casts them to each batch's key type
        hot_keys = pa.array(hh["key"] if len(hh) else [], pa.string())
    if isinstance(hot_keys, pa.ChunkedArray):
        hot_keys = hot_keys.combine_chunks()
    href = ray.put(hot_keys)

    def split(want_hot: bool):
        def f(b: pa.Table) -> pa.Table:
            hot = ray.get(href)
            if len(hot) == 0:
                return b if not want_hot else b.slice(0, 0)
            keys = b[fact_key]
            if hot.type != keys.type:
                hot = hot.cast(keys.type)
            m = pc.fill_null(pc.is_in(keys, value_set=hot), False)
            return b.filter(m if want_hot else pc.invert(m))
        return f

    fact_hot = fact.map_batches(split(True), batch_format="pyarrow",
                                batch_size=None)
    fact_cold = fact.map_batches(split(False), batch_format="pyarrow",
                                 batch_size=None)

    def dim_slice(b: pa.Table) -> pa.Table:
        hot = ray.get(href)
        if len(hot) == 0:
            return b.slice(0, 0)
        keys = b[dim_key]
        if keys.type != hot.type:
            keys = keys.cast(hot.type)
        return b.filter(pc.fill_null(pc.is_in(keys, value_set=hot), False))

    # the hot dim slice holds <= n_hot unique keys: it always broadcasts,
    # whatever the budget, so the hot mass never meets in one partition
    dim_hot = dim.map_batches(dim_slice, batch_format="pyarrow",
                              batch_size=None).materialize()
    joined_hot = _broadcast(fact_hot, _collect_table(dim_hot),
                            {dim_key: fact_key}, [fact_key],
                            _lookup_kernel(fact_key, how == "inner"))
    joined_cold = lookup_join(fact_cold, dim, fact_key, dim_key,
                              nparts=nparts, how=how)
    # a union runs under its first input's DataContext: the cold join goes
    # first so a hash exchange there keeps the HASH_SHUFFLE it needs
    return joined_cold.union(joined_hot)
