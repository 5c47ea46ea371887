"""Degenerate inputs through the size-driven keyed primitives: every
keyed fold (``stages.dedup.keyed_fold``) and every equi-join
(``stages.joins``) x {empty, one row, all-null keys, more partitions than
keys} x both final paths, each checked against pandas."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from security_log_analysis_rust_ray.stages import aggregate as agg
from security_log_analysis_rust_ray.stages import dedup as dd
from security_log_analysis_rust_ray.stages.joins import (anti_join,
                                                         hash_join,
                                                         lookup_join,
                                                         semi_join)

from .conftest import FINAL_PATHS, final_path, to_pandas

_SCHEMA = pa.schema([("k", pa.string()), ("v", pa.int64()),
                     ("ts", pa.int64())])
_FACT = pd.DataFrame({"k": ["a", "b", "q", None], "f": [1, 2, 3, 4]})
_DIM = pd.DataFrame({"k": ["a", "b", "q"], "d": [10, 20, 30]})


def _case(name: str) -> tuple[pa.Table, int]:
    """(input table, input block count) of one degenerate case."""
    if name == "empty":
        cols, blocks = {"k": [], "v": [], "ts": []}, 1
    elif name == "one_row":
        cols, blocks = {"k": ["a"], "v": [5], "ts": [0]}, 1
    elif name == "all_null_keys":
        cols, blocks = {"k": [None] * 6, "v": [3, 1, 4, 1, 5, 9],
                        "ts": list(range(6))}, 3
    else:
        # three keys over six input blocks; the exchange uses at least
        # eight partitions, so most hash partitions receive no rows
        cols, blocks = {"k": [("a", "b", "c")[i % 3] for i in range(24)],
                        "v": [(i * 7) % 5 for i in range(24)],
                        "ts": list(range(24))}, 6
    return pa.Table.from_pydict(cols, schema=_SCHEMA), blocks


def _run(prim: str, ds):
    if prim == "grouped_count":
        return agg.grouped_count(ds, ["k"])
    if prim == "distinct_rows":
        return dd.distinct_rows(ds, ["k"])
    if prim == "dedup_keep_first":
        return dd.dedup_keep_first(ds, keys=["k"], order=["ts"])
    if prim == "grouped_top_k":
        return agg.grouped_top_k(ds, ["k"], "v", 2, tie_cols=["ts"])
    import ray.data as rd
    fact = rd.from_pandas(_FACT)
    # four hash partitions are still more than the three keys
    if prim.startswith("lookup_join_"):
        return lookup_join(fact, ds, "k", "k", nparts=4,
                           how=prim[len("lookup_join_"):])
    if prim.startswith("hash_join_"):
        return hash_join(fact, ds, ("k",), nparts=4,
                         how=prim[len("hash_join_"):])
    if prim == "semi_join":
        return semi_join(fact, ds, "k", "k", nparts=4)
    return anti_join(fact, ds, "k", "k")


def _expected(prim: str, df: pd.DataFrame) -> pd.DataFrame:
    if prim == "grouped_count":
        return df.groupby("k", dropna=False).size().reset_index(name="cnt")
    if prim == "distinct_rows":
        return df[["k"]].drop_duplicates()
    if prim == "dedup_keep_first":
        return df.sort_values(["k", "ts"]).drop_duplicates("k")
    if prim == "grouped_top_k":
        return df.sort_values(["k", "v", "ts"], ascending=[True, False, True]) \
            .groupby("k", dropna=False).head(2)
    if prim.startswith("lookup_join_"):
        return _FACT.merge(df[df["k"].notna()], on="k",
                           how=prim[len("lookup_join_"):])
    if prim.startswith("hash_join_"):
        # null keys never match: null-key right rows join nothing, and a
        # full join keeps them unmatched
        how = prim[len("hash_join_"):]
        out = _FACT.merge(df[df["k"].notna()], on="k",
                          how="outer" if how == "full" else how)
        if how == "full":
            out = pd.concat([out, df[df["k"].isna()]], ignore_index=True)
        return out
    member = _FACT["k"].isin(set(df["k"].dropna()))
    return _FACT[member] if prim == "semi_join" else _FACT[~member]


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].astype(object)
    df = df.where(df.notna(), None)
    return df.sort_values(list(df.columns), na_position="last",
                          key=lambda s: s.astype(str)).reset_index(drop=True)


PRIMS = ("grouped_count", "distinct_rows", "dedup_keep_first",
         "grouped_top_k", "anti_join", "semi_join", "lookup_join_inner",
         "lookup_join_left", "hash_join_inner", "hash_join_left",
         "hash_join_full")
CASES = ("empty", "one_row", "all_null_keys", "more_partitions_than_keys")


# empty partials (or an empty build side) have zero bytes, which is never
# over even a zero budget: the empty input only ever reaches the driver
# path, so it runs once; a full join always takes the exchange, so it runs
# on that path only
CASE_PATHS = [(prim, c, p) for prim in PRIMS for c in CASES
              for p in FINAL_PATHS
              if not (c == "empty" and p == "exchange")
              and not (prim == "hash_join_full" and p == "driver"
                       and c != "empty")]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("prim,case,path", CASE_PATHS)
def test_keyed_fold_degenerate_inputs(prim, case, path):
    """The result keeps its columns and matches pandas.  Empty partials
    have zero bytes, which is never over even a zero budget, so the empty
    input only ever reaches the driver path: it is checked once."""
    import ray.data as rd
    tbl, blocks = _case(case)
    if prim.startswith("lookup_join_"):
        # a dim lookup needs unique dim keys: rows ts < 3 hold each key
        # once (the more-partitions case spreads them over six blocks)
        tbl = tbl.filter(pc.less(tbl["ts"], 3))
    df = tbl.to_pandas()
    ds = rd.from_arrow(tbl)
    if blocks > 1:
        ds = ds.repartition(blocks)
    with final_path(path):
        out = _run(prim, ds)
        got = to_pandas(out)
    exp = _expected(prim, df)
    assert sorted(got.columns) == sorted(exp.columns)
    pd.testing.assert_frame_equal(_canon(got), _canon(exp),
                                  check_dtype=False)


def _plan_ops(ds) -> set[str]:
    """Names of the logical operators ``ds`` is built from."""
    ops, stack = set(), [ds._logical_plan.dag]
    while stack:
        op = stack.pop()
        ops.add(type(op).__name__)
        stack.extend(op.input_dependencies)
    return ops


@pytest.mark.usefixtures("ray_session")
def test_small_derived_dim_joins_without_exchange():
    """A small dim derived by ``map_batches`` (no input files to size it
    by) is materialized and sized exactly, so it broadcasts: the join's
    plan holds no hash repartition."""
    import ray.data as rd
    fact = pd.DataFrame({"k": [("a", "b", "c", "z")[i % 4]
                               for i in range(40)], "f": range(40)})
    dim = rd.from_pandas(pd.concat([_DIM, pd.DataFrame(
        {"k": ["c", "x"], "d": [-1, 40]})], ignore_index=True)).map_batches(
        lambda b: b.filter(pc.greater(b["d"], 0)), batch_format="pyarrow")
    out = lookup_join(rd.from_arrow(pa.Table.from_pandas(fact)), dim, "k",
                      "k", how="left")
    assert "Repartition" not in _plan_ops(out)
    exp = fact.merge(_DIM, on="k", how="left")
    pd.testing.assert_frame_equal(_canon(to_pandas(out)), _canon(exp),
                                  check_dtype=False)
