"""Degenerate inputs through ``stages.dedup.keyed_fold``: every keyed
primitive built on it x {empty, one row, all-null keys, more partitions
than keys} x both final paths, each checked against pandas."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pytest

from security_log_analysis_rust_ray.stages import aggregate as agg
from security_log_analysis_rust_ray.stages import dedup as dd
from security_log_analysis_rust_ray.stages.joins import anti_join

from .conftest import FINAL_PATHS, final_path, to_pandas

_SCHEMA = pa.schema([("k", pa.string()), ("v", pa.int64()),
                     ("ts", pa.int64())])
_FACT = pd.DataFrame({"k": ["a", "b", "q", None], "f": [1, 2, 3, 4]})


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
    return anti_join(rd.from_pandas(_FACT), ds, "k", "k")


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
    return _FACT[~_FACT["k"].isin(set(df["k"].dropna()))]


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].astype(object)
    df = df.where(df.notna(), None)
    return df.sort_values(list(df.columns), na_position="last",
                          key=lambda s: s.astype(str)).reset_index(drop=True)


PRIMS = ("grouped_count", "distinct_rows", "dedup_keep_first",
         "grouped_top_k", "anti_join")
CASES = ("empty", "one_row", "all_null_keys", "more_partitions_than_keys")


# empty partials have zero bytes, which is never over even a zero budget:
# the empty input only ever reaches the driver path, so it runs once
CASE_PATHS = [(c, p) for c in CASES for p in FINAL_PATHS
              if not (c == "empty" and p == "exchange")]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("case,path", CASE_PATHS)
@pytest.mark.parametrize("prim", PRIMS)
def test_keyed_fold_degenerate_inputs(prim, case, path):
    """The result keeps its columns and matches pandas.  Empty partials
    have zero bytes, which is never over even a zero budget, so the empty
    input only ever reaches the driver path: it is checked once."""
    import ray.data as rd
    tbl, blocks = _case(case)
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
