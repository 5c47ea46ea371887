"""Shared pytest fixtures: one Ray session for the whole test run, a DuckDB
oracle runner with the driver's pre-registered views, and a driver-style
order-insensitive comparator."""

from __future__ import annotations

import contextlib
import os
import sys

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF_SMOKE = "/root/testdata/sf0.001"
SF_CORRECT = os.environ.get("SLAR_TEST_SF", "/root/testdata/sf0.01")

from security_log_analysis_rust_ray.sources.readers import TABLES  # noqa: E402


@pytest.fixture(scope="session")
def ray_session():
    import ray
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


# The two finishes of stages.dedup.keyed_fold (under grouped aggregates,
# distinct, dedup, per-group top-k and the semi/anti key set) and the two
# paths of the equi-joins in stages.joins: partials or a materialized build
# side within the default Config.broadcast_max_bytes budget combine on the
# driver or broadcast; a zero budget sends any non-empty ones through the
# hash exchange.
FINAL_PATHS = ("driver", "exchange")


@contextlib.contextmanager
def final_path(path: str):
    """Run the keyed folds and joins built inside the block on one final
    path."""
    from security_log_analysis_rust_ray.config import override, set_config
    assert path in FINAL_PATHS, path
    prev = override(broadcast_max_bytes=0) if path == "exchange" else None
    try:
        yield
    finally:
        if prev is not None:
            set_config(prev)


def oracle_con(sf_dir: str) -> duckdb.DuckDBPyConnection:
    """DuckDB connection with the driver's table views registered."""
    con = duckdb.connect()
    for t in TABLES:
        path = os.path.join(sf_dir, f"{t}.parquet")
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
    return con


@pytest.fixture(scope="session")
def oracle_smoke():
    con = oracle_con(SF_SMOKE)
    yield con
    con.close()


@pytest.fixture(scope="session")
def oracle_correct():
    con = oracle_con(SF_CORRECT)
    yield con
    con.close()


def to_pandas(result) -> pd.DataFrame:
    """Normalize a Dataset / pyarrow Table / DataFrame to pandas.

    An ALL-EMPTY Ray Dataset keeps its Arrow schema (ds.schema() is
    correct) but Dataset.to_pandas() drops the columns; rebuild the empty
    frame from the schema so empty-result queries still schema-compare."""
    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    df = result.to_pandas()  # ray Dataset
    if len(df) == 0 and len(df.columns) == 0:
        sch = result.schema()
        base = getattr(sch, "base_schema", None)
        if isinstance(base, pa.Schema):
            return base.empty_table().to_pandas()
    return df


def canonicalize(df: pd.DataFrame) -> pd.DataFrame:
    """Driver-style: sort columns by name, then rows by all values."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns), na_position="last").reset_index(drop=True)


def assert_matches_oracle(result, con: duckdb.DuckDBPyConnection, sql: str):
    got = canonicalize(to_pandas(result))
    exp = canonicalize(con.execute(sql).df())
    assert list(got.columns) == list(exp.columns), (
        f"column mismatch: {list(got.columns)} vs {list(exp.columns)}")
    assert len(got) == len(exp), f"row count {len(got)} != {len(exp)}"
    # near-bit-exact: the engine rounds half-away-from-zero like the oracle,
    # but partial-per-block float sums don't guarantee identical operand
    # order, so a value sitting exactly on a rounding boundary can differ in
    # the last ulp (ADVICE r01) — allow a tiny tolerance on float columns
    # (integer/string columns still compare exactly)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False,
                                  check_exact=False, rtol=1e-9, atol=1e-9)
