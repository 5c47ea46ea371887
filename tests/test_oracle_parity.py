"""Driver-style parity: every queries() entry vs its oracle_sql() on sf0.001.

This mirrors exactly what the per-round CORRECTNESS gate does (row count +
schema + order-insensitive value equality), so a green run here predicts a
green driver run.
"""

from __future__ import annotations

import pyarrow as pa
import pytest

from .conftest import FINAL_PATHS, SF_SMOKE, assert_matches_oracle, final_path

import __ray_entry__ as entrymod


def _names():
    qs, os_ = entrymod.queries(), entrymod.oracle_sql()
    return sorted(set(qs) & set(os_))


@pytest.mark.parametrize("name", _names())
def test_query_matches_oracle(name, ray_session, oracle_smoke):
    result = entrymod.queries()[name](SF_SMOKE)
    assert_matches_oracle(result, oracle_smoke, entrymod.oracle_sql()[name])


# Every partial at sf0.001 is far under the broadcast budget, so the test
# above only reaches the grouped folds' driver finish.  One query per
# pipelines module (two chained folds in waiting_suppliers; max + sum in
# user_rfm_segments) runs here on the hash-exchange finish instead.
EXCHANGE_QUERIES = ["lineitem_pricing_summary", "waiting_suppliers",
                    "user_rfm_segments", "watermarks", "doc_exact_dedup",
                    "session_bounce_rate", "doc_length_quantiles_approx"]


@pytest.mark.parametrize("name", EXCHANGE_QUERIES)
def test_query_matches_oracle_on_exchange(name, ray_session, oracle_smoke):
    with final_path("exchange"):
        result = entrymod.queries()[name](SF_SMOKE)
        assert_matches_oracle(result, oracle_smoke,
                              entrymod.oracle_sql()[name])


def test_watermarks_keep_microseconds(ray_session):
    """Arrow's max keeps the parsed stream's timestamp unit on both final
    paths (the sink schema is timestamp[us])."""
    for path in FINAL_PATHS:
        with final_path(path):
            ds = entrymod.queries()["watermarks"](SF_SMOKE).materialize()
            assert ds.schema().base_schema.field("watermark").type == \
                pa.timestamp("us"), path


def test_every_query_has_callable():
    qs = entrymod.queries()
    assert qs, "queries() must not be empty"
    for name, fn in qs.items():
        assert callable(fn), name


def test_entry_smoke(ray_session):
    res = entrymod.entry()
    df = res.to_pandas() if hasattr(res, "to_pandas") else res
    assert len(df) >= 0
