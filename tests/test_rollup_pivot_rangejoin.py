"""grouped_count_rollup / pivot_counts / range_lookup_join vs DuckDB."""
import duckdb
import pandas as pd
import pyarrow as pa
import pytest

from .conftest import FINAL_PATHS, final_path


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
def test_rollup_matches_duckdb():
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.aggregate import \
        grouped_count_rollup

    t = pa.table({
        "a": ["x", "x", "y", "y", "y", None, "x"],
        "b": ["p", "q", "p", None, "p", "p", "p"],
    })
    got = grouped_count_rollup(rd.from_arrow(t).repartition(3),
                               ["a", "b"]).to_pandas()
    want = duckdb.sql(
        "SELECT a, b, CAST(GROUPING(a, b) AS BIGINT) AS grp_id,"
        " count(*) AS cnt FROM t GROUP BY ROLLUP(a, b)").df()
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want))


@pytest.mark.usefixtures("ray_session")
def test_rollup_final_paths_agree():
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.aggregate import \
        grouped_count_rollup

    t = pa.table({"a": ["x", "y"] * 10, "b": ["p", "q"] * 10})
    ds = rd.from_arrow(t).repartition(4)
    with final_path("driver"):
        a = grouped_count_rollup(ds, ["a", "b"]).to_pandas()
    with final_path("exchange"):
        b = grouped_count_rollup(ds, ["a", "b"]).to_pandas()
    pd.testing.assert_frame_equal(_sorted(a), _sorted(b))


@pytest.mark.usefixtures("ray_session")
def test_cube_matches_duckdb():
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.aggregate import \
        grouped_count_cube

    t = pa.table({
        "a": ["x", "x", "y", "y", "y", None, "x"],
        "b": ["p", "q", "p", None, "p", "p", "p"],
    })
    got = grouped_count_cube(rd.from_arrow(t).repartition(3),
                             ["a", "b"]).to_pandas()
    want = duckdb.sql(
        "SELECT a, b, CAST(GROUPING(a, b) AS BIGINT) AS grp_id,"
        " count(*) AS cnt FROM t GROUP BY CUBE(a, b)").df()
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want))


@pytest.mark.usefixtures("ray_session")
def test_cube_three_keys_final_paths_agree():
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.aggregate import \
        grouped_count_cube

    t = pa.table({
        "a": ["x", "y"] * 12,
        "b": ["p", "p", "q", None] * 6,
        "c": ["1", "2", "2"] * 8,
    })
    ds = rd.from_arrow(t).repartition(4)
    with final_path("driver"):
        got = grouped_count_cube(ds, ["a", "b", "c"]).to_pandas()
    want = duckdb.sql(
        "SELECT a, b, c, CAST(GROUPING(a, b, c) AS BIGINT) AS grp_id,"
        " count(*) AS cnt FROM t GROUP BY CUBE(a, b, c)").df()
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want))
    with final_path("exchange"):
        other = grouped_count_cube(ds, ["a", "b", "c"]).to_pandas()
    pd.testing.assert_frame_equal(_sorted(got), _sorted(other))


@pytest.mark.usefixtures("ray_session")
def test_pivot_counts_matches_duckdb():
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.aggregate import pivot_counts

    t = pa.table({
        "unit": ["sshd", "cron", "sshd", "cron", "sshd", None],
        "lvl": ["info", "warn", "info", "error", "debug", "info"],
    })
    want = duckdb.sql(
        "SELECT unit,"
        " count(*) FILTER (WHERE lvl='debug') AS debug,"
        " count(*) FILTER (WHERE lvl='info') AS info,"
        " count(*) FILTER (WHERE lvl='warn') AS warn,"
        " count(*) FILTER (WHERE lvl='error') AS error"
        " FROM t GROUP BY unit").df()
    for path in FINAL_PATHS:
        with final_path(path):
            got = pivot_counts(rd.from_arrow(t).repartition(3), "unit",
                               "lvl", ["debug", "info", "warn", "error"]
                               ).to_pandas()
        pd.testing.assert_frame_equal(_sorted(got), _sorted(want))


@pytest.mark.usefixtures("ray_session")
def test_grouped_stats_matches_duckdb():
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.aggregate import grouped_stats

    t = pa.table({
        "k": ["a", "a", "a", "b", None, None, "c"],
        "v": pa.array([1.0, 2.5, 4.0, 7.0, -1.0, 3.0, 0.5]),
    })
    want = duckdb.sql(
        "SELECT k, count(v) AS n, round(avg(v), 6) AS mean,"
        " round(stddev_samp(v), 6) AS std, min(v) AS min_v, max(v) AS max_v"
        " FROM t GROUP BY k").df()
    for path in FINAL_PATHS:
        with final_path(path):
            got = grouped_stats(rd.from_arrow(t).repartition(3), ["k"], "v"
                                ).to_pandas()
        pd.testing.assert_frame_equal(_sorted(got), _sorted(want),
                                      check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_range_lookup_join_inner_left_and_nulls():
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.joins import range_lookup_join

    fact = rd.from_arrow(pa.table({
        "v": pa.array([0, 3, 4, 9, 10, 99, None], pa.int64()),
        "tag": ["a", "b", "c", "d", "e", "f", "g"],
    })).repartition(2)
    ranges = rd.from_arrow(pa.table({
        "lo": pa.array([0, 4, 10], pa.int64()),
        "hi": pa.array([3, 9, 20], pa.int64()),
        "band": ["low", "mid", "high"],
    }))
    inner = range_lookup_join(fact, ranges, "v", "lo", "hi").to_pandas()
    inner = inner.sort_values("tag").reset_index(drop=True)
    # 99 is out of band, None never matches
    assert list(inner["tag"]) == ["a", "b", "c", "d", "e"]
    assert list(inner["band"]) == ["low", "low", "mid", "mid", "high"]

    left = range_lookup_join(fact, ranges, "v", "lo", "hi",
                             how="left").to_pandas()
    left = left.sort_values("tag").reset_index(drop=True)
    assert len(left) == 7
    assert pd.isna(left.loc[left["tag"] == "f", "band"]).all()
    assert pd.isna(left.loc[left["tag"] == "g", "band"]).all()


@pytest.mark.usefixtures("ray_session")
def test_range_lookup_join_rejects_overlap():
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.joins import range_lookup_join

    fact = rd.from_arrow(pa.table({"v": pa.array([1], pa.int64())}))
    ranges = rd.from_arrow(pa.table({
        "lo": pa.array([0, 3], pa.int64()),
        "hi": pa.array([5, 9], pa.int64()),   # 3..5 overlaps
        "band": ["a", "b"],
    }))
    with pytest.raises(ValueError, match="overlap"):
        range_lookup_join(fact, ranges, "v", "lo", "hi")


@pytest.mark.usefixtures("ray_session")
def test_range_lookup_join_empty_ranges():
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.joins import range_lookup_join

    fact = rd.from_arrow(pa.table({"v": pa.array([1, 2], pa.int64())}))
    ranges = rd.from_arrow(pa.table({
        "lo": pa.array([], pa.int64()),
        "hi": pa.array([], pa.int64()),
        "band": pa.array([], pa.string()),
    }))
    assert range_lookup_join(fact, ranges, "v", "lo", "hi").count() == 0
    left = range_lookup_join(fact, ranges, "v", "lo", "hi", how="left")
    df = left.to_pandas()
    assert len(df) == 2 and df["band"].isna().all()


@pytest.mark.usefixtures("ray_session")
def test_hash_join_full_outer_matches_duckdb():
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.joins import hash_join

    ltab = pa.table({
        "k": pa.array([1, 2, 2, 3, None], pa.int64()),
        "lv": ["a", "b", "c", "d", "e"],
    })
    rtab = pa.table({
        "rk": pa.array([2, 2, 4, None], pa.int64()),
        "rv": ["x", "y", "z", "w"],
    })
    got = hash_join(rd.from_arrow(ltab).repartition(2),
                    rd.from_arrow(rtab).repartition(2),
                    on=("k",), right_on=("rk",), how="full").to_pandas()
    want = duckdb.sql(
        "SELECT COALESCE(l.k, r.rk) AS k, lv, rv FROM ltab l"
        " FULL OUTER JOIN rtab r ON l.k = r.rk").df()
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want),
                                  check_dtype=False)
    # both unmatched directions present
    assert got["rv"].isna().sum() >= 2   # k=1,3 and the null-key left row
    assert got["lv"].isna().sum() >= 2   # rk=4 and the null-key right row


@pytest.mark.usefixtures("ray_session")
def test_hash_join_full_outer_empty_sides():
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.joins import hash_join

    left = rd.from_arrow(pa.table({"k": pa.array([1], pa.int64()),
                                   "lv": ["a"]}))
    right_empty = rd.from_arrow(pa.table({
        "rk": pa.array([], pa.int64()), "rv": pa.array([], pa.string())}))
    out = hash_join(left, right_empty, on=("k",), right_on=("rk",),
                    how="full").to_pandas()
    assert list(out["k"]) == [1] and out["rv"].isna().all()
