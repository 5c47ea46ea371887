"""Skew-mitigated join: exactness vs the plain hash path on a 90%-hot-key
fact, left-join semantics, explicit hot_keys, and the no-hot-keys edge."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from .conftest import final_path


def _mk(ray_mod, hot_frac=0.9, n=20_000):
    import ray.data as rd
    rng = np.random.default_rng(5)
    keys = np.where(rng.random(n) < hot_frac, 7,
                    rng.integers(0, 500, n)).astype(np.int64)
    fact = rd.from_arrow(pa.table({"k": keys, "x": np.arange(n)})) \
        .repartition(8)
    dim = rd.from_arrow(pa.table({
        "dk": pa.array(np.arange(500), pa.int64()),
        "name": pa.array([f"n{i}" for i in range(500)])})).repartition(4)
    return fact, dim


def _canon(df):
    return df.sort_values(["k", "x"]).reset_index(drop=True)[
        sorted(df.columns)]


@pytest.mark.usefixtures("ray_session")
def test_skew_join_matches_hash_join():
    from security_log_analysis_rust_ray.stages.joins import (lookup_join,
                                                             skew_join)
    import ray
    fact, dim = _mk(ray)
    got = skew_join(fact, dim, "k", "dk", how="inner").to_pandas()
    with final_path("exchange"):
        want = lookup_join(fact, dim, "k", "dk", how="inner").to_pandas()
    pd.testing.assert_frame_equal(_canon(got), _canon(want),
                                  check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_skew_join_left_and_explicit_hot_keys():
    import ray
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.joins import (lookup_join,
                                                             skew_join)
    fact, _ = _mk(ray)
    dim2 = rd.from_arrow(pa.table({"dk": pa.array([7, 8], pa.int64()),
                                   "name": pa.array(["seven", "eight"])}))
    got = skew_join(fact, dim2, "k", "dk", how="left",
                    hot_keys=pa.array([7], pa.int64())).to_pandas()
    with final_path("exchange"):
        want = lookup_join(fact, dim2, "k", "dk", how="left").to_pandas()
    pd.testing.assert_frame_equal(_canon(got), _canon(want),
                                  check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_skew_join_detects_the_hot_key():
    from security_log_analysis_rust_ray.stages.sketch import heavy_hitters
    import ray
    fact, _ = _mk(ray)
    hh = heavy_hitters(fact.select_columns(["k"]), "k", k=32)
    assert "7" in set(hh["key"].astype(str))


@pytest.mark.usefixtures("ray_session")
def test_skew_join_uniform_fact_no_hot_keys_path():
    """With an explicitly empty hot set every row takes the cold path."""
    import ray
    from security_log_analysis_rust_ray.stages.joins import (lookup_join,
                                                             skew_join)
    fact, dim = _mk(ray, hot_frac=0.0)
    got = skew_join(fact, dim, "k", "dk", how="inner",
                    hot_keys=pa.array([], pa.int64())).to_pandas()
    want = lookup_join(fact, dim, "k", "dk", how="inner").to_pandas()
    pd.testing.assert_frame_equal(_canon(got), _canon(want),
                                  check_dtype=False)


def _keyed_repartitions(op) -> int:
    """Hash repartitions (``repartition(keys=...)``) in ``op``'s plan."""
    n, stack = 0, [op]
    while stack:
        op = stack.pop()
        n += type(op).__name__ == "Repartition" and bool(op._keys)
        stack.extend(op.input_dependencies)
    return n


@pytest.mark.usefixtures("ray_session")
def test_skew_join_hot_slice_broadcasts_on_exchange_budget():
    """With a zero byte budget the cold rows take the hash exchange, but
    the hot slice still broadcasts: its branch of the plan holds no
    repartition, so the hot key's rows never meet in one partition."""
    import ray
    from security_log_analysis_rust_ray.stages.joins import (lookup_join,
                                                             skew_join)
    fact, dim = _mk(ray)
    with final_path("exchange"):
        out = skew_join(fact, dim, "k", "dk", how="inner")
        want = lookup_join(fact, dim, "k", "dk", how="inner").to_pandas()
    cold, hot = out._logical_plan.dag.input_dependencies
    assert _keyed_repartitions(hot) == 0
    assert _keyed_repartitions(cold) == 1
    pd.testing.assert_frame_equal(_canon(out.to_pandas()), _canon(want),
                                  check_dtype=False)
