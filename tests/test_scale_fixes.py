"""Round-2 scale fixes: data-sized shuffle partitions, vectorized hashing,
stream-dedup re-consumption safety, content-fingerprint merge skip."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from security_log_analysis_rust_ray.functions import hashing
from security_log_analysis_rust_ray.stages import dedup as dd


@pytest.mark.usefixtures("ray_session")
def test_num_partitions_tracks_data_volume(tmp_path):
    """Partition count grows with estimated input bytes (VERDICT r01 #7)."""
    import ray.data as rd
    small = tmp_path / "small"
    big = tmp_path / "big"
    pq.write_table(pa.table({"x": list(range(100))}), str(tmp_path / "s.parquet"))
    os.makedirs(small), os.makedirs(big)
    pq.write_table(pa.table({"x": list(range(2000))}), str(small / "p.parquet"))
    t = pa.table({"x": np.arange(400_000),
                  "t": ["some text payload %d" % i for i in range(400_000)]})
    pq.write_table(t, str(big / "p.parquet"), compression="none")

    ds_small = rd.read_parquet(str(small))
    ds_big = rd.read_parquet(str(big))
    from security_log_analysis_rust_ray.config import override, set_config
    prev = override(target_partition_bytes=64 << 10)  # 64 KB
    try:
        n_small = dd._num_partitions(ds_small)
        n_big = dd._num_partitions(ds_big)
    finally:
        set_config(prev)
    assert n_small == 8                  # floor
    assert n_big > n_small               # grows with bytes
    assert dd._num_partitions(ds_big) == 8   # default 256MB target -> floor
    assert dd._num_partitions(None) == 8


def test_hash64_deterministic_and_collision_free_enough():
    strs = pa.array([f"shingle number {i} with words" for i in range(20_000)])
    h1 = hashing.hash64(strs)
    h2 = hashing.hash64(strs)
    assert h1.dtype == np.uint64
    assert np.array_equal(h1, h2)
    assert len(np.unique(h1)) == len(strs)          # no collisions at 20k
    # different seeds decorrelate
    h3 = hashing.hash64(strs, seed=99)
    assert not np.array_equal(h1, h3)


def test_fnv_fallback_matches_contract():
    strs = pa.array(["", "a", "ab", "hello world", "x" * 300])
    h = hashing._fnv1a64(strs.cast(pa.string()))
    assert len(np.unique(h[1:])) == 4
    # position-wise loop must equal a per-string reference FNV-1a
    def ref_fnv(s: bytes) -> int:
        h = 0xCBF29CE484222325
        for byte in s:
            h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return h
    for s, hv in zip(strs.to_pylist(), h):
        assert ref_fnv(s.encode()) == int(hv)


def test_mix64_vectorized():
    a = np.arange(1000, dtype=np.uint64)
    b = np.arange(1000, dtype=np.uint64)[::-1].copy()
    m = hashing.mix64([a, b])
    assert len(np.unique(m)) == 1000
    assert np.array_equal(m, hashing.mix64([a, b]))
    assert not np.array_equal(m, hashing.mix64([b, a]))  # order matters


@pytest.mark.usefixtures("ray_session")
def test_stream_dedup_safe_to_consume_twice():
    """ADVICE r01 (medium): the returned Dataset is materialized, so a
    second consumption must NOT silently drop keys."""
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.stream_dedup import (
        stream_dedup_keys)
    df = pd.DataFrame({"k": [f"v{i % 97}" for i in range(5000)]})
    out = stream_dedup_keys(rd.from_pandas(df).repartition(8), ["k"])
    assert out.count() == 97
    assert len(out.to_pandas()) == 97       # second consumption, same result
    assert out.count() == 97                # third


@pytest.mark.usefixtures("ray_session")
def test_merge_skip_detects_content_change(tmp_path):
    """ADVICE r01: a same-count content change must NOT be skipped."""
    import ray.data as rd
    from security_log_analysis_rust_ray.sources import exports

    base = pd.DataFrame({
        "service": ["ssh", "ssh"],
        "server": ["s0", "s0"],
        "datetime": pd.to_datetime(["2024-03-01", "2024-03-02"]),
        "host": ["a.example.com", "b.example.com"],
        "username": ["u1", "u2"],
        "ts": pd.to_datetime(["2024-03-01", "2024-03-02"]),
        "conv_id": ["c1", "c2"],
        "turn_idx": np.array([0, 0], dtype=np.int32),
    })
    out = str(tmp_path / "exp")
    exports.export_month_partitioned(rd.from_pandas(base), out)

    # same natural key as row 1 but EARLIER keep-first order -> replaces it,
    # leaving the row count unchanged
    replacement = base.iloc[[0]].assign(
        conv_id=["c0"], turn_idx=np.array([0], dtype=np.int32))
    exports.export_month_partitioned(rd.from_pandas(replacement), out)

    final = rd.read_parquet(os.path.join(out, "year=2024", "month=3"))
    got = final.to_pandas().sort_values("conv_id")
    assert sorted(got["conv_id"]) == ["c0", "c2"]   # c1 replaced, not stale


@pytest.mark.usefixtures("ray_session")
def test_hll_approx_distinct_error_bound():
    """HLL sketch (p=12, ~1.6% relative error): estimate within 5% of the
    true distinct count at a cardinality where linear counting no longer
    applies; partials merge across many blocks."""
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.sketch import approx_distinct
    n_distinct = 150_000
    df = pd.DataFrame({"k": [f"key_{i % n_distinct}" for i in range(300_000)]})
    est = approx_distinct(rd.from_pandas(df).repartition(16), "k")
    err = abs(est - n_distinct) / n_distinct
    assert err < 0.05, f"HLL error {err:.3f}"


def test_hll_partial_merge_equals_single_pass():
    """Mergeability: max-merge of split partials == one-shot registers."""
    import numpy as np
    import pyarrow as pa
    from security_log_analysis_rust_ray.stages import sketch
    keys = pa.array([f"v{i}" for i in range(50_000)])
    whole = sketch.hll_partial(keys)
    a = sketch.hll_partial(keys.slice(0, 20_000))
    b = sketch.hll_partial(keys.slice(20_000))
    assert np.array_equal(np.maximum(a, b), whole)
    assert abs(sketch.hll_estimate(whole) - 50_000) / 50_000 < 0.05


@pytest.mark.usefixtures("ray_session")
def test_connected_components_paths_agree(monkeypatch):
    """Graph CC: the one-task numpy path and the distributed join loop
    produce identical components on a graph with chains, triangles and
    isolated pairs; the loop's grouped min folds run on both final
    paths."""
    import ray.data as rd
    from security_log_analysis_rust_ray.stages import graph
    from .conftest import FINAL_PATHS, final_path
    edges = pd.DataFrame({
        "a": [1, 2, 3,  10, 11,  20,  30, 31, 32, 33],
        "b": [2, 3, 4,  11, 12,  21,  31, 32, 33, 30],
    })
    expected = {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10, 12: 10,
                20: 20, 21: 20, 30: 30, 31: 30, 32: 30, 33: 30}

    ds = rd.from_pandas(edges)
    fast = graph.connected_components(ds, "a", "b").to_pandas()
    assert dict(zip(fast["node"], fast["label"])) == expected

    monkeypatch.setattr(graph, "CC_LOCAL_MAX_EDGES", 0)
    for path in FINAL_PATHS:
        with final_path(path):
            slow = graph.connected_components(rd.from_pandas(edges), "a",
                                              "b", nparts=4).to_pandas()
        assert dict(zip(slow["node"], slow["label"])) == expected, path


@pytest.mark.usefixtures("ray_session")
def test_query_ttl_cache():
    """T3 parity (reference TimedSizedCache, 100 entries / 3600s,
    security_log_http.rs:102-122): hit serves from memory, TTL expiry and
    LRU size bound evict."""
    from security_log_analysis_rust_ray.pipelines.reports import country_counts
    from security_log_analysis_rust_ray.state.query_cache import (
        TTLCache, cached_query)
    from .conftest import SF_SMOKE

    t = {"now": 0.0}
    cache = TTLCache(max_size=3, ttl_s=10.0, clock=lambda: t["now"])
    a = cached_query("country_counts", SF_SMOKE, country_counts, cache)
    b = cached_query("country_counts", SF_SMOKE, country_counts, cache)
    assert cache.hits == 1 and cache.misses == 1
    assert a is b                       # served from memory, no re-execution
    t["now"] = 11.0                     # past TTL -> recompute
    c = cached_query("country_counts", SF_SMOKE, country_counts, cache)
    assert c is not b and cache.misses == 2
    # LRU size bound
    for i in range(4):
        cache.get_or_compute(f"k{i}", lambda i=i: i)
    assert len(cache) == 3
    assert cache.get_or_compute("k0", lambda: "recomputed") == "recomputed"


@pytest.mark.usefixtures("ray_session")
def test_misra_gries_heavy_hitters_guarantee():
    """MG guarantee: every key with true frequency > n/(k+1) appears in the
    merged sketch, and reported counts never exceed true counts."""
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.sketch import heavy_hitters
    n = 120_000
    # 3 hot keys own 60% of rows; the tail is uniform over 5000 keys
    hot = np.random.RandomState(5).choice(["H0", "H1", "H2"], size=int(n * 0.6))
    tail = [f"t{i % 5000}" for i in range(n - len(hot))]
    vals = np.concatenate([hot, np.array(tail, dtype=object)])
    rng = np.random.RandomState(6); rng.shuffle(vals)
    df = pd.DataFrame({"k": vals})
    true = df["k"].value_counts()

    k = 32
    out = heavy_hitters(rd.from_pandas(df).repartition(16), "k", k=k)
    got = dict(zip(out["key"], out["min_count"]))
    threshold = n / (k + 1)
    for key, cnt in true.items():
        if cnt > threshold:
            assert key in got, f"heavy hitter {key} ({cnt}) missing"
    for key, lb in got.items():
        assert lb <= true.get(key, 0), f"{key} lower bound {lb} overcounts"
    assert {"H0", "H1", "H2"} <= set(got)


@pytest.mark.usefixtures("ray_session")
def test_stream_dedup_task_retry_idempotent():
    """A Ray retry of a map task re-presents the same batch to the warm
    index actors; it must get the same first-seen answer, not an empty
    one (r03 review: keys inserted by a killed attempt were lost).  A
    DIFFERENT batch carrying the same keys is still suppressed."""
    import pyarrow as pa

    from security_log_analysis_rust_ray.stages.stream_dedup import (
        KeyIndexShard, StreamDedup)

    actors = [KeyIndexShard.remote() for _ in range(2)]
    stage = StreamDedup(actors, ["k"])
    b = pa.table({"k": pa.array(["a", "b", "c"]), "x": pa.array([1, 2, 3])})
    first = stage(b)
    assert sorted(first["k"].to_pylist()) == ["a", "b", "c"]
    retry = stage(b)  # simulated task retry: identical content
    assert sorted(retry["k"].to_pylist()) == ["a", "b", "c"]
    other = stage(pa.table({"k": pa.array(["c", "d"]),
                            "x": pa.array([9, 9])}))
    assert other["k"].to_pylist() == ["d"]
