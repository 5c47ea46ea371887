"""Skew handling and empty/degenerate-input edge cases."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from security_log_analysis_rust_ray.stages import aggregate as agg
from security_log_analysis_rust_ray.stages import dedup as dd
from security_log_analysis_rust_ray.stages.parse import route_parse

from .conftest import FINAL_PATHS, final_path


@pytest.mark.usefixtures("ray_session")
def test_grouped_count_hot_key_skew():
    """One key owns 90% of rows: both final paths stay correct, and the
    partial combiner bounds what the final combine sees (at most one row
    per (key, block) regardless of the hot key's row count)."""
    import ray.data as rd
    n = 200_000
    keys = np.where(np.arange(n) % 10 == 0,
                    (np.arange(n) // 10) % 50 + 1, 0)  # key 0 = 90% of rows
    df = pd.DataFrame({"k": [f"key_{i}" for i in keys]})
    expected = df["k"].value_counts()

    ds = rd.from_pandas(df).repartition(16)
    for path in FINAL_PATHS:
        with final_path(path):
            out = agg.grouped_count(ds, ["k"]).to_pandas() \
                .set_index("k")["cnt"]
        assert out["key_0"] == expected["key_0"]
        assert out.sum() == n
        assert len(out) == 51


@pytest.mark.usefixtures("ray_session")
def test_dedup_hot_key():
    """A single natural key duplicated 100k times collapses to exactly the
    minimum-order row."""
    import ray.data as rd
    n = 100_000
    df = pd.DataFrame({
        "service": ["ssh"] * n,
        "server": ["srv0"] * n,
        "datetime": pd.to_datetime(["2024-01-01"] * n),
        "host": ["h.example.com"] * n,
        "username": [None] * n,
        "ts": pd.to_datetime("2024-01-01") + pd.to_timedelta(np.arange(n), "s"),
        "conv_id": [f"conv_{i}" for i in range(n)],
        "turn_idx": np.zeros(n, dtype=np.int32),
    })
    out = dd.dedup_keep_first(rd.from_pandas(df).repartition(8)).to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["conv_id"] == "conv_0"  # min ts wins
    assert pd.isna(out.iloc[0]["username"])    # sentinel restored to null


def test_route_parse_empty_and_degenerate():
    empty = pa.table({
        "conv_id": pa.array([], pa.string()),
        "turn_idx": pa.array([], pa.int32()),
        "role": pa.array([], pa.string()),
        "tool": pa.array([], pa.string()),
        "ts": pa.array([], pa.timestamp("us")),
        "text": pa.array([], pa.string()),
    })
    out = route_parse(empty)
    assert out.num_rows == 0
    assert "sink" in out.schema.names

    weird = pa.table({
        "conv_id": pa.array(["conv_1", "x", "conv_2"]),
        "turn_idx": pa.array([0, 1, 2], pa.int32()),
        "role": pa.array(["user"] * 3),
        "tool": pa.array([None] * 3, pa.string()),
        "ts": pa.array([1700000000000000] * 3, pa.timestamp("us")),
        "text": pa.array(["", " ", "\t\n Invalid user"]),  # no parseable rows
    })
    assert route_parse(weird).num_rows == 0


@pytest.mark.usefixtures("ray_session")
def test_dedup_empty_dataset():
    import ray.data as rd
    df = pd.DataFrame({
        "service": pd.Series([], dtype="string"),
        "server": pd.Series([], dtype="string"),
        "datetime": pd.Series([], dtype="datetime64[us]"),
        "host": pd.Series([], dtype="string"),
        "username": pd.Series([], dtype="string"),
        "ts": pd.Series([], dtype="datetime64[us]"),
        "conv_id": pd.Series([], dtype="string"),
        "turn_idx": pd.Series([], dtype="int32"),
    })
    out = dd.dedup_keep_first(rd.from_pandas(df))
    assert out.count() == 0


@pytest.mark.usefixtures("ray_session")
def test_grouped_count_with_empty_blocks():
    """Regression: at higher parallelism some partial blocks are EMPTY
    zero-column tables; the driver concat must skip them (found by
    end-to-end verification at num_cpus=8, invisible at 4)."""
    import ray.data as rd
    import pyarrow.compute as pc2
    df = pd.DataFrame({"k": ["a"] * 50 + ["b"] * 50,
                       "v": list(range(100))})
    ds = rd.from_pandas(df).repartition(8)
    # filter one value away entirely -> several blocks become empty
    ds = ds.map_batches(lambda b: b.filter(pc2.equal(b["k"], "a")),
                        batch_format="pyarrow", batch_size=None)
    # fully-empty input -> empty result with stable schema
    ds2 = rd.from_pandas(df).map_batches(
        lambda b: b.filter(pc2.equal(b["k"], "zzz")),
        batch_format="pyarrow", batch_size=None)
    for path in FINAL_PATHS:
        with final_path(path):
            out = agg.grouped_count(ds, ["k"]).to_pandas()
        assert out.to_dict("records") == [{"k": "a", "cnt": 50}]
    # zero-byte partials never exceed the budget, so empty input always
    # takes the driver path (Ray drops column metadata when converting an
    # empty Dataset to pandas; the Arrow-side schema is (k, cnt))
    assert len(agg.grouped_count(ds2, ["k"]).to_pandas()) == 0


@pytest.mark.usefixtures("ray_session")
def test_grouped_aggregates_empty_input_keep_key_types():
    """No partial rows: the result keeps the input's key and value types
    (an int64 key must not come back as a string column).  Empty partials
    have zero bytes, so this input only ever reaches the driver path."""
    import ray.data as rd
    ds = rd.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                 "v": pa.array([], pa.float64())}))
    cnt = agg.grouped_count(ds, ["k"]).schema().base_schema
    mx = agg.grouped_max(ds, ["k"], "v", alias="mx").schema().base_schema
    assert cnt == pa.schema([("k", pa.int64()), ("cnt", pa.int64())])
    assert mx == pa.schema([("k", pa.int64()), ("mx", pa.float64())])


@pytest.mark.usefixtures("ray_session")
def test_stream_dedup_shared_index():
    """The raw-actor shared-index op: at-most-once key emission across
    concurrently processed batches, exactly the distinct key set."""
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.stream_dedup import (
        stream_dedup_keys)
    n = 50_000
    df = pd.DataFrame({
        "k1": [f"a{i % 700}" for i in range(n)],     # heavy duplication
        "k2": [None if i % 3 == 0 else f"b{i % 11}" for i in range(n)],
    })
    ds = rd.from_pandas(df).repartition(16)          # many concurrent batches
    out = stream_dedup_keys(ds, ["k1", "k2"], n_shards=4).to_pandas()
    expected = df.drop_duplicates(["k1", "k2"])
    assert len(out) == len(expected)
    got = set(map(tuple, out.fillna("<N>").itertuples(index=False)))
    exp = set(map(tuple, expected.fillna("<N>").itertuples(index=False)))
    assert got == exp


@pytest.mark.usefixtures("ray_session")
def test_hot_group_pair_guard():
    """VERDICT r02 #6: one degenerate key holding ~all docs must NOT emit a
    k^2 pair block — the guard drops groups whose pair count exceeds
    Config.max_group_pairs, while normal-size groups still pair up."""
    import pandas as pd
    import ray.data as rd
    from security_log_analysis_rust_ray.config import override, set_config
    from security_log_analysis_rust_ray.pipelines.docs import _group_pairs

    n_hot = 200                      # hot band: 200 docs -> 19,900 pairs
    hot = pd.DataFrame({"band_hash": 7, "doc_id": range(n_hot)})
    cold = pd.DataFrame({"band_hash": [8, 8, 9, 9, 9],
                         "doc_id": [1000, 1001, 2000, 2001, 2002]})
    ds = rd.from_pandas(pd.concat([hot, cold], ignore_index=True))
    prev = override(max_group_pairs=100)   # cap well under 19,900
    try:
        pairs = _group_pairs(ds, ["band_hash"], nparts=4).to_pandas()
    finally:
        set_config(prev)
    # hot group fully dropped; cold groups intact (1 + 3 pairs)
    assert len(pairs) == 1 + 3
    assert set(map(tuple, pairs[["a", "b"]].values)) == {
        (1000, 1001), (2000, 2001), (2000, 2002), (2001, 2002)}

    # control: with the default cap the hot group pairs normally
    pairs_full = _group_pairs(ds, ["band_hash"], nparts=4).count()
    assert pairs_full == n_hot * (n_hot - 1) // 2 + 4


@pytest.mark.usefixtures("ray_session")
def test_hot_ivf_bucket_guard(tmp_path):
    """Same guard on the IVF bucket pair expansion (ann.bucket_pairs):
    capped buckets are skipped, small buckets still emit pairs."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    from security_log_analysis_rust_ray.config import override, set_config
    from security_log_analysis_rust_ray.pipelines import ann

    rng = np.random.default_rng(11)
    # 60 near-identical vectors (one hot bucket) + 4 in a distinct direction
    dim = ann.DIM
    base = rng.normal(size=dim)
    hot = base + rng.normal(scale=1e-3, size=(60, dim))
    other = -base + rng.normal(scale=1e-3, size=(4, dim))
    emb = np.vstack([hot, other])
    df = pd.DataFrame({"vec_id": np.arange(len(emb), dtype=np.int64),
                       "embedding": list(emb.astype(np.float64))})
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(df), str(d / "embeddings.parquet"))

    prev = override(max_group_pairs=50)   # hot bucket: 60C2=1770 > 50
    try:
        ann._PAIR_CACHE.clear()
        guarded = ann.embedding_near_dup_pairs(str(d)).to_pandas()
    finally:
        set_config(prev)
        ann._PAIR_CACHE.clear()
    control = ann.embedding_near_dup_pairs(str(d)).to_pandas()
    ann._PAIR_CACHE.clear()
    # the k^2 hot bucket is dropped (a few pairs may survive via small
    # secondary multi-probe buckets); the cold bucket still pairs up
    assert len(control) > 1000            # unguarded: hot bucket explodes
    assert len(guarded) < len(control) / 5
    cold = {60, 61, 62, 63}
    got_ids = set(guarded["a"]) | set(guarded["b"])
    assert cold & got_ids, "small buckets must still emit pairs"


@pytest.mark.usefixtures("ray_session")
def test_mn_hash_join_hot_key_skew():
    """One key owns ~all rows on BOTH sides of an m:n hash_join (the
    worst-case partition: a near-cross-product lands in one task).  The
    join must complete and match pandas exactly on both paths."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.joins import hash_join

    n = 2000
    left = pd.DataFrame({"k": [7] * n + [1, 2, 3],
                         "lv": list(range(n + 3))})
    right = pd.DataFrame({"k": [7] * 50 + [2, 9],
                          "rv": list(range(52))})
    exp = left.merge(right, on="k")          # 100k hot rows + 1
    for path in FINAL_PATHS:
        with final_path(path):
            out = hash_join(rd.from_pandas(left).repartition(8),
                            rd.from_pandas(right).repartition(4),
                            on=("k",), nparts=8).to_pandas()
        assert len(out) == len(exp)
        g = out.sort_values(["k", "lv", "rv"]).reset_index(drop=True)
        e = exp.sort_values(["k", "lv", "rv"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(g, e, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_dedup_keep_first_null_nonstring_key():
    """Nulls in NON-string key columns (datetime in NATURAL_KEY) must
    group together like SQL PARTITION BY — pc.equal(null, null) is null
    and used to keep both duplicates (r03 review)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from security_log_analysis_rust_ray.stages.dedup import dedup_keep_first

    t = pa.table({
        "service": pa.array(["ssh", "ssh", "ssh"]),
        "server": pa.array(["s1", "s1", "s1"]),
        "datetime": pa.array([None, None, pd.Timestamp("2024-01-01")],
                             pa.timestamp("us")),
        "host": pa.array(["h.x", "h.x", "h.x"]),
        "username": pa.array(["u", "u", "u"]),
        "ts": pa.array([pd.Timestamp("2024-01-01")] * 3, pa.timestamp("us")),
        "conv_id": pa.array(["c1", "c2", "c3"]),
        "turn_idx": pa.array([1, 2, 3], pa.int32()),
    })
    out = dedup_keep_first(rd.from_arrow(t)).to_pandas()
    # the two null-datetime duplicates collapse to one survivor
    assert len(out) == 2
    assert out["datetime"].isna().sum() == 1


@pytest.mark.usefixtures("ray_session")
def test_month_export_null_datetime_partition(tmp_path):
    """Rows with a NULL datetime land in year=0/month=0 instead of
    crashing the histogram walk or silently vanishing (r03 review)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from security_log_analysis_rust_ray.sources.exports import (
        export_month_partitioned)

    t = pa.table({
        "service": pa.array(["ssh", "ssh"]),
        "server": pa.array(["s1", "s1"]),
        "datetime": pa.array([pd.Timestamp("2024-03-01"), None],
                             pa.timestamp("us")),
        "host": pa.array(["a.x", "b.x"]),
        "username": pa.array(["u", "v"]),
        "ts": pa.array([pd.Timestamp("2024-03-01")] * 2, pa.timestamp("us")),
        "conv_id": pa.array(["c1", "c2"]),
        "turn_idx": pa.array([1, 2], pa.int32()),
    })
    out = str(tmp_path / "export")
    res = export_month_partitioned(rd.from_arrow(t), out)
    assert res.get("year=2024/month=3") == 1
    assert res.get("year=0/month=0") == 1


def test_sync_crashed_merge_leftover_is_ignored(tmp_path):
    """A directory left by a killed mid-merge (its name used to end in
    .parquet) must not crash scan_store / the next sync (r03 review)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from security_log_analysis_rust_ray.sources.sync import scan_store

    store = tmp_path / "store"
    store.mkdir()
    pq.write_table(pa.table({"x": [1]}), str(store / "k1.parquet"))
    # legacy-style leftover: a DIRECTORY whose name ends in .parquet
    (store / "_tmp-sync-k1.parquet").mkdir()
    keys = scan_store(str(store))
    assert set(keys) == {"k1.parquet"}


@pytest.mark.usefixtures("ray_session")
def test_grouped_sum_all_paths_match_pandas():
    """grouped_sum: both final paths agree with pandas groupby-sum,
    including null string keys (SQL GROUP BY groups nulls together)."""
    import ray.data as rd
    rng = np.random.RandomState(7)
    n = 50_000
    k = np.array([f"t{i}" for i in rng.randint(0, 200, n)], dtype=object)
    k[rng.rand(n) < 0.01] = None
    df = pd.DataFrame({"k": k, "v": rng.randint(1, 100, n).astype(np.int64)})
    expected = df.groupby("k", dropna=False)["v"].sum()

    ds = rd.from_pandas(df).repartition(16)
    for path in FINAL_PATHS:
        with final_path(path):
            out = agg.grouped_sum(ds, ["k"], "v", alias="s") \
                .to_pandas().set_index("k")["s"]
        assert len(out) == len(expected)
        assert int(out.sum()) == int(expected.sum())
        assert out["t0"] == expected["t0"]
        assert out[out.index.isnull()].iloc[0] == expected[np.nan]


@pytest.mark.usefixtures("ray_session")
def test_grouped_max_matches_pandas():
    import ray.data as rd
    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "k": rng.integers(0, 40, 5000).astype(str),
        "v": rng.normal(size=5000)})
    for path in FINAL_PATHS:
        with final_path(path):
            got = agg.grouped_max(rd.from_pandas(df).repartition(9),
                                  ["k"], "v", alias="mx").to_pandas() \
                .sort_values("k").reset_index(drop=True)
        want = df.groupby("k", as_index=False)["v"].max() \
            .rename(columns={"v": "mx"}).sort_values("k") \
            .reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)
