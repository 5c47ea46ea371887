"""Size-aware lookup join: broadcast path vs hash-shuffle path must agree
(VERDICT r01 #6)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from security_log_analysis_rust_ray.stages.joins import lookup_join

from .conftest import FINAL_PATHS, final_path


def _mk(tmp_path):
    import pyarrow as pa
    fact = pd.DataFrame({"k": np.arange(1000) % 60, "v": np.arange(1000)})
    dim = pd.DataFrame({"dk": np.arange(50), "name": [f"n{i}" for i in range(50)]})
    fdir, ddir = tmp_path / "fact", tmp_path / "dim"
    fdir.mkdir(), ddir.mkdir()
    pq.write_table(pa.Table.from_pandas(fact), str(fdir / "p.parquet"))
    pq.write_table(pa.Table.from_pandas(dim), str(ddir / "p.parquet"))
    return str(fdir), str(ddir), fact, dim


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("how", ["inner", "left"])
def test_lookup_join_paths_agree(tmp_path, how):
    import ray.data as rd
    fdir, ddir, fact, dim = _mk(tmp_path)
    expected = fact.merge(dim.rename(columns={"dk": "k"}), on="k", how=how)

    # broadcast path (dim well under the threshold)
    bc = lookup_join(rd.read_parquet(fdir), rd.read_parquet(ddir),
                     "k", "dk", nparts=4, how=how).to_pandas()
    # shuffle path (budget forced to zero -> dim "too big" to broadcast)
    with final_path("exchange"):
        sh = lookup_join(rd.read_parquet(fdir), rd.read_parquet(ddir),
                         "k", "dk", nparts=4, how=how).to_pandas()

    def canon(df):
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns), na_position="last") \
                 .reset_index(drop=True)

    pd.testing.assert_frame_equal(canon(bc), canon(expected), check_dtype=False)
    pd.testing.assert_frame_equal(canon(sh), canon(expected), check_dtype=False)
    if how == "inner":
        assert len(bc) == 1000 - len(fact[fact["k"] >= 50])
    else:
        assert len(bc) == 1000


@pytest.mark.usefixtures("ray_session")
def test_semi_join_paths_agree(tmp_path):
    import pyarrow as pa
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.joins import semi_join
    fdir, kdir = tmp_path / "f2", tmp_path / "k2"
    fdir.mkdir(), kdir.mkdir()
    fact = pd.DataFrame({"k": np.arange(2000) % 97, "v": np.arange(2000)})
    keys = pd.DataFrame({"kk": np.arange(0, 97, 3)})  # every 3rd key
    pq.write_table(pa.Table.from_pandas(fact), str(fdir / "p.parquet"))
    pq.write_table(pa.Table.from_pandas(keys), str(kdir / "p.parquet"))
    expected = fact[fact["k"].isin(set(keys["kk"]))]

    def canon(df):
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    bc = semi_join(rd.read_parquet(str(fdir)), rd.read_parquet(str(kdir)),
                   "k", "kk", nparts=4).to_pandas()
    with final_path("exchange"):
        sh = semi_join(rd.read_parquet(str(fdir)),
                       rd.read_parquet(str(kdir)),
                       "k", "kk", nparts=4).to_pandas()
    pd.testing.assert_frame_equal(canon(bc), canon(expected), check_dtype=False)
    pd.testing.assert_frame_equal(canon(sh), canon(expected), check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_anti_join_paths_agree(tmp_path):
    import pyarrow as pa
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.joins import anti_join
    fdir, kdir = tmp_path / "f3", tmp_path / "k3"
    fdir.mkdir(), kdir.mkdir()
    fact = pd.DataFrame({"k": np.arange(2000) % 97, "v": np.arange(2000)})
    keys = pd.DataFrame({"kk": np.arange(0, 97, 3)})
    pq.write_table(pa.Table.from_pandas(fact), str(fdir / "p.parquet"))
    pq.write_table(pa.Table.from_pandas(keys), str(kdir / "p.parquet"))
    expected = fact[~fact["k"].isin(set(keys["kk"]))]

    def canon(df):
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    bc = anti_join(rd.read_parquet(str(fdir)), rd.read_parquet(str(kdir)),
                   "k", "kk", nparts=4).to_pandas()
    with final_path("exchange"):
        sh = anti_join(rd.read_parquet(str(fdir)),
                       rd.read_parquet(str(kdir)),
                       "k", "kk", nparts=4).to_pandas()
    pd.testing.assert_frame_equal(canon(bc), canon(expected), check_dtype=False)
    pd.testing.assert_frame_equal(canon(sh), canon(expected), check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_lookup_join_hot_key_shuffle_path(tmp_path):
    """Skew: one fact key owns 90% of rows; the hash-join path must stay
    correct (row multiplication against the dim side) under the skew."""
    import pyarrow as pa
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.joins import lookup_join
    n = 100_000
    k = np.where(np.arange(n) % 10 == 0, (np.arange(n) // 10) % 50 + 1, 0)
    fact = pd.DataFrame({"k": k, "v": np.arange(n)})
    dim = pd.DataFrame({"dk": np.arange(51), "name": [f"n{i}" for i in range(51)]})
    fdir, ddir = tmp_path / "hf", tmp_path / "hd"
    fdir.mkdir(), ddir.mkdir()
    pq.write_table(pa.Table.from_pandas(fact), str(fdir / "p.parquet"))
    pq.write_table(pa.Table.from_pandas(dim), str(ddir / "p.parquet"))
    with final_path("exchange"):
        out = lookup_join(rd.read_parquet(str(fdir)),
                          rd.read_parquet(str(ddir)),
                          "k", "dk", nparts=4).to_pandas()
    assert len(out) == n
    assert (out[out["k"] == 0]["name"] == "n0").all()
    assert out[out["k"] == 0].shape[0] == (k == 0).sum()


@pytest.mark.usefixtures("ray_session")
def test_semi_anti_null_keys_both_paths(tmp_path):
    """ADVICE r02: a null key in the key set crashed the broadcast path
    (sorted() on None) — and null FACT keys must never match: semi drops
    them, anti keeps them (SQL LEFT JOIN ... IS NULL parity), on BOTH
    paths."""
    import pyarrow as pa
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.joins import anti_join, semi_join
    fdir, kdir = tmp_path / "fn", tmp_path / "kn"
    fdir.mkdir(), kdir.mkdir()
    fact = pd.DataFrame({"k": ["a", "b", None, "c", None, "d"],
                         "v": range(6)})
    keys = pd.DataFrame({"kk": ["b", None, "d", "zz"]})
    pq.write_table(pa.Table.from_pandas(fact), str(fdir / "p.parquet"))
    pq.write_table(pa.Table.from_pandas(keys), str(kdir / "p.parquet"))

    for path in FINAL_PATHS:   # broadcast path, then hash-join path
        with final_path(path):
            semi = semi_join(rd.read_parquet(str(fdir)),
                             rd.read_parquet(str(kdir)), "k", "kk",
                             nparts=4).to_pandas()
            anti = anti_join(rd.read_parquet(str(fdir)),
                             rd.read_parquet(str(kdir)), "k", "kk",
                             nparts=4).to_pandas()
        assert sorted(semi["k"].tolist()) == ["b", "d"], f"path={path}"
        kept = anti["k"].tolist()
        assert kept.count(None) == 2 and sorted(
            x for x in kept if x is not None) == ["a", "c"], f"path={path}"


@pytest.mark.usefixtures("ray_session")
def test_lookup_join_left_schema_parity(tmp_path):
    """ADVICE r02: the broadcast left-join path used a pandas merge that
    coerced unmatched INT dim columns to float64 NaN while the hash path
    emitted nullable int64 — the two paths must emit the same dtypes."""
    import pyarrow as pa
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.joins import lookup_join
    fdir, ddir = tmp_path / "fs", tmp_path / "ds"
    fdir.mkdir(), ddir.mkdir()
    fact = pd.DataFrame({"k": [1, 2, 3, 99], "v": range(4)})
    dim = pd.DataFrame({"dk": [1, 2, 3], "num": np.array([10, 20, 30],
                                                         dtype="int64")})
    pq.write_table(pa.Table.from_pandas(fact), str(fdir / "p.parquet"))
    pq.write_table(pa.Table.from_pandas(dim), str(ddir / "p.parquet"))

    bc = lookup_join(rd.read_parquet(str(fdir)), rd.read_parquet(str(ddir)),
                     "k", "dk", nparts=4, how="left")
    bt = pa.concat_tables(
        [b for b in bc.iter_batches(batch_format="pyarrow")][:: 1],
        promote_options="default")
    with final_path("exchange"):
        sh = lookup_join(rd.read_parquet(str(fdir)),
                         rd.read_parquet(str(ddir)),
                         "k", "dk", nparts=4, how="left")
        st = pa.concat_tables(
            [b for b in sh.iter_batches(batch_format="pyarrow")][:: 1],
            promote_options="default")
    assert bt.schema.field("num").type == st.schema.field("num").type \
        == pa.int64()
    got = bt.to_pandas().sort_values("v").reset_index(drop=True)
    assert got["num"].isna().tolist() == [False, False, False, True]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("how", ["inner", "left"])
def test_hash_join_tiny_dim_empty_partitions(tmp_path, how):
    """The hash path must survive hash partitions that are EMPTY on one
    side: a 2-row dim against 16 partitions leaves ~14 dim-empty
    partitions, which crashed Ray's JoinOperator with ArrowInvalid
    ("No match ... for FieldRef") — the tagged-union probe replaces it.
    A zero budget sends even this tiny DERIVED dim (map_batches output)
    through the exchange."""
    import pyarrow as pa
    import ray.data as rd
    fdir, ddir, fact, dim = _mk(tmp_path)
    tiny = dim[dim["dk"] < 2]
    expected = fact.merge(tiny.rename(columns={"dk": "k"}), on="k", how=how)
    dim_ds = rd.read_parquet(str(ddir)).map_batches(
        lambda b: b.filter(pa.compute.less(b["dk"], 2)),
        batch_format="pyarrow", batch_size=None)
    with final_path("exchange"):
        out = lookup_join(rd.read_parquet(str(fdir)), dim_ds, "k", "dk",
                          nparts=16, how=how).to_pandas()
    canon = lambda d: d.sort_values(["k", "v"]).reset_index(drop=True)[
        ["k", "v", "name"]]
    pd.testing.assert_frame_equal(canon(out), canon(expected),
                                  check_dtype=False)
    # schema parity: unmatched rows keep the dim's string type, not object
    # drift; int payloads stay int (covered by the broadcast-parity test)


@pytest.mark.usefixtures("ray_session")
def test_hash_join_empty_dim_left_keeps_payload_schema(tmp_path):
    """Degenerate corner: a LEFT lookup_join against an EMPTY dim must
    still emit the payload column (all null) with a stable schema."""
    import pyarrow as pa
    import ray.data as rd
    fdir, ddir, fact, dim = _mk(tmp_path)
    dim_ds = rd.read_parquet(str(ddir)).map_batches(
        lambda b: b.filter(pa.compute.less(b["dk"], -1)),
        batch_format="pyarrow", batch_size=None)
    with final_path("exchange"):
        out = lookup_join(rd.read_parquet(str(fdir)), dim_ds, "k", "dk",
                          nparts=8, how="left").to_pandas()
    assert len(out) == len(fact)
    assert "name" in out.columns and out["name"].isna().all()


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("path", ["broadcast", "shuffle"])
@pytest.mark.parametrize("how", ["inner", "left"])
def test_mn_hash_join_matches_pandas(tmp_path, path, how):
    """General m:n hash_join (duplicate keys BOTH sides, null keys) vs a
    pandas merge oracle, on both the broadcast and partitioned paths."""
    import pyarrow as pa
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.joins import hash_join

    rng = np.random.RandomState(7)
    left = pd.DataFrame({
        "a": rng.randint(0, 40, size=500).astype("float64"),
        "lv": np.arange(500)})
    left.loc[::50, "a"] = np.nan                    # null left keys
    right = pd.DataFrame({
        "k": rng.randint(0, 50, size=300).astype("float64"),
        "rv": np.arange(300) * 10})
    right.loc[::40, "k"] = np.nan                   # null right keys
    ldir, rdir = tmp_path / "l", tmp_path / "r"
    ldir.mkdir(), rdir.mkdir()
    pq.write_table(pa.Table.from_pandas(left), str(ldir / "p.parquet"))
    pq.write_table(pa.Table.from_pandas(right), str(rdir / "p.parquet"))

    with final_path("driver" if path == "broadcast" else "exchange"):
        out = hash_join(rd.read_parquet(ldir), rd.read_parquet(rdir),
                        on=("a",), right_on=("k",), how=how,
                        nparts=6).to_pandas()
    exp = left.merge(right.dropna(subset=["k"]), how=how,
                     left_on="a", right_on="k")[["a", "lv", "rv"]]
    if how == "inner":
        exp = exp.dropna(subset=["a"])

    def canon(df):
        return df[["a", "lv", "rv"]] \
            .sort_values(["a", "lv", "rv"], na_position="last") \
            .reset_index(drop=True)

    pd.testing.assert_frame_equal(canon(out), canon(exp), check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_mn_hash_join_composite_key_rename_and_empty_parts(tmp_path):
    """Composite-key m:n join with payload rename; nparts far above the
    distinct key count so several hash partitions are one-sided or empty
    (the Ray 2.49 JoinOperator crash shape)."""
    import pyarrow as pa
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.joins import hash_join

    left = pd.DataFrame({"x": [1, 1, 2, 3], "h": [7, 8, 7, 9],
                         "p": ["a", "b", "c", "d"]})
    right = pd.DataFrame({"doc": [1, 1, 2, 9, 3], "h": [7, 7, 9, 7, 9],
                          "w": [1.0, 2.0, 3.0, 4.0, 5.0]})
    ldir, rdir = tmp_path / "l", tmp_path / "r"
    ldir.mkdir(), rdir.mkdir()
    pq.write_table(pa.Table.from_pandas(left), str(ldir / "p.parquet"))
    pq.write_table(pa.Table.from_pandas(right), str(rdir / "p.parquet"))

    for path in FINAL_PATHS:
        with final_path(path):
            out = hash_join(rd.read_parquet(ldir), rd.read_parquet(rdir),
                            on=("x", "h"), right_on=("doc", "h"),
                            rename={"w": "wt"}, nparts=16).to_pandas()
        got = out.sort_values(list(out.columns)).reset_index(drop=True)
        exp = pd.DataFrame({"x": [1, 1, 3], "h": [7, 7, 9],
                            "p": ["a", "a", "d"], "wt": [1.0, 2.0, 5.0]})
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


from hypothesis import given, settings, strategies as st


@pytest.mark.usefixtures("ray_session")
@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    lkeys=st.lists(st.one_of(st.integers(0, 12), st.none()),
                   min_size=0, max_size=40),
    rkeys=st.lists(st.one_of(st.integers(0, 15), st.none()),
                   min_size=0, max_size=30),
    how=st.sampled_from(["inner", "left"]),
    shuffle_path=st.booleans(),
)
def test_mn_hash_join_property_vs_pandas(lkeys, rkeys, how, shuffle_path):
    """Random key multisets (dups + nulls, possibly empty sides) through
    hash_join on both paths must match the pandas-merge oracle."""
    import pyarrow as pa
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.joins import hash_join

    left = pd.DataFrame({"k": pd.array(lkeys, dtype="Int64"),
                         "lv": range(len(lkeys))})
    right = pd.DataFrame({"k": pd.array(rkeys, dtype="Int64"),
                          "rv": [i * 10 for i in range(len(rkeys))]})
    lds = rd.from_arrow(pa.Table.from_pandas(left, preserve_index=False)) \
        .repartition(3)
    rds = rd.from_arrow(pa.Table.from_pandas(right, preserve_index=False)) \
        .repartition(2)
    with final_path("exchange" if shuffle_path else "driver"):
        out = hash_join(lds, rds, on=("k",), how=how, nparts=5).to_pandas()
    exp = left.merge(right.dropna(subset=["k"]), on="k", how=how)
    if how == "inner":
        exp = exp.dropna(subset=["k"])

    def canon(df):
        if not len(df):
            return pd.DataFrame(columns=["k", "lv", "rv"])
        df = df.copy()
        for c in ("k", "lv", "rv"):   # degenerate empty-right left-join
            if c not in df.columns:   # passes left through w/o payload col
                df[c] = np.nan
        return df[["k", "lv", "rv"]].astype("float64") \
            .sort_values(["k", "lv", "rv"], na_position="last") \
            .reset_index(drop=True)

    pd.testing.assert_frame_equal(canon(out), canon(exp),
                                  check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_semi_anti_empty_key_set():
    """An empty key set must not crash (r03 review): semi -> empty result
    with the fact schema, anti -> fact unchanged; both paths."""
    import pyarrow as pa
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.joins import anti_join, semi_join

    fact = rd.from_arrow(pa.table({"g": pa.array(["a", "b", None]),
                                   "v": pa.array([1, 2, 3])}))
    empty = rd.from_arrow(pa.table({"g": pa.array([], pa.string())}))
    for path in FINAL_PATHS:   # broadcast gate and shuffled path
        with final_path(path):
            s = semi_join(fact, empty, "g", "g", nparts=4)
            assert s.count() == 0
            a = anti_join(fact, empty, "g", "g", nparts=4).to_pandas()
        assert sorted(a["v"].tolist()) == [1, 2, 3]


@pytest.mark.usefixtures("ray_session")
def test_lookup_join_null_dim_key_never_matches():
    """A null dim key must not capture null fact keys on EITHER path
    (pc.index_in matches null to null; SQL join semantics never do)."""
    import pyarrow as pa
    import ray.data as rd

    fact = rd.from_arrow(pa.table({"k": pa.array([1, None, 2], pa.int64()),
                                   "v": pa.array([10, 20, 30])}))
    dim = rd.from_arrow(pa.table({"dk": pa.array([1, None], pa.int64()),
                                  "name": pa.array(["one", "NULLROW"])}))
    for path in FINAL_PATHS:
        with final_path(path):
            out = lookup_join(fact, dim, "k", "dk", nparts=4,
                              how="inner").to_pandas()
            left = lookup_join(fact, dim, "k", "dk", nparts=4,
                               how="left").to_pandas()
        assert sorted(out["v"].tolist()) == [10]
        assert "NULLROW" not in set(out["name"])
        assert len(left) == 3
        assert "NULLROW" not in set(left["name"].dropna())
