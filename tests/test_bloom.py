"""Bloom-filter pre-exchange pruning (stages/bloom.py): no false
negatives ever, sane false-positive rate, and semi/anti joins stay
bit-identical with the filter forced on the shuffled path."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from security_log_analysis_rust_ray.stages.bloom import (
    bloom_contains, bloom_partial)

from .conftest import final_path

M_BITS = 1 << 16
K = 6


def test_no_false_negatives_and_null_probe():
    keys = pa.array([f"key-{i}" for i in range(2000)] + [None])
    words = bloom_partial(keys, M_BITS, K)
    probe = pa.array([f"key-{i}" for i in range(2000)])
    assert bloom_contains(words, probe, M_BITS, K).all()
    # null probes are never members (semi/anti SQL semantics)
    withnull = pa.array(["key-1", None, "key-2"])
    got = bloom_contains(words, withnull, M_BITS, K)
    assert got.tolist() == [True, False, True]


def test_false_positive_rate_sane():
    words = bloom_partial(
        pa.array([f"in-{i}" for i in range(2000)]), M_BITS, K)
    probe = pa.array([f"out-{i}" for i in range(20000)])
    fpr = bloom_contains(words, probe, M_BITS, K).mean()
    # 2000 keys in 65536 bits (~32.8 bits/key, k=6) -> theoretical FPR
    # ~0.05%; assert an order of magnitude of slack
    assert fpr < 0.02, fpr


def test_partials_or_merge():
    a = pa.array([f"a-{i}" for i in range(500)])
    b = pa.array([f"b-{i}" for i in range(500)])
    merged = bloom_partial(a, M_BITS, K) | bloom_partial(b, M_BITS, K)
    both = pa.array([f"a-{i}" for i in range(500)]
                    + [f"b-{i}" for i in range(500)])
    assert bloom_contains(merged, both, M_BITS, K).all()


def test_int_keys_cast():
    keys = pa.array(np.arange(1000, dtype=np.int64))
    words = bloom_partial(keys, M_BITS, K)
    assert bloom_contains(words, pa.array([5, 999], pa.int64()),
                          M_BITS, K).all()


def test_composite_keys():
    t = pa.table({"x": pa.array([1, 2, 3, None], pa.int64()),
                  "y": pa.array(["a", "b", "c", "d"])})
    words = bloom_partial(t, M_BITS, K, cols=["x", "y"])
    probe = pa.table({"x": pa.array([1, 2, 1, None], pa.int64()),
                      "y": pa.array(["a", "b", "b", "d"])})
    got = bloom_contains(words, probe, M_BITS, K, cols=["x", "y"])
    # (1,a) and (2,b) inserted; (1,b) was not; null component never matches
    assert got.tolist()[:2] == [True, True]
    assert got.tolist()[3] is False or got.tolist()[3] == False  # noqa: E712


@pytest.mark.usefixtures("ray_session")
def test_hash_join_runtime_filter_inner(tmp_path):
    """Shuffled inner hash_join (broadcast forced off) engages the Bloom
    runtime filter; results must equal the pandas merge oracle."""
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.joins import hash_join

    left = pd.DataFrame({"k": np.arange(3000) % 97,
                         "s": [f"s{i % 7}" for i in range(3000)],
                         "v": np.arange(3000)})
    right = pd.DataFrame({"rk": [i * 3 for i in range(20)],
                          "rs": [f"s{i % 7}" for i in range(20)],
                          "w": np.arange(20) * 10})
    ldir, rdir = tmp_path / "hl", tmp_path / "hr"
    ldir.mkdir(), rdir.mkdir()
    pq.write_table(pa.Table.from_pandas(left), str(ldir / "p.parquet"))
    pq.write_table(pa.Table.from_pandas(right), str(rdir / "p.parquet"))

    with final_path("exchange"):
        got = hash_join(rd.read_parquet(str(ldir)),
                        rd.read_parquet(str(rdir)),
                        on=("k", "s"), right_on=("rk", "rs"), nparts=4,
                        how="inner").to_pandas()
    exp = left.merge(right.rename(columns={"rk": "k", "rs": "s"}),
                     on=["k", "s"], how="inner")
    cols = ["k", "s", "v", "w"]
    got = got.sort_values(["v"]).reset_index(drop=True)[cols]
    exp = exp.sort_values(["v"]).reset_index(drop=True)[cols]
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def _mk(tmp_path):
    # fact keys 0..96 with nulls; key set = multiples of 3 under 60
    fact = pd.DataFrame({"k": [None if i % 41 == 0 else i % 97
                               for i in range(3000)],
                         "v": np.arange(3000)})
    keys = pd.DataFrame({"kk": [i for i in range(0, 60, 3)] + [None]})
    fdir, kdir = tmp_path / "bf", tmp_path / "bk"
    fdir.mkdir(), kdir.mkdir()
    pq.write_table(pa.Table.from_pandas(fact), str(fdir / "p.parquet"))
    pq.write_table(pa.Table.from_pandas(keys), str(kdir / "p.parquet"))
    return str(fdir), str(kdir), fact, keys


@pytest.mark.usefixtures("ray_session")
def test_semi_anti_with_bloom_prefilter(tmp_path):
    import ray.data as rd
    from security_log_analysis_rust_ray.stages.joins import (
        anti_join, semi_join)

    fdir, kdir, fact, keys = _mk(tmp_path)
    kset = set(keys["kk"].dropna().astype(int))
    member = fact["k"].isin(kset)

    # the exchange path engages the Bloom prefilter (BLOOM_BITS > 0)
    with final_path("exchange"):
        semi = semi_join(rd.read_parquet(fdir), rd.read_parquet(kdir),
                         "k", "kk", nparts=4).to_pandas()
        anti = anti_join(rd.read_parquet(fdir), rd.read_parquet(kdir),
                         "k", "kk", nparts=4).to_pandas()

    def canon(df):
        return df.sort_values(["v"]).reset_index(drop=True)[["k", "v"]]

    pd.testing.assert_frame_equal(
        canon(semi), canon(fact[member]), check_dtype=False)
    # anti keeps null-key rows (LEFT JOIN ... IS NULL parity)
    pd.testing.assert_frame_equal(
        canon(anti), canon(fact[~member]), check_dtype=False)
    assert semi.shape[0] + anti.shape[0] == len(fact)


@pytest.mark.usefixtures("ray_session")
def test_bloom_disabled_matches(tmp_path, monkeypatch):
    import ray.data as rd
    from security_log_analysis_rust_ray.stages import bloom
    from security_log_analysis_rust_ray.stages.joins import anti_join

    fdir, kdir, fact, keys = _mk(tmp_path)
    kset = set(keys["kk"].dropna().astype(int))
    expected = fact[~fact["k"].isin(kset)]

    monkeypatch.setattr(bloom, "BLOOM_BITS", 0)
    with final_path("exchange"):
        anti = anti_join(rd.read_parquet(fdir), rd.read_parquet(kdir),
                         "k", "kk", nparts=4).to_pandas()
    got = anti.sort_values(["v"]).reset_index(drop=True)[["k", "v"]]
    exp = expected.sort_values(["v"]).reset_index(drop=True)[["k", "v"]]
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_bloom_non_aligned_bits_no_false_negatives():
    """The bitmap size need not be a multiple of 64 (r03 review): the
    size is normalized identically at build and probe, so odd sizes
    neither crash nor produce false negatives."""
    import numpy as np
    import pyarrow as pa

    from security_log_analysis_rust_ray.stages.bloom import (bloom_contains,
                                                             bloom_partial)

    keys = pa.array([f"k{i}" for i in range(500)])
    for m in (100, 63, 1, 1000003):   # none aligned to 64
        words = bloom_partial(keys, m, 4)
        hits = bloom_contains(words, keys, m, 4)
        assert bool(np.all(hits))     # no false negatives, no IndexError
