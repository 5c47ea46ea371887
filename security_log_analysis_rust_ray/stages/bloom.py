"""Distributed Bloom filter: pre-exchange pruning for large-key-set
semi/anti joins.

Why: past the broadcast byte budget, a join's build side goes through
``joins._exchange`` — an all-to-all exchange of the ENTIRE probe stream.
At the 100-TB design point that exchange dominates the join even when only
a sliver of probe rows actually match (inner, semi) or miss (anti).  A
Bloom filter over the build keys costs ~1-2 bytes/key to broadcast (vs
tens of bytes for the exact keys) and has NO false negatives, so:

- inner and semi joins: rows whose key misses the filter are DEFINITELY
  non-members — drop them before the exchange; only members + false
  positives shuffle.  The exact probe after the exchange removes the FPs,
  so results are bit-identical to the unfiltered plan.
- ``anti_join``: rows whose key misses the filter are DEFINITELY kept —
  emit them with no exchange at all; only the Bloom-positive residue goes
  through the exact shuffled probe.

Mechanics mirror the HLL fold in ``stages/sketch.py``: one fixed-size
partial per block (here an m-bit bitmap of uint64 words), a distributed
second-level OR-merge (repartition to a handful of blocks), and a tiny
driver-side final fold — the driver never holds more than a few bitmaps.
Double hashing (Kirsch–Mitzenmacher) gives the k probe positions from two
vectorized ``hash64`` passes; both build and probe are pure numpy over
whole Arrow columns (no per-row Python).

Sizing: ``BLOOM_BITS`` (2^27 = a 16 MB bitmap) holds ~13 bits/key at 10M
distinct keys (FPR ~0.2% with k=6) and stays useful to ~50M keys (FPR
~5%); beyond that the filter degrades gracefully — FPR rises toward 1 and
the plan converges to the unfiltered exchange, never to a wrong answer.
``BLOOM_BITS = 0`` turns the prefilter off.  The filter is intra-run only
(``hash64``'s polars fast path is process-stable, not persistence-stable),
which is all a join needs.

Reference anchor: the reference's only membership probes are driver-local
HashMaps (src/parse_logs.rs:333-358); this is the scale-path analog.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from ..functions.hashing import hash64, mix64

BLOOM_BITS = 1 << 27   # prefilter bitmap size in bits (0: no prefilter)
BLOOM_HASHES = 6       # probe positions per key

_SEED1 = 0x51ED270B
_SEED2 = 0xD24F7F2E


def _as_hash_input(col) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if not (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)
            or pa.types.is_binary(col.type)
            or pa.types.is_large_binary(col.type)):
        col = col.cast(pa.string())
    return col


def _key_hashes(cols: list, seed: int) -> np.ndarray:
    """uint64 hash per row over one or more key columns (composite keys
    mix per-column hashes, matching ``functions.hashing.mix64``'s shape)."""
    hs = [hash64(_as_hash_input(c), seed=seed) for c in cols]
    return hs[0] if len(hs) == 1 else mix64(hs, seed=seed)


def _norm_bits(m_bits: int) -> int:
    """Round the bitmap size UP to a whole number of 64-bit words (floor
    one word): positions are taken mod m_bits while the word array is
    m_bits >> 6 long, so a non-aligned bitmap size would index
    past the array.  Applied identically in every public entry point so
    build and probe always agree on the effective size."""
    return max(64, (m_bits + 63) & ~63)


def _positions(cols: list, m_bits: int, k: int) -> np.ndarray:
    """(k, n) uint64 probe positions via double hashing; null rows get
    position 0 in every probe — callers mask nulls out separately."""
    h1 = _key_hashes(cols, _SEED1)
    h2 = _key_hashes(cols, _SEED2) | np.uint64(1)  # odd -> full-period step
    i = np.arange(k, dtype=np.uint64)[:, None]
    with np.errstate(over="ignore"):
        return (h1[None, :] + i * h2[None, :]) % np.uint64(m_bits)


def _cols(tbl_or_col, cols: list[str] | None):
    """Normalize input: a bare Array means one key; a Table + column list
    means a (possibly composite) key."""
    if cols is None:
        c = tbl_or_col
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        return [c]
    return [tbl_or_col[c].combine_chunks()
            if isinstance(tbl_or_col[c], pa.ChunkedArray) else tbl_or_col[c]
            for c in cols]


def _valid_mask(cols: list) -> np.ndarray | None:
    """True where EVERY key column is non-null (a null never matches)."""
    mask = None
    for c in cols:
        if c.null_count:
            v = np.asarray(pa.compute.is_valid(c))
            mask = v if mask is None else (mask & v)
    return mask


def bloom_partial(col, m_bits: int, k: int,
                  cols: list[str] | None = None) -> np.ndarray:
    """One block's bitmap (uint64 words, length m_bits/64).  Rows with a
    null key component are skipped (a null never matches a probe)."""
    m_bits = _norm_bits(m_bits)
    words = np.zeros(m_bits >> 6, dtype=np.uint64)
    key_cols = _cols(col, cols)
    n = len(key_cols[0])
    if n == 0:
        return words
    pos = _positions(key_cols, m_bits, k)
    valid = _valid_mask(key_cols)
    if valid is not None:
        pos = pos[:, valid]
    np.bitwise_or.at(words, (pos >> np.uint64(6)).ravel(),
                     np.uint64(1) << (pos & np.uint64(63)).ravel())
    return words


def bloom_contains(words: np.ndarray, col, m_bits: int, k: int,
                   cols: list[str] | None = None) -> np.ndarray:
    """Vectorized membership probe: bool ndarray, False where any key
    component is null."""
    m_bits = _norm_bits(m_bits)
    key_cols = _cols(col, cols)
    n = len(key_cols[0])
    if n == 0:
        return np.zeros(0, dtype=bool)
    pos = _positions(key_cols, m_bits, k)
    hits = (words[(pos >> np.uint64(6))] >> (pos & np.uint64(63))) \
        & np.uint64(1)
    out = hits.all(axis=0)
    valid = _valid_mask(key_cols)
    if valid is not None:
        out &= valid
    return out


def build_bloom(keys: rd.Dataset, col: str | list[str], m_bits: int,
                k: int) -> np.ndarray:
    """Distributed build: per-block bitmap partials -> second-level OR
    merge across a handful of partitions -> driver ORs the survivors.
    Returns the uint64 word array (broadcast it with ``ray.put``).
    ``col`` may be a list for composite keys."""
    m_bits = _norm_bits(m_bits)
    col_list = [col] if isinstance(col, str) else list(col)

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or any(c not in b.schema.names
                                  for c in col_list):
            w = np.zeros(m_bits >> 6, dtype=np.uint64)
        else:
            w = bloom_partial(b, m_bits, k, cols=col_list)
        return pa.table({"bits": pa.array([w.tobytes()], pa.large_binary())})

    def or_merge(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "bits" not in b.schema.names:
            return pa.table({"bits": pa.array([], pa.large_binary())})
        acc = np.zeros(m_bits >> 6, dtype=np.uint64)
        for buf in b["bits"]:
            acc |= np.frombuffer(buf.as_py(), dtype=np.uint64)
        return pa.table(
            {"bits": pa.array([acc.tobytes()], pa.large_binary())})

    rows = keys.map_batches(partial, batch_format="pyarrow",
                            batch_size=None) \
        .repartition(8) \
        .map_batches(or_merge, batch_format="pyarrow",
                     batch_size=None).take_all()
    acc = np.zeros(m_bits >> 6, dtype=np.uint64)
    for r in rows:
        acc |= np.frombuffer(r["bits"], dtype=np.uint64)
    return acc
