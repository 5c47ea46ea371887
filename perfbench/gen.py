"""Seeded workload generator: transcripts shards plus the outputs they must
produce.

The generator draws every row's *fields* (family, conversation, host,
username, client IP, timestamp, level) with one ``numpy`` RNG seeded from the
caller's seed, renders the turn ``text`` from those fields, and writes
Parquet shards in the transcripts input schema
``(conv_id, turn_idx, role, text, tool, ts)``.  Expectations (per-sink row
counts per shard, per-country counts, distinct natural keys) are computed
from the same fields with plain Arrow group-bys — never by running the
engine's regexes — so a routing or parsing bug shows up as a mismatch.

Families and the engine behaviour each one pins:

=========  =========================================================  ========
family     text                                                       sink
=========  =========================================================  ========
ssh        ``<Mon DD HH:MM:SS> nodeN sshd[P]: Invalid user U from H   ssh
           port P``
clf        ``<ip> - - [DD/Mon/YYYY:HH:MM:SS +0000] "GET ..." 200 N``  apache
nginx      ``nginx from <ip> denied``                                 nginx
level      ``svcN <LEVEL>: operation completed code=N``               message
negative   a ``systemd_log_filters`` substring                        dropped
filler     text with no route and no level                            dropped
=========  =========================================================  ========

ssh hosts are ``h<k>.example.com``; the package's ``host_country`` dimension
holds exactly the ``k < 50, k % 7 != 0`` hosts, so the knob
``absent_share`` picks how many distinct hosts fall outside it.  Planted
natural-key duplicates copy (server, datetime, host, username) of another
row of the same family and server.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

FAMILIES = ("ssh", "clf", "nginx", "level", "negative", "filler")
SINK_OF = {"ssh": "ssh", "clf": "apache", "nginx": "nginx", "level": "message"}
INTRUSION = ("ssh", "clf", "nginx")       # families in the parsed sink
DIM_HOSTS = 50                            # synth.N_HOSTS
DIM_MISSING_MOD = 7                       # synth.HOST_MISSING_MOD
SERVER_MOD = 4                            # synth.SERVER_MOD
TURNS_PER_CONV = 8
USERNAME_MAX = 15
IPS = 2000                                # distinct clf/nginx client addresses
LONG_USER_SHARE = 0.05                    # usernames truncated to USERNAME_MAX
T0 = np.datetime64("2024-01-01T00:00:00", "s")
SPAN_S = 28 * 86400                       # timestamps fall in Jan 2024
LEVELS = ("DEBUG", "INFO", "WARN", "ERROR")
NEGATIVE_TEXTS = (
    "sshd noise: Disconnected from invalid user scanner preauth",
    "kex_exchange_identification: read: Connection reset by peer",
    "error: maximum authentication attempts exceeded for invalid user root",
    "Failed password for invalid user admin from 10.9.9.9 port 22 ssh2",
)


@dataclass(frozen=True)
class Knobs:
    turns: int
    shards: int
    mix: tuple[float, ...]        # share per FAMILIES entry, sums to 1
    hosts: int                    # distinct ssh hosts
    zipf: float                   # host skew exponent (0 = uniform)
    absent_share: float           # share of distinct hosts not in the dim
    dup_rate: float               # share of intrusion rows replaying a key
    conv_offset: int = 0          # first conversation number


def code_of(k: np.ndarray) -> np.ndarray:
    """Country code of dim host ``h<k>`` (synth.host_country_rows)."""
    a = (65 + k % 26).astype(np.uint8).view("S1")
    b = (65 + (k * 7) % 26).astype(np.uint8).view("S1")
    return np.char.add(a, b).astype(str)


def in_dim(k: np.ndarray) -> np.ndarray:
    return (k < DIM_HOSTS) & (k % DIM_MISSING_MOD != 0)


def host_pool(knobs: Knobs, rng: np.random.Generator) -> np.ndarray:
    """Distinct host numbers, in Zipf rank order (rank 0 is the hottest).
    Hosts in the dim take the hottest ranks: the known attackers are the
    frequent ones, the long tail is unknown."""
    present = np.array([k for k in range(DIM_HOSTS) if k % DIM_MISSING_MOD])
    n_present = min(len(present),
                    int(round(knobs.hosts * (1 - knobs.absent_share))))
    n_absent = knobs.hosts - n_present
    missing = np.array([k for k in range(DIM_HOSTS) if k % DIM_MISSING_MOD == 0])
    absent = np.concatenate([missing, DIM_HOSTS + np.arange(
        max(0, n_absent - len(missing)))])[:n_absent]
    return np.concatenate([rng.permutation(present)[:n_present],
                           rng.permutation(absent)])


def _weights(n: int, s: float) -> np.ndarray:
    w = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), s)
    return w / w.sum()


def draw(knobs: Knobs, seed) -> pa.Table:
    """One row per turn with every generator field (no text yet).
    ``seed`` is anything ``numpy.random.default_rng`` accepts."""
    rng = np.random.default_rng(seed)
    n = knobs.turns
    fam = rng.choice(len(FAMILIES), size=n, p=np.asarray(knobs.mix))
    row = np.arange(n)
    conv = knobs.conv_offset + row // TURNS_PER_CONV
    ts = T0 + rng.integers(0, SPAN_S, size=n).astype("timedelta64[s]")
    pool = host_pool(knobs, rng)
    host_k = pool[rng.choice(len(pool), size=n, p=_weights(len(pool), knobs.zipf))]
    user_n = rng.integers(0, 500, size=n)
    long_user = rng.random(n) < LONG_USER_SHARE
    ip_n = rng.integers(0, IPS, size=n)
    level = rng.integers(0, len(LEVELS), size=n)

    # planted natural-key duplicates: copy (ts, host, user, ip) of another
    # row of the same family and the same server (conv % SERVER_MOD)
    server = conv % SERVER_MOD
    for f in (FAMILIES.index(x) for x in INTRUSION):
        for s in range(SERVER_MOD):
            ids = np.nonzero((fam == f) & (server == s))[0]
            if len(ids) < 2:
                continue
            dup = rng.random(len(ids)) < knobs.dup_rate
            if dup.all():
                continue
            src = rng.choice(ids[~dup], size=int(dup.sum()))
            tgt = ids[dup]
            for arr in (ts, host_k, user_n, long_user, ip_n):
                arr[tgt] = arr[src]
    return pa.table({
        "fam": pa.array(fam.astype(np.int8)),
        "conv": pa.array(conv),
        "turn_idx": pa.array((row % TURNS_PER_CONV).astype(np.int32)),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "host_k": pa.array(host_k),
        "user_n": pa.array(user_n),
        "long_user": pa.array(long_user),
        "ip_n": pa.array(ip_n),
        "level": pa.array(level.astype(np.int8)),
    })


def _s(x) -> pa.Array:
    return pc.cast(x, pa.string())


def _cat(*parts) -> pa.Array:
    return pc.binary_join_element_wise(*parts, "")


def derived(f: pa.Table) -> dict[str, pa.Array]:
    """Field renderings shared by the text and the expectations."""
    host = _cat("h", _s(f["host_k"]), ".example.com")
    user = pc.if_else(f["long_user"],
                      _cat("verylongusername", _s(f["user_n"])),
                      _cat("user", _s(f["user_n"])))
    ip_n = f["ip_n"]
    ip = _cat("10.", _s(pc.bit_wise_and(pc.shift_right(ip_n, 8), 255)), ".",
              _s(pc.bit_wise_and(ip_n, 255)), ".",
              _s(pc.add(pc.bit_wise_and(pc.multiply(ip_n, 7), 127), 1)))
    return {"host": host, "user": user, "ip": ip,
            "server": _cat("srv", _s(pc.bit_wise_and(f["conv"], SERVER_MOD - 1)))}


def _texts(name: str, f: pa.Table) -> pa.Array:
    """Turn text of family ``name`` for its rows ``f``."""
    d = derived(f)
    ts = pc.cast(f["ts"], pa.timestamp("s"))
    if name == "ssh":
        return _cat(pc.strftime(ts, "%b %d %H:%M:%S"), " node",
                    _s(pc.bit_wise_and(f["conv"], 1)), " sshd[",
                    _s(pc.add(pc.bit_wise_and(f["user_n"], 4095), 1000)),
                    "]: Invalid user ", d["user"], " from ", d["host"],
                    " port ", _s(pc.add(f["ip_n"], 1024)))
    if name == "clf":
        return _cat(d["ip"], " - - [", pc.strftime(ts, "%d/%b/%Y:%H:%M:%S"),
                    ' +0000] "GET /index.html HTTP/1.1" 200 ',
                    _s(f["user_n"]))
    if name == "nginx":
        return _cat("nginx from ", d["ip"], " denied")
    if name == "level":
        return _cat("svc", _s(pc.bit_wise_and(f["conv"], 3)), " ",
                    pc.take(pa.array(LEVELS), f["level"]),
                    ": operation completed code=", _s(f["user_n"]))
    if name == "negative":
        return pc.take(pa.array(NEGATIVE_TEXTS), pc.bit_wise_and(
            f["user_n"], len(NEGATIVE_TEXTS) - 1))
    return _cat("lorem ipsum filler turn ", _s(f["user_n"]))


def render(f: pa.Table) -> pa.Table:
    """Transcripts rows (input schema) for generator fields ``f``."""
    fam = f["fam"].to_numpy()
    order = np.argsort(fam, kind="stable")
    parts = []
    for i, name in enumerate(FAMILIES):
        idx = order[fam[order] == i]
        if len(idx):
            parts.append(_texts(name, f.take(pa.array(idx))))
    grouped = pa.concat_arrays([p.combine_chunks() if isinstance(
        p, pa.ChunkedArray) else p for p in parts])
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order))
    text = grouped.take(pa.array(inverse))
    role = pc.take(pa.array(["user", "assistant", "tool", "system"]),
                   pc.bit_wise_and(f["turn_idx"], 3))
    tool = pc.if_else(pc.equal(role, "tool"),
                      _cat("tool_", _s(pc.bit_wise_and(f["user_n"], 3))),
                      pa.nulls(f.num_rows, pa.string()))
    return pa.table({
        "conv_id": _cat("conv_", _s(f["conv"])),
        "turn_idx": f["turn_idx"],
        "role": role,
        "text": text,
        "tool": tool,
        "ts": f["ts"],
    })


def shard_of(f: pa.Table, shards: int) -> np.ndarray:
    return f["conv"].to_numpy() % shards


# ---------------------------------------------------------------------------
# expectations, from generator fields only
# ---------------------------------------------------------------------------

def sink_rows(f: pa.Table) -> dict[str, int]:
    fam = f["fam"].to_numpy()
    return {SINK_OF[name]: int((fam == FAMILIES.index(name)).sum())
            for name in SINK_OF if (fam == FAMILIES.index(name)).any()}


def country_counts(f: pa.Table, server: str | None = None,
                   since=None) -> dict[str, int]:
    """Per-country count of routed rows whose host is in the dim (only ssh
    hosts can be); ``server``/``since`` narrow like the geochart route."""
    fam = f["fam"].to_numpy()
    k = f["host_k"].to_numpy()
    m = (fam == 0) & in_dim(k)
    if server is not None:
        m &= (f["conv"].to_numpy() % SERVER_MOD) == int(server[3:])
    if since is not None:
        m &= f["ts"].to_numpy() >= since
    codes, counts = np.unique(code_of(k[m]), return_counts=True)
    return {f"Country {c}": int(n) for c, n in zip(codes, counts)}


def natural_keys(f: pa.Table) -> pa.Table:
    """(service, server, datetime, host, username) of every parsed row."""
    d = derived(f)
    fam = f["fam"]
    m = pc.less_equal(fam, 2)
    service = pc.take(pa.array(["ssh", "apache", "nginx"]),
                      pc.cast(pc.if_else(m, fam, 0), pa.int32()))
    host = pc.if_else(pc.equal(fam, 0), d["host"], d["ip"])
    user = pc.if_else(pc.equal(fam, 0),
                      pc.utf8_slice_codeunits(d["user"], 0, USERNAME_MAX),
                      pa.nulls(f.num_rows, pa.string()))
    t = pa.table({"service": service, "server": d["server"],
                  "datetime": f["ts"], "host": host,
                  "username": pc.fill_null(user, "<null>")})
    return t.filter(m)


def distinct_keys(f: pa.Table) -> int:
    t = natural_keys(f)
    return t.group_by(t.column_names).aggregate([]).num_rows


def expectations(f: pa.Table, shards: int) -> dict:
    sh = shard_of(f, shards)
    per_shard = {}
    for s in range(shards):
        part = f.filter(pa.array(sh == s))
        per_shard[f"part-{s:05d}"] = sink_rows(part)
    return {"turns": f.num_rows, "sink_rows": per_shard,
            "countries": country_counts(f), "distinct_keys": distinct_keys(f),
            "parsed_rows": int(pc.sum(pc.less_equal(f["fam"], 2)).as_py())}


# ---------------------------------------------------------------------------
# materialization (cached per workload and seed)
# ---------------------------------------------------------------------------

def write_shards(f: pa.Table, shards: int, out_dir: str,
                 names: list[str] | None = None) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    rows = render(f)
    sh = shard_of(f, shards)
    paths = []
    for s in range(shards):
        name = names[s] if names else f"part-{s:05d}"
        path = os.path.join(out_dir, name + ".parquet")
        pq.write_table(rows.filter(pa.array(sh == s)), path)
        paths.append(path)
    return paths


def materialize(root: str, tag: str, build) -> str:
    """Build ``root/tag`` once with ``build(tmp_dir)``; atomic rename."""
    final = os.path.join(root, tag)
    if os.path.exists(os.path.join(final, "expected.json")):
        return final
    tmp = f"{final}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp)
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    return final


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def knobs_json(k: Knobs) -> dict:
    return asdict(k)
