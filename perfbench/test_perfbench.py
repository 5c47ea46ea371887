"""Tests of the benchmark itself (no Ray session needed).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pytest

from perfbench import gen, stats, trace, workloads

TINY = gen.Knobs(turns=400, shards=4, mix=(0.3, 0.2, 0.1, 0.2, 0.1, 0.1),
                 hosts=50, zipf=0.5, absent_share=8 / 50, dup_rate=0.2)


def _files(d: str) -> dict[str, bytes]:
    out = {}
    for root, _dirs, files in os.walk(d):
        for fn in files:
            with open(os.path.join(root, fn), "rb") as fh:
                out[os.path.relpath(os.path.join(root, fn), d)] = fh.read()
    return out


@pytest.mark.parametrize("workload", ["ingest", "report", "serve"])
def test_same_seed_same_bytes(tmp_path, monkeypatch, workload):
    small = {"ingest": "INGEST", "report": "REPORT", "serve": "SERVE"}
    monkeypatch.setattr(workloads, small[workload], TINY)
    a = workloads.prepare(workload, 5, str(tmp_path / "a"))
    b = workloads.prepare(workload, 5, str(tmp_path / "b"))
    c = workloads.prepare(workload, 6, str(tmp_path / "c"))
    fa, fb, fc = _files(a), _files(b), _files(c)
    assert fa == fb
    assert fa != fc


def _fixture() -> pa.Table:
    """Eight hand-written turns: host 1 is in the dim (code BH), host 7 is
    not (k % 7 == 0), host 60 is beyond the dim; row 1 replays row 0's
    natural key from another conversation with the same server."""
    ts = np.array(["2024-01-05T04:26:00", "2024-01-05T04:26:00",
                   "2024-01-06T00:00:00", "2024-01-07T00:00:00",
                   "2024-01-08T00:00:00", "2024-01-09T00:00:00",
                   "2024-01-10T00:00:00", "2024-01-11T00:00:00"],
                  dtype="datetime64[us]")
    return pa.table({
        "fam": pa.array([0, 0, 0, 0, 1, 2, 3, 5], pa.int8()),
        #  conv 0 and conv 4 share server srv0
        "conv": pa.array([0, 4, 1, 2, 3, 3, 3, 3], pa.int64()),
        "turn_idx": pa.array([0, 0, 0, 0, 1, 2, 3, 4], pa.int32()),
        "ts": pa.array(ts),
        "host_k": pa.array([1, 1, 7, 60, 1, 1, 1, 1], pa.int64()),
        "user_n": pa.array([5, 5, 6, 7, 8, 9, 10, 11], pa.int64()),
        "long_user": pa.array([False, False, True, False, False, False,
                               False, False]),
        "ip_n": pa.array([0, 0, 0, 0, 258, 259, 0, 0], pa.int64()),
        "level": pa.array([0, 0, 0, 0, 0, 0, 3, 0], pa.int8()),
    })


def test_expectations_match_hand_checked_fixture():
    f = _fixture()
    assert gen.sink_rows(f) == {"ssh": 4, "apache": 1, "nginx": 1,
                                "message": 1}
    # only ssh rows with a dim host count: h1 twice -> code of k=1 is "BH"
    assert gen.country_counts(f) == {"Country BH": 2}
    assert gen.country_counts(f, server="srv1") == {}
    # 6 parsed rows, rows 0 and 1 share (ssh, srv0, ts, h1, user5)
    assert gen.distinct_keys(f) == 5
    text = gen.render(f)["text"].to_pylist()
    assert text[0] == ("Jan 05 04:26:00 node0 sshd[1005]: Invalid user user5"
                       " from h1.example.com port 1024")
    assert text[2].endswith("Invalid user verylongusername6 from "
                            "h7.example.com port 1024")
    assert text[4] == ('10.1.2.15 - - [08/Jan/2024:00:00:00 +0000] '
                       '"GET /index.html HTTP/1.1" 200 8')
    assert text[5] == "nginx from 10.1.3.22 denied"
    assert text[6] == "svc3 ERROR: operation completed code=10"
    assert text[7] == "lorem ipsum filler turn 11"
    keys = gen.natural_keys(f)
    assert keys["username"].to_pylist()[2] == "verylongusernam"


def test_generated_mix_and_duplicates_follow_knobs():
    k = gen.Knobs(turns=40_000, shards=4, mix=(0.5, 0.1, 0.1, 0.1, 0.1, 0.1),
                  hosts=2000, zipf=1.1, absent_share=0.99, dup_rate=0.2)
    f = gen.draw(k, 3)
    fam = f["fam"].to_numpy()
    assert abs((fam == 0).mean() - 0.5) < 0.02
    hosts = set(f.filter(pa.array(fam == 0))["host_k"].to_pylist())
    assert len([h for h in hosts if gen.in_dim(np.array([h]))[0]]) <= 20
    parsed = int((fam <= 2).sum())
    dup_share = 1 - gen.distinct_keys(f) / parsed
    assert 0.15 < dup_share < 0.25


def test_percentile_and_beyond():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(xs, 50) == 3.0
    assert stats.percentile(xs, 0) == 1.0
    assert stats.percentile(xs, 100) == 5.0
    assert stats.percentile(xs, 90) == pytest.approx(4.6)
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.beyond(list(range(100)), 90) == 10
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_ratio():
    assert stats.ratio(1, 4) == 0.25
    assert stats.ratio(3, 0) == 0.0


def test_self_time_nested_and_overlapping_children():
    assert stats.self_time(0, 10, []) == 10
    # nested: a child inside another child is not subtracted twice
    assert stats.self_time(0, 10, [(1, 5), (2, 3)]) == 6
    # overlapping siblings (two workers): union [2, 8] covered once
    assert stats.self_time(0, 10, [(2, 6), (4, 8)]) == 4
    # children sticking out of the parent are clipped to it
    assert stats.self_time(0, 10, [(-5, 2), (9, 20)]) == 7
    assert stats.union_length([(0, 1), (1, 2), (5, 6)]) == 3


def _span(sid, name, layer, start, end, pid=1, parent=None, **attrs):
    return {"id": sid, "parent": parent, "op": None, "name": name,
            "layer": layer, "start": start, "end": end, "pid": pid,
            "attrs": attrs}


def test_layer_self_times_from_span_tree():
    spans = [
        _span("1-0", "op.pass", "op", 0, 10),
        _span("1-1", "ingest.run_ingest", "ingest", 1, 9, parent="1-0"),
        _span("1-2", "ray.exec", "ray", 2, 8, parent="1-1"),
        # two workers overlap inside the execution; the UDF spans carry
        # their plan-time parent and are re-attached to the execution
        _span("2-0", "parse.parse_keep_shard", "parse", 3, 6, pid=2,
              parent="1-1", rows_in=100, rows_out=80),
        _span("3-0", "parse.parse_keep_shard", "parse", 4, 7, pid=3,
              parent="1-1", rows_in=100, rows_out=70),
        _span("2-1", "grok.ssh", "grok", 3.5, 4.5, pid=2, parent="2-0",
              rows=30),
    ]
    st = trace.self_times(spans)
    assert st["op"] == pytest.approx(2)        # 10 - [1, 9]
    assert st["ingest"] == pytest.approx(2)    # 8 - [2, 8]
    assert st["ray"] == pytest.approx(2)       # 6 - [3, 7]
    assert st["parse"] == pytest.approx(5)     # (3 - 1) + 3
    assert st["grok"] == pytest.approx(1)
    counts = {"partitions": [], "probe_keys": 0, "scanned": 0, "pending": 0}
    m = trace.layer_metrics(spans, counts, {})
    assert m["parse.rows_in"] == 200
    assert m["parse.route_ratio"] == pytest.approx(0.75)
    assert m["grok.regex_rows"] == 30
    assert m["ray.exec_overhead_s"] == pytest.approx(2)
    assert m["ray.workers_started"] == 2
    assert m["ingest.final_agg_s"] == pytest.approx(8)


def test_chart_string_sorts_like_the_route():
    assert workloads.chart({}) == "[['Country', 'Number'],]"
    assert workloads.chart({"Country B": 2, "Country A": 2, "Country C": 5}) \
        == ('[[\'Country\', \'Number\'],["Country C", 5],'
            '["Country A", 2],["Country B", 2]]')
