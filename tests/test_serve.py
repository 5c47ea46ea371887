"""HTTP serving layer: all 11 reference routes
(/root/reference/src/security_log_http.rs:589-605) driven end-to-end over
sf0.001 through a loopback server, responses checked against the library
query functions they wrap."""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from .conftest import FINAL_PATHS, final_path

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def server(tmp_path_factory, ray_session):
    from security_log_analysis_rust_ray.serve import make_server
    state_dir = str(tmp_path_factory.mktemp("serve_state"))
    srv = make_server(SF, state_dir, port=0)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    yield f"http://127.0.0.1:{srv.server_port}"
    srv.shutdown()
    srv.server_close()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=120) as r:
        return r.status, r.read().decode()


def _req(url: str, method: str, body: dict | None = None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method,
                                 headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=120) as r:
        return r.status, r.read().decode()


def test_map_script_and_attempts_pages(server):
    status, js = _get(f"{server}/security_log/map_script.js")
    assert status == 200 and "draw_map" in js

    status, html = _get(
        f"{server}/security_log/intrusion_attempts?service=ssh&ndays=365000")
    assert status == 200
    assert "[['Country', 'Number']," in html
    assert "/security_log/map_script.js" in html

    status, html_all = _get(f"{server}/security_log/intrusion_attempts/all"
                            "?service=ssh")
    assert status == 200 and "[['Country', 'Number']," in html_all

    # the /all page (no recency cut) must carry the library's country
    # counts for the ssh service verbatim
    from security_log_analysis_rust_ray.pipelines.reports import enriched
    from security_log_analysis_rust_ray.stages import aggregate as agg
    import pyarrow.compute as pc
    inner = enriched(SF).map_batches(
        lambda b: b.filter(pc.and_(
            pc.fill_null(pc.equal(b["service"], "ssh"), False),
            pc.is_valid(b["country"]))),
        batch_format="pyarrow", batch_size=None)
    for path in FINAL_PATHS:
        with final_path(path):
            counts = agg.grouped_count(inner, ["country"]) \
                .to_pandas().sort_values(["cnt", "country"],
                                         ascending=[False, True])
        for r in counts.itertuples():
            assert f'["{r.country}", {r.cnt}]' in html_all


def test_attempts_second_hit_serves_from_ttl_cache(server):
    url = f"{server}/security_log/intrusion_attempts?service=ssh&ndays=30"
    _get(url)
    import time
    t0 = time.time()
    status, _ = _get(url)
    assert status == 200
    assert time.time() - t0 < 0.5  # cached: no Ray execution on hit 2


def test_intrusion_log_get_paginates_and_filters(server):
    status, body = _get(f"{server}/security_log/intrusion_log"
                        "?service=ssh&offset=2&limit=5")
    assert status == 200
    out = json.loads(body)
    assert out["pagination"]["offset"] == 2
    assert len(out["data"]) == 5
    assert all(r["service"] == "ssh" for r in out["data"])
    # page is datetime-descending
    dts = [r["datetime"] for r in out["data"]]
    assert dts == sorted(dts, reverse=True)


def test_intrusion_log_post_is_idempotent(server):
    rows = [{"service": "ssh", "server": "server-x",
             "datetime": "2031-01-01T00:00:00Z", "host": "h1.example.com",
             "username": "root"},
            {"service": "apache", "server": "server-x",
             "datetime": "2031-01-01T00:00:01Z", "host": "h2.example.com",
             "username": None}]
    status, body = _req(f"{server}/security_log/intrusion_log", "POST",
                        {"updates": rows})
    assert (status, body) == (201, "Inserts 2")
    # exact re-POST: ON CONFLICT DO NOTHING analog -> zero inserts
    status, body = _req(f"{server}/security_log/intrusion_log", "POST",
                        {"updates": rows})
    assert (status, body) == (201, "Inserts 0")
    # the inserted rows are served back (datetime desc puts 2031 first)
    _, body = _get(f"{server}/security_log/intrusion_log?limit=2")
    served = json.loads(body)["data"]
    assert {r["host"] for r in served} == {"h1.example.com",
                                           "h2.example.com"}


def test_host_country_get_post_roundtrip(server):
    _, body = _get(f"{server}/security_log/host_country?limit=3")
    out = json.loads(body)
    assert out["pagination"]["total"] > 0
    assert {"host", "code", "ipaddr", "created_at"} <= set(out["data"][0])

    status, body = _req(f"{server}/security_log/host_country", "POST",
                        {"updates": [{"host": "h1.example.com",
                                      "code": "ZZ"}]})
    assert status == 201
    _, body = _get(f"{server}/security_log/host_country?limit=1000")
    rows = {r["host"]: r["code"] for r in json.loads(body)["data"]}
    assert rows["h1.example.com"] == "ZZ"  # override wins over derived


def test_cleanup_resolves_dangling_hosts(server):
    status, body = _req(f"{server}/security_log/cleanup", "POST", {})
    assert status == 200
    inserted = json.loads(body)
    from security_log_analysis_rust_ray.pipelines.reports import \
        dangling_hosts
    from security_log_analysis_rust_ray.stages.enrich import resolve_host
    expected = sorted(h for h in
                      dangling_hosts(SF).to_pandas()["host"]
                      if resolve_host(h) is not None)
    assert [r["host"] for r in inserted] == expected
    assert all(r["code"] == resolve_host(r["host"]) for r in inserted)
    # resolved hosts now appear in the host_country listing
    _, body = _get(f"{server}/security_log/host_country?limit=10000")
    hosts = {r["host"] for r in json.loads(body)["data"]}
    assert set(expected) <= hosts


def test_user_endpoint(server):
    status, body = _get(f"{server}/security_log/user")
    assert status == 200 and json.loads(body)["email"] == "user@localhost"


def test_log_messages_page_filter_and_delete(server):
    status, body = _get(f"{server}/security_log/log_messages"
                        "?log_level=error&limit=4")
    assert status == 200
    out = json.loads(body)
    assert all(r["log_level"] == "error" for r in out["data"])
    assert len(out["data"]) == min(4, out["pagination"]["total"])
    total_before = out["pagination"]["total"]
    victim = out["data"][0]["id"]

    status, body = _req(
        f"{server}/security_log/log_messages/{victim}", "DELETE")
    assert status == 200 and body == f"deleted {victim}, 1 modified"

    _, body = _get(f"{server}/security_log/log_messages"
                   "?log_level=error&limit=4")
    out = json.loads(body)
    assert out["pagination"]["total"] == total_before - 1
    assert victim not in {r["id"] for r in out["data"]}

    # deleting an unknown id modifies nothing -> 204 No Content
    import urllib.error
    req = urllib.request.Request(
        f"{server}/security_log/log_messages/123456789", method="DELETE")
    with urllib.request.urlopen(req, timeout=120) as r:
        assert r.status == 204


def test_intrusion_log_post_without_username_then_get(server):
    """An insert payload lacking username (legitimate: apache/nginx rows
    have none) must not poison the spool schema with an Arrow null-typed
    column — later GETs over the corpus-union would 500 (r03 review)."""
    rows = [{"service": "nginx", "server": "home",
             "datetime": "2031-05-01T00:00:00Z", "host": "nullu.example.com"}]
    status, body = _req(f"{server}/security_log/intrusion_log", "POST",
                        {"updates": rows})
    assert (status, body) == (201, "Inserts 1")
    status, body = _get(f"{server}/security_log/intrusion_log"
                        "?service=nginx&limit=5")
    assert status == 200
    served = json.loads(body)["data"]
    assert any(r["host"] == "nullu.example.com" for r in served)


def test_attempts_empty_filter_with_ndays_serves_empty_chart(server):
    """ndays over an empty filtered set used to 500 (ds.max -> NaT ->
    pa.scalar raises); it must serve the empty chart (r03 review)."""
    status, html = _get(f"{server}/security_log/intrusion_attempts"
                        "?service=ftp&ndays=7")
    assert status == 200 and "[['Country', 'Number']" in html
    assert "example.com" not in html   # and truly empty of data rows


def test_openapi_spec_routes(server):
    """OpenAPI parity (reference scripts/openapi.yaml, generated by its
    security_log_http.rs test): same 9 paths, same 11 operationIds; the
    /yaml route serves the same document (JSON is valid YAML 1.2)."""
    status, body = _get(f"{server}/security_log/openapi/json")
    assert status == 200
    spec = json.loads(body)
    assert spec["openapi"].startswith("3.")
    ref_paths = {
        "/security_log/cleanup": ["post"],
        "/security_log/host_country": ["get", "post"],
        "/security_log/intrusion_attempts": ["get"],
        "/security_log/intrusion_attempts/all": ["get"],
        "/security_log/intrusion_log": ["get", "post"],
        "/security_log/log_messages": ["get"],
        "/security_log/log_messages/{id}": ["delete"],
        "/security_log/map_script.js": ["get"],
        "/security_log/user": ["get"],
    }
    assert {p: sorted(ops) for p, ops in ref_paths.items()} == \
        {p: sorted(ops) for p, ops in spec["paths"].items()}
    op_ids = sorted(op["operationId"] for ops in spec["paths"].values()
                    for op in ops.values())
    assert op_ids == sorted([
        "host_country_cleanup", "host_country_get", "host_country_post",
        "intrusion_attempts", "intrusion_attempts_all",
        "intursion_log_get", "intrusion_log_post", "get_log_messages",
        "delete_log_message", "map_script", "user"])
    status_y, body_y = _get(f"{server}/security_log/openapi/yaml")
    assert status_y == 200 and json.loads(body_y) == spec


# ---- one-pass pages over views built once per server ----------------------

def _start(state_dir: str):
    from security_log_analysis_rust_ray.serve import make_server
    srv = make_server(SF, state_dir, port=0)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    return srv, f"http://127.0.0.1:{srv.server_port}"


def _stop(srv) -> None:
    srv.shutdown()
    srv.server_close()


def _status(url: str) -> tuple[int, dict | str]:
    import urllib.error
    try:
        status, body = _get(url)
    except urllib.error.HTTPError as exc:
        status, body = exc.code, exc.read().decode()
    return status, json.loads(body) if body.startswith("{") else body


def _records(df) -> list[dict]:
    """Page rows as the routes serialize them."""
    from security_log_analysis_rust_ray.serve import _json_default
    return json.loads(json.dumps(df.to_dict("records"),
                                 default=_json_default))


# natural-key duplicates that differ only in username (null included):
# the page order must break their tie the same way on every request
_TIES = [{"service": "ssh", "server": "srv-tie", "datetime":
          "2032-01-01T00:00:00Z", "host": "h9.example.com", "username": u}
         for u in ("zed", None, "amy")]


@pytest.fixture(scope="module")
def fresh_server(tmp_path_factory, ray_session):
    srv, url = _start(str(tmp_path_factory.mktemp("serve_pages")))
    yield srv, url
    _stop(srv)


@pytest.mark.parametrize("query", ["", "service=ssh", "server=srv-tie",
                                   "service=ftp"])
def test_intrusion_log_pages_match_pandas(fresh_server, query):
    """Every page equals a pandas sort (datetime desc, host, service,
    server, username; nulls last) and slice of the collected corpus +
    spool: offset 0, a middle offset, an offset past total, and a filter
    that matches nothing (total 0, data [])."""
    import pandas as pd
    from security_log_analysis_rust_ray.pipelines.reports import parsed
    from security_log_analysis_rust_ray.serve import _SPOOL_SCHEMA
    srv, url = fresh_server
    status, body = _req(f"{url}/security_log/intrusion_log", "POST",
                        {"updates": _TIES})
    assert status == 201 and body in ("Inserts 3", "Inserts 0")
    cols = _SPOOL_SCHEMA.names
    ties = pd.DataFrame(_TIES)
    ties["datetime"] = pd.to_datetime(ties["datetime"]).dt.tz_localize(None)
    full = pd.concat([parsed(SF).to_pandas()[cols], ties], ignore_index=True)
    for kv in filter(None, query.split("&")):
        k, v = kv.split("=")
        full = full[full[k] == v]
    full = full.sort_values(["datetime", "host", "service", "server",
                             "username"],
                            ascending=[False, True, True, True, True],
                            na_position="last", kind="stable")
    total = len(full)
    for offset, limit in ((0, 10), (total // 2, 7), (total + 5, 10),
                          (1, 0)):
        status, out = _status(f"{url}/security_log/intrusion_log?"
                              f"{query}&offset={offset}&limit={limit}")
        assert status == 200
        assert out["pagination"] == {"total": total, "offset": offset,
                                     "limit": limit}
        assert out["data"] == _records(full.iloc[offset:offset + limit])
    if query == "server=srv-tie":
        _, out = _status(f"{url}/security_log/intrusion_log?{query}")
        assert [r["username"] for r in out["data"]] == ["amy", "zed", None]
    if query == "service=ftp":
        assert total == 0 and out["data"] == []


@pytest.mark.parametrize("query", ["", "log_level=error", "log_level=nope"])
def test_log_messages_pages_match_pandas(fresh_server, query):
    """Every page equals a pandas sort (log_timestamp, conv_id, turn_idx)
    and slice of the collected message view, deleted ids hidden."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    from security_log_analysis_rust_ray.functions.hashing import \
        hash64_stable
    from security_log_analysis_rust_ray.pipelines.reports import messages
    srv, url = fresh_server
    full = messages(SF).to_pandas()
    key = pc.binary_join_element_wise(
        pa.array(full["conv_id"]).cast(pa.string()),
        pa.array(full["turn_idx"]).cast(pa.string()), "|")
    full["id"] = hash64_stable(key).view(np.int64)
    full = full[~full["id"].isin(srv.app_state._tombstones())]
    if query:
        full = full[full["log_level"] == query.split("=")[1]]
    full = full.sort_values(["log_timestamp", "conv_id", "turn_idx"])
    total = len(full)
    for offset, limit in ((0, 10), (total // 2, 7), (total + 5, 10)):
        status, out = _status(f"{url}/security_log/log_messages?"
                              f"{query}&offset={offset}&limit={limit}")
        assert status == 200
        assert out["pagination"] == {"total": total, "offset": offset,
                                     "limit": limit}
        assert out["data"] == _records(full.iloc[offset:offset + limit])
    if query == "log_level=nope":
        assert total == 0 and out["data"] == []


def test_attempts_ndays_windows_match_pandas(fresh_server):
    """Each ndays geochart counts the rows within ndays of the latest
    datetime of its own (service, location) slice; the watermarks come
    from one cached per-(service, server) max."""
    import pandas as pd
    from security_log_analysis_rust_ray.pipelines.reports import enriched
    _, url = fresh_server
    full = enriched(SF).to_pandas()
    full = full[full["country"].notna()]
    for service, server, ndays in (("ssh", None, 3), ("ssh", "srv1", 1),
                                   ("ssh", "srv3", 0), ("apache", "nope", 5)):
        sub = full[full["service"] == service]
        if server is not None:
            sub = sub[sub["server"] == server]
        if len(sub):
            sub = sub[sub["datetime"] >= sub["datetime"].max()
                      - pd.Timedelta(days=ndays)]
        counts = sub.groupby("country").size().reset_index(name="cnt") \
            .sort_values(["cnt", "country"], ascending=[False, True])
        rows = ",".join(f'["{r.country}", {r.cnt}]'
                        for r in counts.itertuples())
        loc = f"&location={server}" if server else ""
        _, html = _get(f"{url}/security_log/intrusion_attempts?"
                       f"service={service}{loc}&ndays={ndays}")
        assert f"let data = [['Country', 'Number'],{rows}];" in html


@pytest.mark.parametrize("route,param", [
    ("intrusion_log", "offset=-1"), ("intrusion_log", "limit=ten"),
    ("log_messages", "offset=1.5"), ("log_messages", "limit=-10"),
    ("host_country", "offset=-3"), ("host_country", "limit=x"),
    ("intrusion_attempts", "ndays=-7"), ("intrusion_attempts", "ndays=a"),
])
def test_bad_page_parameters_get_400(fresh_server, route, param):
    """A negative or non-integer offset, limit or ndays is a client
    error with a JSON body, not a 500 or a wrong page."""
    _, url = fresh_server
    status, out = _status(f"{url}/security_log/{route}?{param}")
    assert status == 400
    assert param.split("=")[0] in out["error"]


def test_insert_then_get_serves_from_refreshed_spool(fresh_server):
    """The spool block is built by the first page and refreshed by the
    insert's write: the new row is on the next page (total + 1) and a
    replay acks Inserts 0."""
    _, url = fresh_server
    page = f"{url}/security_log/intrusion_log?server=srv-new&limit=5"
    _, before = _status(page)
    row = {"service": "ssh", "server": "srv-new", "host": "h3.example.com",
           "datetime": "2033-03-03T03:03:03Z", "username": "new"}
    assert _req(f"{url}/security_log/intrusion_log", "POST",
                {"updates": [row]}) == (201, "Inserts 1")
    _, after = _status(page)
    assert after["pagination"]["total"] == before["pagination"]["total"] + 1
    assert after["data"][0]["username"] == "new"
    assert _req(f"{url}/security_log/intrusion_log", "POST",
                {"updates": [row]}) == (201, "Inserts 0")


def test_views_parse_the_corpus_once(tmp_path, ray_session, monkeypatch):
    """Concurrent first geocharts build the enriched view once (one
    parse); the first log_messages page builds the message view (one
    more); no later request of any route parses the corpus again."""
    import sys
    from security_log_analysis_rust_ray.pipelines import reports
    calls = []
    orig = reports.routed_ds

    def counted(*a, **kw):
        calls.append(a)
        return orig(*a, **kw)

    monkeypatch.setattr(reports, "routed_ds", counted)
    srv, url = _start(str(tmp_path))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        start = threading.Barrier(6)
        codes = []

        def cold(service):
            start.wait(timeout=60)
            codes.append(_get(f"{url}/security_log/intrusion_attempts/all"
                              f"?service={service}")[0])

        threads = [threading.Thread(target=cold, args=(s,)) for s in
                   ("ssh", "apache", "nginx", "ftp", "x", "y")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not any(t.is_alive() for t in threads)
        assert codes == [200] * 6
        assert len(calls) == 1
        _, out = _status(f"{url}/security_log/log_messages?limit=1")
        assert len(calls) == 2
        victim = out["data"][0]["id"]
        for _ in range(2):
            for path in ("intrusion_attempts?service=ssh&ndays=3",
                         "intrusion_attempts/all?service=apache",
                         "intrusion_log?service=ssh&offset=4",
                         "log_messages?log_level=info&offset=2"):
                assert _get(f"{url}/security_log/{path}")[0] == 200
            _req(f"{url}/security_log/intrusion_log", "POST",
                 {"updates": _TIES})
            _req(f"{url}/security_log/log_messages/{victim}", "DELETE")
        assert _req(f"{url}/security_log/cleanup", "POST", {})[0] == 200
        assert len(calls) == 2
    finally:
        sys.setswitchinterval(interval)
        _stop(srv)
