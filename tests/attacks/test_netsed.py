"""netsed: rule parsing, rewriters, and the packet-boundary limitation."""

import pytest

from repro.attacks.netsed import (
    NetsedProxy,
    NetsedRule,
    StreamingRewriter,
    _PerSegmentRewriter,
    parse_rule,
)
from repro.httpsim.content import Website
from repro.httpsim.messages import HttpResponse
from repro.httpsim.server import HttpServer
from repro.netstack.ethernet import Switch
from repro.sim.errors import ConfigurationError
from repro.sim.kernel import Simulator
from tests.conftest import make_wired_host


def test_parse_rule_paper_syntax():
    rule = parse_rule("s/href=file.tgz/href=http:%2f%2fevil%2ffile.tgz/")
    assert rule.old == b"href=file.tgz"
    assert rule.new == b"href=http:%2f%2fevil%2ffile.tgz"


def test_parse_rule_rejects_garbage():
    for bad in ("x/y/z", "s/", "s//new", "plain"):
        with pytest.raises(ConfigurationError):
            parse_rule(bad)


def test_rule_apply_counts():
    rule = NetsedRule(b"aa", b"XY")
    out, hits = rule.apply(b"aa bb aa cc aa")
    assert out == b"XY bb XY cc XY"
    assert hits == 3
    out, hits = rule.apply(b"nothing here")
    assert hits == 0


def test_per_segment_rewriter_misses_split_pattern():
    """The §4.2 limitation, at unit level."""
    rw = _PerSegmentRewriter([NetsedRule(b"SECRET", b"XXXXXX")])
    out = rw.process(b"...SEC") + rw.process(b"RET...")
    assert b"SECRET" in out          # the split match survived
    assert rw.replacements == 0


def test_per_segment_rewriter_hits_contained_pattern():
    rw = _PerSegmentRewriter([NetsedRule(b"SECRET", b"XXXXXX")])
    out = rw.process(b"..SECRET..")
    assert out == b"..XXXXXX.."
    assert rw.replacements == 1


def test_streaming_rewriter_catches_split_pattern():
    rw = StreamingRewriter([NetsedRule(b"SECRET", b"XXXXXX")])
    out = rw.process(b"...SEC") + rw.process(b"RET...") + rw.flush()
    assert b"SECRET" not in out
    assert b"XXXXXX" in out
    assert rw.replacements == 1


def test_streaming_rewriter_byte_by_byte():
    rw = StreamingRewriter([NetsedRule(b"abc", b"DEF")])
    data = b"xxabcyyabczz"
    out = b"".join(rw.process(bytes([b])) for b in data) + rw.flush()
    assert out == b"xxDEFyyDEFzz"
    assert rw.replacements == 2


def test_streaming_rewriter_flush_releases_tail():
    rw = StreamingRewriter([NetsedRule(b"LONGPATTERN", b"X")])
    out = rw.process(b"short")
    assert out == b""  # held back, shorter than pattern
    assert rw.flush() == b"short"


def _proxy_world(seed=1, *, rules=None,
                 response_body=b"the SECRET value", close_delimited=True):
    sim = Simulator(seed=seed)
    lan = Switch(sim, "lan")
    client = make_wired_host(sim, lan, "client", "10.0.0.1")
    gateway = make_wired_host(sim, lan, "gw", "10.0.0.2")
    server = make_wired_host(sim, lan, "server", "10.0.0.3")
    site = Website()
    site.add_page("/x", response_body, "text/plain",
                  use_content_length=not close_delimited)
    HttpServer(server, site, 80)
    proxy = NetsedProxy(gateway, 10101, "10.0.0.3", 80,
                        rules or ["s/SECRET/XXXXXX/"])
    return sim, client, gateway, server, proxy


def _fetch_via_proxy(sim, client, proxy_ip="10.0.0.2", port=10101):
    chunks = []
    done = []
    conn = client.tcp_connect(proxy_ip, port)
    conn.on_data = chunks.append
    conn.on_established = lambda: conn.send(
        b"GET /x HTTP/1.0\r\nHost: server\r\n\r\n")
    conn.on_close = lambda: done.append(1)
    sim.run_for(20.0)
    return b"".join(chunks)


def test_proxy_rewrites_response():
    sim, client, gw, server, proxy = _proxy_world()
    body = _fetch_via_proxy(sim, client)
    assert b"XXXXXX" in body
    assert b"SECRET" not in body
    assert proxy.connections_proxied == 1
    assert proxy.total_replacements == 1


def test_proxy_passes_nonmatching_traffic():
    sim, client, gw, server, proxy = _proxy_world(
        rules=["s/NOMATCH/YYY/"])
    body = _fetch_via_proxy(sim, client)
    assert b"the SECRET value" in body
    assert proxy.total_replacements == 0


def test_proxy_relays_request_upstream_untouched():
    sim, client, gw, server, proxy = _proxy_world()
    body = _fetch_via_proxy(sim, client)
    assert b"200 OK" in body  # the real server answered


def _shrink_server_mss(server, mss):
    """Make every connection the server accepts emit tiny segments."""
    orig_make = server._make_connection

    def small_mss(*args, **kwargs):
        kwargs["mss"] = mss
        return orig_make(*args, **kwargs)

    server._make_connection = small_mss


def test_proxy_per_segment_misses_boundary_spanning_match():
    """End-to-end §4.2: with the MSS smaller than the pattern, every
    occurrence straddles a segment boundary and per-segment netsed
    misses all of them."""
    sim, client, gw, server, proxy = _proxy_world(
        response_body=b"A" * 30 + b"SECRET" + b"B" * 30)
    _shrink_server_mss(server, 4)  # pattern is 6 bytes: must straddle
    body = _fetch_via_proxy(sim, client)
    assert b"SECRET" in body
    assert proxy.total_replacements == 0


def test_proxy_upstream_refused_aborts_client():
    sim = Simulator(seed=1)
    lan = Switch(sim, "lan")
    client = make_wired_host(sim, lan, "client", "10.0.0.1")
    gateway = make_wired_host(sim, lan, "gw", "10.0.0.2")
    make_wired_host(sim, lan, "server", "10.0.0.3")  # no HTTP server
    NetsedProxy(gateway, 10101, "10.0.0.3", 80, ["s/a/b/"])
    conn = client.tcp_connect("10.0.0.2", 10101)
    resets = []
    conn.on_reset = lambda: resets.append(1)
    conn.on_established = lambda: conn.send(b"GET / HTTP/1.0\r\n\r\n")
    sim.run_for(10.0)
    assert resets == [1]
