"""Website content, HTTP server/client over the stack, and the Browser."""

import hashlib

import pytest

from repro.httpsim.browser import Browser
from repro.httpsim.client import HttpClient, parse_url
from repro.httpsim.content import Website, make_download_page, make_news_page
from repro.httpsim.downloads import is_trojaned, make_binary
from repro.httpsim.messages import HttpRequest, HttpResponse
from repro.httpsim.server import HttpServer
from repro.sim.errors import ProtocolError
from repro.sim.kernel import Simulator
from repro.sim.rng import SimRandom


def test_parse_url():
    u = parse_url("http://10.0.0.2:8080/path/to/x")
    assert (u.host, u.port, u.path) == ("10.0.0.2", 8080, "/path/to/x")
    assert u.is_ip
    u2 = parse_url("http://example.com")
    assert (u2.host, u2.port, u2.path) == ("example.com", 80, "/")
    assert not u2.is_ip
    with pytest.raises(ProtocolError):
        parse_url("ftp://example.com/")
    with pytest.raises(ProtocolError):
        parse_url("http:///nohost")


def test_website_static_and_handler():
    site = Website()
    site.add_page("/a", "alpha", "text/plain")
    site.add_handler("/dyn", lambda req: HttpResponse.ok(req.path.encode()))
    assert site.handle(HttpRequest("GET", "/a")).body == b"alpha"
    assert site.handle(HttpRequest("GET", "/dyn")).body == b"/dyn"
    assert site.handle(HttpRequest("GET", "/missing")).status == 404
    assert site.paths() == ["/a", "/dyn"]


def test_make_download_page_publishes_real_md5():
    site = Website()
    binary = make_binary("tool", 1024, SimRandom(1))
    digest = make_download_page(site, binary=binary)
    assert digest == hashlib.md5(binary).hexdigest()
    page = site.handle(HttpRequest("GET", "/download.html"))
    assert b"href=file.tgz" in page.body
    assert digest.encode() in page.body
    served = site.handle(HttpRequest("GET", "/file.tgz"))
    assert served.body == binary


def test_make_binary_and_trojan_marker():
    binary = make_binary("x", 256, SimRandom(2))
    assert not is_trojaned(binary)
    assert len(binary) == 256
    with pytest.raises(ValueError):
        make_binary("x", 4, SimRandom(2))


def test_news_page_script():
    site = Website()
    make_news_page(site, headline="Hello")
    body = site.handle(HttpRequest("GET", "/index.html")).body
    assert b"<script>renderWeatherWidget()</script>" in body


def test_http_over_stack(wired_pair):
    sim, client_host, server_host = wired_pair
    site = Website()
    site.add_page("/hello", "world")
    server = HttpServer(server_host, site, 80)
    client = HttpClient(client_host)
    results = []
    client.get("http://10.0.0.2/hello", results.append)
    client.get("http://10.0.0.2/missing", results.append)
    sim.run_for(10.0)
    statuses = sorted(r.status for r in results if r)
    assert statuses == [200, 404]
    assert server.requests_served == 2
    assert [r.path for r in server.request_log] == ["/hello", "/missing"]


def test_http_client_connection_refused(wired_pair):
    sim, client_host, _ = wired_pair
    client = HttpClient(client_host)
    results = []
    client.get("http://10.0.0.2/x", results.append)  # no server
    sim.run_for(5.0)
    assert results == [None]
    assert client.errors == 1


def test_http_client_no_route_counts_an_error(wired_pair):
    sim, client_host, _ = wired_pair
    client = HttpClient(client_host)
    results = []
    client.get("http://192.0.2.1/x", results.append)  # off-link, no gateway
    sim.run_for(1.0)
    assert results == [None]
    assert client.errors == 1 and client.fetches == 1


def test_http_client_hostname_without_resolver(wired_pair):
    sim, client_host, _ = wired_pair
    client = HttpClient(client_host)
    results = []
    client.get("http://needs-dns.example/", results.append)
    sim.run_for(1.0)
    assert results == [None]


def test_browser_download_and_run_clean(wired_pair):
    sim, client_host, server_host = wired_pair
    site = Website()
    binary = make_binary("tool", 2048, sim.rng.substream("b"))
    make_download_page(site, binary=binary)
    HttpServer(server_host, site, 80)
    browser = Browser(client_host)
    outcome = browser.download_and_run("http://10.0.0.2/download.html")
    sim.run_for(20.0)
    assert outcome.link == "file.tgz"
    assert outcome.md5_ok is True
    assert outcome.executed and not outcome.trojaned
    assert not outcome.compromised
    assert not browser.compromised


def test_browser_refuses_md5_mismatch(wired_pair):
    """If only the binary is swapped (not the page digest), the victim's
    check catches it — motivating the attack's second rewrite rule."""
    sim, client_host, server_host = wired_pair
    site = Website()
    binary = make_binary("tool", 2048, sim.rng.substream("b"))
    make_download_page(site, binary=binary)
    # Maliciously replace the served binary only.
    from repro.attacks.trojan import trojanize
    site.add_page("/file.tgz", trojanize(binary), "application/octet-stream")
    HttpServer(server_host, site, 80)
    browser = Browser(client_host)
    outcome = browser.download_and_run("http://10.0.0.2/download.html")
    sim.run_for(20.0)
    assert outcome.md5_ok is False
    assert not outcome.executed
    assert not outcome.compromised


def test_browser_visit_executes_script(wired_pair):
    sim, client_host, server_host = wired_pair
    site = Website()
    make_news_page(site, script="exploit(1337)")
    HttpServer(server_host, site, 80)
    unpatched = Browser(client_host, patched=False)
    visit = unpatched.visit("http://10.0.0.2/index.html")
    sim.run_for(10.0)
    assert visit.exploit_executed
    assert unpatched.compromised


def test_patched_browser_survives_exploit(wired_pair):
    sim, client_host, server_host = wired_pair
    site = Website()
    make_news_page(site, script="exploit(1337)")
    HttpServer(server_host, site, 80)
    patched = Browser(client_host, patched=True)
    visit = patched.visit("http://10.0.0.2/index.html")
    sim.run_for(10.0)
    assert not visit.exploit_executed
    assert not patched.compromised


def test_browser_absolutize_handles_percent2f():
    assert Browser._absolutize(
        "http://10.0.0.2/download.html",
        "http:%2f%2f198.51.100.66%2ffile.tgz",
    ) == "http://198.51.100.66/file.tgz"
    assert Browser._absolutize(
        "http://10.0.0.2/dir/page.html", "file.tgz",
    ) == "http://10.0.0.2/dir/file.tgz"
    assert Browser._absolutize(
        "http://10.0.0.2/page.html", "/abs/path.tgz",
    ) == "http://10.0.0.2:80/abs/path.tgz"
