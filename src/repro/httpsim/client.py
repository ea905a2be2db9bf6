"""HTTP client over simulated TCP, with minimal URL handling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.hosts.host import Host
from repro.hosts.services import DnsResolver
from repro.httpsim.messages import HttpRequest, HttpResponse, HttpStreamParser
from repro.netstack.addressing import IPv4Address
from repro.sim.errors import ProtocolError, ReproError

__all__ = ["HttpClient", "parse_url"]


@dataclass(frozen=True)
class ParsedUrl:
    host: str          # hostname or dotted IP
    port: int
    path: str

    @property
    def is_ip(self) -> bool:
        try:
            IPv4Address(self.host)
            return True
        except (ValueError, TypeError):
            return False


def parse_url(url: str) -> ParsedUrl:
    """Parse ``http://host[:port]/path`` (the only scheme in 2003's problem)."""
    if not url.startswith("http://"):
        raise ProtocolError(f"unsupported URL scheme in {url!r}")
    rest = url[len("http://"):]
    hostport, slash, path = rest.partition("/")
    host, _, port_text = hostport.partition(":")
    if not host:
        raise ProtocolError(f"empty host in {url!r}")
    return ParsedUrl(host=host, port=int(port_text) if port_text else 80,
                     path="/" + path if slash else "/")


class HttpClient:
    """Callback-style GET over the simulated stack.

    Hostnames resolve through the client's :class:`DnsResolver` (if
    configured) — meaning the client trusts whatever DNS server its
    network attachment gave it, hostile hotspots included.
    """

    TIMEOUT_S = 30.0

    def __init__(self, host: Host, resolver: Optional[DnsResolver] = None) -> None:
        self.host = host
        self.resolver = resolver
        self.fetches = 0
        self.errors = 0

    def get(self, url: str,
            on_response: Callable[[Optional[HttpResponse]], None]) -> None:
        """Fetch a URL; ``on_response`` receives the response or None."""
        parsed = parse_url(url)
        if parsed.is_ip:
            self._fetch(IPv4Address(parsed.host), parsed, on_response)
            return
        if self.resolver is None:
            self.host.sim.call_soon(on_response, None)
            return

        def resolved(ip: Optional[IPv4Address]) -> None:
            if ip is None:
                self.errors += 1
                on_response(None)
            else:
                self._fetch(ip, parsed, on_response)

        self.resolver.resolve(parsed.host, resolved)

    def _fetch(self, ip: IPv4Address, parsed: ParsedUrl,
               on_response: Callable[[Optional[HttpResponse]], None]) -> None:
        self.fetches += 1
        try:
            conn = self.host.tcp_connect(ip, parsed.port)
        except ReproError:
            self.errors += 1
            self.host.sim.call_soon(on_response, None)
            return
        parser = HttpStreamParser("response")
        done = {"fired": False}

        def finish(response: Optional[HttpResponse]) -> None:
            if done["fired"]:
                return
            done["fired"] = True
            if response is None:
                self.errors += 1
            on_response(response)

        def on_established() -> None:
            request = HttpRequest(
                method="GET", path=parsed.path,
                headers={"Host": parsed.host},
            )
            conn.send(request.to_bytes())

        def on_data(data: bytes) -> None:
            if parser.complete:
                return
            try:
                parser.feed(data)
            except ProtocolError:
                conn.abort()
                finish(None)
                return
            if parser.complete:
                finish(parser.message)  # type: ignore[arg-type]
                conn.close()

        def on_close() -> None:
            if not parser.complete:
                parser.finish_on_close()
            finish(parser.message if parser.complete else None)  # type: ignore[arg-type]

        conn.on_established = on_established
        conn.on_data = on_data
        conn.on_close = on_close
        conn.on_reset = lambda: finish(None)
        self.host.sim.schedule(self.TIMEOUT_S, lambda: finish(None))
