"""HTTP server over simulated TCP."""

from __future__ import annotations

from repro.hosts.host import Host
from repro.httpsim.content import Website
from repro.httpsim.messages import HttpRequest, HttpStreamParser
from repro.netstack.tcp import TcpConnection
from repro.sim.errors import ProtocolError

__all__ = ["HttpServer"]


class HttpServer:
    """One website bound to a host and port (HTTP/1.0, close after response)."""

    def __init__(self, host: Host, website: Website, port: int = 80) -> None:
        self.host = host
        self.website = website
        self.port = port
        self.listener = host.tcp_listen(port, self._on_connection)
        self.requests_served = 0
        self.request_log: list[HttpRequest] = []

    def _on_connection(self, conn: TcpConnection) -> None:
        parser = HttpStreamParser("request")

        def on_data(data: bytes) -> None:
            if parser.complete:
                return
            try:
                parser.feed(data)
            except ProtocolError:
                conn.abort()
                return
            if parser.complete:
                request = parser.message
                assert isinstance(request, HttpRequest)
                self.requests_served += 1
                self.request_log.append(request)
                response = self.website.handle(request)
                self.host.sim.trace.emit(
                    "http.request", self.host.name,
                    path=request.path, status=response.status,
                    client=str(conn.remote_ip),
                )
                conn.send(response.to_bytes())
                conn.close()

        conn.on_data = on_data

    def close(self) -> None:
        self.listener.close()
