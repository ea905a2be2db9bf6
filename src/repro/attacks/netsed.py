"""netsed: the stream search-and-replace proxy (paper reference [16]).

§4.1 runs::

    # netsed tcp 10101 Target-IP 80 \\
    #     s/href=file.tgz/href=http:%2f%2f.../ \\
    #     s/REALMD5SUM/FAKEMD5SUM/

:class:`NetsedProxy` is that program: it listens on a port (where the
DNAT rule delivers the victim's flows), opens an upstream connection
to the real destination, and rewrites matches in the relayed stream.

Faithfully reproduced limitation (§4.2): "netsed will not match
strings that cross packet boundaries."  The proxy applies its rules
*per received segment*, so a pattern split across two TCP segments
survives — measured by the E-NETSED experiment.  The "could easily be
addressed" fix the paper mentions is :class:`StreamingRewriter`, which
withholds a pattern-length tail between chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hosts.host import Host
from repro.netstack.addressing import IPv4Address
from repro.netstack.tcp import TcpConnection
from repro.obs.runtime import instruments
from repro.sim.errors import ConfigurationError

__all__ = ["NetsedProxy", "NetsedRule", "StreamingRewriter", "parse_rule"]


def _printable(data: bytes) -> str:
    """Escape a payload excerpt for hop details / terminal output."""
    return data.decode("latin-1").encode("unicode_escape").decode("ascii")


#: Bytes shown before the first difference, and the excerpt width.
_EXCERPT_CONTEXT = 24
_EXCERPT_WIDTH = 72


def _diff_excerpt(before: bytes, after: bytes) -> tuple[str, str]:
    """Aligned excerpts of ``before``/``after`` around their first difference."""
    i = min(len(before), len(after))
    for k, (a, b) in enumerate(zip(before, after)):
        if a != b:
            i = k
            break
    lo = max(0, i - _EXCERPT_CONTEXT)
    hi = lo + _EXCERPT_WIDTH
    return _printable(before[lo:hi]), _printable(after[lo:hi])


@dataclass(frozen=True)
class NetsedRule:
    """One ``s/old/new`` rule."""

    old: bytes
    new: bytes

    def apply(self, data: bytes) -> tuple[bytes, int]:
        """Replace all occurrences; returns (rewritten, hit count)."""
        count = data.count(self.old)
        if count:
            data = data.replace(self.old, self.new)
        return data, count


def parse_rule(text: str) -> NetsedRule:
    """Parse netsed's ``s/old/new`` command-line rule syntax."""
    if not text.startswith("s/"):
        raise ConfigurationError(f"bad netsed rule {text!r}")
    body = text[2:]
    old, sep, new = body.partition("/")
    if not sep or not old:
        raise ConfigurationError(f"bad netsed rule {text!r}")
    return NetsedRule(old.encode("ascii"), new.rstrip("/").encode("ascii"))


class StreamingRewriter:
    """Boundary-safe rewriter: the improvement §4.2 says attackers could make.

    Holds back up to ``max(len(old)) - 1`` bytes between chunks so a
    pattern split across TCP segments is still seen whole.  Call
    :meth:`flush` at stream end to release the held tail.
    """

    def __init__(self, rules: list[NetsedRule]) -> None:
        self.rules = rules
        self._tail = b""
        self._holdback = max((len(r.old) for r in rules), default=1) - 1
        self.replacements = 0

    def process(self, chunk: bytes) -> bytes:
        data = self._tail + chunk
        for rule in self.rules:
            data, hits = rule.apply(data)
            self.replacements += hits
        if self._holdback > 0 and len(data) > self._holdback:
            self._tail = data[-self._holdback:]
            return data[:-self._holdback]
        if self._holdback > 0:
            self._tail = data
            return b""
        self._tail = b""
        return data

    def flush(self) -> bytes:
        out, self._tail = self._tail, b""
        return out


class _PerSegmentRewriter:
    """netsed's real behaviour: rules applied to each segment separately."""

    def __init__(self, rules: list[NetsedRule]) -> None:
        self.rules = rules
        self.replacements = 0

    def process(self, chunk: bytes) -> bytes:
        for rule in self.rules:
            chunk, hits = rule.apply(chunk)
            self.replacements += hits
        return chunk

    def flush(self) -> bytes:
        return b""


class NetsedProxy:
    """The TCP rewriting proxy.

    Parameters
    ----------
    host:
        The gateway machine the proxy runs on.
    listen_port:
        Local port (§4.1 uses 10101); the PREROUTING DNAT rule points here.
    target_ip / target_port:
        The real upstream destination.
    rules:
        ``s/old/new`` strings or :class:`NetsedRule` objects, applied
        to each segment separately as real netsed does (§4.2).
    """

    def __init__(
        self,
        host: Host,
        listen_port: int,
        target_ip: "IPv4Address | str",
        target_port: int,
        rules: "list[NetsedRule | str]",
        *,
        rewrite_upstream: bool = False,
    ) -> None:
        self.host = host
        self.listen_port = listen_port
        self.target_ip = IPv4Address(target_ip)
        self.target_port = target_port
        self.rules = [parse_rule(r) if isinstance(r, str) else r for r in rules]
        self.rewrite_upstream = rewrite_upstream
        self.listener = host.tcp_listen(listen_port, self._on_client)
        self.connections_proxied = 0
        self.total_replacements = 0

    def close(self) -> None:
        self.listener.close()

    # ------------------------------------------------------------------
    # relaying
    # ------------------------------------------------------------------
    def _on_client(self, client: TcpConnection) -> None:
        self.connections_proxied += 1
        obs = instruments()
        m = obs.metrics
        if m is not None:
            m.incr("attack.netsed.connections")
        rec = obs.recorder
        if rec is not None and rec.current() is not None:
            rec.hop("netsed", "accept", host=self.host.name,
                    t=self.host.sim.now, client=str(client.remote_ip),
                    upstream=f"{self.target_ip}:{self.target_port}")
        upstream = self.host.tcp_connect(self.target_ip, self.target_port)
        down_rw = _PerSegmentRewriter(self.rules)     # server -> client direction
        up_rw = _PerSegmentRewriter(self.rules) if self.rewrite_upstream else None
        pending_up: list[bytes] = []
        state = {"up_established": False, "closing": False}

        def pump_upstream(data: bytes) -> None:
            if up_rw is not None:
                data = up_rw.process(data)
            if state["up_established"]:
                if data:
                    upstream.send(data)
            else:
                pending_up.append(data)

        def on_up_established() -> None:
            state["up_established"] = True
            for chunk in pending_up:
                if chunk:
                    upstream.send(chunk)
            pending_up.clear()

        def on_up_data(data: bytes) -> None:
            hits_before = down_rw.replacements
            rewritten = down_rw.process(data)
            rec = instruments().recorder
            if rec is not None and rec.current() is not None \
                    and down_rw.replacements > hits_before:
                # The MITM's defining moment: record which rules fired
                # and an aligned before/after excerpt of the payload.
                before, after = _diff_excerpt(data, rewritten)
                rules = [f"s/{_printable(r.old)}/{_printable(r.new)}/"
                         for r in self.rules if r.old in data]
                rec.hop("netsed", "rewrite", host=self.host.name,
                        t=self.host.sim.now,
                        replacements=down_rw.replacements - hits_before,
                        rules=rules, before=before, after=after,
                        bytes_in=len(data), bytes_out=len(rewritten))
            if rewritten:
                client.send(rewritten)

        def finish_down() -> None:
            if state["closing"]:
                return
            state["closing"] = True
            self.total_replacements += down_rw.replacements
            if up_rw is not None:
                self.total_replacements += up_rw.replacements
            m = instruments().metrics
            if m is not None:
                rewrites = down_rw.replacements + (up_rw.replacements if up_rw else 0)
                if rewrites:
                    m.incr("attack.netsed.rewrites", rewrites)
            if down_rw.replacements:
                self.host.sim.trace.emit("netsed.rewrite", self.host.name,
                                         replacements=down_rw.replacements,
                                         client=str(client.remote_ip))
            client.close()

        client.on_data = pump_upstream
        client.on_close = upstream.close
        client.on_reset = lambda: upstream.abort()
        upstream.on_established = on_up_established
        upstream.on_data = on_up_data
        upstream.on_close = finish_down
        upstream.on_reset = lambda: client.abort()
