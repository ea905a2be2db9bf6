"""The victim's browser and update habits.

This models the human side of the §4.1 experiment: fetch the download
page, click the link, check the published MD5SUM against the fetched
bytes, and — if they match — install and run the binary.  Against the
netsed MITM the check *passes* and the victim runs a trojan.

It also models §5.1's "CNN user": pages from trusted sites execute
their inline script; a client "a little behind on browser or client
updates" (``patched=False``) is compromised by an injected exploit.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Optional

from repro.hosts.host import Host
from repro.httpsim.client import HttpClient, parse_url
from repro.httpsim.downloads import is_trojaned
from repro.httpsim.messages import HttpResponse

__all__ = ["Browser", "DownloadOutcome", "PageVisit"]

_HREF_RE = re.compile(rb"href=([^\s>\"']+)")
_MD5_RE = re.compile(rb"MD5SUM:\s*([0-9a-fA-F]{32})")
_SCRIPT_RE = re.compile(rb"<script>(.*?)</script>", re.DOTALL)
EXPLOIT_MARKER = b"exploit("


@dataclass
class DownloadOutcome:
    """The result of one download-and-verify-and-run sequence."""

    page_url: str
    link: Optional[str] = None
    published_md5: Optional[str] = None
    computed_md5: Optional[str] = None
    md5_ok: Optional[bool] = None
    executed: bool = False
    trojaned: bool = False
    failed: bool = False

    @property
    def compromised(self) -> bool:
        """Did the victim end up running attacker code?"""
        return self.executed and self.trojaned


@dataclass
class PageVisit:
    """The result of one ordinary page view (the §5.1 scenario)."""

    url: str
    status: Optional[int] = None
    script: bytes = b""
    exploit_executed: bool = False


class Browser:
    """A scriptable victim browser.

    Parameters
    ----------
    patched:
        Whether the browser has current security updates.  Unpatched
        browsers are compromised by injected ``exploit(...)`` script
        (§5.1: "This user may be a little behind on browser or client
        updates").
    """

    def __init__(self, host: Host, *, resolver=None, patched: bool = False) -> None:
        self.host = host
        self.client = HttpClient(host, resolver=resolver)
        self.patched = patched
        self.downloads: list[DownloadOutcome] = []
        self.visits: list[PageVisit] = []
        self.compromised = False

    # ------------------------------------------------------------------
    # the §4.1 flow: download page → binary → md5sum → run
    # ------------------------------------------------------------------
    def download_and_run(self, page_url: str) -> DownloadOutcome:
        """Fetch a download page, follow its link, verify MD5, run the file.

        Returns the (initially empty) :class:`DownloadOutcome`, which
        fills in as the simulated fetches complete.
        """
        outcome = DownloadOutcome(page_url=page_url)
        self.downloads.append(outcome)

        def finish() -> None:
            if outcome.compromised:
                self.compromised = True
                self.host.sim.trace.emit("browser.compromised", self.host.name,
                                         via="trojan-download", url=page_url)

        def on_page(response: Optional[HttpResponse]) -> None:
            if response is None or response.status != 200:
                outcome.failed = True
                finish()
                return
            link = self._extract_link(response.body)
            digest = self._extract_md5(response.body)
            if link is None:
                outcome.failed = True
                finish()
                return
            outcome.link = link
            outcome.published_md5 = digest
            self.client.get(self._absolutize(page_url, link), on_binary)

        def on_binary(response: Optional[HttpResponse]) -> None:
            if response is None or response.status != 200:
                outcome.failed = True
                finish()
                return
            blob = response.body
            outcome.computed_md5 = hashlib.md5(blob).hexdigest()
            if outcome.published_md5 is not None:
                outcome.md5_ok = outcome.computed_md5 == outcome.published_md5.lower()
                if not outcome.md5_ok:
                    # The integrity check did its job; the victim refuses to run it.
                    self.host.sim.trace.emit("browser.md5_mismatch", self.host.name,
                                             url=page_url)
                    finish()
                    return
            outcome.executed = True
            outcome.trojaned = is_trojaned(blob)
            finish()

        self.client.get(page_url, on_page)
        return outcome

    # ------------------------------------------------------------------
    # the §5.1 flow: browse a trusted site, execute its script
    # ------------------------------------------------------------------
    def visit(self, url: str) -> PageVisit:
        """View a page and run its inline script, as browsers do."""
        visit = PageVisit(url=url)
        self.visits.append(visit)

        def on_page(response: Optional[HttpResponse]) -> None:
            if response is not None:
                visit.status = response.status
                match = _SCRIPT_RE.search(response.body)
                if match:
                    visit.script = match.group(1)
                    if EXPLOIT_MARKER in visit.script and not self.patched:
                        visit.exploit_executed = True
                        self.compromised = True
                        self.host.sim.trace.emit("browser.compromised", self.host.name,
                                                 via="script-exploit", url=url)

        self.client.get(url, on_page)
        return visit

    # ------------------------------------------------------------------
    # HTML scraping (regex is period-appropriate browser engineering)
    # ------------------------------------------------------------------
    @staticmethod
    def _extract_link(body: bytes) -> Optional[str]:
        match = _HREF_RE.search(body)
        if match is None:
            return None
        return match.group(1).decode("ascii", "replace")

    @staticmethod
    def _extract_md5(body: bytes) -> Optional[str]:
        match = _MD5_RE.search(body)
        return match.group(1).decode("ascii") if match else None

    @staticmethod
    def _absolutize(page_url: str, link: str) -> str:
        """Resolve a (possibly URL-encoded absolute) link against its page.

        netsed's replacement injects ``http:%2f%2fevil...`` — %2f being
        '/', "properly interpreted" per §4.1.
        """
        link = link.replace("%2f", "/").replace("%2F", "/")
        if link.startswith("http://"):
            return link
        parsed = parse_url(page_url)
        base = page_url.rsplit("/", 1)[0]
        if link.startswith("/"):
            return f"http://{parsed.host}:{parsed.port}{link}"
        return f"{base}/{link}"
