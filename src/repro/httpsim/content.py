"""Website content, including the paper's download page.

§4.1: "We set up a sample target download web page which contained a
downloadable binary, a link to that downloadable binary and an MD5SUM
of that binary.  This download scenario is relatively common, where
the MD5SUM is intended to verify that package was downloaded
properly."
"""

from __future__ import annotations

import hashlib
from typing import Callable, Optional

from repro.httpsim.messages import HttpRequest, HttpResponse

__all__ = ["Website", "make_download_page", "make_news_page"]


class Website:
    """A path → content mapping with optional dynamic handlers."""

    def __init__(self, name: str = "site") -> None:
        self.name = name
        self._static: dict[str, tuple[str, bytes, bool]] = {}
        self._handlers: dict[str, Callable[[HttpRequest], HttpResponse]] = {}

    def add_page(self, path: str, body: "bytes | str",
                 content_type: str = "text/html",
                 use_content_length: bool = True) -> None:
        if isinstance(body, str):
            body = body.encode("utf-8")
        self._static[path] = (content_type, body, use_content_length)

    def add_handler(self, path: str,
                    handler: Callable[[HttpRequest], HttpResponse]) -> None:
        self._handlers[path] = handler

    def handle(self, request: HttpRequest) -> HttpResponse:
        handler = self._handlers.get(request.path)
        if handler is not None:
            return handler(request)
        entry = self._static.get(request.path)
        if entry is None:
            return HttpResponse.not_found()
        content_type, body, use_content_length = entry
        return HttpResponse.ok(body, content_type,
                               use_content_length=use_content_length)

    def paths(self) -> list[str]:
        return sorted(set(self._static) | set(self._handlers))


def make_download_page(
    site: Website,
    *,
    binary: bytes,
    binary_name: str = "file.tgz",
    page_path: str = "/download.html",
    binary_path: Optional[str] = None,
) -> str:
    """Install the §4.1 download page on a website.

    The page carries exactly the two artifacts netsed targets: the
    relative link ``href=file.tgz`` and the hex MD5SUM of the binary.
    Returns the MD5 hex digest that was published.
    """
    binary_path = binary_path or f"/{binary_name}"
    digest = hashlib.md5(binary).hexdigest()
    html = (
        "<html><head><title>Download</title></head><body>\n"
        "<h1>Get the software</h1>\n"
        f"<p>Download: <a href={binary_name}>{binary_name}</a></p>\n"
        f"<p>MD5SUM: {digest}</p>\n"
        "</body></html>\n"
    )
    # The page is served HTTP/1.0 close-delimited (no Content-Length),
    # the common dynamic-page style — and the framing that lets a
    # length-growing netsed rewrite arrive intact at the victim.
    site.add_page(page_path, html, use_content_length=False)
    site.add_page(binary_path, binary, content_type="application/octet-stream")
    return digest


def make_news_page(site: Website, *, headline: str = "All quiet today",
                   script: str = "") -> None:
    """A CNN-style trusted news page at ``/index.html`` (§5.1's scenario).

    ``script`` is inline page script; the legitimate site publishes a
    benign one, and the hostile hotspot's rewriter swaps in an exploit.
    """
    html = (
        "<html><head><title>World News Network</title></head><body>\n"
        f"<h1>{headline}</h1>\n"
        f"<script>{script or 'renderWeatherWidget()'}</script>\n"
        "<p>Trusted journalism since 1980.</p>\n"
        "</body></html>\n"
    )
    site.add_page("/index.html", html)
