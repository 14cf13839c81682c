"""URL parsing and reference resolution.

A from-scratch implementation of the subset of RFC 1808/3986 that a link
checker needs: absolute URL parsing, relative reference resolution
against a base, dot-segment removal, and normalisation for comparing
"the same page" (default ports, empty paths, case of scheme/host).

Deliberately independent of :mod:`urllib.parse` so the behaviour is fully
specified by this repository (and property-tested in
``tests/test_www_url.py``).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, replace
from typing import Optional

_SCHEME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]*):")

DEFAULT_PORTS = {"http": 80, "https": 443, "ftp": 21}


class URLError(ValueError):
    """A URL could not be parsed."""


@dataclass(frozen=True)
class URL:
    """A parsed URL.

    ``port`` is None when absent; :meth:`effective_port` substitutes the
    scheme default.  ``path`` keeps its leading ``/`` for absolute paths.
    """

    scheme: str = ""
    host: str = ""
    port: Optional[int] = None
    path: str = ""
    query: str = ""
    fragment: str = ""

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        parts: list[str] = []
        if self.scheme:
            parts.append(self.scheme + ":")
        if self.host or self.scheme in ("http", "https", "ftp", "file"):
            parts.append("//" + self.host)
            if self.port is not None:
                parts.append(f":{self.port}")
        parts.append(self.path)
        if self.query:
            parts.append("?" + self.query)
        if self.fragment:
            parts.append("#" + self.fragment)
        return "".join(parts)

    # -- predicates -----------------------------------------------------------

    @property
    def is_absolute(self) -> bool:
        return bool(self.scheme)

    @property
    def is_fragment_only(self) -> bool:
        return (
            not self.scheme
            and not self.host
            and not self.path
            and not self.query
            and bool(self.fragment)
        )

    def effective_port(self) -> Optional[int]:
        if self.port is not None:
            return self.port
        return DEFAULT_PORTS.get(self.scheme)

    # -- transforms --------------------------------------------------------------

    def without_fragment(self) -> "URL":
        if not self.fragment:
            return self
        return replace(self, fragment="")

    def normalised(self) -> "URL":
        """Canonical form for equality: lower scheme/host, default port
        dropped, empty path of an authority URL becomes '/'."""
        scheme = self.scheme.lower()
        host = self.host.lower()
        port = self.port
        if port is not None and port == DEFAULT_PORTS.get(scheme):
            port = None
        path = self.path
        if host and not path:
            path = "/"
        path = remove_dot_segments(path)
        return URL(
            scheme=scheme,
            host=host,
            port=port,
            path=path,
            query=self.query,
            fragment=self.fragment,
        )

    def same_host(self, other: "URL") -> bool:
        return (
            self.host.lower() == other.host.lower()
            and self.effective_port() == other.effective_port()
        )

    def directory(self) -> str:
        """The path up to and including the final '/'."""
        index = self.path.rfind("/")
        if index == -1:
            return ""
        return self.path[: index + 1]


def urlparse(text: str) -> URL:
    """Parse an absolute or relative URL reference."""
    text = text.strip()
    fragment = ""
    if "#" in text:
        text, fragment = text.split("#", 1)
    query = ""
    if "?" in text:
        text, query = text.split("?", 1)

    scheme = ""
    match = _SCHEME_RE.match(text)
    if match:
        scheme = match.group(1).lower()
        text = text[match.end():]

    host = ""
    port: Optional[int] = None
    if text.startswith("//"):
        authority, _, text = text[2:].partition("/")
        text = "/" + text if text or authority else text
        if text == "/" and not authority:
            text = ""
        if "@" in authority:
            authority = authority.rsplit("@", 1)[1]  # userinfo ignored
        if ":" in authority:
            host, _, port_text = authority.rpartition(":")
            if port_text:
                if not port_text.isdigit():
                    raise URLError(f"bad port in URL: {port_text!r}")
                port = int(port_text)
        else:
            host = authority
        # The partition above ate the '/' between authority and path.
        if text and not text.startswith("/"):
            text = "/" + text

    return URL(
        scheme=scheme,
        host=host,
        port=port,
        path=text,
        query=query,
        fragment=fragment,
    )


def remove_dot_segments(path: str) -> str:
    """RFC 3986 section 5.2.4 dot-segment removal."""
    if not path:
        return path
    absolute = path.startswith("/")
    output: list[str] = []
    for segment in path.split("/"):
        if segment == ".":
            continue
        if segment == "..":
            if output and output[-1] != "..":
                output.pop()
            elif not absolute:
                output.append("..")
            continue
        output.append(segment)
    # Preserve a trailing slash implied by a final '.' or '..'.
    if path.rstrip("/").endswith((".", "..")) or path.endswith("/"):
        if not output or output[-1] != "":
            output.append("")
    result = "/".join(segment for segment in output if segment or True)
    result = re.sub("//+", "/", result)
    if absolute and not result.startswith("/"):
        result = "/" + result
    return result


def urljoin(base: str | URL, reference: str | URL) -> URL:
    """Resolve ``reference`` against ``base`` (RFC 3986 section 5.2)."""
    base_url = base if isinstance(base, URL) else urlparse(base)
    ref = reference if isinstance(reference, URL) else urlparse(reference)

    if ref.scheme:
        return ref.normalised()
    scheme = base_url.scheme
    if ref.host:
        return replace(ref, scheme=scheme).normalised()
    host, port = base_url.host, base_url.port
    if not ref.path:
        path = base_url.path
        query = ref.query if ref.query else base_url.query
    else:
        query = ref.query
        if ref.path.startswith("/"):
            path = ref.path
        else:
            path = base_url.directory() + ref.path
            if not path.startswith("/") and host:
                path = "/" + path
    return URL(
        scheme=scheme,
        host=host,
        port=port,
        path=remove_dot_segments(path),
        query=query,
        fragment=ref.fragment,
    ).normalised()


#: Entries kept by :func:`resolve_link`.  A crawl resolves each page's
#: links back to back (link checks, then frontier offers), so the cache
#: only has to span a page or two to serve every repeat; the bound keeps
#: a long-lived process's memory flat.
RESOLVE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=RESOLVE_CACHE_SIZE)
def resolve_link(base: str, reference: str) -> str:
    """``reference`` resolved against ``base``, fragment stripped.

    The one resolution a crawl needs per link: the robot's frontier,
    :class:`~repro.robot.linkcheck.LinkChecker` and
    :class:`~repro.robot.linkcheck.FragmentChecker` all key on this
    string, and share this bounded cache of it.
    """
    return str(urljoin(base, reference).without_fragment())
