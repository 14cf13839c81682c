"""Validator store for conditional HTTP fetches.

HTTP has carried its own cache-coherency protocol since 1.0: a server
labels a response with ``ETag`` / ``Last-Modified`` validators, the
client replays them as ``If-None-Match`` / ``If-Modified-Since``, and an
unchanged resource comes back as a bodyless ``304 Not Modified``.
WebScript-style web-document processors win exactly by exploiting this
machinery, and it is what lets a second ``poacher`` crawl of a large,
mostly-unchanged site skip almost all of its byte transfer.

:class:`HttpCache` is that client-side store:

- per-URL metadata (validators, status, content type, body digest) in
  one index;
- bodies kept content-addressed (sha256), in memory and -- when a
  ``directory`` is given -- as one file per digest, so two URLs serving
  identical bytes share one stored body;
- ``save()`` / ``load()`` persist the index atomically as versioned
  JSON; a missing, corrupt or wrong-version index loads as an empty
  cache, never an error -- a crawl always proceeds, at worst cold.
  A save with nothing changed since the last save (or a clean load)
  writes nothing.

The consumer is :class:`repro.www.client.UserAgent` (pass
``http_cache=``): it sends the stored validators with every GET, turns a
``304`` back into the stored response (counted in
``www.conditional.revalidated``), and falls back to a full unconditional
GET when a ``304`` arrives but the stored body has been evicted
(``www.conditional.lost_body``).  The ``poacher --state-dir`` switch
wires a persistent instance into a crawl.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.www.message import Response

#: Bump when the index layout changes; old state dirs reload as cold.
FORMAT_VERSION = 1


def body_digest(body: str) -> str:
    return hashlib.sha256(body.encode("utf-8", errors="surrogatepass")).hexdigest()


@dataclass
class CachedEntry:
    """What the store remembers about one URL."""

    url: str
    status: int
    content_type: str
    body_sha256: str
    etag: Optional[str] = None
    last_modified: Optional[str] = None

    @property
    def has_validators(self) -> bool:
        return self.etag is not None or self.last_modified is not None

    def to_dict(self) -> dict:
        return {
            "url": self.url,
            "status": self.status,
            "content_type": self.content_type,
            "body_sha256": self.body_sha256,
            "etag": self.etag,
            "last_modified": self.last_modified,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CachedEntry":
        return cls(
            url=raw["url"],
            status=int(raw["status"]),
            content_type=raw.get("content_type", "text/html"),
            body_sha256=raw["body_sha256"],
            etag=raw.get("etag"),
            last_modified=raw.get("last_modified"),
        )


class HttpCache:
    """Per-URL validators plus a content-addressed body store.

    Memory-only by default; give it a ``directory`` and bodies persist
    as they are stored while ``save()`` writes the index -- call it at
    the end of a crawl (``poacher --state-dir`` does, and so does every
    frontier checkpoint).  Index changes are counted, so a save that
    follows another with nothing stored in between is skipped.
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        self._entries: dict[str, CachedEntry] = {}
        self._bodies: dict[str, str] = {}
        self._lock = threading.Lock()
        #: Index changes so far, and how many of them are on disk; the
        #: index is dirty while they differ.  Starts dirty, so the first
        #: save always writes.
        self._changes = 1
        self._saved_changes = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookups -----------------------------------------------------------

    def entry_for(self, url: str) -> Optional[CachedEntry]:
        with self._lock:
            return self._entries.get(url)

    def body_for(self, entry: CachedEntry) -> Optional[str]:
        """The stored body for ``entry``, or ``None`` if it was evicted."""
        with self._lock:
            body = self._bodies.get(entry.body_sha256)
        if body is not None:
            return body
        if self.directory is None:
            return None
        try:
            body = self._body_path(entry.body_sha256).read_text(
                encoding="utf-8", errors="surrogatepass"
            )
        except OSError:
            return None
        if body_digest(body) != entry.body_sha256:
            # A torn or tampered body file must not masquerade as the
            # validated representation.
            return None
        with self._lock:
            self._bodies[entry.body_sha256] = body
        return body

    def body_by_digest(self, digest: str) -> Optional[str]:
        """The stored body for ``digest`` directly, bypassing the index.

        Bodies persist synchronously at :meth:`store` time while the
        index only persists on :meth:`save`, so a crawl killed before
        any save can still recover every completed page's bytes -- the
        frontier journal's resume path leans on exactly that.
        """
        with self._lock:
            body = self._bodies.get(digest)
        if body is not None:
            return body
        if self.directory is None:
            return None
        try:
            body = self._body_path(digest).read_text(
                encoding="utf-8", errors="surrogatepass"
            )
        except OSError:
            return None
        if body_digest(body) != digest:
            return None
        with self._lock:
            self._bodies[digest] = body
        return body

    # -- population --------------------------------------------------------

    def store(self, url: str, response: Response) -> None:
        """Remember ``response`` (an ok GET) and its validators for ``url``."""
        digest = body_digest(response.body)
        entry = CachedEntry(
            url=url,
            status=response.status,
            content_type=response.headers.get("Content-Type", "text/html"),
            body_sha256=digest,
            etag=response.headers.get("ETag"),
            last_modified=response.headers.get("Last-Modified"),
        )
        with self._lock:
            if self._entries.get(url) != entry:
                self._entries[url] = entry
                self._changes += 1
            self._bodies[digest] = response.body
        if self.directory is not None:
            self._write_body(digest, response.body)

    def evict_body(self, url: str) -> None:
        """Drop the stored body for ``url`` (both tiers), keep validators.

        Models the real-world state the evicted-validator fallback
        exists for: an index that outlived its body files.
        """
        entry = self.entry_for(url)
        if entry is None:
            return
        with self._lock:
            self._bodies.pop(entry.body_sha256, None)
        if self.directory is not None:
            try:
                self._body_path(entry.body_sha256).unlink()
            except OSError:
                pass

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bodies.clear()
            self._changes += 1

    # -- persistence -------------------------------------------------------

    def save(self) -> None:
        """Atomically write the index (bodies were persisted on store).

        A no-op when the index has not changed since the last save.
        """
        if self.directory is None:
            return
        with self._lock:
            if self._changes == self._saved_changes:
                return
            changes = self._changes
            payload = json.dumps(
                {
                    "version": FORMAT_VERSION,
                    "entries": {
                        url: entry.to_dict()
                        for url, entry in sorted(self._entries.items())
                    },
                },
                indent=2,
                sort_keys=True,
            )
        with get_tracer().span("www.httpcache.save", entries=len(self)):
            self.directory.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                "w",
                encoding="utf-8",
                dir=self.directory,
                prefix=".index.",
                suffix=".tmp",
                delete=False,
            )
            with handle:
                handle.write(payload)
            os.replace(handle.name, self._index_path())
        with self._lock:
            self._saved_changes = max(self._saved_changes, changes)

    def load(self) -> int:
        """Read the index; corrupt or wrong-version state loads as empty.

        Returns the number of entries loaded.
        """
        if self.directory is None:
            return 0
        with get_tracer().span("www.httpcache.load"):
            try:
                data = json.loads(self._index_path().read_text(encoding="utf-8"))
            except (OSError, ValueError):
                return 0
            if (
                not isinstance(data, dict)
                or data.get("version") != FORMAT_VERSION
                or not isinstance(data.get("entries"), dict)
            ):
                get_registry().inc("www.httpcache.corrupt")
                return 0
            loaded: dict[str, CachedEntry] = {}
            for url, raw in data["entries"].items():
                try:
                    loaded[url] = CachedEntry.from_dict(raw)
                except (KeyError, TypeError, ValueError):
                    get_registry().inc("www.httpcache.corrupt")
            with self._lock:
                clean = not self._entries and len(loaded) == len(data["entries"])
                self._entries.update(loaded)
                if clean:
                    # Memory now mirrors the file exactly: nothing to save.
                    self._saved_changes = self._changes
            return len(loaded)

    # -- paths -------------------------------------------------------------

    def _index_path(self) -> Path:
        assert self.directory is not None
        return self.directory / "index.json"

    def _body_path(self, digest: str) -> Path:
        assert self.directory is not None
        return self.directory / "bodies" / f"{digest}.body"

    def _write_body(self, digest: str, body: str) -> None:
        assert self.directory is not None
        path = self._body_path(digest)
        if path.exists():
            return  # content-addressed: same digest, same bytes
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                "w",
                encoding="utf-8",
                errors="surrogatepass",
                dir=path.parent,
                prefix=f".{digest[:8]}.",
                suffix=".tmp",
                delete=False,
            )
            with handle:
                handle.write(body)
            os.replace(handle.name, path)
        except OSError:  # pragma: no cover - read-only state dir
            get_registry().inc("www.httpcache.write_errors")
