"""Links kept by body digest, so a recrawl extracts only changed pages.

A warm ``poacher --state-dir`` recrawl revalidates most pages with a
``304`` and serves their lint results from the cache, but it still
needs every page's outgoing links to walk the site.  Re-tokenizing an
unchanged body only to rediscover the same links is the dominant cost
of such a recrawl, so :class:`LinkStore` remembers what
:func:`~repro.site.links.extract_links` returned for each body, keyed
by the body's sha256 -- the digest the frontier journal already
records for every completed page.

Invalidation is by construction rather than by bookkeeping:

- **content-addressed** -- a changed body has a new digest and misses;
  an unchanged body can only ever map to the links it yields;
- **versioned** -- :data:`LINKS_VERSION` names the extractor's output;
  bump it whenever a tokenizer or extractor change alters links, and
  every existing store loads as empty (the golden fixture in
  ``tests/test_linkstore.py`` fails until it is bumped);
- **corrupt means cold** -- a missing, unreadable, truncated,
  wrong-version or foreign file loads as an empty store (counted in
  ``robot.links.store_corrupt``), never as an error: the crawl just
  extracts every page again;
- **pruned per crawl** -- :meth:`LinkStore.save` keeps only the digests
  the finished crawl looked up, so the file tracks the site and never
  grows with its history.

The file is JSON (``{"format", "version", "links": {digest: rows}}``
with compact ``[url, line, element, kind]`` rows), never pickle: a
state directory must not be able to execute code.  Saves are atomic
(tempfile plus ``os.replace``), so shards sharing a state directory can
at worst overwrite each other's store and re-extract some pages.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional, Union

from repro.obs.metrics import get_registry
from repro.site.links import Link

#: Bump when extracted links change shape or content; old stores load cold.
LINKS_VERSION = 1

#: Marks the file as a link store, so another JSON file put in its
#: place (an HTTP index, a checkpoint) is refused even at a matching
#: version number.
STORE_FORMAT = "repro.robot.links"

STORE_FILENAME = "links.json"

_KINDS = frozenset({"anchor", "resource"})


def _encode(links: list[Link]) -> str:
    """A page's links as compact JSON rows."""
    return json.dumps(
        [[link.url, link.line, link.element, link.kind] for link in links],
        separators=(",", ":"),
    )


def _valid_row(row: object) -> bool:
    return (
        isinstance(row, list)
        and len(row) == 4
        and isinstance(row[0], str)
        and type(row[1]) is int
        and isinstance(row[2], str)
        and row[3] in _KINDS
    )


class LinkStore:
    """body sha256 -> extracted links, persisted under ``directory``.

    Each page's links are held as their compact JSON rows rather than
    as :class:`Link` objects -- a few dozen bytes per link, so keeping
    a whole site's links costs about the file's size in memory.  Used
    from the crawl's consumer thread only, so it takes no lock.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.path = Path(directory) / STORE_FILENAME
        #: digest -> the page's links as compact JSON rows.
        self._rows: dict[str, str] = {}
        #: Digests looked up or recorded since the last save.
        self._used: set[str] = set()
        self._changed = False

    def get(self, digest: str) -> Optional[list[Link]]:
        """The links recorded for ``digest``, or ``None`` on a miss."""
        self._used.add(digest)
        rows = self._rows.get(digest)
        if rows is None:
            return None
        return [Link(*row) for row in json.loads(rows)]

    def put(self, digest: str, links: list[Link]) -> None:
        """Record what extraction returned for the body with ``digest``."""
        self._used.add(digest)
        self._rows[digest] = _encode(links)
        self._changed = True

    # -- persistence -------------------------------------------------------

    def load(self) -> int:
        """Read the store; anything unusable loads as empty.

        Returns the number of digests loaded.
        """
        if not self.path.exists():
            return 0
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
            if (
                not isinstance(data, dict)
                or data.get("format") != STORE_FORMAT
                or data.get("version") != LINKS_VERSION
                or not isinstance(data.get("links"), dict)
            ):
                raise ValueError("not a link store of this version")
            loaded: dict[str, str] = {}
            for digest, rows in data["links"].items():
                if not isinstance(rows, list) or not all(
                    _valid_row(row) for row in rows
                ):
                    raise ValueError("bad link rows")
                loaded[digest] = json.dumps(rows, separators=(",", ":"))
        except (OSError, ValueError, RecursionError):
            get_registry().inc("robot.links.store_corrupt")
            return 0
        self._rows = loaded
        self._used = set()
        self._changed = False
        return len(loaded)

    def save(self, prune: bool = True) -> None:
        """Atomically write the store, pruned to the digests used.

        ``prune=False`` keeps unused digests too -- for a crawl that
        raised, whose unvisited pages a resume may still reach.
        Skips the write when nothing changed since the last load/save.
        """
        if prune:
            unused = self._rows.keys() - self._used
            for digest in unused:
                del self._rows[digest]
            self._changed = self._changed or bool(unused)
        self._used = set()
        if not self._changed:
            return
        # The rows are JSON already; splice them in rather than
        # decoding and re-encoding every page.
        entries = ",".join(
            f"{json.dumps(digest)}:{rows}"
            for digest, rows in sorted(self._rows.items())
        )
        payload = (
            f'{{"format":{json.dumps(STORE_FORMAT)},'
            f'"version":{LINKS_VERSION},"links":{{{entries}}}}}'
        )
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                "w",
                encoding="utf-8",
                dir=self.path.parent,
                prefix=".links.",
                suffix=".tmp",
                delete=False,
            )
            with handle:
                handle.write(payload)
            os.replace(handle.name, self.path)
        except OSError:
            get_registry().inc("robot.links.store_write_errors")
            return
        self._changed = False
