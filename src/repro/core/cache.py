"""Persistent, content-addressed lint-result cache.

The ROADMAP's north star names caching explicitly: a re-audit of a site
that changed three pages out of three hundred should pay for three
lints, not three hundred.  This module is the lint half of that story
(the HTTP half -- conditional fetches -- lives in
:mod:`repro.www.httpcache`): a :class:`ResultCache` that
:meth:`repro.core.service.LintService.check` consults before dispatching
a document to the engine and populates afterwards.

Correctness rests entirely on the key.  An entry is addressed by::

    sha256( service fingerprint || 0x00 || document bytes )

where the *service fingerprint* digests everything that can change what
the engine would emit: the options fingerprint (every semantic field --
see :meth:`repro.config.options.Options.fingerprint`), the HTML spec
name, the rule set (registry names + enabled flags, in order), the
cascade-heuristics switch, the weblint version and the on-disk format
version.  Change any of them and every key changes,
so invalidation is automatic -- there is no "stale entry" state to
manage, only misses.

Two tiers:

- an in-memory LRU (``memory_entries`` strong entries) for repeated
  checks inside one process -- the site checker re-linting a template
  shared by many pages hits this tier;
- an optional disk tier (``directory=``): one JSON file per entry,
  sharded by the first two hex digits of the key, written atomically
  (temp file + ``os.replace``) so a crashed or concurrent run can never
  leave a torn entry.  Loads are corruption-tolerant: an unreadable,
  unparseable or wrong-version file is treated as a miss (and counted
  in ``cache.lint.corrupt``), never an error.

Diagnostics are stored *filename-free* and re-bound to the requesting
document's name on every hit, so two identical files at different paths
share one entry and still report their own names.

Metrics (see docs/observability.md and docs/caching.md):
``cache.lint.hits`` / ``misses`` / ``stores`` / ``evictions`` (memory
tier) / ``corrupt`` / ``unserialisable``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.core import constants
from repro.core.diagnostics import Diagnostic
from repro.core.messages import Category
from repro.obs.metrics import get_registry

#: Bump when the on-disk entry layout changes; old entries become misses.
FORMAT_VERSION = 1

#: Filename placeholder stored on disk; re-bound on every hit.
_UNBOUND = "-"


def _stable(value: object) -> object:
    """A deterministic, order-independent projection of ``value``.

    ``Options.fingerprint()`` contains frozensets, whose ``repr`` order
    is arbitrary between processes; keys must not depend on it.
    """
    if isinstance(value, (set, frozenset)):
        return ("set",) + tuple(sorted((repr(_stable(v)) for v in value)))
    if isinstance(value, dict):
        return ("dict",) + tuple(
            sorted((repr(_stable(k)), repr(_stable(v))) for k, v in value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(_stable(v) for v in value)
    return value


def service_fingerprint(
    options_fingerprint: tuple,
    spec_name: str,
    rule_state: Sequence[tuple[str, bool]],
    cascade_heuristics: bool,
) -> bytes:
    """Digest every configuration axis that can change lint output."""
    payload = repr(
        (
            FORMAT_VERSION,
            constants.WEBLINT_VERSION,
            spec_name,
            _stable(options_fingerprint),
            tuple(rule_state),
            cascade_heuristics,
        )
    ).encode("utf-8")
    return hashlib.sha256(payload).digest()


def result_key(text: str, fingerprint: bytes) -> str:
    """The content-addressed cache key for one (document, service) pair."""
    digest = hashlib.sha256()
    digest.update(fingerprint)
    digest.update(b"\x00")
    digest.update(text.encode("utf-8", errors="surrogatepass"))
    return digest.hexdigest()


def _diagnostic_to_dict(diagnostic: Diagnostic) -> dict:
    return {
        "id": diagnostic.message_id,
        "category": diagnostic.category.value,
        "text": diagnostic.text,
        "line": diagnostic.line,
        "column": diagnostic.column,
        "arguments": diagnostic.arguments,
    }


def _diagnostic_from_dict(raw: dict, filename: str) -> Diagnostic:
    return Diagnostic(
        message_id=raw["id"],
        category=Category(raw["category"]),
        text=raw["text"],
        line=raw["line"],
        column=raw.get("column", 0),
        filename=filename,
        arguments=dict(raw.get("arguments", {})),
    )


class ResultCache:
    """Two-tier (memory LRU + disk) store of lint results by content key.

    Thread-safe: the site checker and the batch pipeline may consult one
    instance from several threads.  Disk writes are atomic per entry;
    two processes sharing a directory race benignly (last write wins,
    both wrote identical bytes for identical keys).
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        memory_entries: int = 256,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.memory_entries = max(1, memory_entries)
        self._memory: OrderedDict[str, list[dict]] = OrderedDict()
        self._lock = threading.Lock()

    # -- lookup ------------------------------------------------------------

    def get(self, key: str, filename: str = _UNBOUND) -> Optional[list[Diagnostic]]:
        """The cached diagnostics for ``key``, re-bound to ``filename``.

        Returns ``None`` on a miss; a corrupt or wrong-version disk
        entry is a miss, never an error.
        """
        registry = get_registry()
        with self._lock:
            rows = self._memory.get(key)
            if rows is not None:
                self._memory.move_to_end(key)
        if rows is None:
            rows = self._load(key)
            if rows is not None:
                self._remember(key, rows)
        if rows is None:
            registry.inc("cache.lint.misses")
            return None
        registry.inc("cache.lint.hits")
        try:
            return [_diagnostic_from_dict(row, filename) for row in rows]
        except (KeyError, TypeError, ValueError):
            # A hand-edited or future-format entry that parsed as JSON
            # but does not describe diagnostics degrades to a miss too.
            registry.inc("cache.lint.corrupt")
            registry.inc("cache.lint.misses")
            return None

    def put(self, key: str, diagnostics: Sequence[Diagnostic]) -> None:
        """Store ``diagnostics`` under ``key`` (memory, then disk)."""
        registry = get_registry()
        rows = [_diagnostic_to_dict(d) for d in diagnostics]
        try:
            payload = json.dumps(
                {"version": FORMAT_VERSION, "diagnostics": rows},
                sort_keys=True,
            )
        except (TypeError, ValueError):
            # A plugin rule put something non-JSON in arguments; caching
            # this entry would lose information, so skip it.
            registry.inc("cache.lint.unserialisable")
            return
        self._remember(key, rows)
        registry.inc("cache.lint.stores")
        if self.directory is None:
            return
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                "w",
                encoding="utf-8",
                dir=path.parent,
                prefix=f".{key[:8]}.",
                suffix=".tmp",
                delete=False,
            )
            with handle:
                handle.write(payload)
            os.replace(handle.name, path)
        except OSError:
            # A read-only or full cache directory degrades to memory-only.
            registry.inc("cache.lint.write_errors")

    def clear(self) -> int:
        """Drop every entry (both tiers); returns entries removed on disk."""
        with self._lock:
            self._memory.clear()
        removed = 0
        if self.directory is None or not self.directory.is_dir():
            return removed
        for shard in sorted(self.directory.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.glob("*.json")):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - concurrent removal
                    pass
        return removed

    # -- internals ---------------------------------------------------------

    def _remember(self, key: str, rows: list[dict]) -> None:
        with self._lock:
            self._memory[key] = rows
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)
                get_registry().inc("cache.lint.evictions")

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / key[:2] / f"{key}.json"

    def _load(self, key: str) -> Optional[list[dict]]:
        if self.directory is None:
            return None
        path = self._path(key)
        try:
            payload = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            data = json.loads(payload)
        except ValueError:
            get_registry().inc("cache.lint.corrupt")
            return None
        if (
            not isinstance(data, dict)
            or data.get("version") != FORMAT_VERSION
            or not isinstance(data.get("diagnostics"), list)
        ):
            get_registry().inc("cache.lint.corrupt")
            return None
        return data["diagnostics"]
