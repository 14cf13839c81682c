"""The pre-warmed worker pool: persistent processes, hot services.

``LintService.check_many`` builds a fresh
:class:`~concurrent.futures.ProcessPoolExecutor` per batch, so every
batch pays worker spawn plus per-worker service rebuild and
dispatch-table compilation -- which is exactly why small batches lose
to sequential (BENCH_parallel.json).  :class:`WarmPool` keeps one pool
alive for the life of the daemon: workers run
:func:`repro.core.service._worker_init` once, compile their tables
once, and every subsequent batch is pure lint work plus IPC.  Both
owners fan a batch out through the same
:func:`repro.core.service.fan_out`; only the pool's lifetime differs.

``prewarm()`` forces every worker process to start and initialise
*before* the first request arrives, so the first client sees the same
latency as the thousandth.  A worker crash mid-batch degrades, never
fails: the broken pool is rebuilt (``daemon.pool.rebuilds``) and the
lost chunk re-runs inline in the parent.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional

from repro.core.service import (
    LintRequest,
    LintResult,
    ServiceSpecification,
    _worker_init,
    fan_out,
)
from repro.obs.metrics import get_registry


def _warm_probe(hold_s: float) -> int:
    """Worker-side probe: hold the worker briefly, report its pid.

    The hold spreads concurrent probes across distinct workers, so the
    parent can tell how many processes have actually initialised.
    """
    time.sleep(hold_s)
    return os.getpid()


class WarmPool:
    """A persistent process pool whose workers stay hot.

    Thread-safe: the daemon's handler threads may submit batches
    concurrently; the underlying executor serialises scheduling and the
    rebuild-after-crash path holds a lock.
    """

    def __init__(
        self,
        specification: ServiceSpecification,
        workers: int,
    ) -> None:
        self.specification = specification
        self.workers = max(1, workers)
        self._lock = threading.Lock()
        self._busy = 0
        self._closed = False
        self._pool: Optional[ProcessPoolExecutor] = None
        self._build_pool()

    # -- lifecycle -----------------------------------------------------------

    def _build_pool(self) -> None:
        try:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_worker_init,
                initargs=(self.specification,),
            )
        except (OSError, ValueError):  # pragma: no cover - no multiprocessing
            self._pool = None

    @property
    def inline(self) -> bool:
        """True when no worker processes exist (degraded single-process)."""
        return self._pool is None

    def prewarm(self, timeout_s: float = 30.0, hold_s: float = 0.05) -> int:
        """Start and initialise every worker; return how many are warm.

        Submits held probes in rounds until every worker pid has been
        seen (or the deadline passes), which forces the executor to
        spawn all processes and run the service-building initializer in
        each -- the whole point of a *pre*-warmed pool.
        """
        if self._pool is None:
            return 0
        seen: set[int] = set()
        deadline = time.monotonic() + timeout_s
        while len(seen) < self.workers and time.monotonic() < deadline:
            remaining = max(1.0, deadline - time.monotonic())
            probes = [
                self._pool.submit(_warm_probe, hold_s)
                for _ in range(self.workers)
            ]
            try:
                for probe in probes:
                    seen.add(probe.result(timeout=remaining))
            except Exception:  # pragma: no cover - spawn failure mid-warm
                break
        registry = get_registry()
        registry.set_gauge("daemon.workers", len(seen) or 1)
        return len(seen)

    def shutdown(self) -> None:
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    # -- batches -------------------------------------------------------------

    @property
    def busy_workers(self) -> int:
        return self._busy

    def check_batch(
        self,
        requests: list[LintRequest],
        fallback: Callable[[LintRequest], LintResult],
    ) -> list[LintResult]:
        """Check a batch on the warm workers; results in input order.

        ``fallback`` (the parent service's ``check``) handles the
        degraded paths: no pool, a closed pool, or chunks lost to a
        worker crash.  The output is byte-identical to the sequential
        path, whatever happens to the processes.
        """
        pool = self._pool
        if pool is None or self._closed:
            return [fallback(request) for request in requests]
        results: list[Optional[LintResult]] = [None] * len(requests)
        with self._lock:
            self._busy += 1
            get_registry().gauge_max(
                "daemon.workers.busy", min(self._busy, self.workers)
            )
        try:
            for index, result in fan_out(
                pool, requests, fallback, self.workers,
                on_broken=lambda: self._rebuild(pool),
            ):
                results[index] = result
        finally:
            with self._lock:
                self._busy -= 1
        return results  # type: ignore[return-value]

    def _rebuild(self, broken: ProcessPoolExecutor) -> None:
        """A worker died: replace the broken pool for the next batch."""
        with self._lock:
            if self._pool is broken and not self._closed:
                get_registry().inc("daemon.pool.rebuilds")
                broken.shutdown(wait=False, cancel_futures=True)
                self._build_pool()
