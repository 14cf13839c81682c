"""A worker that dies mid-batch costs throughput, never a result.

Both pool owners fan out through :func:`repro.core.service.fan_out`:
``check_many(jobs=N)`` with a pool per batch, the daemon's
:class:`~repro.daemon.pool.WarmPool` with one pool for its lifetime.
Here a patched chunk runner kills its worker process on a marked
document; every result must still come back, byte-identical to the
sequential run, and the warm pool must be rebuilt exactly once and then
serve the next batch on fresh workers.
"""

from __future__ import annotations

import os

import pytest

import repro.core.service as service_module
from repro.core.reporter import LintReporter
from repro.core.service import LintRequest, LintService, StringSource
from repro.daemon import WarmPool
from repro.obs import use_registry
from tests.conftest import PAPER_EXAMPLE, make_document

#: The document whose chunk kills the worker that runs it.
CRASH_NAME = "crash.html"

_real_run_chunk = service_module._worker_run_chunk


def _crashing_run_chunk(requests, collect_trace, collect_profile):
    """``_worker_run_chunk``, except that the marked document kills the
    worker process outright -- no exception, no result, no cleanup."""
    if any(request.source.name == CRASH_NAME for request in requests):
        os._exit(70)
    return _real_run_chunk(requests, collect_trace, collect_profile)


@pytest.fixture
def crashing_workers(monkeypatch):
    # Patched before any pool forks; the runner is submitted by
    # reference, so every worker resolves the crashing version.
    monkeypatch.setattr(service_module, "_worker_run_chunk", _crashing_run_chunk)


def _documents(crash: bool) -> list[tuple[str, str]]:
    documents = [
        (f"doc{index:02}.html", PAPER_EXAMPLE if index % 2 else make_document(
            f"<p>page {index}<b>unclosed</p>"
        ))
        for index in range(8)
    ]
    if crash:
        documents[3] = (CRASH_NAME, PAPER_EXAMPLE.replace("<H1>", "<H2>", 1))
    return documents


def _requests(documents) -> list[LintRequest]:
    return [
        LintRequest(StringSource(text, name=name)) for name, text in documents
    ]


def _rendered(results) -> str:
    """The batch as report bytes: names, errors and every diagnostic."""
    return "\n".join(
        f"== {result.name} {result.error}\n"
        + LintReporter().report(result.diagnostics)
        for result in results
    )


def _sequential(service: LintService, documents) -> str:
    return _rendered(service.check_many(_requests(documents), jobs=1))


class TestCheckManyWorkerCrash:
    def test_lost_chunks_rerun_in_parent(self, crashing_workers):
        service = LintService()
        documents = _documents(crash=True)
        in_parent: list[str] = []
        check = service.check

        def recording_check(request):
            in_parent.append(request.source.name)
            return check(request)

        service.check = recording_check
        with use_registry() as registry:
            results = service.check_many(_requests(documents), jobs=2)
            assert registry.value("lint.files") == len(documents)
        del service.check
        # Only chunks lost with the dead worker ran in the parent.
        assert CRASH_NAME in in_parent
        assert [result.name for result in results] == [
            name for name, _ in documents
        ]
        assert all(result.ok for result in results)
        assert _rendered(results) == _sequential(service, documents)


class TestWarmPoolWorkerCrash:
    def test_crash_rebuilds_once_and_next_batch_uses_new_pool(
        self, crashing_workers
    ):
        service = LintService()
        fallbacks: list[str] = []

        def fallback(request):
            fallbacks.append(request.source.name)
            return service.check(request)

        with use_registry() as registry:
            pool = WarmPool(service.specification(), workers=2)
            try:
                assert pool.prewarm(timeout_s=30.0) >= 1
                first_executor = pool._pool
                documents = _documents(crash=True)
                results = pool.check_batch(_requests(documents), fallback)
                assert len(results) == len(documents)
                assert all(result is not None and result.ok for result in results)
                assert _rendered(results) == _sequential(service, documents)
                assert CRASH_NAME in fallbacks
                assert registry.value("daemon.pool.rebuilds") == 1
                assert pool._pool is not None
                assert pool._pool is not first_executor

                # The next batch runs on the rebuilt workers: nothing
                # falls back, and no second rebuild happens.
                fallbacks.clear()
                documents = _documents(crash=False)
                results = pool.check_batch(_requests(documents), fallback)
                assert fallbacks == []
                assert _rendered(results) == _sequential(service, documents)
                assert registry.value("daemon.pool.rebuilds") == 1
            finally:
                pool.shutdown()
