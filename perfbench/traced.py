"""The traced run: each workload driven in-process, with layer spans.

``--trace 1`` drives a fixed amount of each workload (so counts repeat
exactly for a seed) through the program's own entry functions --
``repro.cli.main``, ``repro.robot.cli.main`` and, on a launcher thread
pair, ``repro.daemon.cli.main`` -- with :mod:`spans` wrappers installed
on every layer.  Layers that run in worker processes are read from the
program's merged metric snapshot (the registry each entry function
opens, captured at the name it binds, and the daemon's ``/metrics``).

Every operation is also run with the wrappers removed, alternating which
goes first; the gap between the two is the tracing overhead.  The spans
are written to ``.perfbench_work/traces/`` when the run ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import signal
import threading
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Iterator

from harness import ROOT, WORK_DIR, Completed, Outcome, percentile
from spans import Recorder

#: Length of each traced daemon phase (plain low rate, traced low and
#: high rate), in seconds.
TRACED_PHASE_S = 4.0

# -- wrapping the layers -------------------------------------------------------


def install(recorder: Recorder) -> None:
    """Wrap every layer's boundary (undone by ``recorder.restore()``)."""
    import repro.core.cache as cache
    import repro.core.engine as engine
    import repro.core.reporter as reporter
    import repro.core.service as service
    import repro.daemon.daemon as daemon
    import repro.daemon.pool as pool
    import repro.daemon.protocol as protocol
    import repro.html.tokenizer as tokenizer
    import repro.robot.linkcheck as linkcheck
    import repro.robot.traversal as traversal
    import repro.www.client as client
    import repro.www.server as server

    # The engine's streaming feed scans in chunks; _scan_some is where
    # every tokenizer call does its work (wrapping the public generator
    # would add a cost per token instead of per chunk).
    recorder.wrap(tokenizer.Tokenizer, "_scan_some", "tokenizer.scan")
    recorder.wrap(
        engine.Engine, "check", "engine.check",
        size=lambda self, source, *args, **kwargs: len(source),
    )
    _wrap_iter_check(recorder, service.LintService)
    for module in (service, pool):
        recorder.patch(module, "ProcessPoolExecutor", _counted_pool(recorder))
    recorder.wrap(
        cache.ResultCache, "get", "cache.get",
        after=lambda found: recorder.count("cache.hits" if found is not None else "cache.misses"),
    )
    recorder.wrap(cache.ResultCache, "put", "cache.put")
    recorder.wrap(reporter.JsonlReporter, "emit", "reporter.emit")
    _wrap_respond(recorder, server.HTTPServer)
    recorder.wrap(daemon.LintDaemon, "check_batch", "daemon.check_batch")
    recorder.wrap(
        pool.WarmPool, "check_batch", "pool.check_batch",
        size=lambda self, requests, *args, **kwargs: len(requests),
    )
    recorder.wrap(protocol, "encode_batch_response", "protocol.encode")
    recorder.wrap(protocol, "decode_batch_request", "protocol.decode")
    recorder.wrap(client.UserAgent, "get", "www.get")
    recorder.wrap(traversal.Robot, "_fetch", "robot.fetch")
    recorder.wrap(traversal.Robot, "crawl", "robot.crawl")
    recorder.wrap(linkcheck.LinkChecker, "check", "site.link_check")


def _counted_pool(recorder: Recorder) -> type:
    class CountedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs) -> None:
            recorder.count("pool_starts")
            super().__init__(*args, **kwargs)

    return CountedPool


def _wrap_iter_check(recorder: Recorder, cls: type) -> None:
    """A ``service.batch`` span per ``iter_check`` call, noting when the
    first result came out and the in-worker lint time it covered."""
    original = cls.iter_check

    def iter_check(self, requests, jobs=1):
        from repro.core.service import resolve_jobs
        from repro.obs.metrics import get_registry

        requests = list(requests)
        check_ms = _histogram_sum(get_registry().snapshot(), "lint.check_ms")
        span = recorder.begin("service.batch", len(requests))
        first = None
        try:
            for result in original(self, requests, jobs):
                if first is None:
                    first = time.perf_counter()
                yield result
        finally:
            recorder.end(span)
        workers = min(resolve_jobs(jobs), len(requests)) if len(requests) > 1 else 1
        recorder.batches.append({
            "first_ms": ((first or span.end) - span.start) * 1000.0,
            "wall_ms": span.duration_ms,
            "check_ms": _histogram_sum(get_registry().snapshot(), "lint.check_ms") - check_ms,
            "workers": max(1, workers),
        })

    recorder.patch(cls, "iter_check", iter_check)


_REQUEST_ID = re.compile(rb"\r\nX-Bench-Request: (\d+)\r\n")


def _wrap_respond(recorder: Recorder, cls: type) -> None:
    """One ``server.respond`` span per HTTP request, tagged with the
    request id the load generator sent, which every nested span inherits."""
    original = cls._respond

    def respond(self, raw):
        match = _REQUEST_ID.search(raw)
        recorder.set_request(int(match.group(1)) if match else None)
        span = recorder.begin("server.respond")
        try:
            return original(self, raw)
        finally:
            recorder.end(span)
            recorder.set_request(None)

    recorder.patch(cls, "_respond", respond)


@contextlib.contextmanager
def captured_registries(module) -> Iterator[list]:
    """Keep every registry ``module.use_registry()`` hands out."""
    original = vars(module)["use_registry"]
    registries: list = []

    def use_registry(registry=None):
        manager = original(registry)
        registries.append(manager.registry)
        return manager

    module.use_registry = use_registry
    try:
        yield registries
    finally:
        module.use_registry = original


# -- metric snapshots ----------------------------------------------------------


def _histogram_sum(snapshot: dict, name: str) -> float:
    value = snapshot.get(name)
    return float(value["sum"]) if isinstance(value, dict) and "sum" in value else 0.0


class Totals:
    """Registry snapshots folded together: counters and histogram sums
    add (or subtract, for a delta), gauges keep their high-water mark."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = defaultdict(float)
        self.sums: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = defaultdict(float)

    def add(self, snapshot: dict, sign: int = 1) -> None:
        for name, value in snapshot.items():
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                self.counters[name] += sign * value
            elif isinstance(value, dict) and "buckets" in value:
                self.sums[name] += sign * float(value["sum"])
            elif isinstance(value, dict) and "max" in value:
                self.gauges[name] = max(self.gauges[name], float(value["max"]))


# -- turning spans and totals into the per-layer metrics -------------------------


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: Recorder, totals: Totals, submitted: float, frontier_workers: int = 0
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric that spans and counters give, for any workload.

    ``submitted`` is the number of documents the workload handed the
    program (pages fetched, on a recrawl); ``frontier_workers`` the
    robot's fetch threads.  A layer the workload does not use reports 0.
    """
    c, sums, gauges = totals.counters, totals.sums, totals.gauges
    durations = lambda name: [span.duration_ms for span in recorder.named(name)]

    tokenizer_ms = recorder.total_self_ms("tokenizer.scan") + sums["perfbench.tokenizer.scan.self_ms"]
    engine_ms = recorder.total_self_ms("engine.check") + sums["perfbench.engine.check.self_ms"]
    engine_kb = (
        sum(span.size for span in recorder.named("engine.check"))
        + sums["perfbench.engine.check.size"]
    ) / 1024.0
    gets = recorder.named("cache.get")
    requests = durations("www.get")
    fetches = durations("robot.fetch")
    crawls = sum(durations("robot.crawl"))
    batches = recorder.batches
    return {
        "tokenizer.calls": (c["tokenizer.documents"], "count"),
        "tokenizer.self_ms": (tokenizer_ms, "ms"),
        "tokenizer.tokens_per_s": (_ratio(c["tokenizer.tokens"], tokenizer_ms / 1000.0), "1/s"),
        "tokenizer.docs_per_page": (_ratio(c["tokenizer.documents"], submitted), "ratio"),
        "engine.checks": (c["engine.documents"], "count"),
        "engine.self_ms": (engine_ms, "ms"),
        "engine.hook_calls": (c["engine.dispatch.calls"], "count"),
        "engine.ms_per_kb": (_ratio(engine_ms, engine_kb), "ms/KB"),
        "service.batches": (len(batches), "count"),
        "service.pool_starts": (recorder.counts["pool_starts"], "count"),
        "service.first_result_ms": (_mean(b["first_ms"] for b in batches), "ms"),
        "service.fanout_ms": (
            _mean(b["wall_ms"] - b["check_ms"] / b["workers"] for b in batches), "ms"
        ),
        "cache.gets": (len(gets), "count"),
        "cache.hit_ratio": (_ratio(recorder.counts["cache.hits"], len(gets)), "ratio"),
        "cache.get_ms": (_mean(span.duration_ms for span in gets), "ms"),
        "cache.puts": (len(recorder.named("cache.put")), "count"),
        "cache.put_ms": (_mean(durations("cache.put")), "ms"),
        "cache.mem_evictions": (c["cache.lint.evictions"], "count"),
        "reporter.emit_ms": (sum(durations("reporter.emit")), "ms"),
        "protocol.encode_ms": (_mean(durations("protocol.encode")), "ms"),
        "protocol.decode_ms": (_mean(durations("protocol.decode")), "ms"),
        "daemon.rejected": (c["daemon.rejected"], "count"),
        "daemon.services_built": (c["daemon.services.built"], "count"),
        "www.requests": (c["www.requests"], "count"),
        "www.revalidated_ratio": (
            _ratio(c["www.conditional.revalidated"], c["www.conditional.requests"]), "ratio"
        ),
        "www.fetch_ms.p95": (percentile(requests, 95) if requests else 0.0, "ms"),
        "www.bytes_fetched": (c["www.bytes_fetched"], "B"),
        "frontier.admitted": (c["robot.frontier.admitted"], "count"),
        "frontier.queue_depth_max": (gauges["robot.frontier.queue_depth"], "count"),
        "frontier.host_wait_ms": (sums["robot.frontier.host_wait_ms"], "ms"),
        "robot.fetch_ms.p95": (percentile(fetches, 95) if fetches else 0.0, "ms"),
        "robot.worker_busy_frac": (
            _ratio(sum(fetches), frontier_workers * crawls), "ratio"
        ),
        "site.link_checks": (len(recorder.named("site.link_check")), "count"),
        "site.link_check_ms": (sum(durations("site.link_check")), "ms"),
    }


def finish(outcome: Outcome, recorder: Recorder, metrics: dict, label: str,
           traced_s: float, plain_s: float) -> Outcome:
    metrics.setdefault("reporter.bytes", (0.0, "B"))
    for name in ("daemon.server_ms.p50", "daemon.server_ms.p95", "daemon.transport_ms",
                 "daemon.send_delay_ms", "daemon.pool_share"):
        metrics.setdefault(name, (0.0, "ratio" if name.endswith("share") else "ms"))
    overhead = (traced_s / plain_s - 1.0) * 100.0 if plain_s else 0.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    for name, (value, unit) in metrics.items():
        outcome.metric(name, value, unit)
    outcome.note(
        f"{label}: traced run, {len(recorder.spans)} spans; tracing overhead "
        f"{overhead:+.1f}% ({traced_s:.3f} s traced vs {plain_s:.3f} s untraced)"
    )
    _write_spans(recorder, label)
    return outcome


def _write_spans(recorder: Recorder, label: str) -> None:
    directory = ROOT / WORK_DIR / "traces"
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / f"{label}-{os.getpid()}.jsonl", "w", encoding="utf-8") as handle:
        for span in recorder.spans:
            handle.write(json.dumps({
                "id": span.sid, "parent": span.parent, "name": span.name,
                "request": span.rid, "start": span.start, "end": span.end,
                "self_ms": span.self_ms,
            }) + "\n")


def _alternate(index: int, run: Callable[[bool], float]) -> tuple[float, float]:
    """Run one operation untraced and traced, alternating which goes first."""
    walls = {}
    for traced in ((False, True) if index % 2 == 0 else (True, False)):
        walls[traced] = run(traced)
    return walls[True], walls[False]


# -- the three traced drivers -----------------------------------------------------


def traced_cli_batch(work: Path, cycles, count: int, jobs: int) -> Outcome:
    import repro.cli as cli
    from cli_batch import verify

    outcome, recorder, totals = Outcome(), Recorder(), Totals()
    invocations = [invocation for _ in range(count) for invocation in next(cycles)]
    submitted, out_bytes, traced_s, plain_s = 0, 0, 0.0, 0.0
    previous = os.getcwd()
    os.chdir(work)
    try:
        with captured_registries(cli) as registries:
            for index, invocation in enumerate(invocations):
                recorder.request_id = index

                def once(traced: bool) -> float:
                    nonlocal submitted, out_bytes
                    stdout = io.StringIO()
                    if traced:
                        install(recorder)
                    start = time.perf_counter()
                    try:
                        with contextlib.redirect_stdout(stdout), \
                                contextlib.redirect_stderr(io.StringIO()):
                            code = cli.main(invocation.argv(jobs))
                    finally:
                        wall = time.perf_counter() - start
                        recorder.restore()
                    outcome.attempted += 1
                    problem = verify(invocation, code, stdout.getvalue())
                    if problem is not None:
                        outcome.failed += 1
                        outcome.fail(f"cli_batch traced: {problem}")
                    if traced:
                        totals.add(registries[-1].snapshot())
                        submitted += len(invocation.documents)
                        out_bytes += len(stdout.getvalue().encode("utf-8"))
                    return wall

                traced, plain = _alternate(index, once)
                traced_s += traced
                plain_s += plain
    finally:
        os.chdir(previous)
    metrics = layer_metrics(recorder, totals, submitted)
    metrics["reporter.bytes"] = (out_bytes, "B")
    return finish(outcome, recorder, metrics, "cli_batch", traced_s, plain_s)


def traced_site_recrawl(work: Path, site, recrawls: int, jobs: int) -> Outcome:
    import repro.robot.cli as robot_cli

    outcome, recorder, totals = Outcome(), Recorder(), Totals()
    state = work / "state"
    argv = [str(site.directory), "--state-dir", str(state), "-j", str(jobs)]
    walls: dict[bool, list[float]] = {True: [], False: []}

    with captured_registries(robot_cli) as registries:

        def crawl(traced: bool) -> float:
            stdout = io.StringIO()
            if traced:
                install(recorder)
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = robot_cli.main(argv)
            finally:
                wall = time.perf_counter() - start
                recorder.restore()
            outcome.attempted += 1
            problem = site.verify(Completed(code, stdout.getvalue(), "", wall))
            if problem is not None:
                outcome.failed += 1
                outcome.fail(f"site_recrawl traced: {problem}")
            return wall

        crawl(False)  # the cold crawl that fills the state directory
        for index in range(recrawls):
            site.regenerate()
            traced = index % 2 == 1
            recorder.request_id = index
            walls[traced].append(crawl(traced))
            if traced:
                totals.add(registries[-1].snapshot())
    pages = totals.counters["robot.pages.fetched"]
    metrics = layer_metrics(recorder, totals, pages, frontier_workers=jobs)
    return finish(outcome, recorder, metrics, "site_recrawl",
                  _mean(walls[True]), _mean(walls[False]))


def traced_daemon_mixed(work: Path, seed: int, jobs: int, generator_class, cross_check) -> Outcome:
    import repro.daemon.cli as daemon_cli
    from daemon_mixed import HI_RPS, LO_RPS, WARMUP_S
    from repro.www.server import http_get

    outcome, recorder, totals = Outcome(), Recorder(), Totals()
    listening = threading.Event()
    found: dict[str, object] = {}

    class Console(io.TextIOBase):
        def write(self, text: str) -> int:
            match = re.search(r"listening on http://([\d.]+):(\d+)", text)
            if match:
                found["address"] = (match.group(1), int(match.group(2)))
                listening.set()
            return len(text)

    def load(registries: list) -> None:
        try:
            if not listening.wait(60):
                found["error"] = "weblint-daemon did not start"
                return
            # The pool's workers were forked with the wrappers in place and
            # keep them; the daemon process itself runs unwrapped until the
            # traced phases.
            recorder.restore()
            recorder.spans.clear()
            recorder.counts.clear()
            generator = generator_class(seed, found["address"], jobs)
            generator.phase("warmup", LO_RPS, WARMUP_S)
            plain = generator.phase("lo-plain", LO_RPS, TRACED_PHASE_S)
            url = "http://%s:%d/metrics" % found["address"]
            scraped = http_get(url)[2]
            registry = registries[-1]
            totals.add(registry.snapshot(), sign=-1)
            install(recorder)
            try:
                traced = generator.phase("lo-traced", LO_RPS, TRACED_PHASE_S)
                hi = generator.phase("hi-traced", HI_RPS, TRACED_PHASE_S)
            finally:
                recorder.restore()
            totals.add(registry.snapshot())
            found.update(
                generator=generator, plain=plain, traced=traced, hi=hi,
                metrics=(scraped, http_get(url)[2]),
            )
        except Exception as exc:  # reported as a failed check, never lost
            found["error"] = f"load generator failed: {exc!r}"
        finally:
            if listening.is_set():
                os.kill(os.getpid(), signal.SIGTERM)  # the daemon's drain

    handlers = {sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)}
    with captured_registries(daemon_cli) as registries:
        thread = threading.Thread(target=load, args=(registries,))
        install(recorder)
        thread.start()
        try:
            with contextlib.redirect_stdout(Console()):
                code = daemon_cli.main([
                    "--jobs", str(jobs), "--cache-dir", str(work / "cache"),
                    "--port", "0", "--max-seconds", "150",
                ])
        finally:
            thread.join()
            recorder.restore()
            for sig, handler in handlers.items():
                signal.signal(sig, handler)
    if code != 0:
        outcome.fail(f"daemon_mixed traced: weblint-daemon exited {code}")
    if "error" in found:
        outcome.fail(f"daemon_mixed traced: {found['error']}")
        return finish(outcome, recorder, layer_metrics(recorder, totals, 0), "daemon_mixed", 0.0, 0.0)

    generator = found["generator"]
    generator.account(outcome)
    cross_check(generator, outcome, seed)
    traced_phases = (found["traced"], found["hi"])
    samples = [sample for phase in traced_phases for sample in phase.samples]
    submitted = sum(len(sample.request.documents) for sample in samples)
    metrics = layer_metrics(recorder, totals, submitted)
    server_ms = {span.rid: span.duration_ms for span in recorder.named("server.respond")}
    pooled = sum(span.size for span in recorder.named("pool.check_batch"))
    # Server time over the traced phases only: the /metrics histogram
    # after them minus the one scraped just before them.
    before, after = (
        dict(_histogram_buckets(text, "daemon_request_ms")) for text in found["metrics"]
    )
    p50, p95 = _quantiles(
        [(bound, count - before.get(bound, 0.0)) for bound, count in after.items()], (0.5, 0.95)
    )
    metrics.update({
        "daemon.server_ms.p50": (p50, "ms"),
        "daemon.server_ms.p95": (p95, "ms"),
        "daemon.transport_ms": (_mean(
            (sample.done - sample.sent) * 1000.0 - server_ms[sample.request.rid]
            for sample in samples if sample.request.rid in server_ms
        ), "ms"),
        "daemon.send_delay_ms": (_mean(sample.lateness_ms for sample in samples), "ms"),
        "daemon.pool_share": (_ratio(pooled, submitted), "ratio"),
    })
    return finish(outcome, recorder, metrics, "daemon_mixed",
                  found["traced"].p(50), found["plain"].p(50))


def _histogram_buckets(text: str, name: str) -> list[tuple[float, float]]:
    """The cumulative ``(le, count)`` buckets of an OpenMetrics histogram."""
    buckets = []
    for match in re.finditer(rf'^{re.escape(name)}_bucket{{le="([^"]+)"}} (\S+)$', text, re.M):
        bound = float("inf") if match.group(1) == "+Inf" else float(match.group(1))
        buckets.append((bound, float(match.group(2))))
    return buckets


def _quantiles(buckets: list[tuple[float, float]], quantiles) -> list[float]:
    """Quantiles of cumulative histogram buckets, interpolated in them."""
    if not buckets or buckets[-1][1] == 0:
        return [0.0 for _ in quantiles]
    total = buckets[-1][1]
    values = []
    for q in quantiles:
        target, low_bound, low_count = q * total, 0.0, 0.0
        value = buckets[-1][0]
        for bound, count in buckets:
            if count >= target:
                if bound == float("inf"):
                    value = low_bound
                else:
                    share = (target - low_count) / (count - low_count) if count > low_count else 1.0
                    value = low_bound + (bound - low_bound) * share
                break
            low_bound, low_count = bound, count
        values.append(value)
    return values
