"""The ``poacher`` command: crawl a site directory and report.

Since the reproduction has no live network, the command mounts a local
directory as ``http://localhost/`` on a virtual web and crawls that --
the same code path a networked poacher would follow, end to end
(robots.txt included if the directory contains one).

The resilience layer is fully scriptable: ``--retries``/``--backoff``/
``--timeout`` configure the transport-level retry policy,
``--breaker-after`` the per-host circuit breaker, ``--frontier-jobs``/
``--host-delay`` the concurrent crawl frontier, and ``--fault-rate``/
``--fault-seed`` inject deterministic transient 503s into the mounted
site so the whole stack can be exercised without a hostile network.

``--state-dir DIR`` makes the crawl *incremental*: HTTP validators,
lint results, each body's extracted links and the frontier journal
persist under DIR, so a second run revalidates unchanged pages with
conditional fetches (``304 Not Modified``), serves their lint results
from the cache and reuses their links -- only changed pages pay for
transfer, tokenizing and linting.  ``--resume`` replays the
journal of a killed crawl: completed pages are restored from the body
store without refetching and only the unfinished frontier is crawled.
See docs/caching.md and docs/user-guide.md.

Telemetry: ``--progress`` renders a live one-line crawl report on
stderr (pages done/in flight/failed, pages/s, cache-hit ratio, ETA);
``--telemetry-dir DIR`` streams events to ``DIR/events.jsonl`` and
writes ``DIR/metrics.jsonl`` + ``DIR/metrics.prom`` snapshots.  Every
run with ``--state-dir`` or ``--telemetry-dir`` appends a summary to
``runs.jsonl`` for ``python -m repro.tools.compare_runs``.  See
docs/observability.md.

Streaming audits: ``--format jsonl`` emits one JSON object per page as
it resolves (the weblint ``-f jsonl`` shape, keyed by URL) instead of
the buffered summary, and ``--shards N --shard K`` runs the bounded
streaming pipeline over the K-th of N URL partitions, writing
``rollup.json`` + ``pages.jsonl`` + ``report.txt`` + ``metrics.json``
under ``--state-dir``'s report directory.  Run every shard (they can
share the state dir -- the caches make the overlap cheap), then fold
the shard directories into one canonical report with ``python -m
repro.tools.merge_shards STATE_DIR``.  See docs/architecture.md
("Streaming reports").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.config.options import Options
from repro.core.cache import ResultCache
from repro.core.reporter import JsonlReporter
from repro.core.service import LintService
from repro.obs import (
    MemorySampler,
    TelemetrySink,
    TimeSeries,
    record_run,
    use_event_log,
    use_registry,
    use_timeseries,
)
from repro.obs.events import NULL_EVENT_LOG
from repro.robot.frontier import FrontierJournal
from repro.robot.linkstore import LinkStore
from repro.robot.poacher import Poacher
from repro.robot.traversal import CrawlProgress, TraversalPolicy
from repro.site.report import render_text_report
from repro.www.client import CircuitBreaker, RetryPolicy, UserAgent
from repro.www.httpcache import HttpCache
from repro.www.virtualweb import VirtualWeb


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poacher",
        description="crawl a site, weblint every page, validate every link",
    )
    parser.add_argument(
        "site_dir",
        help="directory served as http://localhost/ for the crawl",
    )
    parser.add_argument(
        "--start",
        default="http://localhost/index.html",
        help="start URL (default %(default)s)",
    )
    parser.add_argument(
        "--max-pages",
        type=int,
        default=1000,
        help="crawl at most this many pages",
    )
    parser.add_argument(
        "--ignore-robots",
        action="store_true",
        help="do not honour robots.txt",
    )
    parser.add_argument(
        "--no-links",
        action="store_true",
        help="skip link validation (lint only)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry transient failures (transport errors, 5xx, 429) up "
        "to N extra times with exponential backoff",
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="base backoff between retries (default %(default)s)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request timeout (default: none)",
    )
    parser.add_argument(
        "--breaker-after",
        type=int,
        default=0,
        metavar="N",
        help="open a per-host circuit breaker after N consecutive "
        "failures (0 = disabled)",
    )
    parser.add_argument(
        "--frontier-jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="fetch the crawl frontier with N worker threads "
        "(default 1 = sequential; the report is identical either way)",
    )
    parser.add_argument(
        "--host-delay",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="politeness: minimum delay between fetches to one host",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="inject deterministic transient 503s into P of all "
        "requests (0..1; exercises the retry path)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for --fault-rate fault placement",
    )
    parser.add_argument(
        "--state-dir",
        metavar="DIR",
        default=None,
        help="persist crawl state (HTTP validators, lint results, "
        "extracted links, the frontier journal) under DIR so a re-crawl "
        "revalidates unchanged pages instead of re-fetching, re-linting "
        "and re-tokenizing them",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted crawl from the journal under "
        "--state-dir: completed pages are restored without refetching",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print crawl metrics (fetches, retries, latency "
        "percentiles, slowest URLs) to stderr after the report",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render a live one-line crawl progress report on stderr "
        "(pages done/in flight/failed, pages/s, cache hits, ETA)",
    )
    parser.add_argument(
        "--telemetry-dir",
        metavar="DIR",
        default=None,
        help="stream structured events to DIR/events.jsonl and write "
        "metric snapshots to DIR/metrics.jsonl and DIR/metrics.prom",
    )
    parser.add_argument(
        "--format",
        "-f",
        choices=("summary", "jsonl"),
        default="summary",
        help="report format: the buffered crawl summary (default) or "
        "one JSON object per page streamed as each page resolves",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="streaming sharded audit: roll up only this process's "
        "partition of the site's URLs, writing rollup.json and "
        "pages.jsonl under --state-dir for repro.tools.merge_shards "
        "(N=1 streams the whole site)",
    )
    parser.add_argument(
        "--shard",
        type=int,
        default=0,
        metavar="K",
        help="which of the --shards partitions to audit (0-based)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.resume and not args.state_dir:
        parser.error("--resume requires --state-dir")
    if args.shards is not None:
        if not args.state_dir:
            parser.error("--shards requires --state-dir")
        if args.shards < 1:
            parser.error("--shards must be at least 1")
        if not 0 <= args.shard < args.shards:
            parser.error("--shard must be between 0 and --shards - 1")

    web = VirtualWeb()
    web.add_site("http://localhost/", args.site_dir)
    if args.fault_rate > 0.0:
        web.faults.seed = args.fault_seed
        web.add_fault(rate=args.fault_rate, status=503, times=None)
    http_cache = None
    result_cache = None
    journal = None
    link_store = None
    if args.state_dir:
        state = Path(args.state_dir)
        http_cache = HttpCache(state / "http")
        http_cache.load()
        result_cache = ResultCache(state / "lint")
        link_store = LinkStore(state / "links")
        # Each frontier checkpoint also persists the HTTP index, so a
        # kill between checkpoints costs at most checkpoint_every pages
        # of conditional refetches -- never completed-page bodies.
        journal = FrontierJournal(
            state / "frontier", on_checkpoint=lambda: http_cache.save()
        )
    agent = UserAgent(
        web,
        retry=RetryPolicy(max_retries=max(0, args.retries),
                          backoff_base_s=args.backoff),
        breaker=(
            CircuitBreaker(failure_threshold=args.breaker_after)
            if args.breaker_after > 0 else None
        ),
        timeout_s=args.timeout,
        http_cache=http_cache,
    )

    options = Options.with_defaults()
    options.follow_links = not args.no_links
    policy = TraversalPolicy(
        max_pages=args.max_pages,
        obey_robots_txt=not args.ignore_robots,
        concurrency=max(1, args.frontier_jobs),
        per_host_delay_s=max(0.0, args.host_delay),
        shards=args.shards or 1,
        shard=args.shard if args.shards is not None else 0,
    )
    poacher = Poacher(
        agent,
        service=LintService(options=options, cache=result_cache),
        policy=policy,
        journal=journal,
        link_store=link_store,
    )
    sink = TelemetrySink(args.telemetry_dir) if args.telemetry_dir else None
    event_log = sink.open_event_log() if sink is not None else NULL_EVENT_LOG
    started = time.time()
    start_perf = time.perf_counter()
    with use_registry() as registry, use_timeseries(TimeSeries()), \
            use_event_log(event_log):
        if link_store is not None:
            link_store.load()  # here, so --stats counts a corrupt store
        progress = (
            CrawlProgress(poacher.robot, sys.stderr)
            if args.progress else None
        )
        if args.shards is not None or args.format == "jsonl":
            return _run_stream(
                args, poacher, http_cache, registry, sink, progress,
                started, start_perf,
            )
        report = poacher.crawl(
            args.start, progress=progress, resume=args.resume
        )
        if http_cache is not None:
            http_cache.save()

        for line in report.summary_lines():
            sys.stdout.write(line + "\n")
        for page in report.pages:
            for diagnostic in page.diagnostics:
                sys.stdout.write(f"{diagnostic}\n")
        if args.stats:
            _print_stats(registry, poacher.robot.stats, sys.stderr)
        wall_s = time.perf_counter() - start_perf
        ledger_dir = args.state_dir or args.telemetry_dir
        if ledger_dir:
            record_run(
                ledger_dir, registry.snapshot(), "poacher", wall_s,
                clock=lambda: started,
            )
        if sink is not None:
            sink.close(registry)
    return 1 if report.total_problems() else 0


def _run_stream(
    args, poacher, http_cache, registry, sink, progress, started, start_perf
) -> int:
    """The streaming audit: bounded rollup, optional shard partition.

    Runs inside main()'s registry/event-log context.  The memory
    sampler is only armed for sharded audits (``--shards``): that is
    the site-scale path whose flat-memory claim the
    ``report.memory.high_water_bytes`` gauge exists to prove, and
    tracemalloc tracing is not free.
    """
    report_dir = None
    if args.state_dir:
        report_dir = Path(args.state_dir) / "report"
        shards = args.shards or 1
        if shards > 1:
            report_dir = report_dir / f"shard-{args.shard}-of-{shards}"
    sampler = MemorySampler().start() if args.shards is not None else None
    reporter = None
    on_result = None
    if args.format == "jsonl":
        reporter = JsonlReporter().begin(sys.stdout)
        on_result = reporter.emit
    rollup = poacher.crawl_stream(
        args.start,
        report_dir=report_dir,
        progress=progress,
        resume=args.resume,
        on_result=on_result,
    )
    if http_cache is not None:
        http_cache.save()
    if reporter is not None:
        reporter.end()
    else:
        sys.stdout.write(render_text_report(rollup) + "\n")
    if args.stats:
        _print_stats(registry, poacher.robot.stats, sys.stderr)
    if sampler is not None:
        sampler.stop()  # final sample lands before the snapshot below
    wall_s = time.perf_counter() - start_perf
    snapshot = registry.snapshot()
    if report_dir is not None:
        # crawl_stream saved rollup.json here already; report.txt and
        # metrics.json complete the shard's mergeable report directory.
        (report_dir / "report.txt").write_text(
            render_text_report(rollup) + "\n", encoding="utf-8"
        )
        (report_dir / "metrics.json").write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    ledger_dir = args.state_dir or args.telemetry_dir
    if ledger_dir:
        record_run(
            ledger_dir, snapshot, "poacher", wall_s, clock=lambda: started
        )
    if sink is not None:
        sink.close(registry)
    return 1 if rollup.total_messages else 0


def _print_stats(registry, crawl_stats, stream) -> None:
    stream.write("poacher stats:\n")
    for line in registry.summary_lines(
        defaults=(
            "robot.pages.fetched",
            "robot.frontier.admitted",
            "robot.frontier.resumed_pages",
            "robot.links.extracted",
            "robot.links.reused",
            "robot.fetch.retries",
            "robot.fetch.http_errors",
            "robot.fetch.latency_ms",
            "www.retry.attempts",
            "www.conditional.revalidated",
            "cache.lint.hits",
        )
    ):
        stream.write(f"  {line}\n")
    if crawl_stats.host_slots:
        stream.write("  host slots:\n")
        for host, slot in crawl_stats.host_slots.items():
            stream.write(
                f"    {host}: {slot['fetches']:g} fetch(es), "
                f"max {slot['max_in_flight']:g} in flight, "
                f"waited {slot['wait_ms']:g} ms\n"
            )
    slowest = crawl_stats.slowest()
    if slowest:
        stream.write("  slowest fetches:\n")
        for url, latency_ms in slowest:
            stream.write(f"    {url}: {latency_ms:.2f} ms\n")


if __name__ == "__main__":  # pragma: no cover
    try:
        code = main()
    except BrokenPipeError:
        # --format jsonl piped into head/jq and the reader went away:
        # die quietly with the conventional SIGPIPE status, and point
        # stdout at devnull so the interpreter's exit-time flush does
        # not raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 128 + 13
    raise SystemExit(code)
