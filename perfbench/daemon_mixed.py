"""Workload ``daemon_mixed``: open-loop traffic against ``weblint-daemon``.

One ``weblint-daemon --jobs <nproc> --cache-dir DIR`` process serves
``POST /lint`` requests sent on a seeded Poisson schedule by at most
``nproc`` sender threads, one connection each (the daemon's server
speaks HTTP/1.0, one request per connection).  Request mix:

- 80% one-document requests (linted inline on the daemon's warm
  service), 15% eight-document and 5% 32-document requests (sent to
  the ``WarmPool``);
- 10% of requests carry custom options (two variants), which exercises
  the daemon's per-options service LRU;
- 80% of documents are new; the rest repeat an earlier document, so the
  result cache mostly stores.

Request sizes and custom options are dealt in blocks of 20 requests
that hold their shares exactly, so every phase sees the same mix.

Latency is timed from each request's *due* time, so a stalled daemon
delays every later request and the wait counts.  The schedule of every
phase is a function of the seed (and, for the capacity search, of the
probed rate) fixed before the phase starts.
"""

from __future__ import annotations

import json
import math
import random
import signal
import socket
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from repro.www.server import http_get

from corpus import PEDANTIC_OPTIONS, Document, seeded_document, valid_document, judge
from harness import (
    ChildUsage,
    Outcome,
    command,
    median,
    nproc,
    percentile,
    program_env,
    scratch_dir,
)

#: Request mix: (documents per request, share of requests).
BATCH_MIX = ((1, 0.80), (8, 0.15), (32, 0.05))
#: Requests are dealt in blocks of this many that hold the mix exactly.
DECK = 20
CUSTOM_OPTIONS_SHARE = 0.10
#: The custom option sets; both are judged with the pedantic oracle.
OPTION_VARIANTS = (PEDANTIC_OPTIONS, {"pedantic": True})
REPEAT_SHARE = 0.20
SEEDED_SHARE = 0.30

#: Frozen on a 2-CPU host (see README.md): the latency limit on p95, the
#: capacity measured then (the median of 13 searches), and the low and
#: high rates at about 27% and 41% of it.  They stay fixed so every
#: later run is comparable.
LATENCY_LIMIT_MS = 100.0
FROZEN_MAX_RPS = 110.0
LO_RPS = 30.0
HI_RPS = 45.0

#: How a run's measuring time is spent: shares at the low rate, at the
#: high rate and on capacity probes of PROBE_S seconds each.
LO_SHARE, HI_SHARE, PROBE_SHARE = 0.25, 0.30, 0.45
PROBE_S = 1.5
WARMUP_S = 0.5
SEARCH_STEP = 1.06
SETUP_REPEATS = 5
#: Responses compared against in-process ``LintService.check`` per run.
CROSS_CHECK_REQUESTS = 60


@dataclass
class Request:
    rid: int
    documents: tuple[Document, ...]
    options: Optional[dict]
    body: bytes = b""

    @property
    def pedantic(self) -> bool:
        return self.options is not None


class RequestStream:
    """The seeded, endless sequence of requests."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed * 31 + 5)
        self.seed = seed
        self.history: list[Document] = []
        self.rid = 0
        self.fresh = 0
        self.deck: list[tuple[int, Optional[dict]]] = []

    def _document(self) -> Document:
        if self.history and self.rng.random() < REPEAT_SHARE:
            return self.rng.choice(self.history)
        self.fresh += 1
        name = f"p{self.fresh:06d}.html"
        page_seed = self.seed * 1_000_003 + self.fresh
        if self.rng.random() < SEEDED_SHARE:
            document = seeded_document(name, page_seed, self.rng)
        else:
            document = valid_document(name, page_seed)
        self.history.append(document)
        return document

    def _refill(self) -> None:
        """Deal the next block of DECK requests: the mix's exact shares
        in seeded order, so every phase sees the same mix."""
        sizes = [size for size, share in BATCH_MIX for _ in range(round(share * DECK))]
        self.rng.shuffle(sizes)
        custom = set(self.rng.sample(range(DECK), round(CUSTOM_OPTIONS_SHARE * DECK)))
        self.deck.extend(
            (size, self.rng.choice(OPTION_VARIANTS) if index in custom else None)
            for index, size in enumerate(sizes)
        )

    def next(self) -> Request:
        if not self.deck:
            self._refill()
        size, options = self.deck.pop()
        self.rid += 1
        request = Request(
            self.rid, tuple(self._document() for _ in range(size)), options
        )
        payload = {
            "documents": [{"name": d.name, "text": d.text} for d in request.documents]
        }
        if options is not None:
            payload["options"] = options
        request.body = json.dumps(payload).encode("utf-8")
        return request


def mean_documents() -> float:
    return sum(size * share for size, share in BATCH_MIX)


def arrivals(seed: int, label: str, rate: float, seconds: float) -> list[float]:
    """Poisson arrival offsets for one phase, fixed by seed, label and rate."""
    rng = random.Random(f"{seed}:{label}:{rate:.6f}")
    offsets, t = [], rng.expovariate(rate)
    while t < seconds:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


# -- the open-loop sender -----------------------------------------------------


@dataclass
class Sample:
    request: Request
    due: float
    sent: float = math.nan
    done: float = math.nan
    status: int = 0
    payload: bytes = b""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def lateness_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


def exchange(host: str, port: int, request: Request) -> tuple[int, bytes]:
    """One ``POST /lint`` over its own connection; ``(status, body)``."""
    head = (
        f"POST /lint HTTP/1.0\r\nHost: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(request.body)}\r\n"
        f"X-Bench-Request: {request.rid}\r\n\r\n"
    ).encode("latin-1")
    chunks = []
    with socket.create_connection((host, port), timeout=30) as connection:
        connection.sendall(head + request.body)
        while True:
            chunk = connection.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    data = b"".join(chunks)
    status_line, _, rest = data.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), payload


def drive(
    address: tuple[str, int],
    schedule: list[tuple[float, Request]],
    senders: int,
) -> list[Sample]:
    """Send every scheduled request at its due time from ``senders``
    threads (one connection each); a request waits for a free sender."""
    start = time.perf_counter() + 0.05
    samples = [Sample(request, start + offset) for offset, request in schedule]
    cursor = iter(range(len(samples)))
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            sample = samples[index]
            delay = sample.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sample.sent = time.perf_counter()
            try:
                sample.status, sample.payload = exchange(*address, sample.request)
            except (OSError, ValueError, IndexError) as exc:
                sample.status, sample.payload = 0, str(exc).encode()
            sample.done = time.perf_counter()

    threads = [threading.Thread(target=sender) for _ in range(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


def verify(sample: Sample) -> Optional[str]:
    """Check one response against the oracles (never the program)."""
    request = sample.request
    if sample.status != 200:
        return f"request {request.rid}: status {sample.status}"
    try:
        results = json.loads(sample.payload)["results"]
    except (ValueError, KeyError, TypeError):
        return f"request {request.rid}: unparseable response"
    if len(results) != len(request.documents):
        return f"request {request.rid}: {len(results)} results for {len(request.documents)}"
    for document, result in zip(request.documents, results):
        if result.get("name") != document.name or result.get("error"):
            return f"request {request.rid}: bad result for {document.name}"
        problem = judge(
            document, (row["id"] for row in result["diagnostics"]), request.pedantic
        )
        if problem is not None:
            return f"request {request.rid}: {problem}"
    return None


@dataclass
class Phase:
    label: str
    rate: float
    samples: list[Sample]
    failures: int = 0
    problems: list[str] = field(default_factory=list)

    def latencies(self) -> list[float]:
        # A failed request misses every limit.
        return [
            sample.latency_ms if ok else math.inf
            for sample, ok in zip(self.samples, self._ok)
        ]

    def __post_init__(self) -> None:
        self._ok = []
        for sample in self.samples:
            problem = verify(sample)
            self._ok.append(problem is None)
            if problem is not None:
                self.failures += 1
                self.problems.append(problem)

    def p(self, q: float) -> float:
        return percentile(self.latencies(), q)

    def backlog(self) -> bool:
        """Did the generator fall further and further behind?"""
        late = [sample.lateness_ms for sample in self.samples]
        quarter = max(1, len(late) // 4)
        growth = sum(late[-quarter:]) / quarter - sum(late[:quarter]) / quarter
        return growth > LATENCY_LIMIT_MS / 4

    def meets_limit(self) -> bool:
        return (
            bool(self.samples)
            and self.p(95) <= LATENCY_LIMIT_MS
            and not self.backlog()
        )


class LoadGenerator:
    """Phases of seeded open-loop traffic against one daemon address."""

    def __init__(self, seed: int, address: tuple[str, int], senders: int) -> None:
        self.seed = seed
        self.address = address
        self.senders = senders
        self.stream = RequestStream(seed)
        self.phases: list[Phase] = []

    def phase(self, label: str, rate: float, seconds: float) -> Phase:
        schedule = [
            (offset, self.stream.next())
            for offset in arrivals(self.seed, label, rate, seconds)
        ]
        phase = Phase(label, rate, drive(self.address, schedule, self.senders))
        self.phases.append(phase)
        return phase

    def rounds(self, seconds: float) -> tuple[list[Phase], list[Phase], "Staircase"]:
        """The measured part of a run, as interleaved rounds.

        Each round sends a low-rate slice, a high-rate slice and one
        capacity probe, so all three sample the host's slow and fast
        spells alike.  Returns the low- and high-rate phases and the
        capacity search.
        """
        count = max(2, round(seconds * PROBE_SHARE / PROBE_S))
        low, high = [], []
        search = Staircase(FROZEN_MAX_RPS)
        for index in range(count):
            low.append(self.phase(f"lo{index}", LO_RPS, seconds * LO_SHARE / count))
            high.append(self.phase(f"hi{index}", HI_RPS, seconds * HI_SHARE / count))
            rate = search.rate
            search.record(self.phase(f"probe{index}", rate, PROBE_S).meets_limit())
        return low, high, search

    @property
    def samples(self) -> Iterator[Sample]:
        for phase in self.phases:
            yield from phase.samples

    def account(self, outcome: Outcome) -> int:
        """Fold every request into the outcome; returns documents served."""
        documents = 0
        for phase in self.phases:
            outcome.attempted += len(phase.samples)
            outcome.failed += phase.failures
            for problem in phase.problems:
                outcome.fail(f"daemon_mixed/{phase.label}: {problem}")
            documents += sum(len(s.request.documents) for s in phase.samples)
        return documents


class Staircase:
    """An up-down search for the highest rate that meets the limit.

    Until the first reversal the step grows after every probe (6%, 12%,
    26%, 59%, ...), so any capacity is bracketed in a few probes from
    any start.  Each reversal then shrinks the step to its square root,
    down to 6%, after which the probes step 6% up after a pass and down
    after a failure and settle around the rate that passes half the
    time on this host.  The estimate is the geometric mean of the rates
    probed from the first probe at a fine step (12% or less) on --
    steadier than stopping at the first failure, which a single slow
    spell of the host decides.
    """

    def __init__(self, start: float) -> None:
        self.rate = start
        #: The step is SEARCH_STEP ** power, power one of 1, 2, 4, 8, ...
        self.power = 1
        self.trail: list[tuple[float, bool]] = []
        self.reversals = 0
        #: Index into ``trail`` of the first probe made at a fine step.
        self.fine: Optional[int] = None

    def record(self, passed: bool) -> None:
        self.trail.append((self.rate, passed))
        if len(self.trail) > 1 and self.trail[-2][1] != passed:
            self.reversals += 1
            self.power = max(1, self.power // 2)
        elif self.reversals == 0 and len(self.trail) > 1:
            self.power *= 2
        if self.fine is None and self.reversals and self.power <= 2:
            self.fine = len(self.trail) - 1
        step = SEARCH_STEP**self.power
        self.rate = self.rate * step if passed else self.rate / step

    @property
    def bracketed(self) -> bool:
        return self.reversals > 0

    def estimate(self) -> float:
        """The capacity estimate; without a reversal only a bound: the
        highest passing rate, or the next rate below every failure."""
        if not self.bracketed:
            passing = [rate for rate, passed in self.trail if passed]
            return max(passing) if passing else self.rate
        start = self.fine if self.fine is not None else len(self.trail) - 1
        rates = [rate for rate, _ in self.trail[start:]]
        return math.exp(sum(map(math.log, rates)) / len(rates))


# -- the daemon process --------------------------------------------------------


class DaemonProcess:
    """One ``weblint-daemon`` subprocess, from launch to reaped exit."""

    def __init__(self, work: Path, jobs: int, label: str) -> None:
        self.cache_dir = work / f"cache-{label}"
        self.log = open(work / f"daemon-{label}.log", "w")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command(
                "weblint-daemon", "--jobs", str(jobs),
                "--cache-dir", str(self.cache_dir), "--port", "0",
            ),
            cwd=work,
            env=program_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
        )
        try:
            line = self.process.stdout.readline()
            url = line.split(" listening on ", 1)[1].split()[0]
            host, port = url.removeprefix("http://").rsplit(":", 1)
            self.address = (host, int(port))
            self.url = f"http://{host}:{port}"
            self._wait_healthy()
        except (IndexError, ValueError, OSError) as exc:
            self.stop()
            raise RuntimeError(f"weblint-daemon did not start: {exc}") from exc
        self.setup_s = time.perf_counter() - started

    def _wait_healthy(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                if http_get(f"{self.url}/healthz")[0] == 200:
                    return
            except (OSError, ValueError):
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.01)

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill if it will not end."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        self.log.close()
        return self.process.returncode


# -- the workload --------------------------------------------------------------


def cross_check(generator: LoadGenerator, outcome: Outcome, seed: int) -> None:
    """Daemon responses must match in-process ``LintService.check``."""
    from repro.config.options import Options
    from repro.core.service import LintService, StringSource
    from repro.daemon.daemon import options_from_dict

    services: dict[str, LintService] = {}
    rng = random.Random(seed)
    ok = [s for s in generator.samples if s.status == 200]
    for sample in rng.sample(ok, min(CROSS_CHECK_REQUESTS, len(ok))):
        request = sample.request
        key = json.dumps(request.options, sort_keys=True)
        if key not in services:
            base = Options.with_defaults()
            options = options_from_dict(base, request.options) if request.options else base
            services[key] = LintService(options=options)
        results = json.loads(sample.payload)["results"]
        for document, result in zip(request.documents, results):
            local = services[key].check(StringSource(document.text, name=document.name))
            expected = [
                (d.message_id, d.category.value, d.text, d.line, d.column)
                for d in local.diagnostics
            ]
            got = [
                (r["id"], r["category"], r["text"], r["line"], r["column"])
                for r in result["diagnostics"]
            ]
            if got != expected:
                outcome.fail(
                    f"daemon_mixed: request {request.rid} {document.name} differs "
                    "from in-process LintService.check"
                )
                return


def run_workload(seed: int, seconds: float, trace: bool) -> Outcome:
    jobs = nproc()
    with scratch_dir("daemon_mixed") as work:
        if trace:
            from traced import traced_daemon_mixed

            return traced_daemon_mixed(work, seed, jobs, LoadGenerator, cross_check)
        return _timed(work, seed, seconds, jobs)


def _timed(work: Path, seed: int, seconds: float, jobs: int) -> Outcome:
    outcome = Outcome()
    setup, setup_cpu = [], []
    for index in range(SETUP_REPEATS):
        before = ChildUsage()
        daemon = DaemonProcess(work, jobs, f"setup{index}")
        setup.append(daemon.setup_s)
        daemon.stop()
        setup_cpu.append(ChildUsage.cpu_since(before))

    before = ChildUsage()
    daemon = DaemonProcess(work, jobs, "main")
    try:
        generator = LoadGenerator(seed, daemon.address, jobs)
        generator.phase("warmup", LO_RPS, WARMUP_S)
        lo_phases, hi_phases, search = generator.rounds(seconds)
    finally:
        code = daemon.stop()
    cpu_s = ChildUsage.cpu_since(before) - median(setup_cpu)
    if code != 0:
        outcome.fail(f"daemon_mixed: weblint-daemon exited {code}")
    documents = generator.account(outcome)
    cross_check(generator, outcome, seed)

    late = [s.lateness_ms for s in generator.samples]

    low = [latency for phase in lo_phases for latency in phase.latencies()]
    high = [latency for phase in hi_phases for latency in phase.latencies()]
    p50_lo, p95_lo, p95_hi = median(low), percentile(low, 95), percentile(high, 95)
    max_rps = search.estimate()
    if not search.bracketed:
        outcome.fail(
            f"daemon_mixed: capacity search never reversed ({max_rps:.1f} req/s "
            "is a bound, not a measurement)"
        )
    outcome.metric("setup_s", median(setup), "s")
    outcome.metric("op_p50_ms", p50_lo, "ms")
    outcome.metric("op_tail_ms", p95_hi, "ms")
    outcome.metric("docs_per_s", max_rps * mean_documents(), "1/s")
    outcome.metric("cpu_ms_per_doc", cpu_s * 1000.0 / documents, "ms")
    outcome.metric("peak_rss_mb", ChildUsage().maxrss_mb, "MB")
    outcome.note(
        f"daemon_mixed: {outcome.attempted} requests, {documents} documents, "
        f"jobs={jobs}, senders={jobs}; req_p50_ms.lo={p50_lo:.2f} ms "
        f"req_p95_ms.lo={p95_lo:.2f} ms at {LO_RPS:g}/s ({len(low)} requests), "
        f"req_p95_ms.hi={p95_hi:.2f} ms at {HI_RPS:g}/s ({len(high)}), "
        f"max_rps={max_rps:.1f} 1/s (p95 <= {LATENCY_LIMIT_MS:g} ms); "
        f"send delay p50={median(late):.2f} ms max={max(late):.1f} ms"
    )
    outcome.note("  capacity probes: " + ", ".join(
        f"{rate:.1f}/s {'pass' if passed else 'fail'}" for rate, passed in search.trail
    ))
    return outcome
