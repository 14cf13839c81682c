"""Workload ``cli_batch``: one caller running ``weblint`` over batches.

Closed loop.  Each operation is one ``weblint -j <nproc> -f jsonl
FILE...`` process over an on-disk corpus of generated valid pages and
seeded-error pages.  Batch sizes are a seeded log-spread mix from 1 to
256 documents, stratified so every run sees the same shape of mix: each
*cycle* holds one batch per power-of-two octave (1, 2-3, 4-7, ...,
128-256) in shuffled order, and two of its eight batches run with every
message enabled except ``upper-case``/``lower-case``.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from corpus import PEDANTIC_CLI_ARGS, Document, build_documents, judge
from harness import (
    ChildUsage,
    Completed,
    Outcome,
    command,
    median,
    nproc,
    percentile,
    run,
    scratch_dir,
    write_documents,
)

CORPUS_DOCS = 768
SEEDED_SHARE = 0.3
OCTAVES = 8
PEDANTIC_PER_CYCLE = 2
SETUP_REPEATS = 5
#: The traced run drives a fixed number of cycles, so its counts repeat.
TRACED_CYCLES = 2
_GOLDEN = (5**0.5 - 1) / 2


@dataclass(frozen=True)
class Invocation:
    documents: tuple[Document, ...]
    pedantic: bool

    def argv(self, jobs: int) -> list[str]:
        args = ["--no-config", "-j", str(jobs), "-f", "jsonl"]
        if self.pedantic:
            args.extend(PEDANTIC_CLI_ARGS)
        args.extend(document.name for document in self.documents)
        return args


def cycles(seed: int, documents: list[Document]) -> Iterator[list[Invocation]]:
    """The seeded, endless sequence of invocation cycles.

    Each octave's size walks its octave log-uniformly from a seeded
    offset in golden-ratio steps, so a run's sizes cover each octave
    evenly instead of clumping (which would move p90 from seed to seed).
    """
    rng = random.Random(seed)
    offsets = [rng.random() for _ in range(OCTAVES)]
    for cycle in itertools.count():
        sizes = []
        for octave in range(OCTAVES):
            # One size per octave [2^k, 2^(k+1)); the top one includes 256.
            position = (offsets[octave] + cycle * _GOLDEN) % 1.0
            top = 2 ** (octave + 1) - (octave < OCTAVES - 1)
            sizes.append(min(round(2 ** (octave + position)), top))
        rng.shuffle(sizes)
        pedantic = set(rng.sample(range(OCTAVES), PEDANTIC_PER_CYCLE))
        yield [
            Invocation(tuple(rng.sample(documents, size)), index in pedantic)
            for index, size in enumerate(sizes)
        ]


def verify(invocation: Invocation, code: int, stdout: str) -> Optional[str]:
    """Check one invocation's JSONL against the oracles."""
    if code not in (0, 1):
        return f"weblint exited {code}"
    by_name = {document.name: document for document in invocation.documents}
    seen = set()
    for line in stdout.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            return f"unparseable output line {line[:80]!r}"
        name = record.get("file")
        document = by_name.get(name)
        if document is None or name in seen or "error" in record:
            return f"unexpected record for {name!r}"
        seen.add(name)
        problem = judge(
            document,
            (item["id"] for item in record.get("diagnostics", [])),
            invocation.pedantic,
        )
        if problem is not None:
            return problem
    if len(seen) != len(by_name):
        return f"short batch: {len(seen)} of {len(by_name)} documents reported"
    return None


def run_workload(seed: int, seconds: float, trace: bool) -> Outcome:
    jobs = nproc()
    documents = build_documents(CORPUS_DOCS, seed, SEEDED_SHARE)
    with scratch_dir("cli_batch") as work:
        write_documents(work, documents)
        if trace:
            from traced import traced_cli_batch

            return traced_cli_batch(work, cycles(seed, documents), TRACED_CYCLES, jobs)
        return _timed(work, documents, seed, seconds, jobs)


def _timed(work, documents, seed, seconds, jobs) -> Outcome:
    outcome = Outcome()

    def invoke(invocation: Invocation, job_count: int) -> Completed:
        completed = run(command("weblint", *invocation.argv(job_count)), work)
        outcome.attempted += 1
        problem = verify(invocation, completed.code, completed.stdout)
        if problem is not None:
            outcome.failed += 1
            outcome.fail(f"cli_batch: {problem}")
        return completed

    # Set-up: the first invocation in a fresh checkout state, repeated.
    setup = [
        invoke(Invocation((documents[index],), False), jobs).wall_s
        for index in range(SETUP_REPEATS)
    ]

    before = ChildUsage()
    walls: list[float] = []
    cycle_rates: list[float] = []
    docs = 0
    first_cycle: list[tuple[Invocation, Completed]] = []
    started = time.perf_counter()
    for cycle in cycles(seed, documents):
        if time.perf_counter() - started >= seconds:
            break
        cycle_wall = 0.0
        for invocation in cycle:
            completed = invoke(invocation, jobs)
            walls.append(completed.wall_s)
            cycle_wall += completed.wall_s
            if len(first_cycle) < len(cycle):
                first_cycle.append((invocation, completed))
        cycle_docs = sum(len(invocation.documents) for invocation in cycle)
        cycle_rates.append(cycle_docs / cycle_wall)
        docs += cycle_docs
    cpu_s = ChildUsage.cpu_since(before)

    # Cross-mode identity: -j 1 must emit the same JSONL records (the
    # stream is in completion order, so compare them as sorted lines).
    for pedantic in (False, True):
        invocation, parallel = max(
            (pair for pair in first_cycle if pair[0].pedantic == pedantic),
            key=lambda pair: len(pair[0].documents),
        )
        sequential = invoke(invocation, 1)
        if sorted(sequential.stdout.splitlines()) != sorted(
            parallel.stdout.splitlines()
        ):
            outcome.fail(
                f"cli_batch: -j 1 and -j {jobs} output differ on a "
                f"{len(invocation.documents)}-document batch"
            )

    wall_ms = [wall * 1000.0 for wall in walls]
    p50, p90 = median(wall_ms), percentile(wall_ms, 90)
    # Throughput per cycle (each cycle is one full mix), median over the
    # run: a slow spell of the host then moves one cycle, not the figure.
    docs_per_s = median(cycle_rates)
    outcome.metric("setup_s", median(setup), "s")
    outcome.metric("op_p50_ms", p50, "ms")
    outcome.metric("op_tail_ms", p90, "ms")
    outcome.metric("docs_per_s", docs_per_s, "1/s")
    outcome.metric("cpu_ms_per_doc", cpu_s * 1000.0 / docs, "ms")
    outcome.metric("peak_rss_mb", ChildUsage().maxrss_mb, "MB")
    outcome.note(
        f"cli_batch: {len(walls)} invocations, {docs} documents, "
        f"jobs={jobs}; cli_p50_ms={p50:.1f} ms, cli_p90_ms={p90:.1f} ms, "
        f"cli_docs_per_s={docs_per_s:.1f} 1/s"
    )
    return outcome
