"""Workload ``site_recrawl``: the scheduled robot re-checking a site.

Closed loop, one caller.  A generated site of interlinked pages (a
share of them with seeded errors) is crawled cold once to fill
``--state-dir``; each timed operation is then one warm ``poacher SITE
--state-dir S -j <nproc>`` process.  Before each recrawl a seeded ~5%
of the pages are regenerated, so about 95% of fetches revalidate
(``304``) and hit the lint cache.
"""

from __future__ import annotations

import random
import re
import time
from pathlib import Path
from typing import Optional

from corpus import Document, seed_page
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
)

SITE_PAGES = 300
SEEDED_SHARE = 0.10
REGENERATE_SHARE = 0.05
SETUP_REPEATS = 3
#: The traced run drives a fixed number of recrawls, so its counts repeat.
TRACED_RECRAWLS = 4
BASE_URL = "http://localhost/"
#: Every generated content page shows two images that the site does not
#: hold, so link validation reports exactly these as broken.
IMAGES_PER_PAGE = 2

_PAGE_LINE = re.compile(
    r"^  (\S+): (\d+) weblint message\(s\), (\d+) broken link\(s\)$"
)


class Site:
    """The generated site on disk, and what each page must report."""

    def __init__(self, seed: int, directory: Path) -> None:
        from repro.workload import PageGenerator

        self.rng = random.Random(seed * 13 + 3)
        self.seed = seed
        self.directory = directory
        self.generation = 0
        directory.mkdir(parents=True)
        pages = PageGenerator(seed=seed).site(SITE_PAGES)
        self.names = sorted(pages)
        self.pages: dict[str, Document] = {}
        for name, text in pages.items():
            self._store(name, text)

    def _store(self, name: str, text: str) -> None:
        if name != "index.html" and self.rng.random() < SEEDED_SHARE:
            document = seed_page(name, text, self.rng)
        else:
            document = Document(name, text)
        self.pages[name] = document
        (self.directory / name).write_text(document.text, encoding="utf-8")

    def regenerate(self) -> None:
        """Rewrite a seeded share of the content pages with new content."""
        from repro.workload import PageGenerator

        self.generation += 1
        content = [name for name in self.names if name != "index.html"]
        chosen = self.rng.sample(content, max(1, round(len(content) * REGENERATE_SHARE)))
        for name in chosen:
            generator = PageGenerator(
                seed=self.seed * 1_000_003 + self.generation * 10_007 + self.names.index(name)
            )
            targets = tuple(self.rng.sample([n for n in self.names if n != name], 4))
            self._store(name, generator.page(link_targets=targets))

    def verify(self, completed: Completed) -> Optional[str]:
        """Check a crawl report against what every page must show."""
        if completed.code not in (0, 1):
            return f"poacher exited {completed.code}"
        lines = completed.stdout.splitlines()
        if not lines or lines[0] != (
            f"poacher: crawled {len(self.pages)} page(s) from {BASE_URL}index.html"
        ):
            return f"unexpected report head {lines[:1]!r}"
        reported = {}
        for line in lines:
            match = _PAGE_LINE.match(line)
            if match:
                reported[match.group(1)] = (int(match.group(2)), int(match.group(3)))
        for name, document in self.pages.items():
            url = BASE_URL + name
            if url not in reported:
                return f"{url} missing from the report"
            messages, broken = reported[url]
            if document.seeded:
                if messages < len(set(document.expected_default)):
                    return f"{url}: {messages} messages, expected at least " \
                        f"{len(set(document.expected_default))}"
                continue
            images = 0 if name == "index.html" else IMAGES_PER_PAGE
            if messages or broken != images:
                return f"{url}: {messages} messages and {broken} broken links " \
                    f"on a valid page (expected 0 and {images})"
        return None


def _poacher(site: Site, state: Optional[Path], jobs: int) -> list[str]:
    args = [str(site.directory), "-j", str(jobs)]
    if state is not None:
        args += ["--state-dir", str(state)]
    return command("poacher", *args)


def run_workload(seed: int, seconds: float, trace: bool) -> Outcome:
    jobs = nproc()
    with scratch_dir("site_recrawl") as work:
        site = Site(seed, work / "site")
        if trace:
            from traced import traced_site_recrawl

            return traced_site_recrawl(work, site, TRACED_RECRAWLS, jobs)
        return _timed(work, site, seconds, jobs)


def _timed(work: Path, site: Site, seconds: float, jobs: int) -> Outcome:
    outcome = Outcome()

    def crawl(state: Optional[Path]) -> Completed:
        completed = run(_poacher(site, state, jobs), work)
        outcome.attempted += 1
        problem = site.verify(completed)
        if problem is not None:
            outcome.failed += 1
            outcome.fail(f"site_recrawl: {problem}")
        return completed

    # Set-up: the cold crawl that fills the state directory, repeated on
    # fresh directories; the last one is kept for the warm recrawls.
    setup = []
    for index in range(SETUP_REPEATS):
        state = work / f"state{index}"
        setup.append(crawl(state).wall_s)

    before = ChildUsage()
    walls: list[float] = []
    pages = 0
    last: Optional[Completed] = None
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        site.regenerate()
        last = crawl(state)
        walls.append(last.wall_s)
        pages += len(site.pages)
    cpu_s = ChildUsage.cpu_since(before)

    # Cross-mode identity: the warm report must equal a cold crawl of
    # the same site state with no state directory at all.
    cold = crawl(None)
    if (cold.code, cold.stdout) != (last.code, last.stdout):
        outcome.fail("site_recrawl: warm recrawl report differs from a cold crawl")

    wall_ms = [wall * 1000.0 for wall in walls]
    p50, p90 = median(wall_ms), percentile(wall_ms, 90)
    outcome.metric("setup_s", median(setup), "s")
    outcome.metric("op_p50_ms", p50, "ms")
    outcome.metric("op_tail_ms", p90, "ms")
    outcome.metric("docs_per_s", len(site.pages) / median(walls), "1/s")
    outcome.metric("cpu_ms_per_doc", cpu_s * 1000.0 / pages, "ms")
    outcome.metric("peak_rss_mb", ChildUsage().maxrss_mb, "MB")
    outcome.note(
        f"site_recrawl: {len(walls)} warm recrawls of {len(site.pages)} pages, "
        f"frontier jobs={jobs}; recrawl_s={p50 / 1000.0:.3f} s "
        f"(p90 {p90 / 1000.0:.3f} s), cold crawl set-up {median(setup):.3f} s"
    )
    return outcome
