"""Poacher: crawl a site, weblint every page, validate every link.

The paper's poacher "can be used to invoke weblint on all accessible
pages on a site ... Poacher also performs basic link validation"
(section 4.5).  The robot for Canon's public search engine "uses weblint
to check all of Canon's public web pages" (section 5.3) -- the embedding
this class makes a one-liner::

    report = Poacher(agent).crawl("http://site/")
    report.total_problems()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, Union

from repro.config.options import Options
from repro.core.diagnostics import Diagnostic
from repro.core.linter import Weblint
from repro.core.service import LintResult, LintService, StringSource
from repro.robot.frontier import FrontierJournal, shard_owns
from repro.robot.linkcheck import FragmentChecker, LinkChecker, LinkStatus
from repro.robot.linkstore import LinkStore
from repro.robot.traversal import CrawlProgress, Robot, TraversalPolicy
from repro.site.links import Link
from repro.site.rollup import PAGES_FILENAME, ROLLUP_FILENAME, PageSpill, SiteRollup
from repro.www.client import UserAgent
from repro.www.message import Response


@dataclass
class PageResult:
    """Everything poacher learned about one page."""

    url: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    links: list[Link] = field(default_factory=list)
    broken_links: list[tuple[Link, LinkStatus]] = field(default_factory=list)
    moved_links: list[tuple[Link, LinkStatus]] = field(default_factory=list)
    bad_fragments: list[Link] = field(default_factory=list)
    size_bytes: int = 0

    def problem_count(self) -> int:
        return (
            len(self.diagnostics)
            + len(self.broken_links)
            + len(self.bad_fragments)
        )


@dataclass
class CrawlReport:
    """Site-wide crawl summary."""

    start_url: str
    pages: list[PageResult] = field(default_factory=list)
    #: URLs that never produced an HTTP response (transport failures).
    pages_failed: int = 0
    #: URLs whose final response was a persistent non-2xx status.
    pages_http_error: int = 0
    urls_skipped_robots: int = 0
    #: (url, status) for every persistent HTTP error -- broken pages.
    broken_pages: list[tuple[str, int]] = field(default_factory=list)
    #: (url, error text) for every transport failure.
    unreachable_pages: list[tuple[str, str]] = field(default_factory=list)

    def page(self, url: str) -> Optional[PageResult]:
        for result in self.pages:
            if result.url == url:
                return result
        return None

    def total_problems(self) -> int:
        return sum(page.problem_count() for page in self.pages)

    def total_broken_links(self) -> int:
        return sum(len(page.broken_links) for page in self.pages)

    def clean_pages(self) -> list[str]:
        return [page.url for page in self.pages if page.problem_count() == 0]

    def summary_lines(self) -> list[str]:
        """A human-readable crawl summary (what the CLI prints)."""
        lines = [
            f"poacher: crawled {len(self.pages)} page(s) from {self.start_url}",
        ]
        for page in self.pages:
            lines.append(
                f"  {page.url}: {len(page.diagnostics)} weblint message(s), "
                f"{len(page.broken_links)} broken link(s)"
            )
            for link, status in page.broken_links:
                lines.append(
                    f"    line {link.line}: broken link {link.url} "
                    f"({status.describe()})"
                )
            for link, status in page.moved_links:
                lines.append(
                    f"    line {link.line}: link {link.url} has moved "
                    f"({status.describe()})"
                )
            for link in page.bad_fragments:
                lines.append(
                    f"    line {link.line}: fragment of {link.url} "
                    f"is not defined on the target page"
                )
        for url, status in self.broken_pages:
            lines.append(f"  broken page {url}: HTTP {status}")
        for url, error in self.unreachable_pages:
            lines.append(f"  unreachable page {url}: {error}")
        lines.append(
            f"total: {self.total_problems()} problem(s), "
            f"{self.total_broken_links()} broken link(s)"
        )
        return lines


class Poacher:
    """The crawling front-end to weblint."""

    def __init__(
        self,
        agent: UserAgent,
        weblint: Optional[Weblint] = None,
        options: Optional[Options] = None,
        policy: Optional[TraversalPolicy] = None,
        service: Optional[LintService] = None,
        journal: Optional[FrontierJournal] = None,
        link_store: Optional[LinkStore] = None,
    ) -> None:
        self.agent = agent
        if service is None:
            if weblint is not None:
                service = weblint.service
            else:
                service = LintService(options=options)
        self.service = service
        self.weblint = weblint
        self.options = service.options
        self.policy = policy if policy is not None else TraversalPolicy()
        self.robot = Robot(
            agent, self.policy, journal=journal, link_store=link_store
        )
        self.link_checker = LinkChecker(agent)
        self.fragment_checker = FragmentChecker(agent)

    def crawl(
        self,
        start_url: str,
        progress: Optional[CrawlProgress] = None,
        resume: bool = False,
    ) -> CrawlReport:
        """Crawl, lint and link-check everything reachable.

        ``progress`` (built with ``CrawlProgress(poacher.robot, ...)``)
        renders a live one-line report on its stream for the duration
        of the crawl.  ``resume=True`` (requires a journal) replays a
        killed crawl's persisted frontier before fetching anything new;
        the merged report is identical to an uninterrupted crawl's.
        """
        report = CrawlReport(start_url=start_url)
        validate = self.options.follow_links

        def on_page(url: str, response: Response, links: list[Link]) -> None:
            result = PageResult(
                url=url,
                diagnostics=self.service.check(
                    StringSource(response.body, name=url)
                ).diagnostics,
                links=links,
                size_bytes=len(response.body),
            )
            if validate:
                for link, verdict, status in self._link_verdicts(url, links):
                    if verdict == "broken":
                        result.broken_links.append((link, status))
                    elif verdict == "moved":
                        result.moved_links.append((link, status))
                    else:
                        result.bad_fragments.append(link)
            report.pages.append(result)

        self.robot.crawl(start_url, on_page, progress=progress, resume=resume)
        # Pages arrive in completion order; the canonical report sorts
        # by URL so any worker count yields identical bytes.
        report.pages.sort(key=lambda page: page.url)
        stats = self.robot.stats
        report.pages_failed = stats.pages_failed
        report.pages_http_error = stats.pages_http_error
        report.urls_skipped_robots = stats.urls_skipped_robots
        report.broken_pages = sorted(stats.http_error_urls.items())
        report.unreachable_pages = sorted(stats.failed_urls.items())
        return report

    def crawl_stream(
        self,
        start_url: str,
        report_dir: Optional[Union[str, Path]] = None,
        progress: Optional[CrawlProgress] = None,
        resume: bool = False,
        on_result: Optional[Callable[[LintResult], None]] = None,
    ) -> SiteRollup:
        """Crawl and roll up, never holding the whole audit in memory.

        The streaming counterpart of :meth:`crawl`: each page is linted
        and link-checked the moment the frontier completes it, its link
        problems become real ``bad-link`` / ``bad-fragment``
        diagnostics, and everything folds into a bounded
        :class:`~repro.site.rollup.SiteRollup`.  With ``report_dir``
        the full per-page diagnostics spill to
        ``report_dir/pages.jsonl`` and the rollup is saved as
        ``rollup.json`` when the crawl ends.  ``on_result`` observes
        every page as a ``LintResult`` in completion order -- what
        ``poacher --format jsonl`` streams to stdout.

        With ``TraversalPolicy.shards > 1`` only the owned partition of
        pages (and of crawl failures) is rolled up; merge the shard
        report directories with ``repro.tools.merge_shards``.
        (Unlike :meth:`crawl`'s report, the rollup does not track
        merely *moved* links -- redirects are not problems.)
        """
        rollup = SiteRollup(root=start_url)
        spill: Optional[PageSpill] = None
        if report_dir is not None:
            report_dir = Path(report_dir)
            spill = PageSpill(report_dir / PAGES_FILENAME)
        validate = self.options.follow_links
        check_links = self.options.is_enabled("bad-link")

        def on_page(url: str, response: Response, links: list[Link]) -> None:
            diagnostics = list(
                self.service.check(
                    StringSource(response.body, name=url)
                ).diagnostics
            )
            if validate:
                for link, verdict, status in self._link_verdicts(url, links):
                    if verdict == "bad-fragment":
                        diagnostics.append(self._fragment_diagnostic(url, link))
                    elif verdict == "broken" and check_links:
                        diagnostics.append(Diagnostic.build(
                            "bad-link",
                            line=link.line,
                            filename=url,
                            target=link.url,
                            status=status.describe(),
                        ))
            rollup.add_page(url, diagnostics)
            if spill is not None:
                spill.write_page(url, diagnostics)
            if on_result is not None:
                on_result(LintResult(name=url, diagnostics=diagnostics))

        try:
            self.robot.crawl(
                start_url, on_page, progress=progress, resume=resume
            )
            # Crawl failures fold in at the end, filtered to this
            # shard's partition (every shard fetches everything, so
            # unfiltered counts would multiply under a merge).
            shards, shard = self.policy.shards, self.policy.shard
            stats = self.robot.stats
            for url, status in sorted(stats.http_error_urls.items()):
                if not shard_owns(url, shards, shard):
                    continue
                error = f"HTTP {status}"
                rollup.note_page_error()
                if spill is not None:
                    spill.write_page(url, (), error=error)
                if on_result is not None:
                    on_result(LintResult(name=url, error=error))
            for url, error in sorted(stats.failed_urls.items()):
                if not shard_owns(url, shards, shard):
                    continue
                rollup.note_page_error()
                if spill is not None:
                    spill.write_page(url, (), error=error)
                if on_result is not None:
                    on_result(LintResult(name=url, error=error))
        finally:
            if spill is not None:
                spill.close()
        if report_dir is not None:
            rollup.save(Path(report_dir) / ROLLUP_FILENAME)
        return rollup

    def _link_verdicts(
        self, url: str, links: list[Link]
    ) -> Iterator[tuple[Link, str, Optional[LinkStatus]]]:
        """Validate one page's links; yield each problem in link order.

        Verdicts are ``"broken"`` and ``"moved"`` (with the link's
        :class:`LinkStatus`) and ``"bad-fragment"`` (status ``None``).
        Every checkable link costs one ``LinkChecker.check``; fragments
        are resolved only while the ``bad-fragment`` check is enabled,
        and never on a broken link.
        """
        check_fragments = self.options.is_enabled("bad-fragment")
        for link in links:
            if link.is_fragment_only:
                if check_fragments and (
                    self.fragment_checker.fragment_defined(url, link.url) is False
                ):
                    yield link, "bad-fragment", None
                continue
            if not link.checkable:
                continue
            status = self.link_checker.check(url, link.url)
            if status.broken:
                yield link, "broken", status
                continue
            if status.redirected_to:
                yield link, "moved", status
            if check_fragments and "#" in link.url and (
                self.fragment_checker.fragment_defined(url, link.url) is False
            ):
                yield link, "bad-fragment", None

    def _fragment_diagnostic(self, url: str, link: Link) -> Diagnostic:
        target, _, fragment = link.url.partition("#")
        return Diagnostic.build(
            "bad-fragment",
            line=link.line,
            filename=url,
            target=target or "this page",
            fragment=fragment,
        )
