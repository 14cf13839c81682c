"""The persistent lint-result cache and the conditional-fetch recrawl.

The contract under test (docs/caching.md):

- the cache key covers every axis that can change lint output, so a
  change to the document, the options, the rule set or the HTML spec is
  a miss -- never a stale hit;
- hits are byte-identical to a fresh engine run, with diagnostics
  re-bound to the requesting document's name;
- a corrupt, truncated or wrong-version disk entry degrades to a miss,
  never an error;
- a ``UserAgent`` with an ``http_cache`` revalidates unchanged pages via
  ``304 Not Modified`` and falls back to a full GET when the stored body
  has been evicted;
- a warm ``poacher --state-dir`` crawl reports exactly what the cold
  crawl reported.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as weblint_main
from repro.config.options import Options
from repro.core.cache import ResultCache, result_key, service_fingerprint
from repro.core.registry import default_registry
from repro.core.service import LintService, PathSource, StringSource
from repro.obs.metrics import use_registry
from repro.robot.cli import main as poacher_main
from repro.www.client import UserAgent
from repro.www.httpcache import HttpCache
from repro.www.virtualweb import VirtualWeb
from tests.conftest import make_document

DOCUMENT = make_document("<p>hello<img src=x></p>")


def fingerprint_of(service: LintService) -> bytes:
    return service.cache_fingerprint()


class TestKeyInvalidation:
    """Changing any configuration axis must change every key."""

    def test_document_change_changes_key(self):
        fingerprint = fingerprint_of(LintService())
        assert result_key("<p>a</p>", fingerprint) != result_key(
            "<p>b</p>", fingerprint
        )

    def test_options_change_changes_key(self):
        pedantic = Options.with_defaults()
        pedantic.enable("upper-case")
        assert fingerprint_of(LintService()) != fingerprint_of(
            LintService(options=pedantic)
        )

    def test_ruleset_change_changes_key(self):
        registry = default_registry()
        registry.disable(next(iter(registry.names())))
        assert fingerprint_of(LintService()) != fingerprint_of(
            LintService(registry=registry)
        )

    def test_spec_change_changes_key(self):
        assert fingerprint_of(LintService(spec="html4")) != fingerprint_of(
            LintService(spec="netscape")
        )

    def test_fingerprint_is_deterministic(self):
        assert fingerprint_of(LintService()) == fingerprint_of(LintService())

    def test_fingerprint_survives_frozenset_order(self):
        """Two equal option sets built in different orders key alike."""
        first = Options.with_defaults()
        first.enable("upper-case", "here-anchor")
        second = Options.with_defaults()
        second.enable("here-anchor", "upper-case")
        assert service_fingerprint(
            first.fingerprint(), "html4", (), True
        ) == service_fingerprint(second.fingerprint(), "html4", (), True)


class TestResultCache:
    def test_warm_hit_equals_cold_result(self, tmp_path):
        page = tmp_path / "page.html"
        page.write_text(DOCUMENT)
        cold = LintService(cache=ResultCache(tmp_path / "cache"))
        first = cold.check(PathSource(page))
        warm = LintService(cache=ResultCache(tmp_path / "cache"))
        second = warm.check(PathSource(page))
        assert [str(d) for d in first.diagnostics] == [
            str(d) for d in second.diagnostics
        ]

    def test_hits_rebind_filenames(self, tmp_path):
        """Identical documents at different paths share one entry."""
        for name in ("a.html", "b.html"):
            (tmp_path / name).write_text(DOCUMENT)
        service = LintService(cache=ResultCache(tmp_path / "cache"))
        service.check(PathSource(tmp_path / "a.html"))
        with use_registry() as registry:
            result = service.check(PathSource(tmp_path / "b.html"))
        assert registry.snapshot().get("cache.lint.hits") == 1
        assert result.diagnostics
        assert all(
            d.filename == str(tmp_path / "b.html") for d in result.diagnostics
        )

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        page = tmp_path / "page.html"
        page.write_text(DOCUMENT)
        cache = ResultCache(tmp_path / "cache")
        service = LintService(cache=cache)
        expected = service.check(PathSource(page)).diagnostics
        [entry] = list((tmp_path / "cache").rglob("*.json"))
        entry.write_text("{not json")
        with use_registry() as registry:
            fresh = LintService(cache=ResultCache(tmp_path / "cache"))
            result = fresh.check(PathSource(page))
        snapshot = registry.snapshot()
        assert snapshot.get("cache.lint.corrupt") == 1
        assert snapshot.get("cache.lint.misses") == 1
        assert [str(d) for d in result.diagnostics] == [
            str(d) for d in expected
        ]

    def test_wrong_version_entry_is_a_miss(self, tmp_path):
        page = tmp_path / "page.html"
        page.write_text(DOCUMENT)
        service = LintService(cache=ResultCache(tmp_path / "cache"))
        service.check(PathSource(page))
        [entry] = list((tmp_path / "cache").rglob("*.json"))
        data = json.loads(entry.read_text())
        data["version"] = 999
        entry.write_text(json.dumps(data))
        with use_registry() as registry:
            fresh = LintService(cache=ResultCache(tmp_path / "cache"))
            fresh.check(PathSource(page))
        assert registry.snapshot().get("cache.lint.misses") == 1

    def test_memory_lru_evicts_and_counts(self, tmp_path):
        cache = ResultCache(memory_entries=2)
        service = LintService(cache=cache)
        with use_registry() as registry:
            for index in range(4):
                service.check(
                    StringSource(make_document(f"<p>page {index}</p>"))
                )
        assert registry.snapshot().get("cache.lint.evictions") == 2

    def test_clear_counts_removed_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        service = LintService(cache=cache)
        for index in range(3):
            service.check(StringSource(make_document(f"<p>{index}</p>")))
        assert cache.clear() == 3
        assert cache.clear() == 0

    def test_explicit_rules_disable_the_cache(self, tmp_path):
        from repro.core.rules.base import Rule

        class Custom(Rule):
            name = "custom"

        service = LintService(
            rules=[Custom()], cache=ResultCache(tmp_path / "cache")
        )
        assert service.cache is None

    def test_trace_and_profile_bypass_the_cache(self, tmp_path):
        from repro.obs.profile import use_profiler
        from repro.obs.trace import use_tracer

        service = LintService(cache=ResultCache(tmp_path / "cache"))
        service.check(StringSource(DOCUMENT))
        with use_registry() as registry:
            with use_tracer():
                service.check(StringSource(DOCUMENT))
            with use_profiler():
                service.check(StringSource(DOCUMENT))
        snapshot = registry.snapshot()
        assert snapshot.get("cache.lint.bypassed") == 2
        assert "cache.lint.hits" not in snapshot

    def test_parallel_warm_batch_hits_in_parent(self, tmp_path):
        paths = []
        for index in range(6):
            path = tmp_path / f"p{index}.html"
            path.write_text(make_document(f"<p>page {index}<img src=x></p>"))
            paths.append(path)
        cold = LintService(cache=ResultCache(tmp_path / "cache"))
        before = cold.check_many([PathSource(p) for p in paths], jobs=2)
        warm = LintService(cache=ResultCache(tmp_path / "cache"))
        with use_registry() as registry:
            after = warm.check_many([PathSource(p) for p in paths], jobs=2)
        assert registry.snapshot().get("cache.lint.hits") == 6
        assert [
            [str(d) for d in result.diagnostics] for result in before
        ] == [[str(d) for d in result.diagnostics] for result in after]


class TestConditionalFetch:
    URL = "http://ex.test/"

    def fixture(self, tmp_path):
        web = VirtualWeb()
        web.add_page(self.URL, make_document("<p>version one</p>"))
        cache = HttpCache(tmp_path / "http")
        return web, cache, UserAgent(web, http_cache=cache)

    def test_second_get_revalidates(self, tmp_path):
        web, cache, agent = self.fixture(tmp_path)
        first = agent.get(self.URL)
        with use_registry() as registry:
            second = agent.get(self.URL)
        snapshot = registry.snapshot()
        assert snapshot.get("www.conditional.revalidated") == 1
        assert snapshot.get("www.bytes_fetched", 0) == 0
        assert second.status == 200
        assert second.body == first.body

    def test_changed_page_refetches(self, tmp_path):
        web, cache, agent = self.fixture(tmp_path)
        agent.get(self.URL)
        web.add_page(self.URL, make_document("<p>version two</p>"))
        with use_registry() as registry:
            response = agent.get(self.URL)
        assert registry.snapshot().get("www.conditional.modified") == 1
        assert "version two" in response.body

    def test_evicted_body_falls_back_to_full_get(self, tmp_path):
        web, cache, agent = self.fixture(tmp_path)
        first = agent.get(self.URL)
        cache.evict_body(self.URL)
        (tmp_path / "http" / "bodies").rmdir()  # nothing left on disk either
        with use_registry() as registry:
            second = agent.get(self.URL)
        snapshot = registry.snapshot()
        assert snapshot.get("www.conditional.lost_body") == 1
        assert snapshot.get("www.conditional.revalidated") is None
        assert second.body == first.body

    def test_validators_persist_across_agents(self, tmp_path):
        web, cache, agent = self.fixture(tmp_path)
        agent.get(self.URL)
        cache.save()
        reloaded = HttpCache(tmp_path / "http")
        assert reloaded.load() == 1
        fresh = UserAgent(web, http_cache=reloaded)
        with use_registry() as registry:
            fresh.get(self.URL)
        assert registry.snapshot().get("www.conditional.revalidated") == 1

    def test_corrupt_index_loads_cold(self, tmp_path):
        web, cache, agent = self.fixture(tmp_path)
        agent.get(self.URL)
        cache.save()
        (tmp_path / "http" / "index.json").write_text("][")
        reloaded = HttpCache(tmp_path / "http")
        assert reloaded.load() == 0

    def test_unchanged_index_is_not_rewritten(self, tmp_path):
        web, cache, agent = self.fixture(tmp_path)
        agent.get(self.URL)
        cache.save()
        index = tmp_path / "http" / "index.json"
        index.write_text("sentinel")
        agent.get(self.URL)  # a 304 changes no validator
        cache.save()
        assert index.read_text() == "sentinel"
        web.add_page(self.URL, make_document("<p>version two</p>"))
        agent.get(self.URL)
        cache.save()
        assert HttpCache(tmp_path / "http").load() == 1

    def test_clean_load_needs_no_save(self, tmp_path):
        web, cache, agent = self.fixture(tmp_path)
        agent.get(self.URL)
        cache.save()
        reloaded = HttpCache(tmp_path / "http")
        reloaded.load()
        index = tmp_path / "http" / "index.json"
        index.write_text("sentinel")
        reloaded.save()
        assert index.read_text() == "sentinel"
        # A cache that never loaded an index still writes one.
        empty = HttpCache(tmp_path / "elsewhere")
        empty.save()
        assert empty.load() == 0
        assert (tmp_path / "elsewhere" / "index.json").exists()

    def test_last_modified_revalidates_without_etag(self, tmp_path):
        web = VirtualWeb()
        url = "http://lm.test/"
        web.add_page(
            url,
            make_document("<p>dated</p>"),
            last_modified="Mon, 01 Jan 1996 00:00:00 GMT",
        )
        # Strip the ETag so only If-Modified-Since can match.
        from repro.www.virtualweb import _key

        web._resources[_key(url)].etag = None
        agent = UserAgent(web, http_cache=HttpCache(tmp_path / "http"))
        agent.get(url)
        with use_registry() as registry:
            agent.get(url)
        assert registry.snapshot().get("www.conditional.revalidated") == 1


@pytest.fixture
def site_dir(tmp_path):
    site = tmp_path / "site"
    site.mkdir()
    (site / "index.html").write_text(
        make_document('<p>home <a href="page2.html">two</a><img src=x></p>')
    )
    (site / "page2.html").write_text(make_document("<p>second</p>"))
    return site


class TestIncrementalCrawl:
    def crawl(self, site_dir, state_dir, capsys) -> tuple[int, str]:
        code = poacher_main(
            [str(site_dir), "--state-dir", str(state_dir), "--stats"]
        )
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_warm_crawl_output_is_identical(self, site_dir, tmp_path, capsys):
        state = tmp_path / "state"
        cold_code, cold_out, _ = self.crawl(site_dir, state, capsys)
        warm_code, warm_out, warm_err = self.crawl(site_dir, state, capsys)
        assert warm_code == cold_code
        assert warm_out == cold_out
        assert "www.conditional.revalidated: 2" in warm_err
        assert "cache.lint.hits: 2" in warm_err

    def test_unchanged_recrawl_leaves_index_alone(
        self, site_dir, tmp_path, capsys
    ):
        state = tmp_path / "state"
        self.crawl(site_dir, state, capsys)
        index = state / "http" / "index.json"
        before = index.stat().st_ino
        self.crawl(site_dir, state, capsys)
        # Saves replace the file atomically, so a rewrite shows up as
        # a new inode.
        assert index.stat().st_ino == before

    def test_changed_page_is_relinted(self, site_dir, tmp_path, capsys):
        state = tmp_path / "state"
        self.crawl(site_dir, state, capsys)
        (site_dir / "page2.html").write_text(
            make_document("<p>second, now with <img src=y></p>")
        )
        _, warm_out, warm_err = self.crawl(site_dir, state, capsys)
        assert "www.conditional.revalidated: 1" in warm_err
        assert "www.conditional.modified: 1" in warm_err
        assert "ALT text" in warm_out


class TestWeblintCacheFlags:
    def test_cache_dir_flag_warms(self, tmp_path, capsys):
        page = tmp_path / "page.html"
        page.write_text(DOCUMENT)
        cache_dir = str(tmp_path / "cache")
        argv = ["--no-config", "--cache-dir", cache_dir, "--stats", str(page)]
        weblint_main(argv)
        cold = capsys.readouterr()
        weblint_main(argv)
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "cache.lint.hits: 1" in warm.err

    def test_env_default_and_no_cache(self, tmp_path, capsys, monkeypatch):
        page = tmp_path / "page.html"
        page.write_text(DOCUMENT)
        monkeypatch.setenv("WEBLINT_CACHE_DIR", str(tmp_path / "cache"))
        weblint_main(["--no-config", "--stats", str(page)])
        assert "cache.lint.stores: 1" in capsys.readouterr().err
        weblint_main(["--no-config", "--no-cache", "--stats", str(page)])
        assert "cache.lint" not in capsys.readouterr().err

    def test_cache_clear(self, tmp_path, capsys):
        page = tmp_path / "page.html"
        page.write_text(DOCUMENT)
        cache_dir = str(tmp_path / "cache")
        weblint_main(["--no-config", "--cache-dir", cache_dir, str(page)])
        capsys.readouterr()
        # With no FILE arguments: clear, report, exit clean (no stdin read).
        assert weblint_main(["--cache-dir", cache_dir, "--cache-clear"]) == 0
        assert "cache cleared (1 entries)" in capsys.readouterr().err

    def test_cache_clear_requires_a_directory(self, capsys, monkeypatch):
        monkeypatch.delenv("WEBLINT_CACHE_DIR", raising=False)
        assert weblint_main(["--cache-clear"]) == 2
        assert "--cache-clear needs" in capsys.readouterr().err
