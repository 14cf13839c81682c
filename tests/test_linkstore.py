"""Tests for the link store and the one-resolution-per-link helper.

- a golden fixture pins what :func:`extract_links` returns (``url``,
  ``line``, ``element``, ``kind``) over a generated site, the seeded
  corpus and edge-case markup, together with the link-store version
  it was recorded at -- so a tokenizer change that alters links fails
  here until :data:`LINKS_VERSION` is bumped and the fixture rebuilt;
- :class:`LinkStore` round-trips, prunes, skips idle writes and loads
  anything unusable as empty;
- a warm ``poacher --state-dir`` recrawl reuses every unchanged page's
  links, and a corrupt, truncated, wrong-version or foreign store
  yields the cold report byte for byte;
- :func:`resolve_link` is the uncached resolution, behind a bounded
  cache.

Rebuild the fixture after bumping :data:`LINKS_VERSION` with
``PYTHONPATH=src python -m tests.test_linkstore``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.obs import use_registry
from repro.robot.cli import main as poacher_main
from repro.robot.linkstore import (
    LINKS_VERSION,
    STORE_FILENAME,
    STORE_FORMAT,
    LinkStore,
)
from repro.site.links import Link, extract_links
from repro.www.url import RESOLVE_CACHE_SIZE, resolve_link, urljoin
from repro.workload import PageGenerator, build_seeded_corpus
from tests.conftest import make_document

GOLDEN = Path(__file__).parent / "golden" / "extract_links.json"

#: Markup the extractor must handle the way the tokenizer does.
EDGE_CASES = (
    '<A HREF="Upper.HTML">upper</A><IMG SRC="PIC.GIF" ALT="x">',
    "<a href=unquoted.html>bare</a> <img src=bare.gif alt=bare>",
    '<a href="unterminated.html>mangled</a>\n<a href="after.html">next</a>',
    "<a href = 'spaced.html' >spaced</a><a href=''>empty</a><a href>none</a>",
    '<a\nhref="split.html"\n>across lines</a>',
    '<script>document.write(\'<a href="in-script.html">x</a>\');</script>'
    '<a href="after-script.html">after</a>',
    '<!-- <a href="commented.html"> --><a href="#frag" name="x">frag</a>',
    '<a href="mailto:someone@example.com">mail</a>'
    '<a href="  padded.html  ">pad</a>',
    '<body background=bg.gif><frame src=f.html><iframe src="i.html">'
    '<area href=map.html><link rel=stylesheet href=s.css>'
    '<script src=j.js></script><embed src=e.swf><object data=o.dat>'
    '<applet code=A.class></applet><input type=image src=btn.gif>',
)


def golden_inputs() -> dict[str, str]:
    """name -> source, for every document the fixture pins."""
    inputs = {
        f"site/{name}": source
        for name, source in sorted(PageGenerator(seed=7).site(12).items())
    }
    for index, page in enumerate(build_seeded_corpus(6, errors_per_page=3, seed=3)):
        inputs[f"seeded/{index}"] = page.source
    for index, source in enumerate(EDGE_CASES):
        inputs[f"edge/{index}"] = source
    return inputs


def golden_rows() -> dict[str, list[list]]:
    return {
        name: [
            [link.url, link.line, link.element, link.kind]
            for link in extract_links(source)
        ]
        for name, source in golden_inputs().items()
    }


class TestGoldenLinks:
    def test_fixture_matches_store_version(self):
        fixture = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert fixture["links_version"] == LINKS_VERSION, (
            "rebuild tests/golden/extract_links.json for this LINKS_VERSION"
        )

    def test_extract_links_matches_fixture(self):
        fixture = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert golden_rows() == fixture["documents"], (
            "extract_links output changed: bump LINKS_VERSION in "
            "repro/robot/linkstore.py (stored links are now stale) and "
            "rebuild the fixture"
        )


# ---------------------------------------------------------------------------
# The store itself


LINKS = [
    Link(url="a.html", line=3, element="a", kind="anchor"),
    Link(url="pic.gif", line=4, element="img", kind="resource"),
]


class TestLinkStore:
    def test_round_trip(self, tmp_path):
        store = LinkStore(tmp_path)
        store.put("d1", LINKS)
        store.put("d2", [])
        store.save()
        reloaded = LinkStore(tmp_path)
        assert reloaded.load() == 2
        assert reloaded.get("d1") == LINKS
        assert reloaded.get("d2") == []
        assert reloaded.get("d3") is None

    def test_file_is_versioned_json(self, tmp_path):
        store = LinkStore(tmp_path)
        store.put("d1", LINKS)
        store.save()
        data = json.loads((tmp_path / STORE_FILENAME).read_text())
        assert data == {
            "format": STORE_FORMAT,
            "version": LINKS_VERSION,
            "links": {
                "d1": [["a.html", 3, "a", "anchor"],
                       ["pic.gif", 4, "img", "resource"]],
            },
        }

    def test_save_prunes_to_digests_used(self, tmp_path):
        store = LinkStore(tmp_path)
        store.put("old", LINKS)
        store.put("kept", LINKS)
        store.save()
        store = LinkStore(tmp_path)
        store.load()
        store.get("kept")
        store.put("new", [])
        store.save()
        reloaded = LinkStore(tmp_path)
        assert reloaded.load() == 2
        assert reloaded.get("old") is None
        assert reloaded.get("kept") == LINKS

    def test_unpruned_save_keeps_unused_digests(self, tmp_path):
        store = LinkStore(tmp_path)
        store.put("a", LINKS)
        store.save()
        store = LinkStore(tmp_path)
        store.load()
        store.put("b", [])
        store.save(prune=False)
        assert LinkStore(tmp_path).load() == 2

    def test_idle_save_does_not_write(self, tmp_path):
        store = LinkStore(tmp_path)
        store.put("a", LINKS)
        store.save()
        path = tmp_path / STORE_FILENAME
        path.write_text("sentinel")
        store.get("a")
        store.save()  # nothing added, nothing pruned
        assert path.read_text() == "sentinel"

    @pytest.mark.parametrize(
        "content",
        [
            "{not json",
            '{"format": "repro.robot.links", "version": 1, "links": {"d": [["a"',
            json.dumps({"format": STORE_FORMAT, "version": LINKS_VERSION + 1,
                        "links": {}}),
            json.dumps({"version": 1, "entries": {}}),
            json.dumps({"format": STORE_FORMAT, "version": LINKS_VERSION,
                        "links": {"d": [["a.html", "3", "a", "anchor"]]}}),
            json.dumps({"format": STORE_FORMAT, "version": LINKS_VERSION,
                        "links": {"d": [["a.html", 3, "a", "sideways"]]}}),
            json.dumps({"format": STORE_FORMAT, "version": LINKS_VERSION,
                        "links": {"d": "a.html"}}),
            json.dumps([1, 2, 3]),
            "[" * 100000,
        ],
        ids=[
            "garbage", "truncated", "wrong-version", "foreign-http-index",
            "bad-line", "bad-kind", "bad-rows", "not-an-object", "deep",
        ],
    )
    def test_unusable_store_loads_empty(self, tmp_path, content):
        (tmp_path / STORE_FILENAME).write_text(content)
        with use_registry() as registry:
            store = LinkStore(tmp_path)
            assert store.load() == 0
            assert registry.value("robot.links.store_corrupt") == 1
        assert store.get("d") is None

    def test_missing_store_is_simply_empty(self, tmp_path):
        with use_registry() as registry:
            assert LinkStore(tmp_path).load() == 0
            assert registry.value("robot.links.store_corrupt") == 0


# ---------------------------------------------------------------------------
# Crawl level


@pytest.fixture
def site_dir(tmp_path):
    site = tmp_path / "site"
    site.mkdir()
    for name, source in PageGenerator(seed=5).site(10).items():
        (site / name).write_text(source)
    return site


def crawl(site_dir, state_dir, capsys, *extra) -> tuple[int, str, str]:
    argv = [str(site_dir), "--stats", *extra]
    if state_dir is not None:
        argv += ["--state-dir", str(state_dir)]
    code = poacher_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRecrawlReusesLinks:
    def test_warm_recrawl_extracts_nothing(self, site_dir, tmp_path, capsys):
        state = tmp_path / "state"
        _, cold_out, cold_err = crawl(site_dir, state, capsys)
        assert "robot.links.extracted: 10" in cold_err
        assert "robot.links.reused: 0" in cold_err
        _, warm_out, warm_err = crawl(site_dir, state, capsys)
        assert warm_out == cold_out
        assert "robot.links.extracted: 0" in warm_err
        assert "robot.links.reused: 10" in warm_err
        runs = [
            json.loads(line)
            for line in (state / "runs.jsonl").read_text().splitlines()
        ]
        assert [run["links_extracted"] for run in runs] == [10, 0]

    def test_changed_page_is_extracted_again(self, site_dir, tmp_path, capsys):
        state = tmp_path / "state"
        crawl(site_dir, state, capsys)
        (site_dir / "page3.html").write_text(
            make_document('<p><a href="index.html">home</a></p>')
        )
        _, warm_out, warm_err = crawl(site_dir, state, capsys)
        _, stateless_out, _ = crawl(site_dir, None, capsys)
        assert warm_out == stateless_out
        assert "robot.links.extracted: 1" in warm_err
        assert "robot.links.reused: 9" in warm_err
        # The old body's digest was pruned; the store tracks the site.
        assert LinkStore(state / "links").load() == 10

    def test_jobs_and_streaming_reuse_too(self, site_dir, tmp_path, capsys):
        state = tmp_path / "state"
        crawl(site_dir, state, capsys, "--shards", "1")
        _, _, err = crawl(site_dir, state, capsys, "--shards", "1", "-j", "4")
        assert "robot.links.reused: 10" in err

    @pytest.mark.parametrize(
        "damage",
        ["corrupt", "truncated", "wrong-version", "foreign", "other-site"],
    )
    def test_damaged_store_yields_cold_report(
        self, site_dir, tmp_path, capsys, damage
    ):
        _, cold_out, _ = crawl(site_dir, None, capsys)
        state = tmp_path / "state"
        crawl(site_dir, state, capsys)
        path = state / "links" / STORE_FILENAME
        text = path.read_text()
        if damage == "corrupt":
            path.write_text(text.replace('"anchor"', '"anch'))
        elif damage == "truncated":
            path.write_text(text[: len(text) // 2])
        elif damage == "wrong-version":
            data = json.loads(text)
            data["version"] = LINKS_VERSION + 1
            path.write_text(json.dumps(data))
        elif damage == "foreign":
            path.write_text((state / "http" / "index.json").read_text())
        else:
            # A well-formed store from a different site: its digests
            # never match these bodies, so every page misses.
            other = tmp_path / "other"
            other.mkdir()
            for name, source in PageGenerator(seed=6).site(4).items():
                (other / name).write_text(source)
            crawl(other, tmp_path / "other-state", capsys)
            path.write_text(
                (tmp_path / "other-state" / "links" / STORE_FILENAME).read_text()
            )
        code, warm_out, warm_err = crawl(site_dir, state, capsys)
        assert warm_out == cold_out
        assert "robot.links.extracted: 10" in warm_err
        if damage != "other-site":
            assert "robot.links.store_corrupt: 1" in warm_err
        # The next crawl rewrote a usable store.
        assert LinkStore(state / "links").load() == 10


# ---------------------------------------------------------------------------
# One resolution per link


class TestResolveLink:
    @pytest.mark.parametrize(
        "base, reference",
        [
            ("http://h/dir/page.html", "other.html#frag"),
            ("http://h/dir/page.html", "../up.html"),
            ("http://h/dir/page.html", "HTTP://Other:80/x.html"),
            ("http://h/dir/page.html", "?q=1"),
            ("http://h/", "#only"),
        ],
    )
    def test_same_as_uncached_resolution(self, base, reference):
        expected = str(urljoin(base, reference).without_fragment())
        assert resolve_link(base, reference) == expected
        assert resolve_link(base, reference) == expected

    def test_cache_is_bounded(self):
        info = resolve_link.cache_info()
        assert info.maxsize == RESOLVE_CACHE_SIZE
        for index in range(RESOLVE_CACHE_SIZE + 50):
            resolve_link("http://h/", f"p{index}.html")
        assert resolve_link.cache_info().currsize <= RESOLVE_CACHE_SIZE


def _rebuild_fixture() -> int:
    """Rewrite the golden fixture, refusing a change without a bump."""
    rows = golden_rows()
    if GOLDEN.exists():
        old = json.loads(GOLDEN.read_text(encoding="utf-8"))
        if old["links_version"] == LINKS_VERSION and old["documents"] != rows:
            sys.stderr.write(
                "extract_links output changed at the same LINKS_VERSION; "
                "bump it in repro/robot/linkstore.py first\n"
            )
            return 1
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    # One document per line keeps a changed link's diff readable.
    documents = ",\n".join(
        f"  {json.dumps(name)}: {json.dumps(rows[name])}" for name in sorted(rows)
    )
    GOLDEN.write_text(
        f'{{\n "links_version": {LINKS_VERSION},\n "documents": {{\n'
        f"{documents}\n }}\n}}\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(_rebuild_fixture())
