"""The compiled dispatch table: fan-out, caching, golden equivalence."""

from __future__ import annotations

import pytest

from repro import Options, Weblint
from repro.core.dispatch import clear_table_cache, compile_table, get_table
from repro.core.engine import Engine
from repro.core.rules import default_rules
from repro.core.rules.base import Rule
from repro.html.spec import get_spec
from repro.html.tokenizer import tokenize
from repro.obs import use_registry
from repro.testing.samples import SAMPLES
from repro.workload import GeneratorConfig, PageGenerator

from tests.conftest import PAPER_EXAMPLE, make_document


def _default_table(**option_values):
    options = Options.with_defaults()
    for name, value in option_values.items():
        setattr(options, name, value)
    return compile_table(get_spec("html40"), options, default_rules())


def _names(handlers) -> list[str]:
    return [name for name, _method in handlers]


class TestCompilation:
    def test_narrow_rule_absent_from_wildcard_bucket(self):
        table = _default_table()
        assert "images" not in _names(table.start_tag_any)
        assert "images" in _names(table.start_tag["img"])
        assert "images" in _names(table.start_tag["input"])

    def test_fan_out_preserves_rule_order(self):
        table = _default_table()
        all_names = [rule.name for rule in default_rules()]
        for handlers in table.start_tag.values():
            positions = [all_names.index(name) for name in _names(handlers)]
            assert positions == sorted(positions)

    def test_unsubscribed_hook_is_empty(self):
        table = _default_table()
        # No built-in rule listens to raw declarations.
        assert table.declaration == ()

    def test_comment_hook_handlers(self):
        table = _default_table()
        assert _names(table.comment) == ["inline-config", "comments"]

    def test_style_rule_narrows_without_case_style(self):
        table = _default_table()
        assert "style" not in _names(table.start_tag_any)
        assert "style" in _names(table.start_tag["b"])  # physical markup

    def test_style_rule_widens_with_case_style(self):
        table = _default_table(case_style="lower")
        assert "style" in _names(table.start_tag_any)

    def test_naive_table_attaches_everything_everywhere(self):
        options = Options.with_defaults()
        rules = default_rules()
        table = compile_table(get_spec("html40"), options, rules, naive=True)
        everyone = [rule.name for rule in rules]
        assert _names(table.start_tag_any) == everyone
        assert _names(table.text) == everyone
        assert _names(table.declaration) == everyone
        assert table.start_tag == {}

    def test_handler_counts_shrink_versus_naive(self):
        options = Options.with_defaults()
        rules = default_rules()
        compiled = compile_table(get_spec("html40"), options, rules)
        naive = compile_table(get_spec("html40"), options, rules, naive=True)
        assert sum(compiled.handler_counts().values()) < sum(
            naive.handler_counts().values()
        )


class TestCache:
    def test_same_configuration_hits_cache(self):
        clear_table_cache()
        engine = Engine()
        with use_registry() as registry:
            first = engine.dispatch_table()
            second = engine.dispatch_table()
            assert first is second
            assert registry.value("engine.dispatch.tables.compiled") == 1
            assert registry.value("engine.dispatch.tables.cached") == 1

    def test_distinct_rule_instances_compile_separately(self):
        clear_table_cache()
        assert Engine().dispatch_table() is not Engine().dispatch_table()

    def test_option_change_recompiles(self):
        clear_table_cache()
        rules = default_rules()
        spec = get_spec("html40")
        plain = Options.with_defaults()
        cased = Options.with_defaults()
        cased.case_style = "lower"
        assert get_table(spec, plain, rules) is not get_table(spec, cased, rules)
        assert get_table(spec, plain, rules) is get_table(spec, plain, rules)


def _with_reference_table(weblint: Weblint) -> Weblint:
    """Make ``weblint`` dispatch through the call-everything table."""
    engine = weblint.service.engine
    table = compile_table(engine.spec, engine.options, engine.rules, naive=True)
    engine.dispatch_table = lambda: table
    return weblint


def _diagnostics_key(diagnostics):
    return [
        (d.message_id, d.line, d.column, d.text, d.filename) for d in diagnostics
    ]


class TestGoldenEquivalence:
    """Compiled dispatch must be byte-identical to call-everything."""

    @pytest.mark.parametrize(
        "sample", SAMPLES, ids=[sample.name for sample in SAMPLES]
    )
    def test_sample_output_identical(self, sample):
        outputs = []
        for naive in (False, True):
            options = Options.with_defaults()
            options.spec_name = sample.spec
            if sample.enable:
                options.enable(*sample.enable)
            weblint = Weblint(options=options)
            if naive:
                _with_reference_table(weblint)
            outputs.append(_diagnostics_key(weblint.check_string(sample.html)))
        assert outputs[0] == outputs[1]

    def test_paper_example_identical(self):
        compiled = Weblint().check_string(PAPER_EXAMPLE)
        naive = _with_reference_table(Weblint()).check_string(PAPER_EXAMPLE)
        assert _diagnostics_key(compiled) == _diagnostics_key(naive)

    def test_generated_page_identical_pedantic(self):
        page = PageGenerator(seed=7, config=GeneratorConfig(paragraphs=30)).page()
        outputs = []
        for naive in (False, True):
            options = Options.with_defaults()
            options.enable("all")
            options.disable("upper-case")
            weblint = Weblint(options=options)
            if naive:
                _with_reference_table(weblint)
            outputs.append(_diagnostics_key(weblint.check_string(page)))
        assert outputs[0] == outputs[1]


class TestDispatchMetrics:
    def test_dispatch_calls_beat_rules_times_tokens(self):
        page = PageGenerator(
            seed=10, config=GeneratorConfig(paragraphs=40, images=2, tables=2)
        ).page()
        token_count = len(tokenize(page))
        rule_count = len(default_rules())
        with use_registry() as registry:
            Weblint().check_string(page)
            calls = registry.value("engine.dispatch.calls")
        assert calls > 0
        assert calls < rule_count * token_count

    def test_naive_dispatch_calls_at_least_rules_times_tokens(self):
        page = PageGenerator(seed=10, config=GeneratorConfig(paragraphs=10)).page()
        token_count = len(tokenize(page))
        rule_count = len(default_rules())
        with use_registry() as registry:
            _with_reference_table(Weblint()).check_string(page)
            calls = registry.value("engine.dispatch.calls")
        # start/end_document and element-closed events push it past N*T.
        assert calls >= rule_count * token_count


class TestReentrancy:
    def test_nested_check_on_same_engine(self):
        """A rule hook may re-enter ``check`` on the very same engine."""
        inner_document = make_document("<p>inner</p>")

        class Reentrant(Rule):
            name = "reentrant"

            def __init__(self, engine: Engine) -> None:
                self.engine = engine
                self.inner_results = []
                self.recursing = False

            def handle_start_tag(self, context, tag, elem):
                if tag.lowered == "body" and not self.recursing:
                    self.recursing = True
                    nested = self.engine.check(inner_document, "nested")
                    self.inner_results.append(nested.sorted_diagnostics())

        engine = Engine(rules=default_rules())
        reentrant = Reentrant(engine)
        engine.rules.append(reentrant)

        baseline = Engine().check(PAPER_EXAMPLE).sorted_diagnostics()
        outer = engine.check(PAPER_EXAMPLE).sorted_diagnostics()

        assert reentrant.inner_results and reentrant.inner_results[0] == []
        assert _diagnostics_key(outer) == _diagnostics_key(baseline)

    def test_engine_rules_untouched_by_profiling_check(self):
        from repro.obs import use_profiler

        engine = Engine()
        before = list(engine.rules)
        with use_profiler() as profiler:
            engine.check(PAPER_EXAMPLE)
        assert engine.rules == before
        assert profiler.documents == 1
        assert "document" in profiler.entries


class TestLeadingWhitespaceMessage:
    def test_element_name_upcased(self, weblint_all):
        diagnostics = weblint_all.check_string(make_document("<  b>x</b>"))
        messages = [
            d.text for d in diagnostics if d.message_id == "leading-whitespace"
        ]
        assert messages == ['should not have whitespace between "<" and "B"']
