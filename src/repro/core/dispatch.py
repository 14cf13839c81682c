"""Compiled event-dispatch tables.

The seed engine invoked all 12 rules' hooks for *every* token -- the
"one big loop" shape the paper's weblint 2 rewrite exists to escape.
This module compiles a rule set's subscriptions (see
:mod:`repro.core.rules.base`) into an immutable :class:`DispatchTable`:
one handler tuple per hook, with per-element-name fan-out maps (plus a
wildcard bucket) for the tag-keyed hooks.  The engine then walks a
token stream doing one dict lookup per tag instead of ``O(rules)``
no-op calls.

Tables are cached per ``(spec, options-fingerprint, ruleset)`` so the
``Weblint`` facade, ``sitecheck``, the gateway and ``poacher`` compile
once and reuse the same table across thousands of documents.  The cache
key includes the rule *instances* (tables hold bound methods), so a
long-lived checker hits the cache on every document.

Profiling happens here, per hook invocation
(:meth:`DispatchTable.run_hooks`), replacing the old ``TimedRule``
whole-rule shim that swapped the engine's shared rule list mid-check.
All per-check state lives in the :class:`~repro.core.context.CheckContext`,
so one engine can serve interleaved or nested checks.

Metrics (see docs/observability.md):

- ``engine.dispatch.calls`` -- rule-hook invocations, incremented once
  per document with the count accumulated in ``context.hook_calls``.
  The acceptance bar for the compiled pipeline is that this stays
  strictly below ``rules x tokens``.
- ``engine.dispatch.tables.compiled`` / ``...tables.cached`` -- table
  compilations vs cache hits.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from repro.config.options import Options
from repro.core.context import CheckContext
from repro.core.rules.base import HOOK_NAMES, Rule, TAG_KEYED_HOOKS
from repro.html.spec import HTMLSpec
from repro.obs.metrics import get_registry

#: One compiled handler: ``(rule_name, bound_hook_method)``.  The name
#: rides along so per-hook profiling can attribute time without a wrapper.
Handler = tuple[str, Callable]


class DispatchTable:
    """Immutable per-``(spec, options, ruleset)`` handler tables.

    For the tag-keyed hooks the table holds a dict mapping element name
    to the merged handler tuple (wildcard-subscribed rules and rules
    naming that element, in rule order); names absent from the dict fall
    back to the wildcard bucket.  Non-tag hooks are plain tuples.
    """

    __slots__ = (
        "rule_names",
        "start_document",
        "end_document",
        "text",
        "comment",
        "declaration",
        "start_tag",
        "start_tag_any",
        "end_tag",
        "end_tag_any",
        "element_closed",
        "element_closed_any",
    )

    def __init__(
        self,
        rule_names: tuple[str, ...],
        start_document: tuple[Handler, ...],
        end_document: tuple[Handler, ...],
        text: tuple[Handler, ...],
        comment: tuple[Handler, ...],
        declaration: tuple[Handler, ...],
        start_tag: dict[str, tuple[Handler, ...]],
        start_tag_any: tuple[Handler, ...],
        end_tag: dict[str, tuple[Handler, ...]],
        end_tag_any: tuple[Handler, ...],
        element_closed: dict[str, tuple[Handler, ...]],
        element_closed_any: tuple[Handler, ...],
    ) -> None:
        self.rule_names = rule_names
        self.start_document = start_document
        self.end_document = end_document
        self.text = text
        self.comment = comment
        self.declaration = declaration
        self.start_tag = start_tag
        self.start_tag_any = start_tag_any
        self.end_tag = end_tag
        self.end_tag_any = end_tag_any
        self.element_closed = element_closed
        self.element_closed_any = element_closed_any

    # -- invocation --------------------------------------------------------

    @staticmethod
    def run_hooks(
        handlers: tuple[Handler, ...], context: CheckContext, *args
    ) -> None:
        """Invoke ``handlers`` in order; time each one when profiling.

        ``context.profiler`` is resolved once per check by the engine;
        ``context.hook_calls`` accumulates the per-document invocation
        count that feeds the ``engine.dispatch.calls`` metric.
        """
        if not handlers:
            return
        context.hook_calls += len(handlers)
        profiler = context.profiler
        if profiler is None:
            for handler in handlers:
                handler[1](context, *args)
        else:
            add = profiler.add
            clock = time.perf_counter
            for rule_name, hook in handlers:
                started = clock()
                hook(context, *args)
                add(rule_name, clock() - started)

    # -- introspection -----------------------------------------------------

    def handler_counts(self) -> dict[str, int]:
        """Handlers per hook (wildcard bucket for tag-keyed hooks)."""
        return {
            "start_document": len(self.start_document),
            "handle_start_tag": len(self.start_tag_any),
            "handle_end_tag": len(self.end_tag_any),
            "handle_element_closed": len(self.element_closed_any),
            "handle_text": len(self.text),
            "handle_comment": len(self.comment),
            "handle_declaration": len(self.declaration),
            "end_document": len(self.end_document),
        }


def compile_table(
    spec: HTMLSpec,
    options: Options,
    rules: Sequence[Rule],
    *,
    naive: bool = False,
) -> DispatchTable:
    """Compile ``rules``' subscriptions into a :class:`DispatchTable`.

    With ``naive=True`` every rule is attached to every hook with a
    wildcard -- the seed engine's call-everything behaviour.  The naive
    table is the reference that the golden equivalence tests and the
    E14 benchmark install on an engine to compare against; production
    checks always go through :func:`get_table`.
    """
    per_hook: dict[str, list[tuple[str, Callable, Optional[frozenset[str]]]]] = {
        hook: [] for hook in HOOK_NAMES
    }
    for rule in rules:
        if naive:
            interests = {hook: None for hook in HOOK_NAMES}
        else:
            interests = rule.subscriptions(spec, options)
        for hook, interest in interests.items():
            per_hook[hook].append((rule.name, getattr(rule, hook), interest))

    def flat(hook: str) -> tuple[Handler, ...]:
        return tuple((name, method) for name, method, _ in per_hook[hook])

    def fan_out(hook: str) -> tuple[dict[str, tuple[Handler, ...]], tuple[Handler, ...]]:
        entries = per_hook[hook]
        wildcard = tuple(
            (name, method) for name, method, interest in entries if interest is None
        )
        named: set[str] = set()
        for _, _, interest in entries:
            if interest is not None:
                named.update(interest)
        table: dict[str, tuple[Handler, ...]] = {}
        for element_name in named:
            table[element_name] = tuple(
                (name, method)
                for name, method, interest in entries
                if interest is None or element_name in interest
            )
        return table, wildcard

    start_tag, start_tag_any = fan_out("handle_start_tag")
    end_tag, end_tag_any = fan_out("handle_end_tag")
    element_closed, element_closed_any = fan_out("handle_element_closed")
    return DispatchTable(
        rule_names=tuple(rule.name for rule in rules),
        start_document=flat("start_document"),
        end_document=flat("end_document"),
        text=flat("handle_text"),
        comment=flat("handle_comment"),
        declaration=flat("handle_declaration"),
        start_tag=start_tag,
        start_tag_any=start_tag_any,
        end_tag=end_tag,
        end_tag_any=end_tag_any,
        element_closed=element_closed,
        element_closed_any=element_closed_any,
    )


# -- the table cache --------------------------------------------------------

#: Compiled tables keyed by (spec id, options fingerprint, rule ids).
#: Values hold strong references to the rule instances (through
#: their bound methods), which pins the ids in the key while the entry
#: lives.  Bounded FIFO keeps pathological churn (a new Weblint per
#: document) from growing without limit.
_TABLE_CACHE: dict[tuple, DispatchTable] = {}
_TABLE_CACHE_MAX = 64


def get_table(
    spec: HTMLSpec,
    options: Options,
    rules: Sequence[Rule],
) -> DispatchTable:
    """Cached :func:`compile_table`; the per-document entry point."""
    key = (id(spec), options.fingerprint(), tuple(id(rule) for rule in rules))
    table = _TABLE_CACHE.get(key)
    registry = get_registry()
    if table is not None:
        registry.inc("engine.dispatch.tables.cached")
        return table
    table = compile_table(spec, options, rules)
    registry.inc("engine.dispatch.tables.compiled")
    if len(_TABLE_CACHE) >= _TABLE_CACHE_MAX:
        _TABLE_CACHE.pop(next(iter(_TABLE_CACHE)))
    _TABLE_CACHE[key] = table
    return table


def clear_table_cache() -> None:
    """Drop every cached table (tests; reconfiguration at runtime)."""
    _TABLE_CACHE.clear()
