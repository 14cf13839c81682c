"""Seeded inputs and the output oracles that judge them.

Every input is generated with ``repro.workload`` from the benchmark's
seed.  The oracles never consult the code under test: a seeded page's
expected messages come from the mutation catalog
(``SeededPage.expected_messages()``), pages are built with
``ErrorSeeder.seed_specific`` (which applies mutations without running
the linter), and a generated valid page is clean under default options
by the generator's own contract.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.workload import PageGenerator
from repro.workload.seeder import DEFAULT_DETECTABLE, MUTATIONS, ErrorSeeder

#: The pedantic configuration of ``test_seeded_errors_always_detected_
#: pedantically``: every message except the two case-style ones.
PEDANTIC_CLI_ARGS = ("-e", "all", "-d", "upper-case,lower-case")
PEDANTIC_OPTIONS = {"enable": ["all"], "disable": ["upper-case", "lower-case"]}

#: ``here-anchor`` rewrites the anchor text that ``nested-anchor``
#: matches, so applied in that order the second mutation destroys the
#: first one's trigger (see ``ErrorSeeder``).  The reverse order is fine.
_MUST_NOT_PRECEDE = {("here-anchor", "nested-anchor")}

_MUTATION_NAMES = tuple(MUTATIONS)


@dataclass(frozen=True)
class Document:
    name: str
    text: str
    #: Message ids the page must show; empty for a generated valid page.
    expected: tuple[str, ...] = ()
    #: Of ``expected``, the ids that default options enable.
    expected_default: tuple[str, ...] = ()

    @property
    def seeded(self) -> bool:
        return bool(self.expected)


def valid_document(name: str, page_seed: int) -> Document:
    return Document(name, PageGenerator(seed=page_seed).page())


def seeded_document(
    name: str, page_seed: int, rng: random.Random, errors: int = 2
) -> Document:
    """A generated page with ``errors`` distinct mutations from the catalog."""
    return seed_page(name, PageGenerator(seed=page_seed).page(), rng, errors)


def seed_page(name: str, page: str, rng: random.Random, errors: int = 2) -> Document:
    """``page`` with ``errors`` distinct mutations drawn with ``rng``."""
    seeder = ErrorSeeder()
    while True:
        names = tuple(rng.sample(_MUTATION_NAMES, errors))
        if any(pair in _MUST_NOT_PRECEDE for pair in zip(names, names[1:])):
            names = tuple(reversed(names))
        try:
            seeded = seeder.seed_specific(page, names)
        except ValueError:  # a mutation with no site on this page: redraw
            continue
        return Document(
            name,
            seeded.source,
            expected=tuple(seeded.expected_messages()),
            expected_default=tuple(
                mutation.expected_message
                for mutation in seeded.applied
                if mutation.name in DEFAULT_DETECTABLE
            ),
        )


def build_documents(count: int, seed: int, seeded_share: float) -> list[Document]:
    """``count`` documents, a seeded share of them carrying errors."""
    rng = random.Random(seed * 7919 + 17)
    documents = []
    for index in range(count):
        name = f"d{index:05d}.html"
        page_seed = seed * 100_003 + index
        if rng.random() < seeded_share:
            documents.append(seeded_document(name, page_seed, rng))
        else:
            documents.append(valid_document(name, page_seed))
    return documents


def judge(document: Document, message_ids: Iterable[str], pedantic: bool) -> Optional[str]:
    """Why the messages reported for ``document`` are wrong, or None.

    A seeded page must show every expected message the configuration
    enables; a valid page must be clean under default options.  (A
    valid page under the pedantic configuration has no oracle here;
    the cross-mode checks cover it.)
    """
    got = set(message_ids)
    if document.seeded:
        wanted = document.expected if pedantic else document.expected_default
        missing = [message for message in wanted if message not in got]
        if missing:
            return f"{document.name}: expected {missing} not reported"
        return None
    if not pedantic and got:
        return f"{document.name}: valid page reported {sorted(got)}"
    return None
