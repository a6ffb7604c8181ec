"""Values the library builds itself equal those the public constructors build.

``validate``, ``glue``, ``parallel``, ``extensions``, ``normalize``,
``restrict`` and the path labels of automata build their results without
re-running the constructors' checks.  These tests rebuild such results
through ``Ipomset(...)`` and ``Language(...)``, which check everything,
and require the same value, the same hash and the same field types: a
builder that hands over a ``list`` or a relation that is not transitively
closed fails here.  A last test keeps ``assert`` out of the package,
because ``python -O`` strips it.
"""

from __future__ import annotations

import ast
import pathlib
import random

from hdalang import (
    InternalOrderCycle,
    Ipomset,
    Language,
    SequentialMismatch,
    extensions,
    glue,
    language,
    normalize,
    parallel,
    replicate,
    restrict,
    tensor_power,
    validate,
)
from hdalang.samples import edge_automaton, grid_automaton
from oracles import random_hda, random_ipomset, universe_up_to

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hdalang"


def assert_as_if_public(p: Ipomset) -> None:
    """``p`` equals its rebuild by ``Ipomset(...)`` and has its field types."""
    again = Ipomset(p.labels, p.precedence, p.sources, p.targets)
    assert again == p and hash(again) == hash(p), p
    assert type(p.labels) is tuple
    assert type(p.precedence) is frozenset
    assert type(p.sources) is frozenset
    assert type(p.targets) is frozenset


def assert_language_as_if_public(lang: Language) -> None:
    """``Language(...)`` accepts ``lang``'s own data and builds an equal value."""
    again = Language(lang.generators, lang.event_bound)
    assert again == lang and hash(again) == hash(lang)
    assert type(lang.generators) is frozenset
    for g in lang.generators:
        assert_as_if_public(g)


class TestIpomsetBuilds:
    def test_validate_returns_a_canonical_ipomset_unchanged(self):
        for p in universe_up_to(3):
            got = validate(
                dict(enumerate(p.labels)),
                p.precedence,
                p.event_order,
                p.sources,
                p.targets,
            )
            assert got == p
            assert_as_if_public(got)

    def test_glue_of_every_matching_pair(self):
        pool = universe_up_to(2)
        glued = 0
        for p in pool:
            for q in pool:
                try:
                    composite = glue(p, q)
                except (SequentialMismatch, InternalOrderCycle):
                    continue
                assert_as_if_public(composite)
                glued += 1
        assert glued > 1000

    def test_parallel_of_every_pair(self):
        pool = universe_up_to(2)
        for p in pool:
            for q in pool:
                assert_as_if_public(parallel(p, q))

    def test_every_member_of_extensions(self):
        for q in universe_up_to(3):
            for p in extensions(q):
                assert_as_if_public(p)


class TestLanguageBuilds:
    def test_normalize_and_restrict_outputs(self):
        rnd = random.Random(601)
        for _ in range(60):
            pool = [random_ipomset(rnd, 4) for _ in range(rnd.randint(0, 5))]
            bound = rnd.choice([None, 2, 4])
            lang = normalize(pool, bound)
            assert_language_as_if_public(lang)
            assert_language_as_if_public(restrict(lang, rnd.randint(0, 4)))

    def test_languages_of_automata(self):
        automata = [
            tensor_power(edge_automaton("a"), 3),
            grid_automaton(),
            replicate(edge_automaton("b"), 2),
        ]
        rnd = random.Random(602)
        automata += [random_hda(rnd, allow_empty_marks=False) for _ in range(20)]
        for automaton in automata:
            assert_language_as_if_public(language(automaton, 3))


class TestNoAssert:
    def test_package_has_no_assert_statement(self):
        modules = sorted(SRC.glob("*.py"))
        assert modules
        for module in modules:
            tree = ast.parse(module.read_text(encoding="utf-8"), str(module))
            lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
            assert not lines, f"{module.name} has assert statements at lines {lines}"
