"""Languages: subsumption-closed sets of interval ipomsets.

A language is an order ideal in the subsumption preorder: whenever it
contains a behaviour, it contains every more-ordered refinement of that
behaviour.  Ideals over interval ipomsets are represented by their
generators -- an antichain of maximal elements -- so a language value
stays finite even though the ideal it denotes can be large.

Because subsumption only relates ipomsets of equal size, every operation
here preserves the generator representation exactly; no approximation is
involved.  :func:`expand` materialises the ideal up to an event budget,
which is the bridge between this symbolic representation and the
path-by-path semantics of automata.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from hdalang.ipomset import (
    EMPTY,
    InternalOrderCycle,
    Ipomset,
    SequentialMismatch,
    _canonical,
    glue,
    is_interval,
    parallel,
    subsumes,
    transitive_closure,
)


class NotInterval(ValueError):
    """A language generator's precedence is not an interval order."""


@dataclass(frozen=True)
class Language:
    """A subsumption-closed language, given by its generator antichain.

    Attributes:
        generators: pairwise subsumption-incomparable interval ipomsets;
            the language denoted is every ipomset subsumed by one of them.
        event_bound: when set, the language is only known to be complete
            for ipomsets with at most this many events (languages read off
            automata are computed under such a budget).  ``None`` means
            the generators describe the language at every size.
    """

    generators: frozenset[Ipomset]
    event_bound: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", frozenset(self.generators))
        for g in self.generators:
            if not is_interval(g):
                raise NotInterval(f"generator {g!r} is not an interval ipomset")
        for g, h in combinations(self.generators, 2):
            if subsumes(g, h) is not None or subsumes(h, g) is not None:
                raise ValueError(
                    "generators must form an antichain; use normalize()"
                )

    @property
    def is_empty_language(self) -> bool:
        """True for the empty language (which differs from ``{empty ipomset}``)."""
        return not self.generators


def _unchecked_language(
    generators: frozenset[Ipomset], event_bound: int | None
) -> Language:
    """A :class:`Language` holding the given fields as they are.

    Skips ``__post_init__``, so it is only for generators the library has
    already made an antichain of interval ipomsets.
    """
    value = object.__new__(Language)
    object.__setattr__(value, "generators", generators)
    object.__setattr__(value, "event_bound", event_bound)
    return value


def normalize(ipomsets: Iterable[Ipomset], event_bound: int | None = None) -> Language:
    """Build a language from any finite set of canonical ipomsets.

    A non-interval ipomset cannot itself belong to a language, but its
    refinements can: it is replaced by the maximal interval elements of
    its ideal, so the denoted down-closure (within interval ipomsets) is
    unchanged.  Duplicates and ipomsets subsumed by another member are
    then dropped, leaving the antichain of maximal elements.

    The maxima come from one pass over the distinct members sorted by
    their number of precedence pairs.  A refinement has at least the pairs
    of what it refines, and as many only when the two are equal, so a
    member can only be dominated by one with strictly fewer pairs, which
    comes earlier.  Refinement is transitive, so a dominated member is
    dominated by a maximal one, and each member is tested only against the
    generators kept so far: ``pool * generators`` calls of :func:`subsumes`
    at most, in an order that does not depend on hashing.

    Replacing a non-interval ipomset enumerates its order extensions,
    which is exponential in its concurrency; callers composing large
    generators should bound the result first where possible.
    """
    flat: set[Ipomset] = set()
    for p in set(ipomsets):
        if is_interval(p):
            flat.add(p)
        else:
            flat |= extensions(p)
    keep: list[Ipomset] = []
    for p in sorted(flat, key=lambda member: len(member.precedence)):
        pairs = len(p.precedence)
        if not any(
            len(g.precedence) < pairs and subsumes(p, g) is not None for g in keep
        ):
            keep.append(p)
    return _unchecked_language(frozenset(keep), event_bound)


def contains(lang: Language, p: Ipomset) -> bool:
    """Ideal membership: does some generator subsume ``p``?"""
    return any(subsumes(p, g) is not None for g in lang.generators)


# --- rational operations ---------------------------------------------------


def _combined_bound(first: Language, second: Language) -> int | None:
    """Tightest sound event bound for a composition of two languages.

    A member within ``min`` of the stated bounds only ever decomposes into
    factors that are themselves within both bounds (subsumption and both
    compositions never shrink a factor below its contribution), so the
    minimum of the stated bounds is sound; an unbounded operand imposes
    nothing.
    """
    bounds = [
        b for b in (first.event_bound, second.event_bound) if b is not None
    ]
    return min(bounds) if bounds else None


def seq_compose(first: Language, second: Language) -> Language:
    """Sequential composition: glue every matching generator pair.

    Pairs whose interfaces do not match contribute nothing; if no pair
    matches the result is the empty language.  Pairs whose glue admits no
    consistent event ordering likewise contribute nothing: such composites
    fall outside the representable universe, and every behaviour they
    would dominate is already dominated by a representable generator.
    """
    out: set[Ipomset] = set()
    for p in first.generators:
        for q in second.generators:
            try:
                out.add(glue(p, q))
            except (SequentialMismatch, InternalOrderCycle):
                continue
    return normalize(out, _combined_bound(first, second))


def par_compose(first: Language, second: Language) -> Language:
    """Parallel composition: parallel product of all generator pairs.

    A parallel product of interval generators need not itself be interval
    (two independent chains already contain the forbidden suborder), so
    the products are handed to :func:`normalize`, which replaces each
    such product by the maximal interval refinements it dominates.  When
    the result carries an event bound, products too large to dominate any
    member within the bound are dropped before that replacement.
    """
    bound = _combined_bound(first, second)
    out: set[Ipomset] = set()
    for p in first.generators:
        for q in second.generators:
            if bound is not None and p.size + q.size > bound:
                continue
            out.add(parallel(p, q))
    return normalize(out, bound)


def par_closure_bounded(lang: Language, max_factors: int) -> Language:
    """Union of parallel powers ``lang**0 .. lang**max_factors``.

    The zeroth power is the unit language containing only the empty
    ipomset, so the closure of the empty language is that unit.
    """
    if max_factors < 0:
        raise ValueError("max_factors must be non-negative")
    unit = Language(frozenset({EMPTY}))
    acc = set(unit.generators)
    power = unit
    for _ in range(max_factors):
        power = par_compose(power, lang)
        acc |= power.generators
    return normalize(acc, lang.event_bound)


def union(first: Language, second: Language) -> Language:
    """Union of ideals; generators are re-normalised jointly."""
    return normalize(
        first.generators | second.generators, _combined_bound(first, second)
    )


def restrict(lang: Language, max_events: int) -> Language:
    """Drop generators larger than ``max_events``.

    Subsumption preserves event counts, so small members of the ideal are
    generated by small generators and the restriction is exact.
    """
    return _unchecked_language(
        frozenset(g for g in lang.generators if g.size <= max_events), max_events
    )


# --- comparison --------------------------------------------------------------


def is_subset(first: Language, second: Language) -> bool:
    """Ideal inclusion: every generator of ``first`` lies in ``second``."""
    return all(contains(second, g) for g in first.generators)


def is_equal(first: Language, second: Language) -> bool:
    """Ideal equality (event bounds are bookkeeping and not compared)."""
    return is_subset(first, second) and is_subset(second, first)


# --- expansion ----------------------------------------------------------------


def _order_extensions(base: frozenset[tuple[int, int]], n: int) -> set[frozenset[tuple[int, int]]]:
    """All transitively closed strict orders on ``0..n-1`` containing ``base``.

    Explored by repeatedly orienting one currently-unordered pair and
    re-closing; adding a single pair between incomparable elements keeps
    the closure irreflexive, so every extension is reached and no cycles
    appear.
    """
    seen = {base}
    frontier = [base]
    while frontier:
        current = frontier.pop()
        for i, j in combinations(range(n), 2):
            if (i, j) in current or (j, i) in current:
                continue
            for pair in ((i, j), (j, i)):
                bigger = transitive_closure(current | {pair})
                if bigger not in seen:
                    seen.add(bigger)
                    frontier.append(bigger)
    return seen


def extensions(q: Ipomset) -> frozenset[Ipomset]:
    """Every canonical ipomset subsumed by ``q`` (including ``q`` itself).

    Each strict-order extension of ``q``'s precedence is kept when the
    interfaces stay extremal, the surviving event order can be linearised
    with it, and the result is again interval.  The returned set is exactly
    ``q``'s principal ideal: transporting structure along a subsumption
    witness shows each refinement arises from exactly one such extension.
    """
    n = q.size
    out: set[Ipomset] = set()
    for prec in _order_extensions(q.precedence, n):
        if any(b in q.sources for _, b in prec):
            continue
        if any(a in q.targets for a, _ in prec):
            continue
        # Pairs still concurrent under ``prec`` inherit ``q``'s event order
        # (index order); if that union is cyclic the extension does not
        # exist as a canonical ipomset.
        inherited = [
            (i, j)
            for i, j in combinations(range(n), 2)
            if (i, j) not in prec and (j, i) not in prec
        ]
        candidate = _canonical(q.labels, prec, inherited, q.sources, q.targets)
        if candidate is not None and is_interval(candidate):
            out.add(candidate)
    return frozenset(out)


def expand(lang: Language, max_events: int) -> frozenset[Ipomset]:
    """Materialise the ideal: all members with at most ``max_events`` events.

    Expanding at budget 0 yields ``{empty ipomset}`` when the language
    contains it and the empty set otherwise.
    """
    out: set[Ipomset] = set()
    for g in lang.generators:
        if g.size <= max_events:
            out |= extensions(g)
    return frozenset(out)
