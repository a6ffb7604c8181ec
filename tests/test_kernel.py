"""Tests for the bitmask kernels of ``hdalang.ipomset``.

``subsumes`` must return exactly the least witness that a search over
all permutations finds, and the identity exactly when it is a witness;
every witness must map each event to one with at least as many
concurrent events below it and above it by index, the bounds its search
uses to drop candidates;
``is_interval`` must agree with a forbidden suborder search and with
``interval_representation``, and the closure ``_closed`` must agree with
a naive fixpoint, cyclic relations included.  The oracles share no code
with the kernels.
"""

from __future__ import annotations

import random
from collections import defaultdict
from itertools import combinations

from hdalang import (
    IntervalRepresentation,
    Ipomset,
    IpomsetError,
    interval_representation,
    is_interval,
    subsumes,
    validate,
)
from hdalang.ipomset import _closed
from oracles import (
    naive_closure,
    oracle_is_interval,
    oracle_witness,
    universe,
    universe_up_to,
)


def _bucket_key(p: Ipomset) -> tuple:
    """Ipomsets in different buckets never refine one another."""
    return (
        tuple(sorted(p.labels)),
        tuple(sorted(p.labels[s] for s in p.sources)),
        tuple(sorted(p.labels[t] for t in p.targets)),
    )


def _buckets(members: list[Ipomset]) -> list[list[Ipomset]]:
    groups: dict[tuple, list[Ipomset]] = defaultdict(list)
    for p in members:
        groups[_bucket_key(p)].append(p)
    return list(groups.values())


def _random_order(rnd: random.Random, n: int, density: float) -> frozenset:
    pairs = {(i, j) for i, j in combinations(range(n), 2) if rnd.random() < density}
    return naive_closure(frozenset(pairs))


def _in_bag(rnd: random.Random, roles: list[tuple], density: float) -> Ipomset:
    """A random canonical ipomset whose events have exactly ``roles``.

    A role is ``(label, is source, is target)``.  Pairs into a source or
    out of a target are never drawn, and closing adds none.
    """
    placed = rnd.sample(roles, len(roles))
    pairs = {
        (i, j)
        for i, j in combinations(range(len(placed)), 2)
        if not placed[j][1] and not placed[i][2] and rnd.random() < density
    }
    return Ipomset(
        tuple(label for label, _, _ in placed),
        naive_closure(frozenset(pairs)),
        frozenset(x for x, role in enumerate(placed) if role[1]),
        frozenset(x for x, role in enumerate(placed) if role[2]),
    )


def _ordered_more(rnd: random.Random, q: Ipomset, density: float) -> Ipomset | None:
    """``q`` with some concurrent pairs ordered against the index, renumbered.

    The identity on raw events shows that it refines ``q``, and the
    renumbering moves it off the identity.  ``None`` when the new pairs
    close into a cycle, alone or with the index order left on the
    concurrent pairs.
    """
    n = q.size
    more = set(q.precedence)
    for i, j in combinations(range(n), 2):
        if (i, j) in q.precedence or i in q.sources or j in q.targets:
            continue
        if rnd.random() < density:
            more.add((j, i))
    order = naive_closure(frozenset(more))
    concurrent = [
        (a, b)
        for a, b in combinations(range(n), 2)
        if (a, b) not in order and (b, a) not in order
    ]
    try:
        return validate(dict(enumerate(q.labels)), order, concurrent, q.sources, q.targets)
    except IpomsetError:
        return None


def _profile(p: Ipomset, x: int) -> tuple[int, int, int, int]:
    """``x``'s predecessors, successors, and concurrent events below and above it.

    All four are counted from ``p``'s pairs, the last two by index.
    """
    return (
        sum((y, x) in p.precedence for y in range(p.size)),
        sum((x, y) in p.precedence for y in range(p.size)),
        sum((y, x) not in p.precedence for y in range(x)),
        sum((x, y) not in p.precedence for y in range(x + 1, p.size)),
    )


def _role(p: Ipomset, x: int) -> tuple:
    return p.labels[x], x in p.sources, x in p.targets


def _least_witness(p: Ipomset, q: Ipomset) -> tuple[int, ...] | None:
    """``oracle_witness``, after checking that it meets the concurrency bounds.

    A witness sends each ``x`` to an event with at least as many concurrent
    events below it and above it by index, counted from the pair sets.
    """
    witness = oracle_witness(p, q)
    for x, u in enumerate(witness or ()):
        _, _, below, above = _profile(p, x)
        _, _, u_below, u_above = _profile(q, u)
        assert u_below >= below and u_above >= above, (p, q, witness, x)
    return witness


class TestSubsumesWitness:
    """``subsumes`` returns the least witness, which meets the concurrency bounds."""

    def test_least_witness_on_every_pair_up_to_three_events(self):
        for group in _buckets(universe_up_to(3)):
            for p in group:
                for q in group:
                    assert subsumes(p, q) == _least_witness(p, q), (p, q)

    def test_least_witness_on_a_sample_of_four_events(self):
        rnd = random.Random(404)
        groups = [g for g in _buckets(universe(4)) if len(g) > 1]
        found = 0
        for _ in range(4000):
            group = rnd.choice(groups)
            p, q = rnd.choice(group), rnd.choice(group)
            witness = subsumes(p, q)
            assert witness == _least_witness(p, q), (p, q)
            found += witness is not None
        assert found > 200

    def test_least_witness_on_six_and_seven_concurrent_letters(self):
        # One letter and no interfaces: every event is a candidate image of
        # every other, which is where the search backtracks the most.
        rnd = random.Random(67)
        pairs = found = 0
        for n in (6, 7):
            for _ in range(120):
                q = Ipomset(("a",) * n, _random_order(rnd, n, 0.25), frozenset(), frozenset())
                p = Ipomset(
                    ("a",) * n, _random_order(rnd, n, 0.55), frozenset(), frozenset()
                )
                witness = subsumes(p, q)
                assert witness == _least_witness(p, q), (p, q)
                pairs += 1
                found += witness is not None
        assert pairs >= 200
        assert found >= 50

    def test_least_witness_on_five_to_seven_events_within_one_bag(self):
        # Two letters with interfaces, as in the refine-query buckets.  Each
        # batch holds random members of one bag and, for each, a more
        # ordered renumbering that refines it, so the search both finds
        # witnesses off the identity and refutes near misses.
        bags = (
            [("a", True, False), ("a", False, False), ("a", False, False),
             ("b", False, True), ("b", False, False)],
            [("a", True, False), ("a", False, True), ("a", False, False),
             ("b", False, False), ("b", False, False), ("b", False, False)],
            [("a", True, False), ("a", False, False), ("a", False, False),
             ("a", False, True), ("b", True, False), ("b", False, False),
             ("b", False, False)],
        )
        rnd = random.Random(2507)
        hits = searched = misses = 0
        for roles in bags:
            for _ in range(4):
                batch = [_in_bag(rnd, roles, 0.25) for _ in range(3)]
                batch += [r for r in (_ordered_more(rnd, q, 0.5) for q in batch) if r]
                for p in batch:
                    for q in batch:
                        witness = subsumes(p, q)
                        assert witness == _least_witness(p, q), (p, q)
                        if witness is None:
                            misses += 1
                        else:
                            hits += 1
                            searched += witness != tuple(range(p.size))
        assert hits >= 50 and searched >= 15 and misses >= 100


class TestSubsumesConcurrencyBounds:
    """Pairs that only the concurrency bounds refuse get no witness.

    ``subsumes`` drops the candidates that break the bounds before its
    search; this test derives them from the pair sets alone.
    """

    def test_pairs_refused_by_the_bounds_alone_up_to_three_events(self):
        # Pairs that reach the candidate sets (more precedence in p) where
        # every p-event keeps a candidate of its role by the degree tests,
        # but some p-event keeps none once the bounds are applied.
        refused = []
        for group in _buckets(universe_up_to(3)):
            for p in group:
                for q in group:
                    if len(p.precedence) <= len(q.precedence):
                        continue
                    by_degree, by_bounds = [], []
                    for x in range(p.size):
                        pred, succ, below, above = _profile(p, x)
                        kept = [
                            _profile(q, u)
                            for u in range(q.size)
                            if _role(q, u) == _role(p, x)
                        ]
                        kept = [k for k in kept if k[0] <= pred and k[1] <= succ]
                        by_degree.append(bool(kept))
                        by_bounds.append(
                            any(k[2] >= below and k[3] >= above for k in kept)
                        )
                    if all(by_degree) and not all(by_bounds):
                        refused.append((p, q))
        example = (
            Ipomset(("a", "a", "a"), frozenset({(0, 1)}), frozenset(), frozenset({1})),
            Ipomset(("a", "a", "a"), frozenset(), frozenset(), frozenset({2})),
        )
        assert example in refused
        assert len(refused) > 1000
        for p, q in refused:
            assert subsumes(p, q) is None and oracle_witness(p, q) is None, (p, q)


def _identity_fits(p: Ipomset, q: Ipomset) -> bool:
    """Equal labels and interfaces index by index, and q's pairs among p's."""
    return (
        p.labels == q.labels
        and p.sources == q.sources
        and p.targets == q.targets
        and q.precedence <= p.precedence
    )


class TestSubsumesIdentityRoute:
    """The identity is returned exactly when the four conditions hold.

    Pairs with more precedence in ``p`` that meet the conditions take the
    identity route; hits on other pairs go through the search, so both
    kinds occur and the least-witness tests above still reach the search.
    """

    @staticmethod
    def check(pairs) -> tuple[int, int]:
        routes = {"identity": 0, "search": 0}
        for p, q in pairs:
            witness = subsumes(p, q)
            fits = _identity_fits(p, q)
            assert (witness == tuple(range(p.size))) == fits, (p, q)
            if witness is not None and len(p.precedence) > len(q.precedence):
                routes["identity" if fits else "search"] += 1
        return routes["identity"], routes["search"]

    def test_every_pair_up_to_three_events(self):
        identity_hits, search_hits = self.check(
            (p, q) for group in _buckets(universe_up_to(3)) for p in group for q in group
        )
        assert identity_hits >= 50 and search_hits >= 50

    def test_sample_of_four_events(self):
        rnd = random.Random(404)
        groups = [g for g in _buckets(universe(4)) if len(g) > 1]
        identity_hits, search_hits = self.check(
            (rnd.choice(group), rnd.choice(group))
            for group in (rnd.choice(groups) for _ in range(4000))
        )
        assert identity_hits >= 50 and search_hits >= 50


class TestIntervalMasks:
    def test_agrees_with_oracle_and_representation_up_to_four_events(self):
        for p in universe_up_to(4):
            interval = is_interval(p)
            assert interval == oracle_is_interval(p), p
            assert interval == isinstance(
                interval_representation(p), IntervalRepresentation
            ), p

    def test_agrees_with_oracle_on_five_to_seven_events(self):
        # Predecessor sets of different sizes can be incomparable only from
        # five events on, e.g. {0} and {1, 2}.
        rnd = random.Random(57)
        kinds = set()
        for _ in range(1500):
            n = rnd.randint(5, 7)
            p = Ipomset(("a",) * n, _random_order(rnd, n, 0.3), frozenset(), frozenset())
            rep = interval_representation(p)
            assert is_interval(p) == oracle_is_interval(p), p
            kinds.add(is_interval(p))
            if isinstance(rep, IntervalRepresentation):
                for x in range(n):
                    for y in range(n):
                        ordered = (x, y) in p.precedence
                        assert ordered == (rep.end[x] < rep.begin[y]), (p, x, y)
        assert kinds == {True, False}


def _closed_pairs(n: int, pairs) -> frozenset:
    """``_closed``'s result as pairs, after checking that its masks agree."""
    succ, pred = _closed(n, pairs)
    closed = frozenset((a, b) for a in range(n) for b in range(n) if succ[a] >> b & 1)
    assert closed == {(a, b) for b in range(n) for a in range(n) if pred[b] >> a & 1}
    return closed


class TestTransitiveClosure:
    def test_agrees_with_naive_closure_on_random_relations(self):
        rnd = random.Random(88)
        reflexive = 0
        for _ in range(600):
            pairs = frozenset(
                (rnd.randrange(8), rnd.randrange(8)) for _ in range(rnd.randint(0, 14))
            )
            closed = _closed_pairs(8, pairs)
            assert closed == naive_closure(pairs), pairs
            reflexive += any(a == b for a, b in closed)
        assert reflexive > 50

    def test_reflexive_closure_stays_reflexive(self):
        assert _closed_pairs(4, [(3, 3)]) == {(3, 3)}
        assert _closed_pairs(2, [(0, 1), (1, 0)]) == {(0, 0), (0, 1), (1, 0), (1, 1)}
