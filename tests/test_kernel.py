"""Tests for the bitmask kernels of ``hdalang.ipomset``.

``subsumes`` must return exactly the least witness that a search over
all permutations finds, and the identity exactly when it is a witness;
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
    interval_representation,
    is_interval,
    subsumes,
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


class TestSubsumesWitness:
    def test_least_witness_on_every_pair_up_to_three_events(self):
        for group in _buckets(universe_up_to(3)):
            for p in group:
                for q in group:
                    assert subsumes(p, q) == oracle_witness(p, q), (p, q)

    def test_least_witness_on_a_sample_of_four_events(self):
        rnd = random.Random(404)
        groups = [g for g in _buckets(universe(4)) if len(g) > 1]
        found = 0
        for _ in range(4000):
            group = rnd.choice(groups)
            p, q = rnd.choice(group), rnd.choice(group)
            witness = subsumes(p, q)
            assert witness == oracle_witness(p, q), (p, q)
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
                assert witness == oracle_witness(p, q), (p, q)
                pairs += 1
                found += witness is not None
        assert pairs >= 200
        assert found >= 50


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
