"""Tests for the interval-pomset core.

Core claims exercised here:

* ``validate`` accepts exactly the well-formed presentations and reports
  each failure mode with a dedicated error type.
* Canonical numbering is a complete invariant: renaming events and
  shuffling the presentation never changes the canonical form.
* ``subsumes`` implements the refinement order (more precedence below,
  less above) and respects the essential ordering of concurrent events.
* ``interval_representation`` succeeds exactly on 2+2-free orders and
  its begin/end levels reproduce the precedence relation.
* ``glue`` matches a naive relation-assembly oracle, is associative,
  has identities, and preserves the interval property.
"""

from __future__ import annotations

import random
import sys
from itertools import combinations

import pytest

from hdalang import (
    EMPTY,
    CycleInPrecedence,
    EventOrderCycle,
    EventOrderIncomplete,
    InternalOrderCycle,
    Ipomset,
    IpomsetError,
    LabelMissing,
    SequentialMismatch,
    SourceNotMinimal,
    TargetNotMaximal,
    TwoPlusTwoWitness,
    extensions,
    from_chain,
    from_concurrent,
    glue,
    identity,
    interval_representation,
    is_interval,
    parallel,
    point,
    subsumes,
    validate,
)
from oracles import (
    oracle_glue,
    oracle_is_interval,
    oracle_subsumes,
    precedence_signature,
    random_ipomset,
    universe,
    universe_up_to,
)


# --- validation -------------------------------------------------------------


class TestValidate:
    def test_empty(self):
        got = validate({}, [], [], [], [])
        assert got == EMPTY
        assert got.is_empty

    def test_point_round_trip(self):
        got = validate({"x": "a"}, [], [], [], [])
        assert got == point("a")
        assert got.labels == ("a",)
        assert got.sources == frozenset()
        assert got.targets == frozenset()

    def test_chain_closure_is_applied(self):
        got = validate(
            {"x": "a", "y": "b", "z": "c"},
            [("x", "y"), ("y", "z")],
            [],
            [],
            [],
        )
        assert got == from_chain(["a", "b", "c"])
        assert (0, 2) in got.precedence

    def test_interfaces_carry_over(self):
        got = validate({"x": "a", "y": "b"}, [], [("x", "y")], ["x"], ["y"])
        assert got.sources == frozenset({0})
        assert got.targets == frozenset({1})

    def test_event_order_closure_is_applied(self):
        got = validate(
            {"x": "a", "y": "a", "z": "a"},
            [],
            [("x", "y"), ("y", "z")],
            [],
            [],
        )
        # All three events concurrent, ordered x before y before z.
        assert got.labels == ("a", "a", "a")
        assert got.precedence == frozenset()

    def test_unknown_event_in_precedence(self):
        with pytest.raises(LabelMissing):
            validate({"x": "a"}, [("x", "ghost")], [], [], [])

    def test_unknown_event_in_interface(self):
        with pytest.raises(LabelMissing):
            validate({"x": "a"}, [], [], ["ghost"], [])

    def test_bad_label(self):
        with pytest.raises(LabelMissing):
            validate({"x": ""}, [], [], [], [])
        with pytest.raises(LabelMissing):
            validate({"x": 3}, [], [], [], [])

    def test_precedence_cycle(self):
        with pytest.raises(CycleInPrecedence):
            validate({"x": "a", "y": "b"}, [("x", "y"), ("y", "x")], [], [], [])

    def test_event_order_cycle(self):
        with pytest.raises(EventOrderCycle):
            validate(
                {"x": "a", "y": "a"},
                [],
                [("x", "y"), ("y", "x")],
                [],
                [],
            )

    def test_event_order_opposing_precedence(self):
        with pytest.raises(EventOrderCycle):
            validate({"x": "a", "y": "a"}, [("x", "y")], [("y", "x")], [], [])

    def test_event_order_incomplete(self):
        with pytest.raises(EventOrderIncomplete):
            validate({"x": "a", "y": "a"}, [], [], [], [])

    def test_aligned_event_order_is_dropped(self):
        # Ordering a pair that precedence already orders is redundant but legal.
        got = validate({"x": "a", "y": "b"}, [("x", "y")], [("x", "y")], [], [])
        assert got == from_chain(["a", "b"])

    def test_source_not_minimal(self):
        with pytest.raises(SourceNotMinimal):
            validate({"x": "a", "y": "b"}, [("x", "y")], [], ["y"], [])

    def test_target_not_maximal(self):
        with pytest.raises(TargetNotMaximal):
            validate({"x": "a", "y": "b"}, [("x", "y")], [], [], ["x"])

    def test_non_linearizable_combination(self):
        # x before z by precedence, z before y and y before x essentially:
        # the union is cyclic even though each relation alone is fine.
        with pytest.raises(EventOrderCycle):
            validate(
                {"x": "a", "y": "a", "z": "a"},
                [("x", "z")],
                [("z", "y"), ("y", "x")],
                [],
                [],
            )


class TestCanonicalInvariance:
    def test_renaming_events_is_stable(self):
        rnd = random.Random(401)
        pool = universe_up_to(3)
        for _ in range(300):
            p = rnd.choice(pool)
            names = [f"e{i}" for i in range(p.size)]
            rnd.shuffle(names)
            labels = {names[i]: p.labels[i] for i in range(p.size)}
            precedence = [(names[i], names[j]) for i, j in p.precedence]
            order = [(names[i], names[j]) for i, j in p.event_order]
            sources = [names[i] for i in p.sources]
            targets = [names[i] for i in p.targets]
            assert validate(labels, precedence, order, sources, targets) == p

    def test_idempotent(self):
        rnd = random.Random(402)
        for _ in range(200):
            p = random_ipomset(rnd, 4)
            names = {i: str(i) for i in range(p.size)}
            again = validate(
                {names[i]: p.labels[i] for i in range(p.size)},
                [(names[i], names[j]) for i, j in p.precedence],
                [(names[i], names[j]) for i, j in p.event_order],
                [names[i] for i in p.sources],
                [names[i] for i in p.targets],
            )
            assert again == p


# --- constructors -----------------------------------------------------------


class TestConstructors:
    def test_point_with_interfaces(self):
        unstarted = point("a")
        running_in = point("a", source=True)
        running_out = point("a", target=True)
        assert unstarted.sources == frozenset()
        assert running_in.sources == frozenset({0})
        assert running_out.targets == frozenset({0})
        assert unstarted != running_in != running_out

    def test_identity_is_all_interface(self):
        ident = identity(("a", "b"))
        assert ident.sources == frozenset({0, 1})
        assert ident.targets == frozenset({0, 1})
        assert ident.precedence == frozenset()

    def test_chain_is_total(self):
        p = from_chain(["a", "b", "c"])
        assert p.precedence == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_concurrent_has_no_precedence(self):
        p = from_concurrent(["a", "b", "c"])
        assert p.precedence == frozenset()
        assert p.event_order == frozenset({(0, 1), (0, 2), (1, 2)})

    @pytest.mark.parametrize(
        "fields, error",
        [
            ((("a",), {(0, 1)}, (), ()), EventOrderCycle),
            ((("a", "b"), {(1, 0)}, (), ()), EventOrderCycle),
            ((("a", "b"), {(0, 1), (1, 0)}, (), ()), CycleInPrecedence),
            ((("",), (), (), ()), LabelMissing),
            (((1,), (), (), ()), LabelMissing),
            ((("a", "b"), {(0, 1)}, {1}, ()), SourceNotMinimal),
            ((("a", "b"), {(0, 1)}, (), {0}), TargetNotMaximal),
            ((("a",), (), {1}, ()), LabelMissing),
        ],
        ids=[
            "pair-out-of-range",
            "decreasing-pair",
            "two-cycle",
            "empty-label",
            "non-string-label",
            "source-with-predecessor",
            "target-with-successor",
            "interface-out-of-range",
        ],
    )
    def test_constructor_refuses_malformed_fields(self, fields, error, request):
        with pytest.raises(IpomsetError) as raised:
            Ipomset(*fields)
        assert type(raised.value) is error
        if request.node.callspec.id == "pair-out-of-range":
            return
        # The constructor is ``validate`` over the index order, texts and all.
        labels, precedence, sources, targets = fields
        with pytest.raises(error) as again:
            validate(
                dict(enumerate(labels)),
                precedence,
                combinations(range(len(labels)), 2),
                sources,
                targets,
            )
        assert str(raised.value) == str(again.value)

    def test_precedence_tables_are_compact(self):
        # A frozenset built from a list or generator of 5-7 pairs may get a
        # hash table twice the size of one copied from a set; ipomsets are
        # kept by the thousand, so the constructors build from sets.
        chain = validate(
            {x: "a" for x in "wxyz"}, precedence=[("w", "x"), ("x", "y"), ("y", "z")]
        )
        members = extensions(parallel(from_chain("abc"), from_chain("ab")))
        for p in (from_chain("abcd"), chain, *members):
            assert sys.getsizeof(p.precedence) == sys.getsizeof(
                frozenset(set(p.precedence))
            )


# --- subsumption ------------------------------------------------------------


class TestSubsumes:
    def test_reflexive(self):
        p = from_concurrent(["a", "b"])
        assert subsumes(p, p) is not None

    def test_chain_refines_concurrent(self):
        chain = from_chain(["a", "b"])
        conc = from_concurrent(["a", "b"])
        assert subsumes(chain, conc) == (0, 1)
        assert subsumes(conc, chain) is None

    def test_concurrent_refines_to_either_chain(self):
        # The essential order of a concurrent pair does not restrict which
        # way the pair may be sequentialised: both chains refine it.  It
        # only separates ipomsets where the pair stays concurrent.
        conc = from_concurrent(["a", "b"])
        forward = from_chain(["a", "b"])
        backward = from_chain(["b", "a"])
        assert subsumes(forward, conc) is not None
        assert subsumes(backward, conc) is not None

    def test_swapped_concurrent_pairs_are_distinct(self):
        first = from_concurrent(["a", "b"])
        second = from_concurrent(["b", "a"])
        assert first != second
        assert subsumes(first, second) is None
        assert subsumes(second, first) is None

    def test_labels_must_match(self):
        assert subsumes(point("a"), point("b")) is None

    def test_interfaces_must_match(self):
        assert subsumes(point("a", source=True), point("a")) is None
        assert subsumes(point("a"), point("a", target=True)) is None

    def test_witness_is_a_label_preserving_map(self):
        rnd = random.Random(403)
        pool = universe(3)
        checked = 0
        while checked < 150:
            p = rnd.choice(pool)
            q = rnd.choice(pool)
            witness = subsumes(p, q)
            if witness is None:
                continue
            checked += 1
            assert sorted(witness) == list(range(q.size))
            for x in range(p.size):
                assert p.labels[x] == q.labels[witness[x]]
            for u, v in q.precedence:
                assert (witness.index(u), witness.index(v)) in p.precedence

    def test_agrees_with_permutation_oracle(self):
        rnd = random.Random(404)
        pool = universe_up_to(3)
        for _ in range(400):
            p = rnd.choice(pool)
            q = rnd.choice(pool)
            assert (subsumes(p, q) is not None) == oracle_subsumes(p, q)


# --- interval representation ------------------------------------------------


class TestInterval:
    def test_point_and_chain(self):
        rep = interval_representation(from_chain(["a", "b", "c"]))
        assert rep.begin == (0, 1, 2)
        assert rep.end == (0, 1, 2)

    def test_concurrent_shares_one_level(self):
        rep = interval_representation(from_concurrent(["a", "b"]))
        assert rep.begin == (0, 0)
        assert rep.end == (0, 0)

    def test_two_plus_two_is_rejected(self):
        bad = Ipomset(
            ("a", "b", "a", "b"),
            frozenset({(0, 1), (2, 3)}),
            frozenset(),
            frozenset(),
        )
        assert not is_interval(bad)

    def test_witness_pairs_are_incomparable_chains(self):
        bad = Ipomset(
            ("a", "b", "a", "b"),
            frozenset({(0, 1), (2, 3)}),
            frozenset(),
            frozenset(),
        )
        rep = interval_representation(bad)
        assert hasattr(rep, "first_low")
        assert (rep.first_low, rep.first_high) in bad.precedence
        assert (rep.second_low, rep.second_high) in bad.precedence
        cross = [
            (rep.first_low, rep.second_high),
            (rep.second_low, rep.first_high),
            (rep.first_low, rep.second_low),
            (rep.first_high, rep.second_high),
        ]
        for x, y in cross:
            assert (x, y) not in bad.precedence
            assert (y, x) not in bad.precedence

    def test_witness_names_the_least_events(self):
        for p in universe(4):
            if is_interval(p):
                continue
            rep = interval_representation(p)
            first = p.predecessors(rep.first_high)
            second = p.predecessors(rep.second_high)
            assert rep.first_low == min(first - second)
            assert rep.second_low == min(second - first)
            assert rep.first_high == min(
                x for x in range(4) if p.predecessors(x) == first
            )
            assert rep.second_high == min(
                x for x in range(4) if p.predecessors(x) == second
            )

    def test_witness_depends_only_on_the_value(self):
        # Predecessor sets built as frozensets could be iterated in the
        # insertion order of colliding events numbered 8 and up, so one
        # value could name two witnesses.
        pairs = [(1, 4), (1, 8), (1, 9), (1, 10), (1, 12), (2, 12), (3, 4)]
        pairs += [(3, 8), (3, 9), (4, 8), (4, 9), (6, 9), (10, 12)]
        rnd = random.Random(408)
        witnesses = set()
        for _ in range(200):
            rnd.shuffle(pairs)
            p = Ipomset(("a",) * 13, frozenset(pairs), frozenset(), frozenset())
            witnesses.add(interval_representation(p))
        assert witnesses == {
            TwoPlusTwoWitness(first_low=3, first_high=4, second_low=2, second_high=12)
        }

    def test_levels_reproduce_precedence(self):
        rnd = random.Random(405)
        pool = [p for p in universe_up_to(3)]
        for _ in range(300):
            p = rnd.choice(pool)
            rep = interval_representation(p)
            assert rep is not None
            assert not hasattr(rep, "first_low")
            for x in range(p.size):
                for y in range(p.size):
                    if x == y:
                        continue
                    ordered = (x, y) in p.precedence
                    assert ordered == (rep.end[x] < rep.begin[y])

    def test_agrees_with_quadruple_oracle(self):
        rnd = random.Random(406)
        for _ in range(300):
            p = random_ipomset(rnd, 5)
            assert is_interval(p) == oracle_is_interval(p)


# --- gluing -----------------------------------------------------------------


def _glue_operands(rnd: random.Random) -> tuple[Ipomset, Ipomset]:
    """Operands of 4-6 events each whose interfaces of 1-3 events match."""

    def shape() -> Ipomset:
        n = rnd.randint(4, 6)
        pairs = {(i, j) for i, j in combinations(range(n), 2) if rnd.random() < 0.3}
        labels = tuple(rnd.choice("ab") for _ in range(n))
        return Ipomset(labels, frozenset(pairs), frozenset(), frozenset())

    k = rnd.randint(1, 3)
    while True:
        p, q = shape(), shape()
        maximal = [x for x in range(p.size) if not p.successors(x)]
        minimal = [b for b in range(q.size) if not q.predecessors(b)]
        if len(maximal) >= k and len(minimal) >= k:
            break
    targets = sorted(rnd.sample(maximal, k))
    sources = sorted(rnd.sample(minimal, k))
    q_labels = list(q.labels)
    for t, s in zip(targets, sources):
        q_labels[s] = p.labels[t]
    p_starts = [x for x in range(p.size) if not p.predecessors(x)]
    q_ends = [b for b in range(q.size) if not q.successors(b)]
    return (
        Ipomset(
            p.labels,
            p.precedence,
            frozenset(x for x in p_starts if rnd.random() < 0.3),
            frozenset(targets),
        ),
        Ipomset(
            tuple(q_labels),
            q.precedence,
            frozenset(sources),
            frozenset(b for b in q_ends if rnd.random() < 0.3),
        ),
    )


class TestGlue:
    def test_points_compose_to_chain(self):
        assert glue(point("a"), point("c")) == from_chain(["a", "c"])

    def test_carried_event_is_shared(self):
        left = point("a", target=True)
        right = point("a", source=True)
        got = glue(left, right)
        assert got == point("a")
        assert got.size == 1

    def test_interface_mismatch(self):
        with pytest.raises(SequentialMismatch):
            glue(point("a", target=True), point("b", source=True))
        with pytest.raises(SequentialMismatch):
            glue(point("a"), point("a", source=True))

    def test_identity_is_neutral(self):
        rnd = random.Random(407)
        for _ in range(200):
            p = random_ipomset(rnd, 4)
            start = identity(tuple(p.labels[i] for i in sorted(p.sources)))
            finish = identity(tuple(p.labels[i] for i in sorted(p.targets)))
            assert glue(start, p) == p
            assert glue(p, finish) == p

    def test_matches_relation_assembly_oracle(self):
        rnd = random.Random(408)
        matched = 0
        attempts = 0
        while matched < 120 and attempts < 20000:
            attempts += 1
            p = random_ipomset(rnd, 3)
            q = random_ipomset(rnd, 3)
            p_out = [p.labels[i] for i in sorted(p.targets)]
            q_in = [q.labels[i] for i in sorted(q.sources)]
            if p_out != q_in:
                continue
            expected = oracle_glue(p, q)
            if expected is None:
                with pytest.raises(InternalOrderCycle):
                    glue(p, q)
            else:
                assert glue(p, q) == expected
            matched += 1
        assert matched == 120

    def test_matches_the_oracle_on_larger_interfaced_operands(self):
        # A source of q with a non-source before it moves the p target it is
        # glued to up by that many events.
        rnd = random.Random(411)
        cycles = shifted = 0
        for _ in range(300):
            p, q = _glue_operands(rnd)
            expected = oracle_glue(p, q)
            if expected is None:
                cycles += 1
                with pytest.raises(InternalOrderCycle):
                    glue(p, q)
            else:
                assert glue(p, q) == expected, (p, q)
            shifted += any(s > i for i, s in enumerate(sorted(q.sources)))
        assert cycles >= 40
        assert shifted >= 100

    def test_associative(self):
        rnd = random.Random(409)
        matched = 0
        attempts = 0
        while matched < 80 and attempts < 60000:
            attempts += 1
            a = random_ipomset(rnd, 3)
            b = random_ipomset(rnd, 3)
            c = random_ipomset(rnd, 3)
            if [a.labels[i] for i in sorted(a.targets)] != [
                b.labels[i] for i in sorted(b.sources)
            ]:
                continue
            if [b.labels[i] for i in sorted(b.targets)] != [
                c.labels[i] for i in sorted(c.sources)
            ]:
                continue
            try:
                left = glue(glue(a, b), c)
            except InternalOrderCycle:
                continue
            try:
                right = glue(a, glue(b, c))
            except InternalOrderCycle:
                continue
            assert left == right
            matched += 1
        assert matched >= 40

    def test_preserves_interval_property(self):
        rnd = random.Random(410)
        matched = 0
        attempts = 0
        while matched < 100 and attempts < 20000:
            attempts += 1
            p = random_ipomset(rnd, 3)
            q = random_ipomset(rnd, 3)
            if [p.labels[i] for i in sorted(p.targets)] != [
                q.labels[i] for i in sorted(q.sources)
            ]:
                continue
            try:
                composite = glue(p, q)
            except InternalOrderCycle:
                continue
            assert is_interval(composite)
            matched += 1
        assert matched == 100

    def test_unrepresentable_composite_raises(self):
        # Event 0 essentially precedes event 1; gluing a fresh event that
        # must come after the finished event 1 but essentially before the
        # still-running event 0 knots the total order into a cycle.
        left = validate(
            {"x": "a", "y": "a"},
            [],
            [("x", "y")],
            [],
            ["x"],
        )
        right = validate(
            {"x": "a", "z": "a"},
            [],
            [("z", "x")],
            ["x"],
            ["x", "z"],
        )
        with pytest.raises(InternalOrderCycle):
            glue(left, right)


# --- parallel ---------------------------------------------------------------


class TestParallel:
    def test_blocks_are_side_by_side(self):
        got = parallel(point("a"), point("b"))
        assert got == from_concurrent(["a", "b"])

    def test_empty_is_neutral(self):
        rnd = random.Random(411)
        for _ in range(100):
            p = random_ipomset(rnd, 4)
            assert parallel(EMPTY, p) == p
            assert parallel(p, EMPTY) == p

    def test_interfaces_and_precedence_shift(self):
        left = from_chain(["a", "b"])
        right = point("c", source=True, target=True)
        got = parallel(left, right)
        assert got.labels == ("a", "b", "c")
        assert got.precedence == frozenset({(0, 1)})
        assert got.sources == frozenset({2})
        assert got.targets == frozenset({2})
        assert (0, 2) in got.event_order
        assert (1, 2) in got.event_order

    def test_block_order_matters(self):
        ab = parallel(point("a"), point("b"))
        ba = parallel(point("b"), point("a"))
        assert ab != ba

    def test_signature_blind_to_block_order(self):
        ab = parallel(point("a"), point("b"))
        ba = parallel(point("b"), point("a"))
        assert precedence_signature(ab) == precedence_signature(ba)
