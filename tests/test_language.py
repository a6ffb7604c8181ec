"""Tests for subsumption-closed languages.

Core claims exercised here:

* ``Language`` holds an antichain of interval generators and rejects
  non-interval input and comparable generators; ``Language``,
  ``normalize``, ``restrict`` and ``expand`` refuse a negative event
  bound, and the first three any other bound the document reader
  refuses, so every language round-trips through its document;
  ``restrict`` never widens the bound it is given.
* ``normalize`` drops subsumed members, keeping the maxima a brute-force
  scan finds whatever the input order, with one ``subsumes`` call per
  member against each generator kept so far with its bag of labels and
  interface roles; ``contains`` answers
  membership in the generated down-closure.
* ``seq_compose``/``par_compose`` compose generator-wise,
  ``par_closure_bounded`` folds bounded parallel powers,
  ``union``/``restrict`` behave set-like.
* ``extensions`` enumerates exactly the down-closure of one generator
  (cross-checked against a brute-force scan of the whole universe and
  against an oracle that filters every strict order) and ``expand``
  unions those ideals.  The search for refinement orders stops at the
  minimal ones exactly when asked: its leaves without cover pairs have
  the minimal orders of the full search as their minimal elements.
* ``normalize`` replaces a non-interval member by exactly the maxima of
  its ideal, on random members with 5-6 events and interfaces as well as
  on chain products; large products and a closure keep pinned generator
  counts.
* The operations decide interval-ness without ``is_interval``: parallel
  products are interval exactly when a factor is unordered and glues are
  interval (both checked exhaustively with the oracles), ``union``,
  ``seq_compose``, ``par_compose`` and ``par_closure_bounded`` equal their
  ``normalize`` definitions, and only products of two ordered factors
  reach ``_maximal_candidates``.  ``contains`` skips generators that
  cannot subsume the member and agrees with the oracle.
* ``is_equal``, ``is_subset`` and ``contains`` agree with mutual
  containment decided by ``oracle_subsumes`` alone, on random pairs and
  on pairs equal by construction (``union`` both ways round, both sides
  of distributivity, the unit of ``par_compose``, two event bounds), and
  ``is_equal`` compares generator sets without a ``subsumes`` call.
"""

from __future__ import annotations

import random
import sys
from functools import reduce
from itertools import combinations

import pytest

from hdalang import (
    EMPTY,
    InternalOrderCycle,
    Language,
    NotInterval,
    SequentialMismatch,
    contains,
    expand,
    extensions,
    from_chain,
    from_concurrent,
    glue,
    identity,
    is_equal,
    is_subset,
    language,
    normalize,
    par_closure_bounded,
    par_compose,
    parallel,
    point,
    restrict,
    seq_compose,
    tensor_power,
    union,
)
from hdalang.formats import language_from_doc, language_to_doc
from hdalang.hda import _expanded
from hdalang.ipomset import Ipomset
from hdalang.language import _refinement_orders
from hdalang.samples import edge_automaton, grid_automaton
from oracles import (
    oracle_down_set,
    oracle_extensions,
    oracle_glue,
    oracle_is_interval,
    oracle_subsumes,
    random_ipomset,
    universe,
    universe_up_to,
)


EMPTY_LANGUAGE = Language(generators=frozenset())
UNIT_LANGUAGE = Language(generators=frozenset({EMPTY}))


def down_set_of(lang, pool):
    return {p for p in pool if contains(lang, p)}


# --- construction -----------------------------------------------------------


class TestLanguageConstruction:
    def test_generators_must_be_interval(self):
        two_plus_two = Ipomset(
            ("a", "b", "a", "b"),
            frozenset({(0, 1), (2, 3)}),
            frozenset(),
            frozenset(),
        )
        with pytest.raises(NotInterval):
            Language(generators=frozenset({two_plus_two}))

    def test_generators_must_be_an_antichain(self):
        chain = from_chain(["a", "b"])
        conc = from_concurrent(["a", "b"])
        with pytest.raises(ValueError):
            Language(generators=frozenset({chain, conc}))

    def test_antichain_check_matches_pairwise_subsumption(self):
        # Each pair, and each triple of mixed sizes, of small members:
        # ``Language`` refuses exactly the sets in which one member
        # refines another.
        pool = [p for p in universe_up_to(2) if oracle_is_interval(p)]
        sets = [*combinations(pool, 2), *combinations(pool[::7], 3)]
        refused = 0
        for members in sets:
            comparable = any(oracle_subsumes(g, h) for g in members for h in members if g != h)
            try:
                Language(frozenset(members))
            except ValueError:
                refused += 1
                assert comparable, members
            else:
                assert not comparable, members
        assert 0 < refused < len(sets)

    def test_language_refuses_a_negative_event_bound(self):
        with pytest.raises(ValueError, match="non-negative"):
            Language(frozenset({point("a")}), -1)

    def test_only_bounds_the_document_reader_takes_are_accepted(self):
        gens = frozenset({from_concurrent(["a", "b"]), point("c")})
        lang = normalize(gens)
        for bound in (2.5, 1.0, True, False, "2", -1):
            with pytest.raises(ValueError, match="non-negative"):
                Language(gens, bound)
            with pytest.raises(ValueError, match="non-negative"):
                normalize(gens, bound)
            with pytest.raises(ValueError, match="non-negative"):
                restrict(lang, bound)
        for bound in (None, 0, 1, 2, 7):
            built = [Language(gens, bound), normalize(gens, bound)]
            built += [] if bound is None else [restrict(lang, bound)]
            for value in built:
                assert language_from_doc(language_to_doc(value)) == value, (bound, value)

    def test_normalize_prunes_subsumed_members(self):
        chain = from_chain(["a", "b"])
        conc = from_concurrent(["a", "b"])
        lang = normalize([chain, conc])
        assert lang.generators == frozenset({conc})

    def test_normalize_keeps_incomparable_members(self):
        lang = normalize([point("a"), point("b")])
        assert len(lang.generators) == 2

    def test_event_bound_is_recorded(self):
        lang = normalize([point("a")], event_bound=3)
        assert lang.event_bound == 3

    def test_normalize_refuses_a_negative_event_bound(self):
        # A document with a negative eventBound is refused by the parser.
        with pytest.raises(ValueError):
            normalize([point("a")], event_bound=-1)


class TestNormalize:
    """``normalize`` keeps exactly the maximal interval members."""

    @staticmethod
    def pools(seed: int, count: int) -> list[list[Ipomset]]:
        """Seeded pools of up to 4 events, some with 2+2 parallel products."""
        rnd = random.Random(seed)
        out = []
        for _ in range(count):
            pool = [random_ipomset(rnd, 4) for _ in range(rnd.randint(1, 10))]
            for _ in range(rnd.randint(0, 2)):
                first, second = (
                    from_chain(
                        [rnd.choice("ab"), rnd.choice("ab")],
                        sources={0} if rnd.random() < 0.3 else (),
                        targets={1} if rnd.random() < 0.3 else (),
                    )
                    for _ in range(2)
                )
                pool.append(parallel(first, second))
            out.append(pool)
        return out

    def test_matches_brute_force_maxima(self):
        sized = {n: universe(n) for n in range(5)}

        def interval_down_set(q):
            same_shape = [
                u
                for u in sized[q.size]
                if sorted(u.labels) == sorted(q.labels)
                and len(u.sources) == len(q.sources)
                and len(u.targets) == len(q.targets)
            ]
            return {u for u in oracle_down_set(q, same_shape) if oracle_is_interval(u)}

        non_interval = 0
        for pool in self.pools(5150, 25):
            flat = set()
            for p in pool:
                if oracle_is_interval(p):
                    flat.add(p)
                else:
                    non_interval += 1
                    flat |= interval_down_set(p)
            maxima = {
                p for p in flat if not any(q != p and oracle_subsumes(p, q) for q in flat)
            }
            assert normalize(pool, event_bound=4) == Language(frozenset(maxima), 4)
        assert non_interval > 5

    def test_non_interval_members_give_the_maxima_of_their_ideal(self):
        rnd = random.Random(5153)
        inputs = [q for q in universe(4) if not oracle_is_interval(q)]
        for _ in range(12):
            k = rnd.randint(2, 3)
            first, second = (
                from_chain(
                    [rnd.choice("ab") for _ in range(size)],
                    sources={0} if rnd.random() < 0.3 else (),
                    targets={size - 1} if rnd.random() < 0.3 else (),
                )
                for size in (k, 5 - k)
            )
            inputs.append(parallel(first, second))
        for q in inputs:
            ideal = extensions(q)
            maxima = {
                p
                for p in ideal
                if not any(r != p and oracle_subsumes(p, r) for r in ideal)
            }
            assert normalize([q]).generators == maxima, q

    def test_random_members_with_interfaces_give_the_maxima_of_their_ideal(self):
        # A 3-cycle with the index order needs 5 events with interleaved
        # indices, and pruning on interfaces needs interfaces, so these
        # inputs reach the branches that universe(4) and chain products
        # cannot.  Ideals above 150 members are skipped to keep the oracle
        # pass short.
        rnd = random.Random(11)
        checked = 0
        for _ in range(400):
            q = random_ipomset(rnd, 6)
            while q.size < 5 or oracle_is_interval(q):
                q = random_ipomset(rnd, 6)
            ideal = extensions(q)
            if len(ideal) > 150:
                continue
            checked += 1
            # A member is only ever refined by one with fewer pairs, so
            # comparing it with those maxima kept so far is enough.
            maxima: list[Ipomset] = []
            for p in sorted(ideal, key=lambda member: len(member.precedence)):
                pairs = len(p.precedence)
                if not any(
                    len(g.precedence) < pairs and oracle_subsumes(p, g)
                    for g in maxima
                ):
                    maxima.append(p)
            assert normalize([q]).generators == set(maxima), q
        assert checked > 300

    @pytest.mark.parametrize(
        ("words", "count"), [(("aaa", "bbb", "ab"), 26), (("ab", "ab", "ab", "ab"), 23)]
    )
    def test_large_parallel_products(self, words, count):
        q = from_chain(words[0])
        for word in words[1:]:
            q = parallel(q, from_chain(word))
        generators = normalize([q]).generators
        assert len(generators) == count
        for g in generators:
            assert oracle_is_interval(g)
            assert oracle_subsumes(g, q)
        # Refinement never removes pairs, and with as many pairs it is
        # equality, so only a generator with more pairs can refine another.
        assert not any(
            oracle_subsumes(g, h)
            for g in generators
            for h in generators
            if len(g.precedence) > len(h.precedence)
        )

    def test_input_order_does_not_matter(self):
        rnd = random.Random(5151)
        for pool in self.pools(5152, 40):
            expected = normalize(pool)
            shuffled = list(pool)
            rnd.shuffle(shuffled)
            assert normalize(reversed(pool)) == expected
            assert normalize(shuffled) == expected

    def test_subsumes_calls_on_the_five_cube(self, monkeypatch):
        # 272 path labels and one generator: each label other than the
        # generator is tested once, against the generator.
        module = sys.modules["hdalang.language"]
        real = module.subsumes
        calls = []

        def counting(p, q):
            calls.append((p, q))
            return real(p, q)

        monkeypatch.setattr(module, "subsumes", counting)
        lang = language(tensor_power(edge_automaton("a"), 5), 5)
        assert lang.generators == frozenset({from_concurrent(["a"] * 5)})
        assert len(calls) <= 271

    def test_subsumes_calls_on_mixed_bags(self, monkeypatch):
        # Subsumption keeps each event's label and interface role, so only
        # members with the same bag of those are ever compared.
        pool = {
            label
            for automaton, bound in (
                (grid_automaton(), 4),
                (tensor_power(edge_automaton("a"), 3), 3),
            )
            for _, label, _ in _expanded(automaton, bound)
        }

        def bag(p: Ipomset) -> list[tuple[str, bool, bool]]:
            return sorted(
                (lab, x in p.sources, x in p.targets) for x, lab in enumerate(p.labels)
            )

        same_bag = sum(bag(p) == bag(q) for p, q in combinations(pool, 2))
        module = sys.modules["hdalang.language"]
        real = module.subsumes
        calls = []

        def counting(p, q):
            calls.append((p, q))
            return real(p, q)

        monkeypatch.setattr(module, "subsumes", counting)
        lang = normalize(pool)
        maxima = {
            p for p in pool if not any(q != p and oracle_subsumes(p, q) for q in pool)
        }
        assert lang.generators == maxima
        assert len(maxima) < len(pool)
        assert len(calls) <= same_bag < len(pool)


# --- membership -------------------------------------------------------------


class TestContains:
    def test_members_are_the_down_closure(self):
        lang = normalize([from_concurrent(["a", "b"])])
        assert contains(lang, from_concurrent(["a", "b"]))
        assert contains(lang, from_chain(["a", "b"]))
        assert contains(lang, from_chain(["b", "a"]))
        assert not contains(lang, point("a"))
        assert not contains(lang, from_chain(["a", "b", "b"]))

    def test_empty_language_has_no_members(self):
        assert not contains(EMPTY_LANGUAGE, EMPTY)

    def test_unit_language_contains_only_empty(self):
        assert contains(UNIT_LANGUAGE, EMPTY)
        assert not contains(UNIT_LANGUAGE, point("a"))


# --- composition ------------------------------------------------------------


class TestSeqCompose:
    def test_points_chain_up(self):
        left = normalize([point("a")])
        right = normalize([point("c")])
        got = seq_compose(left, right)
        assert got.generators == frozenset({from_chain(["a", "c"])})

    def test_interface_mismatch_contributes_nothing(self):
        left = normalize([point("a", target=True)])
        right = normalize([point("b", source=True)])
        assert seq_compose(left, right).generators == frozenset()

    def test_mixed_generators_keep_the_composable_pairs(self):
        # Only the generator whose target interface matches composes; the
        # interface-free one is dropped rather than sequenced before.
        left = normalize([point("a", target=True), point("b")])
        right = normalize([point("a", source=True)])
        got = seq_compose(left, right)
        assert got.generators == frozenset({point("a")})

    def test_unit_language_is_neutral_for_interface_free_members(self):
        lang = normalize([from_concurrent(["a", "b"])])
        assert is_equal(seq_compose(UNIT_LANGUAGE, lang), lang)
        assert is_equal(seq_compose(lang, UNIT_LANGUAGE), lang)

    def test_unrepresentable_composites_are_skipped(self):
        left = normalize(
            [
                Ipomset(
                    ("a", "a"),
                    frozenset(),
                    frozenset(),
                    frozenset({0}),
                )
            ]
        )
        right = normalize(
            [
                Ipomset(
                    ("a", "a"),
                    frozenset(),
                    frozenset({1}),
                    frozenset({0, 1}),
                )
            ]
        )
        assert seq_compose(left, right).generators == frozenset()


class TestParCompose:
    def test_points_run_side_by_side(self):
        got = par_compose(normalize([point("a")]), normalize([point("b")]))
        assert got.generators == frozenset({from_concurrent(["a", "b"])})

    def test_generator_products(self):
        left = normalize([point("a"), point("b")])
        right = normalize([point("c")])
        got = par_compose(left, right)
        assert got.generators == frozenset(
            {from_concurrent(["a", "c"]), from_concurrent(["b", "c"])}
        )

    def test_unit_is_neutral(self):
        lang = normalize([from_chain(["a", "b"])])
        assert is_equal(par_compose(UNIT_LANGUAGE, lang), lang)
        assert is_equal(par_compose(lang, UNIT_LANGUAGE), lang)


class TestParClosure:
    def test_negative_power_is_refused(self):
        with pytest.raises(ValueError):
            par_closure_bounded(normalize([point("a")]), -1)

    def test_zeroth_power_alone(self):
        lang = normalize([point("a")])
        got = par_closure_bounded(lang, 0)
        assert got.generators == frozenset({EMPTY})

    def test_powers_accumulate(self):
        lang = normalize([point("a")])
        got = par_closure_bounded(lang, 3)
        expected = {
            EMPTY,
            point("a"),
            from_concurrent(["a", "a"]),
            from_concurrent(["a", "a", "a"]),
        }
        assert got.generators == frozenset(expected)

    def test_four_factors_of_a_chain(self):
        got = par_closure_bounded(normalize([from_chain("ab")]), 4)
        assert len(got.generators) == 33
        assert all(g.size in (0, 2, 4, 6, 8) for g in got.generators)

    def test_bound_counts_factors_not_events(self):
        lang = normalize([from_concurrent(["a", "a"])])
        got = par_closure_bounded(lang, 2)
        # Two factors of the two-event generator give four events.
        assert got.generators == frozenset(
            {
                EMPTY,
                from_concurrent(["a", "a"]),
                from_concurrent(["a", "a", "a", "a"]),
            }
        )


# --- set operations ---------------------------------------------------------


class TestSetOperations:
    def test_union_merges_and_renormalizes(self):
        chain = normalize([from_chain(["a", "b"])])
        conc = normalize([from_concurrent(["a", "b"])])
        got = union(chain, conc)
        assert got.generators == frozenset({from_concurrent(["a", "b"])})

    def test_union_takes_the_tighter_bound(self):
        left = normalize([point("a")], event_bound=2)
        right = normalize([point("b")], event_bound=5)
        assert union(left, right).event_bound == 2
        assert union(left, normalize([point("b")])).event_bound == 2

    def test_restrict_drops_large_generators(self):
        lang = normalize([point("a"), from_concurrent(["a", "a", "a"])])
        got = restrict(lang, 2)
        assert got.generators == frozenset({point("a")})
        assert got.event_bound == 2

    def test_restrict_keeps_the_tighter_event_bound(self):
        lang = normalize([point("a"), from_concurrent(["a", "a"])], event_bound=1)
        got = restrict(lang, 5)
        assert got.generators == frozenset({point("a")})
        assert got.event_bound == 1
        assert restrict(normalize([point("a")], 4), 2).event_bound == 2

    def test_restrict_refuses_a_negative_event_bound(self):
        with pytest.raises(ValueError):
            restrict(normalize([point("a")]), -1)

    def test_expand_refuses_a_negative_event_bound(self):
        with pytest.raises(ValueError, match="non-negative"):
            expand(normalize([point("a")]), -1)

    def test_subset_and_equality(self):
        small = normalize([from_chain(["a", "b"])])
        big = normalize([from_concurrent(["a", "b"])])
        assert is_subset(small, big)
        assert not is_subset(big, small)
        assert is_equal(big, big)
        assert not is_equal(small, big)

    def test_equality_ignores_bounds(self):
        left = normalize([point("a")], event_bound=1)
        right = normalize([point("a")], event_bound=7)
        assert is_equal(left, right)


# --- expansion --------------------------------------------------------------


class TestExtensions:
    def test_chain_is_its_own_ideal(self):
        chain = from_chain(["a", "b", "c"])
        assert extensions(chain) == frozenset({chain})

    def test_concurrent_pair_has_three_refinements(self):
        conc = from_concurrent(["a", "b"])
        assert extensions(conc) == frozenset(
            {conc, from_chain(["a", "b"]), from_chain(["b", "a"])}
        )

    def test_identity_is_rigid(self):
        # Interface events are pinned at both ends, so nothing refines.
        ident = identity(("a", "b"))
        assert extensions(ident) == frozenset({ident})

    def test_matches_brute_force_down_sets_up_to_three_events(self):
        by_size = {n: universe(n) for n in range(4)}
        for q in universe_up_to(3):
            got = extensions(q)
            want = oracle_down_set(q, by_size[q.size])
            assert got == want, q

    def test_matches_the_order_oracle_up_to_three_events(self):
        for q in universe_up_to(3):
            assert extensions(q) == oracle_extensions(q), q

    def test_matches_the_order_oracle_on_four_events(self):
        rnd = random.Random(505)
        for q in rnd.sample(universe(4), 150):
            assert extensions(q) == oracle_extensions(q), q

    def test_matches_the_order_oracle_on_five_events_with_interfaces(self):
        # Runs of equal concurrent events with interfaces, then random ones.
        inputs = [
            from_concurrent("aaaab", sources={0, 1}),
            from_concurrent("abaaa", sources={2}, targets={3, 4}),
        ]
        rnd = random.Random(506)
        while len(inputs) < 10:
            q = random_ipomset(rnd, 5)
            if q.size == 5 and (q.sources or q.targets):
                inputs.append(q)
        for q in inputs:
            assert extensions(q) == oracle_extensions(q), q

    def test_member_counts_of_concurrent_events(self):
        assert len(extensions(from_concurrent("a" * 5))) == 272
        assert len(extensions(from_concurrent("a" * 6))) == 2637

    def test_random_members_subsume_their_generator(self):
        rnd = random.Random(501)
        from hdalang import subsumes

        for _ in range(60):
            q = random_ipomset(rnd, 4)
            for p in extensions(q):
                assert subsumes(p, q) is not None


class TestRefinementOrders:
    """The search for refinement orders, with and without cover pairs."""

    @staticmethod
    def relations(q: Ipomset, every: bool) -> list[int]:
        """Each order as one mask, bit ``y * n + x`` set when ``x < y``."""
        return [
            sum(mask << y * q.size for y, mask in enumerate(pred))
            for pred, _ in _refinement_orders(q, every=every)
        ]

    @staticmethod
    def minimal(relations) -> set[int]:
        return {
            r for r in relations if not any(s != r and not s & ~r for s in relations)
        }

    @staticmethod
    def seeded_inputs() -> list[Ipomset]:
        """Twin runs with interfaces, chain products (never interval), then random members."""
        inputs = [
            from_concurrent("aaaab", sources={0, 1}),
            from_concurrent("abaaa", sources={2}, targets={3, 4}),
            from_concurrent("aabbb", targets={4}),
            parallel(from_chain("ab"), from_chain("ab")),
            parallel(from_chain("aab"), from_chain("ba", sources={0})),
            parallel(from_chain("aa"), from_chain("aa", targets={1})),
        ]
        rnd = random.Random(19)
        while len(inputs) < 300:
            q = random_ipomset(rnd, 6)
            if q.size >= 4:
                inputs.append(q)
        return inputs

    def test_minimal_leaves_are_the_minimal_orders_of_the_full_search(self):
        # Full searches above 400 orders are skipped to keep the quadratic
        # minimality scan short.
        checked = non_interval = 0
        for q in self.seeded_inputs():
            every = self.relations(q, every=True)
            if len(every) > 400:
                continue
            checked += 1
            non_interval += not oracle_is_interval(q)
            assert len(set(every)) == len(every), q
            leaves = self.relations(q, every=False)
            assert set(leaves) == self.minimal(every), q
        assert checked > 250 and non_interval > 50

    def test_minimal_search_returns_pairwise_incomparable_orders(self):
        # Chain products with many more refinement orders than minimal
        # ones, then the seeded inputs with no size cap.
        products = {("ab", "ab", "ab", "ab"): 24, ("aaa", "bbb", "ab"): 26}
        for words, count in products.items():
            leaves = self.relations(reduce(parallel, map(from_chain, words)), every=False)
            assert len(leaves) == count, words
            assert self.minimal(leaves) == set(leaves), words
        for q in self.seeded_inputs():
            leaves = self.relations(q, every=False)
            assert len(set(leaves)) == len(leaves), q
            assert self.minimal(leaves) == set(leaves), q

    def test_full_search_count_on_six_twins(self):
        # One order per member: without the twin bans every permutation
        # of a run would give the same member again.
        orders = _refinement_orders(from_concurrent("a" * 6), every=True)
        assert len(orders) == len(extensions(from_concurrent("a" * 6))) == 2637


class TestExpand:
    def test_concurrent_pair(self):
        lang = normalize([from_concurrent(["a", "b"])])
        got = expand(lang, 2)
        assert got == frozenset(
            {
                from_concurrent(["a", "b"]),
                from_chain(["a", "b"]),
                from_chain(["b", "a"]),
            }
        )

    def test_bound_filters_generators(self):
        lang = normalize([point("a"), from_concurrent(["b", "b"])])
        assert expand(lang, 1) == frozenset({point("a")})
        assert expand(lang, 0) == frozenset()

    def test_monotone_in_the_bound(self):
        lang = normalize([from_concurrent(["a", "a", "a"]), point("b")])
        previous: frozenset = frozenset()
        for bound in range(4):
            current = expand(lang, bound)
            assert previous <= current
            previous = current

    def test_members_agree_with_contains(self):
        rnd = random.Random(502)
        pool = universe_up_to(3)
        for _ in range(20):
            gens = [rnd.choice(pool) for _ in range(2)]
            lang = normalize(gens)
            members = expand(lang, 3)
            for p in rnd.sample(pool, 80):
                assert (p in members) == contains(lang, p)


# --- member-wise composition ------------------------------------------------


class TestCompositionDistributes:
    def test_seq_compose_equals_member_wise_gluing(self):
        rnd = random.Random(503)
        pool = [p for p in universe_up_to(2)]
        for _ in range(40):
            left = normalize([rnd.choice(pool) for _ in range(2)])
            right = normalize([rnd.choice(pool) for _ in range(2)])
            composed = seq_compose(left, right)
            member_wise = []
            for p in expand(left, 2):
                for q in expand(right, 2):
                    try:
                        member_wise.append(glue(p, q))
                    except Exception:
                        continue
            assert is_equal(composed, normalize(member_wise))

    def test_par_compose_equals_member_wise_parallel(self):
        rnd = random.Random(504)
        pool = [p for p in universe_up_to(2)]
        for _ in range(40):
            left = normalize([rnd.choice(pool) for _ in range(2)])
            right = normalize([rnd.choice(pool) for _ in range(2)])
            composed = par_compose(left, right)
            member_wise = [
                parallel(p, q)
                for p in expand(left, 2)
                for q in expand(right, 2)
            ]
            assert is_equal(composed, normalize(member_wise))


# --- interval by construction -------------------------------------------------


def random_language(rnd: random.Random, max_events: int = 3) -> Language:
    members = [random_ipomset(rnd, max_events) for _ in range(rnd.randint(1, 4))]
    return normalize(members, rnd.choice([None, 4, 5]))


def combined_bound(first: Language, second: Language) -> int | None:
    bounds = [b for b in (first.event_bound, second.event_bound) if b is not None]
    return min(bounds) if bounds else None


def products_within(first: Language, second: Language, bound: int | None) -> list:
    return [
        parallel(p, q)
        for p in first.generators
        for q in second.generators
        if bound is None or p.size + q.size <= bound
    ]


class TestIntervalByConstruction:
    """The operations decide interval-ness themselves; ``normalize`` is the
    route they skip, and gives the same ``Language`` values."""

    def test_parallel_products_are_interval_unless_both_factors_are_ordered(self):
        pool = universe_up_to(3, "a")
        for p in pool:
            for q in pool:
                both_ordered = bool(p.precedence and q.precedence)
                assert oracle_is_interval(parallel(p, q)) is not both_ordered

    def test_defined_glues_are_interval(self):
        pool = universe_up_to(3, "a")
        defined = 0
        for p in pool:
            for q in pool:
                if len(p.targets) != len(q.sources):
                    continue
                glued = oracle_glue(p, q)
                if glued is not None:
                    defined += 1
                    assert oracle_is_interval(glued)
        assert defined

    def test_operations_equal_their_normalize_definitions(self):
        rnd = random.Random(2101)
        for _ in range(60):
            first, second = random_language(rnd), random_language(rnd)
            bound = combined_bound(first, second)
            assert union(first, second) == normalize(
                first.generators | second.generators, bound
            )
            glues = []
            for p in first.generators:
                for q in second.generators:
                    try:
                        glues.append(glue(p, q))
                    except (SequentialMismatch, InternalOrderCycle):
                        continue
            assert seq_compose(first, second) == normalize(glues, bound)
            assert par_compose(first, second) == normalize(
                products_within(first, second, bound), bound
            )

    def test_closure_equals_its_normalize_definition(self):
        rnd = random.Random(2102)
        for _ in range(25):
            lang = random_language(rnd, 2)
            acc, power = {EMPTY}, normalize([EMPTY])
            for _ in range(3):
                products = products_within(power, lang, lang.event_bound)
                power = normalize(products, lang.event_bound)
                acc |= power.generators
            assert par_closure_bounded(lang, 3) == normalize(acc, lang.event_bound)

    def test_operations_on_languages_run_no_interval_test(self, monkeypatch):
        module = sys.modules["hdalang.language"]
        real_is_interval = module.is_interval
        real_candidates = module._maximal_candidates
        tested, expanded = [], []

        def counting_is_interval(p):
            tested.append(p)
            return real_is_interval(p)

        def counting_candidates(q):
            expanded.append(q)
            return real_candidates(q)

        rnd = random.Random(2103)
        pairs = [(random_language(rnd), random_language(rnd)) for _ in range(40)]
        monkeypatch.setattr(module, "is_interval", counting_is_interval)
        monkeypatch.setattr(module, "_maximal_candidates", counting_candidates)
        reached = 0
        for first, second in pairs:
            union(first, second)
            seq_compose(first, second)
            par_closure_bounded(first, 2)
            assert tested == []
            expanded.clear()
            par_compose(first, second)
            bound = combined_bound(first, second)
            ordered = {
                parallel(p, q)
                for p in first.generators
                for q in second.generators
                if p.precedence and q.precedence
                and (bound is None or p.size + q.size <= bound)
            }
            assert sorted(expanded, key=repr) == sorted(ordered, key=repr)
            assert tested == []
            reached += len(expanded)
        assert reached


class TestContainsFilter:
    def test_agrees_with_the_oracle_on_random_languages(self, monkeypatch):
        module = sys.modules["hdalang.language"]
        real = module.subsumes
        calls = []

        def counting(p, q):
            calls.append((p, q))
            return real(p, q)

        monkeypatch.setattr(module, "subsumes", counting)
        rnd = random.Random(2104)
        answers = []
        for _ in range(60):
            lang = random_language(rnd, 4)
            members = [random_ipomset(rnd, 4) for _ in range(8)]
            ideal = sorted(expand(lang, 4), key=repr)
            members += rnd.sample(ideal, min(2, len(ideal)))
            for p in members:
                expected = any(oracle_subsumes(p, g) for g in lang.generators)
                assert contains(lang, p) is expected
                answers.append(expected)
        assert True in answers and False in answers
        assert all(
            p.size == g.size and len(g.precedence) <= len(p.precedence)
            for p, g in calls
        )


def oracle_contains(lang: Language, p: Ipomset) -> bool:
    return any(oracle_subsumes(p, g) for g in lang.generators)


def oracle_is_subset(first: Language, second: Language) -> bool:
    return all(oracle_contains(second, g) for g in first.generators)


class TestEqualityByGenerators:
    """``is_equal`` compares generator sets; mutual containment decided
    with ``oracle_subsumes`` alone must give the same answers."""

    def pairs(self, rnd: random.Random) -> list[tuple[Language, Language, bool]]:
        # Each pair is built so that it is equal (``True``) or is drawn at
        # random (``False``); the oracle decides the random ones.
        out = []
        for _ in range(30):
            a, b = random_language(rnd), random_language(rnd)
            out.append((a, b, False))
            out.append((union(a, b), union(b, a), True))
            out.append((par_compose(UNIT_LANGUAGE, a), a, True))
            out.append((a, union(a, b), False))
            members = [random_ipomset(rnd, 3) for _ in range(rnd.randint(1, 4))]
            out.append((normalize(members, 3), normalize(members, 5), True))
        for _ in range(15):
            # Unbounded, so that no product is dropped on one side only.
            a, b, c = (normalize(random_language(rnd, 2).generators) for _ in range(3))
            left = par_compose(a, union(b, c))
            out.append((left, union(par_compose(a, b), par_compose(a, c)), True))
            out.append((left, par_compose(a, b), False))
        return out

    def test_agrees_with_mutual_containment(self):
        kinds = {"equal": 0, "strict subset": 0, "incomparable": 0, "unequal, one size": 0}
        for first, second, built_equal in self.pairs(random.Random(2301)):
            forward = oracle_is_subset(first, second)
            backward = oracle_is_subset(second, first)
            assert is_subset(first, second) is forward
            assert is_subset(second, first) is backward
            assert is_equal(first, second) is (forward and backward)
            assert is_equal(second, first) is (forward and backward)
            if built_equal:
                assert forward and backward
            kinds[
                "equal" if forward and backward
                else "strict subset" if forward or backward
                else "incomparable"
            ] += 1
            # Unequal pairs with as many generators on each side.
            kinds["unequal, one size"] += not (forward and backward) and len(
                first.generators
            ) == len(second.generators)
            for g in first.generators | second.generators:
                assert contains(first, g) is oracle_contains(first, g)
                assert contains(second, g) is oracle_contains(second, g)
        assert all(kinds.values()), kinds

    def test_is_equal_makes_no_subsumes_call(self, monkeypatch):
        module = sys.modules["hdalang.language"]
        real = module.subsumes
        calls = []

        def counting(p, q):
            calls.append((p, q))
            return real(p, q)

        pairs = self.pairs(random.Random(2303))
        monkeypatch.setattr(module, "subsumes", counting)
        answers = {is_equal(first, second) for first, second, _ in pairs}
        assert answers == {True, False}
        assert calls == []
