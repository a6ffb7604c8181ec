"""Tests for higher-dimensional automata and their languages.

Core claims exercised here:

* Path validation ties steps to the carrier's face maps; ``ev_label``
  takes one closed-form step per path step and respects path
  concatenation.
* The closed-form step equals the oracle's glue of the label with the
  step's piece, and fails exactly when that glue has no canonical form.
* ``language`` agrees with the brute-force path-enumeration oracle on
  every fixture and on batches of randomized automata, of dimension
  three and more among them.
* The step table equals an oracle that applies one elementary face at a
  time, and shares one step object per kind, position set and dimension.
* ``language`` builds each (label, step, word) transition once per call
  and compares each pair of labels at its antichains once, and the states
  ``_expanded`` yields, with their order, are pinned.  It hashes each
  label it builds at most once, to number it.
* Two consecutive steps of one kind give the same cells and label as
  their merged step, and raise exactly when it does, so ``language``
  may follow sparse paths only; it equals the normalised labels that the
  exploration of all paths reaches at accepting cells.
* The antichain pruning covers the unpruned exploration: every state it
  reaches with events left to start, or at an accepting cell, refines a
  state ``language`` expands at the same cell.
* Some geometrically valid paths revisit axes in an order their own
  precedence contradicts; they have no canonical label, are reported
  via ``InternalOrderCycle``, and never affect the language.
* The constructions (tensor, coproduct, pushout, replication, chain
  prefixes) produce the documented markings, cell counts and languages.
* Negative event budgets and replication counts are refused.
"""

from __future__ import annotations

import hashlib
import random
import sys

import pytest

from hdalang import (
    DownStep,
    EMPTY,
    Hda,
    HdaMap,
    InternalOrderCycle,
    Ipomset,
    Path,
    PrecubicalInvariant,
    PrecubicalSet,
    UnknownCell,
    UpStep,
    contains,
    coproduct_hda,
    enumerate_accepting_paths,
    ev_label,
    expand,
    from_chain,
    from_concurrent,
    glue,
    identity,
    is_equal,
    language,
    normalize,
    par_closure_bounded,
    par_compose,
    point,
    pushout_hda,
    replicate,
    replication_chain_prefix,
    restrict,
    start_cell_count,
    subsumes,
    tensor_hda,
    tensor_power,
    union,
    unit_hda,
    validate_hda_map,
    validate_path,
)
from hdalang.hda import Step, _advance, _expanded, _step_table
from hdalang.precubical import Word
from hdalang.samples import edge_automaton, grid_automaton, pushout_span
from oracles import (
    oracle_accepting_paths,
    oracle_glue,
    oracle_moves,
    oracle_subsumes,
    path_label_language,
    random_hda,
    step_piece,
)


def cube_automaton() -> Hda:
    """Three independent ``a`` edges run together: a filled 3-cube."""
    a = edge_automaton("a")
    return tensor_hda(tensor_hda(a, a), a)


# --- markings and maps --------------------------------------------------------


class TestHdaBasics:
    def test_markings_must_exist(self):
        carrier = PrecubicalSet({"v": ()}, {})
        with pytest.raises(UnknownCell):
            Hda(carrier, frozenset({"ghost"}), frozenset())

    def test_higher_dimensional_marking_is_allowed(self):
        x = edge_automaton("a")
        Hda(x.carrier, frozenset({"e"}), frozenset({"e"}))

    def test_start_cell_count(self):
        assert start_cell_count(grid_automaton()) == 1

    def test_map_must_preserve_markings(self):
        with_marks = edge_automaton("a")
        bare = edge_automaton("a", with_start=False, with_accept=True)
        mapping = {c: c for c in with_marks.carrier.cells}
        problems = validate_hda_map(with_marks, bare, mapping)
        assert any("start" in p for p in problems)
        with pytest.raises(PrecubicalInvariant):
            HdaMap(source=with_marks, target=bare, mapping=mapping)

    def test_identity_map_is_valid(self):
        x = grid_automaton()
        HdaMap(source=x, target=x, mapping={c: c for c in x.carrier.cells})


# --- paths and labels ---------------------------------------------------------


class TestPaths:
    def test_validate_path_accepts_a_run(self):
        x = edge_automaton("a")
        run = Path(cells=("v0", "e", "v1"), steps=(UpStep({1}), DownStep({1})))
        validate_path(x, run)

    def test_validate_path_rejects_wrong_cells(self):
        x = edge_automaton("a")
        broken = Path(cells=("v1", "e", "v0"), steps=(UpStep({1}), DownStep({1})))
        with pytest.raises(ValueError):
            validate_path(x, broken)

    def test_validate_path_rejects_empty_steps(self):
        x = edge_automaton("a")
        lazy = Path(cells=("e", "e"), steps=(UpStep(frozenset()),))
        with pytest.raises(ValueError):
            validate_path(x, lazy)

    @pytest.mark.parametrize(
        "cells, finished, message",
        [
            (("v0", "e", "e"), frozenset(), "step 1 finishes no event"),
            (("v0", "e", "v0"), {1}, "step 1: finishing [1] in 'e' does not give 'v0'"),
        ],
        ids=["finishes-nothing", "wrong-cell"],
    )
    def test_validate_path_checks_down_steps(self, cells, finished, message):
        broken = Path(cells=cells, steps=(UpStep({1}), DownStep(finished)))
        with pytest.raises(ValueError) as raised:
            validate_path(edge_automaton("a"), broken)
        assert str(raised.value) == message

    def test_path_ends(self):
        run = Path(cells=("v0", "e", "v1"), steps=(UpStep({1}), DownStep({1})))
        assert (run.first, run.last) == ("v0", "v1")
        assert Path(cells=("v0",), steps=()).last == "v0"

    def test_path_shape_is_checked(self):
        with pytest.raises(ValueError):
            Path(cells=("v0",), steps=(UpStep({1}),))
        with pytest.raises(ValueError):
            Path(cells=(), steps=())

    def test_full_run_label(self):
        x = edge_automaton("a")
        run = Path(cells=("v0", "e", "v1"), steps=(UpStep({1}), DownStep({1})))
        assert ev_label(x, run) == point("a")

    def test_partial_run_keeps_interfaces(self):
        x = edge_automaton("a")
        into = Path(cells=("v0", "e"), steps=(UpStep({1}),))
        out_of = Path(cells=("e", "v1"), steps=(DownStep({1}),))
        assert ev_label(x, into) == point("a", target=True)
        assert ev_label(x, out_of) == point("a", source=True, target=False)

    def test_empty_path_is_identity(self):
        x = edge_automaton("a")
        assert ev_label(x, Path(cells=("v0",), steps=())) == EMPTY
        assert ev_label(x, Path(cells=("e",), steps=())) == identity(("a",))

    def test_square_interleavings(self):
        sq = tensor_hda(edge_automaton("a"), edge_automaton("b"))
        v00 = "(v0|v0)"
        interior = "(e|e)"
        around = Path(
            cells=(v00, "(e|v0)", "(v1|v0)", "(v1|e)", "(v1|v1)"),
            steps=(UpStep({1}), DownStep({1}), UpStep({1}), DownStep({1})),
        )
        across = Path(
            cells=(v00, interior, "(v1|v1)"),
            steps=(UpStep({1, 2}), DownStep({1, 2})),
        )
        assert ev_label(sq, around) == from_chain(["a", "b"])
        assert ev_label(sq, across) == from_concurrent(["a", "b"])

    def test_label_respects_concatenation(self):
        x = grid_automaton()
        rnd = random.Random(701)
        runs = [p for p in enumerate_accepting_paths(x, 4)]
        assert runs
        for _ in range(60):
            run = rnd.choice(runs)
            if len(run.steps) < 2:
                continue
            cut = rnd.randrange(1, len(run.steps))
            head = Path(cells=run.cells[: cut + 1], steps=run.steps[:cut])
            tail = Path(cells=run.cells[cut:], steps=run.steps[cut:])
            assert glue(ev_label(x, head), ev_label(x, tail)) == ev_label(x, run)

    def test_enumeration_matches_the_oracle_walk(self):
        cases = [(cube_automaton(), 3), (grid_automaton(), 4)]
        rnd = random.Random(3308)
        cases += [(random_hda(rnd), 4) for _ in range(20)]
        total = 0
        for automaton, bound in cases:
            paths = list(enumerate_accepting_paths(automaton, bound))
            assert paths == list(oracle_accepting_paths(automaton, bound))
            total += len(paths)
        assert total > 300


class TestStepTable:
    def test_matches_the_face_by_face_oracle(self):
        rnd = random.Random(3307)
        automata = [tensor_power(edge_automaton("a"), 5), grid_automaton()]
        automata += [random_hda(rnd) for _ in range(40)]
        automata += [tensor_hda(random_hda(rnd), random_hda(rnd)) for _ in range(8)]
        for automaton in automata:
            carrier = automaton.carrier
            ups, downs = _step_table(carrier)
            assert {c: ups[c] + downs[c] for c in carrier.cells} == oracle_moves(carrier)

    def test_steps_are_shared(self):
        ups, downs = _step_table(tensor_power(edge_automaton("a"), 3).carrier)
        steps = {}
        moves = [move for table in (ups, downs) for out in table.values() for move in out]
        for step, _, word in moves:
            key = (type(step), step.positions, len(word))
            assert steps.setdefault(key, step) is step


class TestAdvance:
    """``_advance`` builds the glue of a label with one step's piece."""

    @staticmethod
    def check(
        automaton: Hda, max_events: int
    ) -> tuple[int, int, set[tuple[str, Ipomset]]]:
        """Compare every step ``language`` explores with the oracle's glue.

        Returns how many steps were compared, how many had no label, and
        the states reached: the unpruned exploration, with no antichain.
        """
        carrier = automaton.carrier
        moves = oracle_moves(carrier)
        stack = [
            (cell, identity(carrier.word(cell)))
            for cell in sorted(automaton.start)
            if carrier.dim(cell) <= max_events
        ]
        seen = set(stack)
        steps = cycles = 0
        while stack:
            cell, label = stack.pop()
            for step, there, word in moves[cell]:
                started = len(step.positions) if isinstance(step, UpStep) else 0
                if label.size + started > max_events:
                    continue
                steps += 1
                expected = oracle_glue(label, step_piece(word, step))
                if expected is None:
                    cycles += 1
                    with pytest.raises(InternalOrderCycle):
                        _advance(label, step, word)
                    continue
                got = _advance(label, step, word)
                assert got == expected
                assert hash(got) == hash(expected)
                assert type(got.labels) is tuple
                for field in (got.precedence, got.sources, got.targets):
                    assert type(field) is frozenset
                state = (there, got)
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
        return steps, cycles, seen

    def test_matches_oracle_glue_on_fixtures(self):
        steps, cycles, _ = self.check(tensor_power(edge_automaton("a"), 4), 4)
        assert cycles > 0
        assert steps > cycles
        steps, _, _ = self.check(grid_automaton(), 4)
        assert steps > 0

    def test_matches_oracle_glue_on_random_automata(self):
        rnd = random.Random(3303)
        total = knotted = 0
        for _ in range(40):
            steps, cycles, _ = self.check(random_hda(rnd), 4)
            total += steps
            knotted += cycles
        assert total > 1000
        assert knotted > 0


class TestAntichainPruning:
    """``language`` expands enough states to cover the unpruned exploration."""

    @staticmethod
    def cover(automaton: Hda, max_events: int) -> tuple[int, int]:
        """Check that each live reached state refines an expanded one at its cell.

        The reached states are those of :meth:`TestAdvance.check`.  A state
        is live when its label has events left to start or its cell
        accepts.  Only a state that is not live may go uncovered: it can
        only finish events, and every state it reaches so at an accepting
        cell is live and checked itself.  Returns how many steps leave a
        dominated label defined while the same step from its covering
        label raises ``InternalOrderCycle``, and how many states went
        uncovered.
        """
        _, _, reached = TestAdvance.check(automaton, max_events)
        expanded = list(_expanded(automaton, max_events))
        assert len(set(expanded)) == len(expanded)
        states = {(cell, label) for cell, label, _ in expanded}
        assert states <= reached
        at: dict[str, list[Ipomset]] = {}
        for cell, label in states:
            at.setdefault(cell, []).append(label)
        moves = oracle_moves(automaton.carrier)
        knots = exempt = 0
        for cell, label in reached - states:
            # The kernel finds the covering label; the oracle confirms it.
            cover = next(
                (m for m in at.get(cell, ()) if subsumes(label, m) is not None), None
            )
            if cover is None:
                assert label.size == max_events
                assert cell not in automaton.accept
                exempt += 1
                continue
            assert oracle_subsumes(label, cover)
            assert len(cover.precedence) < len(label.precedence)
            for step, _, word in moves[cell]:
                if not isinstance(step, UpStep):
                    continue
                if label.size + len(step.positions) > max_events:
                    continue
                try:
                    _advance(label, step, word)
                except InternalOrderCycle:
                    continue
                try:
                    _advance(cover, step, word)
                except InternalOrderCycle:
                    knots += 1
        return knots, exempt

    def test_covers_the_unpruned_exploration(self):
        knots, exempt = self.cover(tensor_power(edge_automaton("a"), 4), 4)
        # Some states of the cube have used the whole budget away from
        # the accepting corner and are left uncovered.
        assert exempt > 0
        knots += self.cover(grid_automaton(), 4)[0]
        rnd = random.Random(3304)
        for _ in range(20):
            knots += self.cover(random_hda(rnd), 4)[0]
        for _ in range(8):
            knots += self.cover(tensor_hda(random_hda(rnd), random_hda(rnd)), 4)[0]
        # Refinement does not carry definedness over: a covering label's
        # step can knot where the dominated label's step does not.
        assert knots > 0

    @staticmethod
    def refining_pairs(automaton: Hda, max_events: int) -> int:
        """Count strictly refining pairs among the labels with room at each cell."""
        at: dict[str, list[Ipomset]] = {}
        for cell, label, _ in _expanded(automaton, max_events):
            if label.size < max_events:
                at.setdefault(cell, []).append(label)
        return sum(
            low != high and oracle_subsumes(low, high)
            for labels in at.values() for low in labels for high in labels
        )

    def test_labels_with_room_form_one_antichain_per_cell(self):
        assert self.refining_pairs(tensor_power(edge_automaton("a"), 4), 4) == 0
        assert self.refining_pairs(grid_automaton(), 4) == 0
        rnd = random.Random(3304)
        assert sum(self.refining_pairs(random_hda(rnd), 4) for _ in range(20)) == 0

    def test_prunes_dominated_labels(self):
        cube = tensor_power(edge_automaton("a"), 4)
        _, _, reached = TestAdvance.check(cube, 4)
        assert len(list(_expanded(cube, 4))) < len(reached)


class TestTransitionTable:
    """``_expanded`` builds each transition and each comparison once per call."""

    def test_each_transition_and_comparison_is_made_once(self, monkeypatch):
        # Every (label, step, word) is glued once, and every (label, rival)
        # pair of the antichain is compared once, per call.
        module = sys.modules["hdalang.hda"]
        calls: dict[str, list[tuple]] = {"_advance": [], "subsumes": []}
        for name, made in calls.items():
            real = getattr(module, name)

            def counting(*args, made=made, real=real):
                made.append(args)
                return real(*args)

            monkeypatch.setattr(module, name, counting)
        rnd = random.Random(1415)
        pair = [random_hda(rnd, allow_empty_marks=False) for _ in range(2)]
        for automaton in (tensor_power(edge_automaton("a"), 4), tensor_hda(*pair)):
            for made in calls.values():
                made.clear()
            language(automaton, 4)
            assert len(calls["_advance"]) > 50
            assert len(calls["subsumes"]) > 10
            for made in calls.values():
                assert len(made) == len(set(made))

    def test_expanded_sequence_is_pinned(self):
        # The states, their order and how each was reached, pinned from the
        # exploration that glued every step afresh; no hash seed moves them.
        rnd = random.Random(1414)
        cases = [(grid_automaton(), 4), (tensor_power(edge_automaton("a"), 4), 4)]
        cases += [(random_hda(rnd, allow_empty_marks=False), 4) for _ in range(3)]
        digest = hashlib.sha256()
        count = 0
        for automaton, max_events in cases:
            for cell, label, came in _expanded(automaton, max_events):
                digest.update(repr((cell, repr(label), came and came.__name__)).encode())
                count += 1
        assert count == 753
        assert digest.hexdigest() == (
            "cf46838b27fc9bab951946d3cf6899f1b6071f14a5f27223089334c6cdbf5192"
        )


class TestNumberedLabels:
    """``_expanded`` hashes each label it builds once, to number it."""

    def test_at_most_one_hash_per_label_built(self, monkeypatch):
        module = sys.modules["hdalang.hda"]
        counts = {"hash": 0, "built": 0}
        real_hash, real_advance = Ipomset.__hash__, module._advance

        def counting_hash(label):
            counts["hash"] += 1
            return real_hash(label)

        def counting_advance(*args):
            counts["built"] += 1
            return real_advance(*args)

        automaton = tensor_power(edge_automaton("a"), 4)
        monkeypatch.setattr(Ipomset, "__hash__", counting_hash)
        monkeypatch.setattr(module, "_advance", counting_advance)
        assert sum(1 for _ in _expanded(automaton, 4)) > 100
        starts = len(automaton.start)
        assert counts["built"] > 50
        assert 0 < counts["hash"] <= counts["built"] + starts


class TestSparsePaths:
    """Two consecutive steps of one kind act as one step of that kind."""

    @staticmethod
    def merge(
        first: Step, second: Step, first_word: Word, second_word: Word
    ) -> tuple[Step, Word]:
        """The step doing ``first`` then ``second``, and its higher cell's word.

        The merged step acts on the highest cell of the two: that of the
        later up-step, or of the earlier down-step.  The middle cell has
        that cell's positions outside this outer step, in order, so the
        other step's positions are lifted through them.
        """
        if isinstance(first, UpStep):
            outer, inner, word = second.positions, first.positions, second_word
        else:
            outer, inner, word = first.positions, second.positions, first_word
        rest = [p for p in range(1, len(word) + 1) if p not in outer]
        return type(first)(outer | {rest[p - 1] for p in inner}), word

    def check(self, automaton: Hda, max_events: int) -> tuple[int, int]:
        """Merge every pair of same-kind steps from every reached state.

        Returns how many pairs were merged and how many of them raised.
        """
        _, _, reached = TestAdvance.check(automaton, max_events)
        moves = oracle_moves(automaton.carrier)
        merged = knots = 0
        for cell, label in reached:
            for first, middle, first_word in moves[cell]:
                for second, end, second_word in moves[middle]:
                    if type(second) is not type(first):
                        continue
                    step, word = self.merge(first, second, first_word, second_word)
                    started = len(step.positions) if isinstance(step, UpStep) else 0
                    if label.size + started > max_events:
                        continue
                    assert (step, end, word) in moves[cell]
                    merged += 1
                    try:
                        two = _advance(
                            _advance(label, first, first_word), second, second_word
                        )
                    except InternalOrderCycle:
                        knots += 1
                        with pytest.raises(InternalOrderCycle):
                            _advance(label, step, word)
                        continue
                    assert _advance(label, step, word) == two
        return merged, knots

    def test_merged_steps_agree_with_step_pairs(self):
        merged, knots = self.check(tensor_power(edge_automaton("a"), 4), 4)
        assert knots > 0
        merged += self.check(grid_automaton(), 4)[0]
        rnd = random.Random(3303)
        for _ in range(30):
            got = self.check(random_hda(rnd), 4)
            merged += got[0]
            knots += got[1]
        for _ in range(6):
            got = self.check(tensor_hda(random_hda(rnd), random_hda(rnd)), 4)
            merged += got[0]
            knots += got[1]
        assert merged > 1000
        assert knots > 0

    def test_language_is_that_of_all_paths(self):
        # The reference explores every path, not only sparse ones, and
        # prunes nothing.
        edge = edge_automaton("a")
        cases = [(tensor_power(edge, 5), 5), (replicate(edge, 4), 4), (grid_automaton(), 4)]
        rnd = random.Random(3305)
        cases += [(tensor_hda(random_hda(rnd), random_hda(rnd)), 4) for _ in range(10)]
        for automaton, bound in cases:
            _, _, reached = TestAdvance.check(automaton, bound)
            accepted = {label for cell, label in reached if cell in automaton.accept}
            assert language(automaton, bound) == normalize(accepted, event_bound=bound)


class TestUnrepresentablePaths:
    def test_cube_path_with_knotted_order(self):
        cube = cube_automaton()
        # Start the second and third axes together, finish the third, then
        # start the first: the fresh first-axis event must follow the
        # finished third-axis event but sits at a lower cube position than
        # the running second-axis event, so the label's total order knots.
        run = Path(
            cells=(
                "((v0|v0)|v0)",
                "((v0|e)|e)",
                "((v0|e)|v1)",
                "((e|e)|v1)",
            ),
            steps=(UpStep({1, 2}), DownStep({2}), UpStep({1})),
        )
        validate_path(cube, run)
        with pytest.raises(InternalOrderCycle):
            ev_label(cube, run)

    def test_cube_language_is_unaffected(self):
        cube = cube_automaton()
        lang = language(cube, 3)
        assert lang.generators == frozenset({from_concurrent(["a", "a", "a"])})

    def test_cube_agrees_with_path_oracle(self):
        cube = cube_automaton()
        assert is_equal(
            language(cube, 3), normalize(path_label_language(cube, 3))
        )


# --- language extraction --------------------------------------------------------


class TestLanguage:
    def test_edge(self):
        lang = language(edge_automaton("a"), 2)
        assert lang.generators == frozenset({point("a")})
        assert lang.event_bound == 2

    def test_unmarked_edge_is_empty(self):
        lang = language(edge_automaton("a", with_start=False), 2)
        assert lang.generators == frozenset()

    def test_accepting_start_includes_the_empty_run(self):
        x = unit_hda()
        lang = language(x, 2)
        assert lang.generators == frozenset({EMPTY})

    def test_square(self):
        sq = tensor_hda(edge_automaton("a"), edge_automaton("b"))
        lang = language(sq, 2)
        assert lang.generators == frozenset({from_concurrent(["a", "b"])})
        assert contains(lang, from_chain(["a", "b"]))
        assert contains(lang, from_chain(["b", "a"]))

    def test_budget_cuts_long_runs(self):
        x = grid_automaton()
        assert expand(language(x, 3), 3) < expand(language(x, 4), 4)

    def test_matches_path_oracle_on_fixtures(self):
        for automaton, bound in (
            (edge_automaton("a"), 2),
            (tensor_hda(edge_automaton("a"), edge_automaton("b")), 3),
            (grid_automaton(), 4),
        ):
            assert is_equal(
                language(automaton, bound),
                normalize(path_label_language(automaton, bound)),
            )

    def test_matches_path_oracle_on_random_automata(self):
        rnd = random.Random(702)
        for _ in range(25):
            automaton = random_hda(rnd)
            assert is_equal(
                language(automaton, 3),
                normalize(path_label_language(automaton, 3)),
            )

    def test_matches_path_oracle_on_higher_dimensional_automata(self):
        # random_hda stops at dimension two; tensors of two and three of
        # them reach dimension three and more.
        rnd = random.Random(705)

        def factor() -> Hda:
            return random_hda(
                rnd, max_vertices=4, max_edges=5, max_squares=4, allow_empty_marks=False
            )

        def high(factors: int) -> Hda:
            while True:
                automaton = factor()
                for _ in range(factors - 1):
                    automaton = tensor_hda(automaton, factor())
                if max(map(automaton.carrier.dim, automaton.carrier.cells)) >= 3:
                    return automaton

        for automaton in [high(2) for _ in range(8)] + [high(3) for _ in range(3)]:
            for bound in range(5):
                assert is_equal(
                    language(automaton, bound),
                    normalize(path_label_language(automaton, bound)),
                )

    def test_grid_members_are_exactly_ten(self):
        lang = language(grid_automaton(), 4)
        assert len(expand(lang, 4)) == 10


# --- constructions ---------------------------------------------------------------


class TestTensorHda:
    def test_negative_power_is_refused(self):
        with pytest.raises(ValueError):
            tensor_power(edge_automaton("a"), -1)

    def test_markings_pair_up(self):
        t = tensor_hda(edge_automaton("a"), edge_automaton("b"))
        assert t.start == frozenset({"(v0|v0)"})
        assert t.accept == frozenset({"(v1|v1)"})

    def test_language_is_parallel(self):
        a = edge_automaton("a")
        b = edge_automaton("b")
        lang = language(tensor_hda(a, b), 2)
        assert lang.generators == frozenset({from_concurrent(["a", "b"])})

    def test_unit_is_neutral_up_to_language(self):
        x = grid_automaton()
        t = tensor_hda(unit_hda(), x)
        assert is_equal(language(t, 4), language(x, 4))

    def test_multiple_markings_multiply(self):
        x = edge_automaton("a")
        double = Hda(x.carrier, frozenset({"v0", "v1"}), frozenset({"v1"}))
        t = tensor_hda(double, double)
        assert len(t.start) == 4
        assert len(t.accept) == 1


class TestCoproductHda:
    def test_languages_union(self):
        a = edge_automaton("a")
        b = edge_automaton("b")
        total = coproduct_hda([a, b])
        assert is_equal(
            language(total, 2), union(language(a, 2), language(b, 2))
        )

    def test_component_language_is_included(self):
        rnd = random.Random(703)
        for _ in range(10):
            parts = [random_hda(rnd) for _ in range(2)]
            total = coproduct_hda(parts)
            for part in parts:
                assert is_equal(
                    union(language(part, 3), language(total, 3)),
                    language(total, 3),
                )

    def test_empty_coproduct(self):
        total = coproduct_hda([])
        assert language(total, 2).generators == frozenset()


class TestPushoutHda:
    def test_gluing_creates_new_behaviour(self):
        apex, left, right, into_left, into_right = pushout_span()
        glued = pushout_hda(apex, left, right, into_left, into_right)
        for corner in (apex, left, right):
            assert language(corner, 4).generators == frozenset()
        lang = language(glued, 4)
        assert lang.generators == frozenset({from_chain(["a", "c"])})

    def test_leg_validation(self):
        apex, left, right, into_left, into_right = pushout_span()
        with pytest.raises(PrecubicalInvariant):
            pushout_hda(apex, left, right, {"p": "e"}, into_right)

    def test_markings_survive_the_gluing(self):
        apex, left, right, into_left, into_right = pushout_span()
        glued = pushout_hda(apex, left, right, into_left, into_right)
        assert len(glued.start) == 1
        assert len(glued.accept) == 1


class TestNegativeCounts:
    def test_language_refuses_a_negative_budget(self):
        with pytest.raises(ValueError):
            language(edge_automaton("a"), -1)

    def test_path_enumeration_refuses_a_negative_budget(self):
        with pytest.raises(ValueError):
            enumerate_accepting_paths(edge_automaton("a"), -1)

    def test_replicate_refuses_a_negative_count(self):
        with pytest.raises(ValueError):
            replicate(edge_automaton("a"), -1)


class TestReplication:
    def test_power_counts(self):
        a = edge_automaton("a")
        assert len(tensor_power(a, 0).carrier.cells) == 1
        assert len(tensor_power(a, 2).carrier.cells) == 9
        assert len(tensor_power(a, 3).carrier.cells) == 27

    def test_replicate_start_cells(self):
        a = edge_automaton("a")
        for n in range(4):
            assert start_cell_count(replicate(a, n)) == n + 1

    def test_replicate_language(self):
        a = edge_automaton("a")
        rep = replicate(a, 3)
        lang = language(rep, 3)
        expected = par_closure_bounded(normalize([point("a")]), 3)
        assert is_equal(lang, expected)

    # Criterion C07 stops at five copies; pruning makes six cheap.
    def test_replicate_six_gives_the_powers(self):
        lang = language(replicate(edge_automaton("a"), 6), 6)
        assert set(lang.generators) == {
            from_concurrent(["a"] * k) for k in range(7)
        }

    def test_sixth_tensor_power(self):
        lang = language(tensor_power(edge_automaton("a"), 6), 6)
        assert lang.generators == frozenset({from_concurrent(["a"] * 6)})

    def test_tensor_of_cubes_is_their_parallel_composition(self):
        cubes = [tensor_power(edge_automaton(x), 3) for x in "ab"]
        lang = language(tensor_hda(*cubes), 6)
        parts = [language(cube, 6) for cube in cubes]
        assert is_equal(lang, restrict(par_compose(*parts), 6))

    def test_chain_prefix_shapes(self):
        seed = edge_automaton("a", with_start=False, with_accept=True)
        stages, inclusions = replication_chain_prefix(seed, 3, "v0", "v1")
        assert [len(s.carrier.cells) for s in stages] == [3, 9, 27]
        assert [len(s.accept) for s in stages] == [1, 2, 3]
        assert len(inclusions) == 2
        for k, inc in enumerate(inclusions):
            assert validate_hda_map(
                stages[k], stages[k + 1], inc.mapping
            ) == []

    def test_chain_prefix_refuses_a_seed_with_start_cells(self):
        # Later stages carry no start cells, so no inclusion could keep them.
        seed = edge_automaton("a")
        assert len(replication_chain_prefix(seed, 1, "v0", "v1")[0]) == 1
        with pytest.raises(PrecubicalInvariant, match="start cell 'v0'"):
            replication_chain_prefix(seed, 2, "v0", "v1")

    def test_chain_prefix_language(self):
        seed = edge_automaton("a", with_start=False, with_accept=True)
        stages, inclusions = replication_chain_prefix(seed, 3, "v0", "v1")
        # The "nothing spawned yet" state of the last stage is the image
        # of the seed's base vertex along the inclusions.
        base = "v0"
        for inc in inclusions:
            base = inc(base)
        stage = stages[-1]
        marked = Hda(stage.carrier, frozenset({base}), stage.accept)
        lang = language(marked, 3)
        expected = normalize(
            [
                point("a"),
                from_concurrent(["a", "a"]),
                from_concurrent(["a", "a", "a"]),
            ]
        )
        assert is_equal(lang, expected)
