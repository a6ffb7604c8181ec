"""Tests for higher-dimensional automata and their languages.

Core claims exercised here:

* Path validation ties steps to the carrier's face maps; ``ev_label``
  takes one closed-form step per path step and respects path
  concatenation.
* The closed-form step equals the oracle's glue of the label with the
  step's piece, and fails exactly when that glue has no canonical form.
* ``language`` agrees with the brute-force path-enumeration oracle on
  every fixture and on a batch of randomized automata.
* Some geometrically valid paths revisit axes in an order their own
  precedence contradicts; they have no canonical label, are reported
  via ``InternalOrderCycle``, and never affect the language.
* The constructions (tensor, coproduct, pushout, replication, chain
  prefixes) produce the documented markings, cell counts and languages.
"""

from __future__ import annotations

import random

import pytest

from hdalang import (
    DownStep,
    EMPTY,
    Hda,
    HdaMap,
    InternalOrderCycle,
    Path,
    PrecubicalInvariant,
    PrecubicalSet,
    UnknownCell,
    UpStep,
    branching_degree,
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
    point,
    pushout_hda,
    replicate,
    replication_chain_prefix,
    start_cell_count,
    tensor_hda,
    tensor_power,
    union,
    unit_hda,
    validate_hda_map,
    validate_path,
)
from hdalang.hda import _advance, _moves
from hdalang.samples import edge_automaton, grid_automaton, pushout_span
from oracles import oracle_glue, path_label_language, random_hda, step_piece


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


class TestAdvance:
    """``_advance`` builds the glue of a label with one step's piece."""

    @staticmethod
    def check(automaton: Hda, max_events: int) -> tuple[int, int]:
        """Compare every step ``language`` explores with the oracle's glue.

        Returns how many steps were compared and how many had no label.
        """
        carrier = automaton.carrier
        moves = _moves(carrier)
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
        return steps, cycles

    def test_matches_oracle_glue_on_fixtures(self):
        steps, cycles = self.check(tensor_power(edge_automaton("a"), 4), 4)
        assert cycles > 0
        assert steps > cycles
        steps, _ = self.check(grid_automaton(), 4)
        assert steps > 0

    def test_matches_oracle_glue_on_random_automata(self):
        rnd = random.Random(3303)
        total = knotted = 0
        for _ in range(40):
            steps, cycles = self.check(random_hda(rnd), 4)
            total += steps
            knotted += cycles
        assert total > 1000
        assert knotted > 0


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

    def test_grid_members_are_exactly_ten(self):
        lang = language(grid_automaton(), 4)
        assert len(expand(lang, 4)) == 10


# --- constructions ---------------------------------------------------------------


class TestTensorHda:
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


class TestBranchingDegree:
    def test_edge_vertices(self):
        x = edge_automaton("a")
        assert branching_degree(x, "v0") == 1
        assert branching_degree(x, "v1") == 1
        assert branching_degree(x, "e") == 0

    def test_grid_shared_edge(self):
        x = grid_automaton()
        assert branching_degree(x, "a1") == 2
        assert branching_degree(x, "a0") == 1
        assert branching_degree(x, "v00") == 2

    def test_unknown_cell(self):
        with pytest.raises(UnknownCell):
            branching_degree(edge_automaton("a"), "ghost")
