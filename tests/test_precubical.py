"""Tests for labelled precubical sets.

Core claims exercised here:

* Coface maps compose associatively, have identities, and refuse
  mismatched endpoints; ``all_cofaces`` enumerates exactly the
  label-preserving injections with an A/B split of the rest.
* ``validate_precubical`` reports missing faces, shape mismatches and
  interchange violations in pinned texts; well-formed data passes.  On
  each single corruption of the 4-cube, the grid and random carriers it
  finds a violation exactly when the definition, checked independently by
  ``oracle_is_precubical``, is broken.
* ``apply_face`` is independent of the order in which positions are
  removed, because the face family satisfies the interchange law.
* ``tensor`` multiplies cell families word-wise and refuses colliding
  cell ids; ``finite_colimit`` identifies cells along arbitrary maps
  (coequalisers can create loops), and ``coproduct`` is its diagram
  without arrows, tagging part ``i``'s cells ``"i:"``.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

import pytest

from hdalang import (
    CofaceMap,
    IllFormedDiagram,
    PositionOutOfRange,
    PrecubicalInvariant,
    PrecubicalMap,
    PrecubicalSet,
    ShapeMismatch,
    UnknownCell,
    all_cofaces,
    compose_coface,
    compose_maps,
    coproduct,
    elementary_coface,
    finite_colimit,
    identity_coface,
    tensor,
    tensor_cell_id,
    tensor_coface,
    tensor_power,
    tensor_word,
    validate_precubical,
    validate_precubical_map,
)
from hdalang.samples import edge_automaton, grid_automaton
from oracles import oracle_is_precubical, random_hda


def edge_complex(label: str = "a") -> PrecubicalSet:
    return PrecubicalSet(
        cells={"v0": (), "v1": (), "e": (label,)},
        faces={("e", 0, 1): "v0", ("e", 1, 1): "v1"},
    )


def square_complex() -> PrecubicalSet:
    cells = {
        "00": (),
        "01": (),
        "10": (),
        "11": (),
        "left": ("b",),
        "right": ("b",),
        "bottom": ("a",),
        "top": ("a",),
        "sq": ("a", "b"),
    }
    faces = {
        ("left", 0, 1): "00",
        ("left", 1, 1): "01",
        ("right", 0, 1): "10",
        ("right", 1, 1): "11",
        ("bottom", 0, 1): "00",
        ("bottom", 1, 1): "10",
        ("top", 0, 1): "01",
        ("top", 1, 1): "11",
        # Position 1 of ("a", "b") removes the "a", so those faces are
        # the b-labelled edges; position 2 gives the a-labelled ones.
        ("sq", 0, 1): "left",
        ("sq", 1, 1): "right",
        ("sq", 0, 2): "bottom",
        ("sq", 1, 2): "top",
    }
    return PrecubicalSet(cells=cells, faces=faces)


# --- coface maps ------------------------------------------------------------


class TestCofaceMap:
    def test_identity(self):
        ident = identity_coface(("a", "b"))
        assert ident.image == (1, 2)
        assert ident.part_a == frozenset()
        assert ident.part_b == frozenset()

    def test_elementary_lower_and_upper(self):
        lower = elementary_coface(("a", "b"), 0, 2)
        assert lower.source == ("a",)
        assert lower.image == (1,)
        assert lower.part_a == frozenset({2})
        upper = elementary_coface(("a", "b"), 1, 1)
        assert upper.source == ("b",)
        assert upper.image == (2,)
        assert upper.part_b == frozenset({1})

    def test_labels_must_match_along_image(self):
        with pytest.raises(ShapeMismatch):
            CofaceMap(
                source=("a",),
                target=("a", "b"),
                image=(2,),
                part_a=frozenset({1}),
                part_b=frozenset(),
            )

    @pytest.mark.parametrize(
        "image, error",
        [((), ShapeMismatch), ((1, 2), ShapeMismatch), ((3,), PositionOutOfRange)],
        ids=["too-short", "too-long", "outside-target"],
    )
    def test_image_must_fit_the_words(self, image, error):
        with pytest.raises(error):
            CofaceMap(("a",), ("a", "b"), image, frozenset(), frozenset())

    def test_elementary_position_must_be_in_range(self):
        for position in (0, 3):
            with pytest.raises(PositionOutOfRange):
                elementary_coface(("a", "b"), 0, position)

    @pytest.mark.parametrize("nu", [-1, 2, 7])
    def test_elementary_direction_must_be_zero_or_one(self, nu):
        # The same refusal, and the same text, as ``PrecubicalSet.face``.
        text = rf"^direction {nu} outside \{{0, 1\}}$"
        with pytest.raises(PositionOutOfRange, match=text):
            elementary_coface(("a", "b"), nu, 1)

    def test_image_must_increase(self):
        with pytest.raises(ShapeMismatch):
            CofaceMap(
                source=("a", "b"),
                target=("b", "a"),
                image=(2, 1),
                part_a=frozenset(),
                part_b=frozenset(),
            )

    def test_parts_must_partition_the_rest(self):
        with pytest.raises(ShapeMismatch):
            CofaceMap(
                source=("a",),
                target=("a", "b"),
                image=(1,),
                part_a=frozenset(),
                part_b=frozenset(),
            )
        with pytest.raises(ShapeMismatch):
            CofaceMap(
                source=("a",),
                target=("a", "b"),
                image=(1,),
                part_a=frozenset({2}),
                part_b=frozenset({2}),
            )

    def test_compose_transports_image_and_parts(self):
        inner = elementary_coface(("a", "b"), 0, 2)  # (a) -> (a,b)
        outer = elementary_coface(("a", "b", "c"), 1, 3)  # (a,b) -> (a,b,c)
        got = compose_coface(outer, inner)
        assert got.source == ("a",)
        assert got.target == ("a", "b", "c")
        assert got.image == (1,)
        assert got.part_a == frozenset({2})
        assert got.part_b == frozenset({3})

    def test_compose_requires_matching_endpoints(self):
        inner = elementary_coface(("a", "b"), 0, 2)
        outer = elementary_coface(("b", "c"), 0, 2)
        with pytest.raises(ShapeMismatch):
            compose_coface(outer, inner)

    def test_identity_laws(self):
        d = elementary_coface(("a", "b"), 0, 1)
        assert compose_coface(d, identity_coface(d.source)) == d
        assert compose_coface(identity_coface(d.target), d) == d

    def test_all_cofaces_counts(self):
        assert len(all_cofaces(("a",), ("a", "b"))) == 2
        assert len(all_cofaces((), ("a", "b"))) == 4
        assert len(all_cofaces(("a",), ("a", "a"))) == 4
        assert len(all_cofaces(("c",), ("a", "b"))) == 0
        assert all_cofaces(("a", "b"), ("a", "b")) == [
            identity_coface(("a", "b"))
        ]

    def test_all_cofaces_are_valid_and_distinct(self):
        found = all_cofaces(("a",), ("a", "b", "a"))
        assert len(found) == len(set(found))
        for d in found:
            assert d.source == ("a",)
            assert d.target == ("a", "b", "a")
            assert d.part_a | d.part_b == frozenset({1, 2, 3}) - set(d.image)

    def test_associativity_randomized(self):
        rnd = random.Random(601)
        words = [
            tuple(rnd.choice("ab") for _ in range(k))
            for k in (0, 1, 1, 2, 2, 3)
        ]
        checked = 0
        for u, v, w, z in itertools.product(words, repeat=4):
            if not (len(u) <= len(v) <= len(w) <= len(z)):
                continue
            for f in all_cofaces(u, v):
                for g in all_cofaces(v, w):
                    for h in all_cofaces(w, z):
                        left = compose_coface(h, compose_coface(g, f))
                        right = compose_coface(compose_coface(h, g), f)
                        assert left == right
                        checked += 1
        assert checked > 100


# --- validation -------------------------------------------------------------


class TestValidatePrecubical:
    def test_well_formed_square(self):
        x = square_complex()
        assert validate_precubical(x.cells, x.faces) == []

    def test_missing_face(self):
        problems = validate_precubical(
            {"v": (), "e": ("a",)}, {("e", 0, 1): "v"}
        )
        assert any("upper" in p or "face" in p for p in problems)
        assert problems

    def test_unknown_face_target(self):
        problems = validate_precubical(
            {"v": (), "e": ("a",)},
            {("e", 0, 1): "v", ("e", 1, 1): "ghost"},
        )
        assert problems

    def test_wrong_face_shape(self):
        problems = validate_precubical(
            {"v": (), "e": ("a",), "f": ("b",), "sq": ("a", "b")},
            {
                ("e", 0, 1): "v",
                ("e", 1, 1): "v",
                ("f", 0, 1): "v",
                ("f", 1, 1): "v",
                # Position 1 of (a,b) removes "a", leaving word ("b",).
                ("sq", 0, 1): "e",
                ("sq", 1, 1): "f",
                ("sq", 0, 2): "f",
                ("sq", 1, 2): "f",
            },
        )
        assert any("word" in p or "shape" in p for p in problems)

    def test_interchange_violation(self):
        cells = {
            "u": (),
            "v": (),
            "w": (),
            "a1": ("a",),
            "a2": ("a",),
            "b1": ("b",),
            "sq": ("a", "b"),
        }
        faces = {
            ("a1", 0, 1): "u",
            ("a1", 1, 1): "v",
            ("a2", 0, 1): "u",
            ("a2", 1, 1): "w",
            ("b1", 0, 1): "u",
            ("b1", 1, 1): "u",
            ("sq", 0, 1): "b1",
            ("sq", 1, 1): "b1",
            ("sq", 0, 2): "a1",
            ("sq", 1, 2): "a2",
        }
        assert not any(
            "word" in p for p in validate_precubical(cells, faces)
        )
        problems = validate_precubical(cells, faces)
        assert any("commute" in p for p in problems)

    def test_constructor_raises_on_violations(self):
        with pytest.raises(PrecubicalInvariant) as info:
            PrecubicalSet(cells={"e": ("a",)}, faces={})
        assert info.value.violations

    def test_empty_label_rejected(self):
        problems = validate_precubical({"e": ("",)}, {})
        assert problems

    @pytest.mark.parametrize(
        "cells, faces, problem",
        [
            ({"": ()}, {}, "cell id '' is not a non-empty string"),
            ({7: ()}, {}, "cell id 7 is not a non-empty string"),
            (
                {"v0": (), "v1": (), "e": ("a",)},
                {("e", 0, 1): "v0", ("e", 1, 1): "v1", ("ghost", 0, 1): "v0"},
                "face of unknown cell 'ghost'",
            ),
            (
                {"v0": (), "v1": (), "e": ("a",)},
                {("e", 0, 1): "v0", ("e", 1, 1): "v1", ("e", 2, 1): "v1"},
                "face ('e', 2, 1) has direction outside {0, 1}",
            ),
            (
                {"v0": (), "v1": (), "e": ("a",)},
                {("e", 0, 1): "v0", ("e", 1, 1): "v1", ("e", 0, 2): "v1"},
                "face ('e', 0, 2) position outside 1..1",
            ),
        ],
        ids=["empty-id", "non-string-id", "unknown-cell", "bad-direction", "bad-position"],
    )
    def test_reports_each_bad_cell_or_face(self, cells, faces, problem):
        assert problem in validate_precubical(cells, faces)
        with pytest.raises(PrecubicalInvariant):
            PrecubicalSet(cells, faces)

    @pytest.mark.parametrize(
        "key, problem",
        [
            (("e", 0, "1"), "face ('e', 0, '1') position outside 1..1"),
            (("e", 0, 1.0), "face ('e', 0, 1.0) position outside 1..1"),
            (("v",), "face key ('v',) is not a (cell, direction, position) triple"),
        ],
        ids=["string-position", "float-position", "short-key"],
    )
    def test_malformed_face_key_is_one_violation(self, key, problem):
        # The edge keeps both faces; ``("e", 0, 1.0)`` is equal to, and so
        # stands for, its lower face key.
        faces = {key: "v0", ("e", 1, 1): "v1"}
        faces.setdefault(("e", 0, 1), "v0")
        assert validate_precubical({"v0": (), "v1": (), "e": ("a",)}, faces) == [problem]
        with pytest.raises(PrecubicalInvariant):
            PrecubicalSet({"v0": (), "v1": (), "e": ("a",)}, faces)

    @pytest.mark.parametrize(
        "cells, faces, problem",
        [
            ({"e": 5}, {}, "cell 'e' has a word that is not a sequence: 5"),
            ({"e": None}, {}, "cell 'e' has a word that is not a sequence: None"),
            (
                {"v": (), "e": ("a",)},
                {("e", 0, 1): ["v"], ("e", 1, 1): "v"},
                "face ('e', 0, 1) points at unknown cell ['v']",
            ),
        ],
        ids=["int-word", "none-word", "unhashable-target"],
    )
    def test_unusable_word_or_target_is_a_violation(self, cells, faces, problem):
        assert validate_precubical(cells, faces) == [problem]
        with pytest.raises(PrecubicalInvariant) as raised:
            PrecubicalSet(cells, faces)
        assert raised.value.violations == (problem,)

    @pytest.mark.parametrize(
        "cells, problems",
        [
            ({"v": (), "e": deque(["a"])}, []),
            ({"v": deque(), "e": ("a",)}, []),
            (
                {"v": ["b"], "e": deque(["a"])},
                [
                    "face ('e', 0, 1) should have word () but 'v' has ('b',)",
                    "face ('e', 1, 1) should have word () but 'v' has ('b',)",
                    "cell 'v' is missing face (0, 1)",
                    "cell 'v' is missing face (1, 1)",
                ],
            ),
        ],
        ids=["unsliceable-word", "word-unequal-to-its-tuple", "wrong-face-word"],
    )
    def test_sequence_words_are_judged_as_tuples(self, cells, problems):
        # Each call gives what the same words as tuples give.
        faces = {("e", 0, 1): "v", ("e", 1, 1): "v"}
        tuples = {cid: tuple(word) for cid, word in cells.items()}
        assert validate_precubical(cells, faces) == problems
        assert validate_precubical(tuples, faces) == problems


def corruptions(carrier: PrecubicalSet):
    """Each single corruption of a valid carrier, as ``(kind, cells, faces)``.

    Kinds: a face deleted; a face retargeted to a cell of another word;
    the lower and upper faces at one position swapped, which breaks
    interchange unless the two are equal or no coface sees them; one
    letter emptied; a face key replaced by its float-position twin, which
    is equal to it as a dict key.
    """
    cells, faces = carrier.cells, carrier.faces
    for key, target in faces.items():
        yield "delete", cells, {k: v for k, v in faces.items() if k != key}
        wrong = next((c for c in sorted(cells) if cells[c] != cells[target]), None)
        if wrong is not None:
            yield "retarget", cells, {**faces, key: wrong}
        cid, nu, pos = key
        twin = (cid, nu, float(pos))
        yield "float-twin", cells, {twin if k == key else k: v for k, v in faces.items()}
        if nu == 0 and faces[(cid, 1, pos)] != target:
            yield "swap", cells, {**faces, key: faces[(cid, 1, pos)], (cid, 1, pos): target}
    for cid, word in cells.items():
        for k in range(len(word)):
            yield "empty-letter", {**cells, cid: word[:k] + ("",) + word[k + 1 :]}, faces


class TestAgainstDefinition:
    """``validate_precubical`` refuses exactly what the definition refuses."""

    def test_each_corruption_matches_the_oracle(self):
        rnd = random.Random(1602)
        carriers = [tensor_power(edge_automaton("a"), 4).carrier, grid_automaton().carrier]
        carriers += [random_hda(rnd).carrier for _ in range(20)]
        made: dict[str, int] = {}
        broken_swaps = 0
        for carrier in carriers:
            assert oracle_is_precubical(carrier.cells, carrier.faces)
            assert validate_precubical(carrier.cells, carrier.faces) == []
            for kind, cells, faces in corruptions(carrier):
                problems = validate_precubical(cells, faces)
                assert bool(problems) == (not oracle_is_precubical(cells, faces)), kind
                made[kind] = made.get(kind, 0) + 1
                if kind == "swap":
                    broken_swaps += bool(problems)
                else:
                    assert problems, kind
        assert min(made.values()) > 100
        assert len(made) == 5
        # Each of the 4-cube's 108 swaps breaks interchange somewhere.
        assert broken_swaps >= 108


class TestPrecubicalSet:
    def test_cell_accessors(self):
        x = square_complex()
        assert x.dim("sq") == 2
        assert x.word("sq") == ("a", "b")
        assert x.dimension == 2
        assert sorted(x.cells_of_dim(1)) == ["bottom", "left", "right", "top"]

    def test_face_lookup(self):
        x = square_complex()
        assert x.face("sq", 0, 1) == "left"
        assert x.face("sq", 1, 2) == "top"
        with pytest.raises(UnknownCell):
            x.face("ghost", 0, 1)
        with pytest.raises(PositionOutOfRange):
            x.face("sq", 0, 3)
        with pytest.raises(PositionOutOfRange):
            x.face("sq", 2, 1)

    def test_word_of_unknown_cell(self):
        with pytest.raises(UnknownCell):
            square_complex().word("ghost")

    def test_apply_face_order_independent(self):
        x = square_complex()
        # Corner reached by removing both positions, in either order.
        assert x.apply_face("sq", lower={1, 2}, upper=set()) == "00"
        assert x.apply_face("sq", lower=set(), upper={1, 2}) == "11"
        assert x.apply_face("sq", lower={1}, upper={2}) == "01"
        assert x.apply_face("sq", lower={2}, upper={1}) == "10"

    def test_apply_face_identity(self):
        x = square_complex()
        assert x.apply_face("sq", lower=set(), upper=set()) == "sq"

    def test_apply_face_rejects_overlap_and_range(self):
        x = square_complex()
        with pytest.raises(PositionOutOfRange):
            x.apply_face("sq", lower={1}, upper={1})
        with pytest.raises(PositionOutOfRange):
            x.apply_face("sq", lower={3}, upper=set())


# --- maps -------------------------------------------------------------------


class TestPrecubicalMap:
    def test_identity_map_is_valid(self):
        x = square_complex()
        mapping = {c: c for c in x.cells}
        assert validate_precubical_map(x, x, mapping) == []
        PrecubicalMap(source=x, target=x, mapping=mapping)

    def test_word_preservation_checked(self):
        x = edge_complex("a")
        y = edge_complex("b")
        mapping = {"v0": "v0", "v1": "v1", "e": "e"}
        problems = validate_precubical_map(x, y, mapping)
        assert any("word" in p for p in problems)

    def test_face_commutation_checked(self):
        x = edge_complex()
        mapping = {"v0": "v1", "v1": "v0", "e": "e"}
        problems = validate_precubical_map(x, x, mapping)
        assert any("face" in p for p in problems)

    def test_missing_cell_checked(self):
        x = edge_complex()
        problems = validate_precubical_map(x, x, {"v0": "v0"})
        assert problems

    @pytest.mark.parametrize(
        "extra, problem",
        [
            ({"ghost": "v0"}, "mapping defined on unknown cell 'ghost'"),
            ({"v0": "ghost"}, "cell 'v0' maps to unknown cell 'ghost'"),
        ],
        ids=["unknown-source-cell", "unknown-image"],
    )
    def test_unknown_cells_checked(self, extra, problem):
        x = edge_complex()
        mapping = {c: c for c in x.cells} | extra
        assert problem in validate_precubical_map(x, x, mapping)
        with pytest.raises(PrecubicalInvariant):
            PrecubicalMap(source=x, target=x, mapping=mapping)

    def test_compose_maps(self):
        x = edge_complex()
        ident = PrecubicalMap(source=x, target=x, mapping={c: c for c in x.cells})
        got = compose_maps(ident, ident)
        assert got.mapping == ident.mapping

    def test_compose_maps_requires_matching_endpoints(self):
        x, y = edge_complex("a"), edge_complex("b")
        f = PrecubicalMap(source=x, target=x, mapping={c: c for c in x.cells})
        g = PrecubicalMap(source=y, target=y, mapping={c: c for c in y.cells})
        with pytest.raises(IllFormedDiagram):
            compose_maps(g, f)

    def test_map_is_callable(self):
        x = edge_complex()
        f = PrecubicalMap(source=x, target=x, mapping={c: c for c in x.cells})
        assert f("e") == "e"


# --- tensor -----------------------------------------------------------------


class TestTensor:
    def test_words_concatenate(self):
        assert tensor_word(("a",), ("b", "c")) == ("a", "b", "c")
        d = tensor_coface(
            elementary_coface(("a",), 0, 1), identity_coface(("b",))
        )
        assert d.source == ("b",)
        assert d.target == ("a", "b")
        assert d.part_a == frozenset({1})

    def test_edge_square(self):
        x = edge_complex("a")
        y = edge_complex("b")
        t = tensor(x, y)
        assert len(t.cells) == 9
        assert t.word(tensor_cell_id("e", "e")) == ("a", "b")
        # Left block varies in the low positions.
        assert t.face(tensor_cell_id("e", "e"), 0, 1) == tensor_cell_id("v0", "e")
        assert t.face(tensor_cell_id("e", "e"), 1, 2) == tensor_cell_id("e", "v1")

    def test_cell_count_is_a_product(self):
        rnd = random.Random(602)
        for _ in range(10):
            x = random_hda(rnd).carrier
            y = random_hda(rnd).carrier
            assert len(tensor(x, y).cells) == len(x.cells) * len(y.cells)

    def test_unit_is_neutral_on_cells(self):
        unit = PrecubicalSet(cells={"u": ()}, faces={})
        x = square_complex()
        left = tensor(unit, x)
        assert {tensor_cell_id("u", c) for c in x.cells} == set(left.cells)
        for c in x.cells:
            assert left.word(tensor_cell_id("u", c)) == x.word(c)

    def test_id_collision_is_rejected(self):
        # ("a|b", "c") and ("a", "b|c") both give "(a|b|c)".
        x = PrecubicalSet(cells={"a|b": (), "a": ()}, faces={})
        y = PrecubicalSet(cells={"c": (), "b|c": ()}, faces={})
        with pytest.raises(PrecubicalInvariant, match="collision"):
            tensor(x, y)

    def test_tensor_validates(self):
        x = square_complex()
        y = edge_complex()
        t = tensor(x, y)
        assert validate_precubical(t.cells, t.faces) == []


# --- coproduct and colimits ---------------------------------------------------


class TestCoproduct:
    def test_tags_and_injections(self):
        x = edge_complex("a")
        y = edge_complex("b")
        total, (into_x, into_y) = coproduct([x, y])
        assert len(total.cells) == 6
        assert into_x("e") == "0:e"
        assert into_y("e") == "1:e"
        assert validate_precubical_map(x, total, into_x.mapping) == []

    def test_empty_list(self):
        total, injections = coproduct([])
        assert total.cells == {}
        assert injections == []


class TestFiniteColimit:
    def test_coequalizer_makes_a_loop(self):
        pt = PrecubicalSet(cells={"p": ()}, faces={})
        x = edge_complex()
        colim, cocones = finite_colimit(
            [pt, x],
            [(0, 1, {"p": "v0"}), (0, 1, {"p": "v1"})],
        )
        assert len(colim.cells) == 2
        loop_vertex = cocones[0]("p")
        assert colim.face("1:e", 0, 1) == loop_vertex
        assert colim.face("1:e", 1, 1) == loop_vertex

    def test_no_morphisms_is_a_coproduct(self):
        x = edge_complex("a")
        y = edge_complex("b")
        colim, cocones = finite_colimit([x, y], [])
        total, injections = coproduct([x, y])
        assert colim.cells == total.cells
        assert colim.faces == total.faces
        assert [c.mapping for c in cocones] == [i.mapping for i in injections]

    def test_pushout_of_edges_shares_a_vertex(self):
        pt = PrecubicalSet(cells={"p": ()}, faces={})
        x = edge_complex("a")
        y = edge_complex("c")
        colim, cocones = finite_colimit(
            [pt, x, y],
            [(0, 1, {"p": "v1"}), (0, 2, {"p": "v0"})],
        )
        assert len(colim.cells) == 5
        assert cocones[1]("v1") == cocones[2]("v0") == cocones[0]("p")
        assert cocones[1]("v1") == "0:p"

    def test_cocones_commute_with_the_diagram(self):
        rnd = random.Random(603)
        for _ in range(20):
            x = random_hda(rnd).carrier
            vertices = sorted(x.cells_of_dim(0))
            if not vertices:
                continue
            pt = PrecubicalSet(cells={"p": ()}, faces={})
            a = rnd.choice(vertices)
            b = rnd.choice(vertices)
            colim, cocones = finite_colimit(
                [pt, x],
                [(0, 1, {"p": a}), (0, 1, {"p": b})],
            )
            assert validate_precubical(colim.cells, colim.faces) == []
            assert cocones[1](a) == cocones[0]("p") == cocones[1](b)
            assert validate_precubical_map(x, colim, cocones[1].mapping) == []

    def test_bad_object_index(self):
        x = edge_complex()
        with pytest.raises(IllFormedDiagram):
            finite_colimit([x], [(0, 5, {"v0": "v0"})])

    def test_bad_mapping(self):
        x = edge_complex()
        with pytest.raises(IllFormedDiagram):
            finite_colimit([x, x], [(0, 1, {"v0": "e"})])

    def test_incomplete_mapping(self):
        x = edge_complex()
        with pytest.raises(IllFormedDiagram):
            finite_colimit([x, x], [(0, 1, {"v0": "v0"})])

    def test_merging_different_words_is_rejected(self):
        x = edge_complex("a")
        y = edge_complex("b")
        # Identify an a-edge with a b-edge via two maps out of an edge:
        # the mapping itself is word-checked, so this is caught early.
        with pytest.raises(IllFormedDiagram):
            finite_colimit([x, x, y], [(0, 1, {"v0": "v0", "v1": "v1", "e": "e"}),
                                       (0, 2, {"v0": "v0", "v1": "v1", "e": "e"})])
