"""Small ready-made automata and ipomsets used in tests, docs and the CLI.

The centrepiece is :func:`grid_automaton`, a two-dimensional automaton
whose bounded language works out to exactly ten pomsets; it exercises
every feature at once: concurrency squares, an interleaving-only region,
and two accepting cells reached by different event mixes.
"""

from __future__ import annotations

from hdalang.hda import Hda
from hdalang.ipomset import Ipomset
from hdalang.precubical import PrecubicalSet


def edge_automaton(
    label: str = "a", *, with_start: bool = True, with_accept: bool = True
) -> Hda:
    """A single labelled edge; optionally marked at its endpoints.

    With both marks its bounded language is the ideal of the one-event
    ipomset ``(label)``.
    """
    carrier = PrecubicalSet(
        {"v0": (), "v1": (), "e": (label,)},
        {("e", 0, 1): "v0", ("e", 1, 1): "v1"},
    )
    return Hda(
        carrier,
        frozenset({"v0"} if with_start else ()),
        frozenset({"v1"} if with_accept else ()),
    )


def grid_automaton() -> Hda:
    """A 3x3 vertex grid with two filled squares and two accepting cells.

    Geometry (columns left to right, rows bottom to top)::

        v02 --b2--> v12             v22
         ^           ^               ^
         c0          c1              c2
         |           |               |
        v01 --b1--> v11 --d1-->     v21
         ^           ^               ^
         a0   [ba]   a1     [da]     a2
         |           |               |
        v00 --b0--> v10 --d0-->     v20

    The two bottom squares are filled (``b`` with ``a``, then ``d`` with
    ``a``); the top-right region has no ``d`` edge at the top, so ``c``
    there only happens after ``d``.  The start is the bottom-left vertex;
    the accepting cells are the top-middle and top-right vertices.
    """
    cells = {f"v{col}{row}": () for col in range(3) for row in range(3)}
    # Each edge and square by its word and its faces in row order, (0, 1),
    # (1, 1), (0, 2), (1, 2): an edge goes from its unstarted to its
    # finished end.  b spans columns 0->1 and d 1->2, a rows 0->1 and c
    # rows 1->2; a square runs its horizontal letter, then a.
    rows = {
        "b0": ("b", "v00 v10"), "b1": ("b", "v01 v11"),
        "d0": ("d", "v10 v20"), "d1": ("d", "v11 v21"), "b2": ("b", "v02 v12"),
        "a0": ("a", "v00 v01"), "c0": ("c", "v01 v02"), "a1": ("a", "v10 v11"),
        "c1": ("c", "v11 v12"), "a2": ("a", "v20 v21"), "c2": ("c", "v21 v22"),
        "sq_ba": ("ba", "a0 a1 b0 b1"), "sq_da": ("da", "a1 a2 d0 d1"),
    }
    faces: dict[tuple[str, int, int], str] = {}
    for cid, (word, row) in rows.items():
        cells[cid] = tuple(word)
        for slot, face in enumerate(row.split()):
            faces[cid, slot % 2, slot // 2 + 1] = face

    return Hda(
        PrecubicalSet(cells, faces),
        frozenset({"v00"}),
        frozenset({"v12", "v22"}),
    )


def pushout_span() -> tuple[Hda, Hda, Hda, dict[str, str], dict[str, str]]:
    """A span whose three corners all have empty languages.

    The apex is an unmarked vertex; the left automaton is an ``a`` edge
    with only a start, the right a ``c`` edge with only an accept.  The
    legs send the apex to the left automaton's final vertex and the right
    automaton's initial vertex, so the pushout concatenates the edges and
    accepts exactly the sequential behaviour ``a`` then ``c`` -- a language
    strictly larger than the union of the corners'.

    Returns:
        ``(apex, left, right, into_left, into_right)``.
    """
    apex = Hda(PrecubicalSet({"p": ()}, {}), frozenset(), frozenset())
    left = edge_automaton("a", with_start=True, with_accept=False)
    right = edge_automaton("c", with_start=False, with_accept=True)
    return apex, left, right, {"p": "v1"}, {"p": "v0"}


def two_plus_two_ipomset() -> Ipomset:
    """Two disjoint chains ``a`` before ``b``, mutually concurrent.

    The smallest precedence order that is *not* an interval order; feeding
    it to the interval recogniser returns a witness quadruple.
    """
    return Ipomset(
        labels=("a", "b", "a", "b"),
        precedence=frozenset({(0, 1), (2, 3)}),
        sources=frozenset(),
        targets=frozenset(),
    )
