"""Labelled precubical sets: cells, faces, cofaces, tensor and colimits.

A precubical set is a collection of named cells, each shaped by a *word*
(the tuple of event labels the cell runs concurrently; the word's length
is the cell's dimension), together with face assignments.  Face
``(cell, nu, i)`` names the cell one dimension down obtained by deleting
position ``i`` (1-based): ``nu = 0`` is the lower face, where that event
has not yet started, and ``nu = 1`` the upper face, where it has finished.
Faces must satisfy the usual cubical interchange law, which makes
simultaneous deletion of any position set well defined.

Coface maps run the other way -- they embed a small word into a larger one
and record, for the skipped positions, whether the corresponding event is
taken as unstarted (``part_a``) or finished (``part_b``).  They compose
like injections, and every iterated elementary face equals exactly one
coface.

The module also provides the tensor product (concatenating words,
pairing cells) and finite colimits computed by quotienting a disjoint
union, with coproducts as the colimits of diagrams without arrows;
colimits are how automata are stitched together from smaller pieces.

Checks happen where data enters the library: the public
:class:`PrecubicalSet` and :class:`PrecubicalMap` constructors and the
parsers run every check.  Results the library builds from checked values
(tensors, colimits and their cocones) are valid by construction and skip
them; only the arrows a caller hands to a colimit are checked again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import chain, combinations
from typing import Iterable, Mapping, Sequence

from hdalang.ipomset import _unchecked

Word = tuple[str, ...]
FaceKey = tuple[str, int, int]


# --- errors -------------------------------------------------------------------


class PrecubicalError(ValueError):
    """Base class for precubical-set domain errors."""


class ShapeMismatch(PrecubicalError):
    """Coface composition attempted across incompatible words."""


class UnknownCell(PrecubicalError):
    """An operation referred to a cell id that is not present."""


class PositionOutOfRange(PrecubicalError):
    """A face position lies outside ``1..dimension``, or a direction outside {0, 1}."""


class IllFormedDiagram(PrecubicalError):
    """A colimit diagram has bad endpoints or an invalid morphism."""


class PrecubicalInvariant(PrecubicalError):
    """A precubical set violates a structural invariant.

    Attributes:
        violations: human-readable descriptions, one per offence.
    """

    def __init__(self, violations: Sequence[str]):
        super().__init__("; ".join(violations))
        self.violations = tuple(violations)


# --- coface maps -----------------------------------------------------------------


@dataclass(frozen=True)
class CofaceMap:
    """An embedding of one word into another with a start/finish verdict.

    Attributes:
        source: the smaller word.
        target: the larger word.
        image: for each source position (1-based, in order), the target
            position it lands on; strictly increasing with matching labels.
        part_a: target positions outside the image whose event is
            *unstarted* under this embedding.
        part_b: target positions outside the image whose event is
            *finished*.
    """

    source: Word
    target: Word
    image: tuple[int, ...]
    part_a: frozenset[int]
    part_b: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", tuple(self.source))
        object.__setattr__(self, "target", tuple(self.target))
        object.__setattr__(self, "image", tuple(self.image))
        object.__setattr__(self, "part_a", frozenset(self.part_a))
        object.__setattr__(self, "part_b", frozenset(self.part_b))
        m, n = len(self.source), len(self.target)
        if len(self.image) != m:
            raise ShapeMismatch("image must list one target position per source position")
        if any(not 1 <= p <= n for p in self.image):
            raise PositionOutOfRange(f"image positions {self.image} exceed 1..{n}")
        if any(p >= q for p, q in zip(self.image, self.image[1:])):
            raise ShapeMismatch(f"image positions {self.image} are not strictly increasing")
        for k, p in enumerate(self.image):
            if self.source[k] != self.target[p - 1]:
                raise ShapeMismatch(
                    f"label {self.source[k]!r} at source position {k + 1} does not "
                    f"match {self.target[p - 1]!r} at target position {p}"
                )
        rest = frozenset(range(1, n + 1)) - frozenset(self.image)
        if self.part_a | self.part_b != rest or self.part_a & self.part_b:
            raise ShapeMismatch(
                "part_a and part_b must partition the positions outside the image"
            )


def identity_coface(word: Word) -> CofaceMap:
    """The identity embedding of a word into itself."""
    n = len(word)
    return CofaceMap(word, word, tuple(range(1, n + 1)), frozenset(), frozenset())


def elementary_coface(target: Word, nu: int, position: int) -> CofaceMap:
    """The coface that skips exactly one position of ``target``.

    ``nu = 0`` marks the skipped event unstarted, ``nu = 1`` finished;
    this is the coface counterpart of the elementary face ``(nu, position)``,
    and refuses the same directions and positions.
    """
    if nu not in (0, 1):
        raise PositionOutOfRange(f"direction {nu!r} outside {{0, 1}}")
    n = len(target)
    if not 1 <= position <= n:
        raise PositionOutOfRange(f"position {position} outside 1..{n}")
    source = target[: position - 1] + target[position:]
    image = tuple(p for p in range(1, n + 1) if p != position)
    skipped = frozenset({position})
    if nu == 0:
        return CofaceMap(source, target, image, skipped, frozenset())
    return CofaceMap(source, target, image, frozenset(), skipped)


def compose_coface(outer: CofaceMap, inner: CofaceMap) -> CofaceMap:
    """Compose two cofaces: first embed along ``inner``, then ``outer``.

    Positions skipped by ``inner`` keep their verdict but are re-indexed
    through ``outer``; positions skipped by ``outer`` keep theirs as is.

    Raises:
        ShapeMismatch: ``inner``'s target is not ``outer``'s source.
    """
    if inner.target != outer.source:
        raise ShapeMismatch(
            f"cannot compose: inner target {inner.target} differs from "
            f"outer source {outer.source}"
        )
    image = tuple(outer.image[p - 1] for p in inner.image)
    part_a = frozenset(outer.image[p - 1] for p in inner.part_a) | outer.part_a
    part_b = frozenset(outer.image[p - 1] for p in inner.part_b) | outer.part_b
    return CofaceMap(inner.source, outer.target, image, part_a, part_b)


def all_cofaces(source: Word, target: Word) -> list[CofaceMap]:
    """Every coface from ``source`` to ``target``, deterministically ordered.

    There is one per label-preserving increasing injection of positions and
    per two-way split of the skipped positions.
    """
    m, n = len(source), len(target)
    out: list[CofaceMap] = []
    for positions in combinations(range(1, n + 1), m):
        if any(source[k] != target[p - 1] for k, p in enumerate(positions)):
            continue
        rest = [p for p in range(1, n + 1) if p not in positions]
        for bits in range(1 << len(rest)):
            part_a = frozenset(p for k, p in enumerate(rest) if not bits >> k & 1)
            part_b = frozenset(p for k, p in enumerate(rest) if bits >> k & 1)
            out.append(CofaceMap(source, target, tuple(positions), part_a, part_b))
    return out


def tensor_word(u: Word, v: Word) -> Word:
    """Concatenation of words, the monoidal product on shapes."""
    return tuple(u) + tuple(v)


def tensor_coface(d: CofaceMap, e: CofaceMap) -> CofaceMap:
    """The coface acting as ``d`` on a left block and ``e`` on a right block."""
    shift = len(d.target)
    return CofaceMap(
        tensor_word(d.source, e.source),
        tensor_word(d.target, e.target),
        d.image + tuple(p + shift for p in e.image),
        d.part_a | frozenset(p + shift for p in e.part_a),
        d.part_b | frozenset(p + shift for p in e.part_b),
    )


# --- precubical sets ----------------------------------------------------------


def validate_precubical(
    cells: Mapping[str, Word], faces: Mapping[FaceKey, str]
) -> list[str]:
    """Check precubical-set invariants; return violation descriptions.

    An empty list means the data is a well-formed precubical set: every
    cell of dimension ``d`` has all ``2 d`` elementary faces, each face has
    the word of its cell with one position deleted, and lower/upper faces
    commute per the cubical interchange law.

    Cell ids and words are judged one by one only when a bulk type test
    fails; sequence words are then judged as tuples.  One walk over
    ``faces`` words each bad face and files each good one as
    ``rows[cell][2 p - 2 + nu]``, and distinct keys fill distinct slots.
    Missing faces are listed after a fault or when the faces do not number
    the slots; otherwise interchange is checked on the rows.
    """
    problems: list[str] = []
    words, deletions = cells.values(), _deletions
    letters = [*chain.from_iterable(words)] if {tuple} >= {*map(type, words)} else [None]
    if not (all(cells) and all(letters) and {str} >= {*map(type, cells), *map(type, letters)}):
        for cid, word in cells.items():
            if not isinstance(cid, str) or not cid:
                problems.append(f"cell id {cid!r} is not a non-empty string")
            if not isinstance(word, Sequence):
                problems.append(f"cell {cid!r} has a word that is not a sequence: {word!r}")
            elif any(not isinstance(ell, str) or not ell for ell in word):
                problems.append(f"cell {cid!r} has a word with an invalid letter: {word}")
        if not all(isinstance(word, Sequence) for word in words):
            return problems  # the checks below take each word's length and slices
        cells = {cid: tuple(word) for cid, word in cells.items()}
        deletions = _deletions.__wrapped__  # a bad letter may be unhashable

    rows = {cid: [None] * (2 * len(word)) for cid, word in cells.items()}
    minus = {cid: deletions(word) for cid, word in cells.items()}
    for key, tgt in faces.items():
        try:
            cid, nu, pos = key
        except (TypeError, ValueError):
            problems.append(f"face key {key!r} is not a (cell, direction, position) triple")
            continue
        cut = minus.get(cid)
        if cut is None:
            problems.append(f"face of unknown cell {cid!r}")
            continue
        if nu not in (0, 1):
            problems.append(f"face ({cid!r}, {nu}, {pos}) has direction outside {{0, 1}}")
        if not isinstance(pos, int) or not 1 <= pos <= len(cut):
            problems.append(f"face ({cid!r}, {nu}, {pos!r}) position outside 1..{len(cut)}")
            continue
        try:
            found = cells[tgt]
        except (KeyError, TypeError):
            problems.append(f"face ({cid!r}, {nu}, {pos}) points at unknown cell {tgt!r}")
            continue
        if found != cut[pos - 1]:
            problems.append(
                f"face ({cid!r}, {nu}, {pos}) should have word {cut[pos - 1]} "
                f"but {tgt!r} has {found}"
            )
        # A face with a bad direction is already a fault, so its slot is moot.
        rows[cid][2 * pos - 1 if nu else 2 * pos - 2] = tgt

    if problems or len(faces) != sum(map(len, rows.values())):
        return problems + [
            f"cell {cid!r} is missing face ({nu}, {pos})"
            for cid, word in cells.items() for nu in (0, 1) for pos in range(1, len(word) + 1)
            if (cid, nu, pos) not in faces
        ]
    for cid, row in rows.items():
        for a, b, e, law in _interchange(len(row) // 2):
            if rows[row[a]][b] != rows[row[b]][e]:
                nu, i, mu, j = law
                problems.append(
                    f"faces of {cid!r} at positions ({nu},{i}) and ({mu},{j}) do not "
                    f"commute: {rows[row[a]][b]!r} != {rows[row[b]][e]!r}"
                )
    return problems


@lru_cache(maxsize=1 << 12)
def _deletions(word: Word) -> tuple[Word, ...]:
    """``word`` with each position deleted in turn; bounded, as words are caller data."""
    return tuple(word[:p] + word[p + 1 :] for p in range(len(word)))


@cache
def _interchange(d: int) -> tuple[tuple[int, int, int, tuple[int, int, int, int]], ...]:
    """The interchange laws of a ``d``-cell, each as ``(a, b, e, (nu, i, mu, j))``.

    For ``i < j``, deleting ``(mu, j)`` then ``(nu, i)`` equals deleting
    ``(nu, i)`` then ``(mu, j - 1)``: ``rows[row[a]][b] == rows[row[b]][e]``.
    """
    return tuple(
        (2 * j - 2 + mu, 2 * i - 2 + nu, 2 * j - 4 + mu, (nu, i, mu, j))
        for i, j in combinations(range(1, d + 1), 2) for nu in (0, 1) for mu in (0, 1)
    )


@dataclass(frozen=True)
class PrecubicalSet:
    """An immutable, validated precubical set.

    The constructor runs :func:`validate_precubical`; tensors and colimits
    of checked sets are valid by construction and skip it.

    Attributes:
        cells: cell id to word (the word's length is the dimension).
        faces: ``(cell, nu, position)`` to the id of that elementary face.
    """

    cells: dict[str, Word]
    faces: dict[FaceKey, str]

    def __post_init__(self) -> None:
        # A word that is not a sequence stays, to be reported (tuples skip the slow ABC check).
        cells = {cid: tuple(w) if isinstance(w, (tuple, Sequence)) else w
                 for cid, w in self.cells.items()}
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "faces", dict(self.faces))
        problems = validate_precubical(self.cells, self.faces)
        if problems:
            raise PrecubicalInvariant(problems)

    # -- queries --

    def word(self, cell: str) -> Word:
        if cell not in self.cells:
            raise UnknownCell(f"no cell named {cell!r}")
        return self.cells[cell]

    def dim(self, cell: str) -> int:
        return len(self.word(cell))

    @property
    def dimension(self) -> int:
        """Largest cell dimension (0 for the empty precubical set)."""
        return max((len(w) for w in self.cells.values()), default=0)

    def cells_of_dim(self, d: int) -> list[str]:
        return sorted(c for c, w in self.cells.items() if len(w) == d)

    def sorted_cells(self) -> list[str]:
        """All cell ids, ordered by dimension then id."""
        return sorted(self.cells, key=lambda c: (len(self.cells[c]), c))

    def face(self, cell: str, nu: int, position: int) -> str:
        """The elementary face; raises for bad cells, directions or positions."""
        if nu == 0:
            return self.apply_face(cell, lower=(position,))
        if nu == 1:
            return self.apply_face(cell, upper=(position,))
        raise PositionOutOfRange(f"direction {nu!r} outside {{0, 1}}")

    def apply_face(
        self, cell: str, lower: Iterable[int] = (), upper: Iterable[int] = ()
    ) -> str:
        """Delete several positions at once: ``lower`` unstarted, ``upper`` finished.

        Elementary faces are applied from the highest position down so the
        remaining positions keep their indices; the interchange law makes
        the result independent of that bookkeeping.
        """
        low, up = frozenset(lower), frozenset(upper)
        if low & up:
            raise PositionOutOfRange(
                f"positions {sorted(low & up)} appear as both lower and upper"
            )
        d = self.dim(cell)
        if any(not 1 <= p <= d for p in low | up):
            raise PositionOutOfRange(
                f"positions {sorted(low | up)} exceed 1..{d} of cell {cell!r}"
            )
        current = cell
        for pos in sorted(low | up, reverse=True):
            current = self.faces[(current, 0 if pos in low else 1, pos)]
        return current


# --- precubical maps -------------------------------------------------------------


def validate_precubical_map(
    source: PrecubicalSet, target: PrecubicalSet, mapping: Mapping[str, str]
) -> list[str]:
    """Check that ``mapping`` is a morphism of precubical sets.

    A morphism sends every cell to a cell with the same word and commutes
    with all elementary faces.
    """
    problems: list[str] = []
    for cid in source.cells:
        if cid not in mapping:
            problems.append(f"cell {cid!r} has no image")
    for cid, img in mapping.items():
        if cid not in source.cells:
            problems.append(f"mapping defined on unknown cell {cid!r}")
            continue
        if img not in target.cells:
            problems.append(f"cell {cid!r} maps to unknown cell {img!r}")
            continue
        if source.cells[cid] != target.cells[img]:
            problems.append(
                f"cell {cid!r} with word {source.cells[cid]} maps to "
                f"{img!r} with word {target.cells[img]}"
            )
    if problems:
        return problems
    for (cid, nu, pos), fid in source.faces.items():
        if target.faces[(mapping[cid], nu, pos)] != mapping[fid]:
            problems.append(
                f"mapping does not commute with face ({nu}, {pos}) of {cid!r}"
            )
    return problems


@dataclass(frozen=True)
class PrecubicalMap:
    """A validated morphism of precubical sets."""

    source: PrecubicalSet
    target: PrecubicalSet
    mapping: dict[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", dict(self.mapping))
        problems = validate_precubical_map(self.source, self.target, self.mapping)
        if problems:
            raise PrecubicalInvariant(problems)

    def __call__(self, cell: str) -> str:
        return self.mapping[cell]


def compose_maps(outer: PrecubicalMap, inner: PrecubicalMap) -> PrecubicalMap:
    """Compose ``outer`` after ``inner``."""
    if inner.target is not outer.source and inner.target != outer.source:
        raise IllFormedDiagram("maps are not composable")
    return PrecubicalMap(
        inner.source,
        outer.target,
        {c: outer.mapping[i] for c, i in inner.mapping.items()},
    )


# --- tensor, coproduct, colimit -----------------------------------------------


def tensor_cell_id(left: str, right: str) -> str:
    """The id used for the tensor of two cells."""
    return f"({left}|{right})"


def tensor(x: PrecubicalSet, y: PrecubicalSet) -> PrecubicalSet:
    """Tensor product: words concatenate, faces act blockwise.

    The cell set is the cartesian product; a face at a position within the
    left block applies to the left cell, otherwise to the right cell.
    Faces and interchange hold blockwise, so the product of two valid sets
    is valid as long as no two pairs of cells get the same id.

    Raises:
        PrecubicalInvariant: two pairs of cells share a tensor id.
    """
    # One id per pair of cells, made once: ``ids[xc][yc]``.
    ids = {xc: {yc: tensor_cell_id(xc, yc) for yc in y.cells} for xc in x.cells}
    cells: dict[str, Word] = {}
    faces: dict[FaceKey, str] = {}
    for xc, xw in x.cells.items():
        row = ids[xc]
        for yc, yw in y.cells.items():
            cid = row[yc]
            if cid in cells:
                raise PrecubicalInvariant([f"tensor cell id collision at {cid!r}"])
            cells[cid] = tensor_word(xw, yw)
            dx = len(xw)
            for nu in (0, 1):
                for pos in range(1, dx + 1):
                    faces[cid, nu, pos] = ids[x.faces[xc, nu, pos]][yc]
                for pos in range(1, len(yw) + 1):
                    faces[cid, nu, dx + pos] = row[y.faces[yc, nu, pos]]
    return _unchecked(PrecubicalSet, cells, faces)


def coproduct(parts: Sequence[PrecubicalSet]) -> tuple[PrecubicalSet, list[PrecubicalMap]]:
    """Disjoint union and injections: the colimit of no arrows, naming cells ``"i:c"``."""
    return finite_colimit(parts, [])


def finite_colimit(
    objects: Sequence[PrecubicalSet],
    morphisms: Sequence[tuple[int, int, Mapping[str, str]]],
) -> tuple[PrecubicalSet, list[PrecubicalMap]]:
    """Colimit of a finite diagram of precubical sets.

    The diagram is given by its objects and a list of arrows
    ``(source_index, target_index, cell_mapping)``.  The colimit is the
    disjoint union of all objects' cells, quotiented by the equivalence
    generated by ``cell ~ image`` for every arrow; faces descend to the
    quotient.  Each equivalence class is named after its least tagged
    member ``"<index>:<cell>"``, making results deterministic.

    Returns:
        The colimit and one cocone map per object.

    Raises:
        IllFormedDiagram: an arrow's endpoints are out of range or its
            mapping is not a valid morphism between them.
    """
    for k, (si, ti, mapping) in enumerate(morphisms):
        if not (0 <= si < len(objects)) or not (0 <= ti < len(objects)):
            raise IllFormedDiagram(
                f"morphism {k} has endpoints ({si}, {ti}) outside the diagram"
            )
        problems = validate_precubical_map(objects[si], objects[ti], mapping)
        if problems:
            raise IllFormedDiagram(
                f"morphism {k} is not a precubical map: " + "; ".join(problems)
            )
    return _colimit(objects, morphisms)


def _colimit(
    objects: Sequence[PrecubicalSet],
    morphisms: Sequence[tuple[int, int, Mapping[str, str]]],
) -> tuple[PrecubicalSet, list[PrecubicalMap]]:
    """:func:`finite_colimit` of arrows the caller knows to be precubical maps."""
    # Union-find over tagged cells ``(index, cell)``; linking the larger root
    # under the smaller keeps every root the least member of its class.
    parent = {(i, c): (i, c) for i, obj in enumerate(objects) for c in obj.cells}

    def find(member: tuple[int, str]) -> tuple[int, str]:
        root = member
        while parent[root] != root:
            root = parent[root]
        while parent[member] != root:
            parent[member], member = root, parent[member]
        return root

    for si, ti, mapping in morphisms:
        for c, img in mapping.items():
            one, two = find((si, c)), find((ti, img))
            if one != two:
                parent[max(one, two)] = min(one, two)

    # Arrows keep words and commute with faces, so all members of a class
    # share one word and their faces fall in one class: the quotient is a
    # valid precubical set and each cocone a precubical map.
    tags = [{c: "%d:%s" % find((i, c)) for c in obj.cells} for i, obj in enumerate(objects)]
    words = {tags[i][c]: w for i, obj in enumerate(objects) for c, w in obj.cells.items()}
    faces = {
        (tags[i][c], nu, pos): tags[i][f]
        for i, obj in enumerate(objects)
        for (c, nu, pos), f in obj.faces.items()
    }
    colim = _unchecked(PrecubicalSet, words, faces)
    cocones = [
        _unchecked(PrecubicalMap, obj, colim, tag)
        for obj, tag in zip(objects, tags)
    ]
    return colim, cocones
