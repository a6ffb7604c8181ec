"""Labelled precubical sets: cells, faces, cofaces, tensor and colimits.

A precubical set is a collection of named cells, each shaped by a *word*
(the tuple of event labels the cell runs concurrently; the word's length
is the cell's dimension), together with face assignments.  Face
``(cell, nu, i)`` names the cell one dimension down obtained by deleting
position ``i`` (1-based): ``nu = 0`` is the lower face, where that event
has not yet started, and ``nu = 1`` the upper face, where it has finished.
Faces must satisfy the usual cubical interchange law, which makes
simultaneous deletion of any position set well defined.

The faces are one table of rows: ``rows[c]`` holds the faces of cell ``c``
by slot, face ``(nu, i)`` at slot ``2 i - 2 + nu``, so a ``d``-cell's row
has ``2 d`` ids and a vertex's row is empty.  Parsing files faces straight
into their slots, tensors and colimits build rows from rows, and readers
index them.

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

from functools import cache, lru_cache
from itertools import chain, combinations, repeat
from typing import Any, Callable, Iterable, Mapping, Sequence

from hdalang.ipomset import _unchecked, _Value

Word = tuple[str, ...]
FaceKey = tuple[str, int, int]
Row = tuple[str, ...]


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


class CofaceMap(_Value):
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

    __slots__ = ("source", "target", "image", "part_a", "part_b")

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


@lru_cache(maxsize=1 << 6)  # bounded, as dimensions are caller data
def _slots(d: int) -> dict[tuple[int, int], int]:
    """The row layout: face ``(nu, p)`` of a ``d``-cell at ``2 p - 2 + nu``, lower faces first."""
    return {(nu, pos): 2 * pos - 2 + nu for nu in (0, 1) for pos in range(1, d + 1)}


def validate_precubical(
    cells: Mapping[str, Word], faces: Mapping[FaceKey, str]
) -> list[str]:
    """Check precubical-set invariants; return violation descriptions.

    An empty list means the data is a well-formed precubical set: every
    cell of dimension ``d`` has all ``2 d`` elementary faces, each face has
    the word of its cell with one position deleted, and lower/upper faces
    commute per the cubical interchange law.
    """
    problems: list[str] = []
    _walk(cells, _runs(faces, problems), _slots, problems)
    return problems


def _runs(faces: Mapping[FaceKey, str], problems: list[str]) -> Iterable[tuple[str, tuple]]:
    """The faces of a ``(cell, nu, position)`` mapping, one run each, in order, for :func:`_walk`.

    A key that is not a triple is reported here; one whose position is not
    an int goes on whole, so that no slot has it.
    """
    for key, tgt in faces.items():
        try:
            cid, nu, pos = key
        except (TypeError, ValueError):
            problems.append(f"face key {key!r} is not a (cell, direction, position) triple")
            continue
        yield cid, (((nu, pos) if isinstance(pos, int) else key, tgt),)


def _walk(
    cells: Mapping[str, Word], runs: Iterable[tuple[str, Iterable[tuple[Any, Any]]]],
    slots_of: Callable[[int], Mapping[Any, int]], problems: list[str],
) -> dict[str, Row] | None:
    """The one validation walk: the rows it files, or None if it adds to ``problems``.

    ``runs`` gives a cell's faces as ``(key, target)`` pairs in the caller's
    order and ``slots_of(d)`` the slot of each key of a ``d``-cell; any
    other key ends in ``(nu, position)``.  Cell ids and words are judged one
    by one only when a bulk type test fails.  Distinct keys fill distinct
    slots, so missing faces are listed only after a fault or when the faces
    do not number the slots; otherwise interchange is checked on the rows.
    """
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
            return None  # the checks below take each word's length and slices
        cells = {cid: tuple(word) for cid, word in cells.items()}
        deletions = _deletions.__wrapped__  # a bad letter may be unhashable

    empty = object()  # no target is this, not even None
    rows = {cid: [empty] * (2 * len(word)) for cid, word in cells.items()}
    filed = 0
    for cid, faces in runs:
        row = rows.get(cid)
        if row is None:
            problems.append(f"face of unknown cell {cid!r}")
            continue
        word = cells[cid]
        d, cut, slots = len(word), deletions(word), slots_of(len(word))
        filed += len(faces)
        for key, tgt in faces:
            slot = slots.get(key)
            if slot is None:  # a direction or position fault; the key ends in (nu, position)
                nu, pos = key[-2:]
                if nu not in (0, 1):
                    problems.append(f"face ({cid!r}, {nu}, {pos}) has direction outside {{0, 1}}")
                if not (isinstance(pos, int) and 1 <= pos <= d):
                    problems.append(f"face ({cid!r}, {nu}, {pos!r}) position outside 1..{d}")
                    # Not a face, but a position of another type may equal one: it fills that slot.
                    slot = _slots(d).get((nu, pos))
                    if slot is not None:
                        row[slot] = tgt
                    continue
                at = pos - 1
            else:
                at = slot >> 1
                row[slot] = tgt
            try:
                found = cells[tgt]
            except (KeyError, TypeError):
                found = None
            if found != cut[at]:
                nu, pos = key[-2:] if type(key) is tuple else (slot & 1, at + 1)
                problems.append(
                    f"face ({cid!r}, {nu}, {pos}) points at unknown cell {tgt!r}" if found is None
                    else f"face ({cid!r}, {nu}, {pos}) should have word {cut[at]} "
                    f"but {tgt!r} has {found}"
                )

    if problems or filed != sum(map(len, rows.values())):
        problems += [
            f"cell {cid!r} is missing face ({nu}, {pos})"
            for cid, row in rows.items() for (nu, pos), slot in _slots(len(row) // 2).items()
            if row[slot] is empty
        ]
        return None
    for cid, row in rows.items():
        for a, b, e, law in _interchange(len(row) // 2) if len(row) > 2 else ():
            if rows[row[a]][b] != rows[row[b]][e]:
                nu, i, mu, j = law
                problems.append(
                    f"faces of {cid!r} at positions ({nu},{i}) and ({mu},{j}) do not "
                    f"commute: {rows[row[a]][b]!r} != {rows[row[b]][e]!r}"
                )
    return None if problems else dict(zip(rows, map(tuple, rows.values())))


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
    slot = _slots(d)
    return tuple(
        (slot[mu, j], slot[nu, i], slot[mu, j - 1], (nu, i, mu, j))
        for i, j in combinations(range(1, d + 1), 2) for nu in (0, 1) for mu in (0, 1)
    )


class PrecubicalSet(_Value):
    """An immutable, validated precubical set, held as one face table.

    ``PrecubicalSet(cells, faces)`` runs the walk of
    :func:`validate_precubical` and keeps the rows it files; the library's
    tensors, colimits and parsed documents build rows directly.  Equality
    compares cells and rows.

    Attributes:
        cells: cell id to word (the word's length is the dimension).
        rows: cell id to its faces by slot, face ``(nu, p)`` at ``2 p - 2 +
            nu`` (:func:`_slots`): ``2 d`` ids for a ``d``-cell, none for a vertex.
        faces: ``(cell, nu, position)`` to the id of that elementary face,
            derived from ``rows`` on first use and kept in the ``_faces`` slot.
    """

    __slots__ = ("cells", "rows", "_faces")

    def __init__(self, cells: Mapping[str, Word], faces: Mapping[FaceKey, str]) -> None:
        # A word that is not a sequence stays, to be reported (tuples skip the slow ABC check).
        cells = {cid: tuple(w) if isinstance(w, (tuple, Sequence)) else w
                 for cid, w in cells.items()}
        problems: list[str] = []
        rows = _walk(cells, _runs(dict(faces), problems), _slots, problems)
        if problems:
            raise PrecubicalInvariant(problems)
        for name, value in zip(self.__slots__, (cells, rows, None)):
            object.__setattr__(self, name, value)

    @property
    def faces(self) -> dict[FaceKey, str]:
        """The faces by ``(cell, nu, position)``, built from ``rows`` once, into ``_faces``."""
        if self._faces is None:
            faces = {(cid, nu, pos): row[slot] for cid, row in self.rows.items()
                     for (nu, pos), slot in _slots(len(row) // 2).items()}
            object.__setattr__(self, "_faces", faces)
        return self._faces

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
        slots, current = _slots(d), cell
        for pos in sorted(low | up, reverse=True):
            current = self.rows[current][slots[pos in up, pos]]
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
        if not isinstance(img, str) or img not in target.cells:  # ids are strings
            problems.append(f"cell {cid!r} maps to unknown cell {img!r}")
            continue
        if source.cells[cid] != target.cells[img]:
            problems.append(
                f"cell {cid!r} with word {source.cells[cid]} maps to "
                f"{img!r} with word {target.cells[img]}"
            )
    if problems:
        return problems
    for cid, row in source.rows.items():
        image, want = target.rows[mapping[cid]], [mapping[f] for f in row]
        problems += [
            f"mapping does not commute with face ({nu}, {pos}) of {cid!r}"
            for (nu, pos), slot in _slots(len(row) // 2).items() if image[slot] != want[slot]
        ]
    return problems


class PrecubicalMap(_Value):
    """A validated morphism of precubical sets."""

    __slots__ = ("source", "target", "mapping")

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
    left block applies to the left cell, otherwise to the right cell, so a
    row is the left row, then the right row, each paired with the other cell.
    Faces and interchange hold blockwise, so the product of two valid sets
    is valid as long as no two pairs of cells get the same id.

    Raises:
        PrecubicalInvariant: two pairs of cells share a tensor id.
    """
    # One id per pair of cells, made once: ``ids[xc][yc]``, in the order of ``y.cells``.
    ids = {xc: {yc: tensor_cell_id(xc, yc) for yc in y.cells} for xc in x.cells}
    right = [(yc, yw, y.rows[yc]) for yc, yw in y.cells.items()]
    cells: dict[str, Word] = {}
    rows: dict[str, Row] = {}
    for xc, xw in x.cells.items():
        row = ids[xc]
        # The left part of each pair's row, by right cell: the ids of xc's faces paired with it.
        faces = [ids[f].values() for f in x.rows[xc]]
        for (yc, yw, yrow), left in zip(right, zip(*faces) if faces else repeat(())):
            cid = row[yc]
            if cid in cells:
                raise PrecubicalInvariant([f"tensor cell id collision at {cid!r}"])
            cells[cid] = xw + yw
            rows[cid] = (*left, *map(row.__getitem__, yrow))
    return _unchecked(PrecubicalSet, cells, rows)


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
        IllFormedDiagram: an arrow is not such a triple, its endpoints are
            not indices of the diagram, or its mapping is not a valid
            morphism between them.
    """
    for k, arrow in enumerate(morphisms):
        if not (isinstance(arrow, Sequence) and len(arrow) == 3 and isinstance(arrow[2], Mapping)):
            raise IllFormedDiagram(f"morphism {k} is not (source, target, mapping): {arrow!r}")
        si, ti, mapping = arrow
        if not all(isinstance(i, int) and 0 <= i < len(objects) for i in (si, ti)):
            raise IllFormedDiagram(
                f"morphism {k} has endpoints ({si!r}, {ti!r}) outside the diagram"
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
    # Union-find over tagged cells ``(index, cell)``: ``parent`` holds every
    # member that is not a root, and linking the larger root under the
    # smaller keeps every root the least member of its class.
    parent: dict[tuple[int, str], tuple[int, str]] = {}

    def find(member: tuple[int, str]) -> tuple[int, str]:
        root = member
        while root in parent:
            root = parent[root]
        while member != root:
            parent[member], member = root, parent[member]
        return root

    for si, ti, mapping in morphisms:
        for c, img in mapping.items():
            one, two = find((si, c)), find((ti, img))
            if one != two:
                parent[max(one, two)] = min(one, two)

    # Arrows keep words and commute with faces, so all members of a class
    # share one word and their rows map to one row: the quotient is a valid
    # precubical set and each cocone a precubical map.
    tags = [{c: f"{i}:{c}" for c in obj.cells} for i, obj in enumerate(objects)]
    for i, c in parent:
        tags[i][c] = "%d:%s" % find((i, c))
    words = {tags[i][c]: w for i, obj in enumerate(objects) for c, w in obj.cells.items()}
    rows: dict[str, Row] = {}
    for obj, tag in zip(objects, tags):
        name = tag.__getitem__
        rows.update({name(c): row and tuple(map(name, row)) for c, row in obj.rows.items()})
    colim = _unchecked(PrecubicalSet, words, rows)
    cocones = [
        _unchecked(PrecubicalMap, obj, colim, tag)
        for obj, tag in zip(objects, tags)
    ]
    return colim, cocones
