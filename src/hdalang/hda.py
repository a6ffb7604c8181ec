"""Higher-dimensional automata and their bounded languages.

A higher-dimensional automaton (HDA) is a precubical set with two sets of
marked cells: starting cells, where computations may begin, and accepting
cells, where they may end.  A cell of dimension ``d`` stands for a state
in which ``d`` labelled events run concurrently; moving to an upper cell
starts events, moving to a lower face finishes them.

A computation is a path of such moves.  Its observable content is an
ipomset: every event started along the way, ordered by "finished before
the other started", with the events active at the two ends as interfaces.
The language of an automaton collects the labels of its accepting paths
and is closed under subsumption; since cyclic automata have unboundedly
many events, languages here are always extracted *up to an event budget*.
There is one path semantics: a label is the glue of one piece per step
(the higher cell's events, with the started ones unsourced or the
finished ones untargeted).  One step function, :func:`_advance`, builds
it with the composition kernel of :func:`hdalang.ipomset.glue`
(``ipomset._glued``) from the piece's fields, without building the piece.
The path enumeration and the language extraction take their steps from
one table; the label of a single path (:func:`ev_label`) checks each
given step with :func:`validate_path`, which applies its face
(``PrecubicalSet.apply_face``).  All three take their labels from that
one step function.  The extraction follows only *sparse* paths,
in which up-steps and down-steps alternate: every path is equivalent to
exactly one sparse path, with the same label (Fahrenberg, Johansen, Struth
& Ziemiański, MSCS 2021).  It prunes the labels it reaches at each cell to
an antichain.  A step's label depends only on the label, the step's
positions and the higher cell's word, never on the cell, so the extraction
builds each such transition once per call and every cell shares it.  It
numbers each distinct label when first built and then works on numbers.

Paths whose accumulated precedence contradicts the order in which
concurrent events were started admit no canonical label; they are
excluded from the extraction.  Every behaviour such a path implements is
also implemented by a representable path of the same automaton (its label
would refine one with strictly less precedence that is representable), so
bounded languages are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Iterator, Mapping, Sequence

from hdalang.ipomset import (
    InternalOrderCycle, Ipomset, _glued, _unchecked, subsumes,
)
from hdalang.language import Language, normalize
from hdalang.precubical import (
    PrecubicalInvariant,
    PrecubicalSet,
    UnknownCell,
    Word,
    _colimit,
    tensor,
    tensor_cell_id,
    validate_precubical_map,
)


# --- automata -------------------------------------------------------------------


@dataclass(frozen=True)
class Hda:
    """A precubical set with start and accept markings.

    Attributes:
        carrier: the underlying precubical set.
        start: cells (of any dimension) where paths may begin.
        accept: cells (of any dimension) where paths may end.
    """

    carrier: PrecubicalSet
    start: frozenset[str]
    accept: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", frozenset(self.start))
        object.__setattr__(self, "accept", frozenset(self.accept))
        for cell in self.start | self.accept:
            if cell not in self.carrier.cells:
                raise UnknownCell(f"marked cell {cell!r} is not in the carrier")


def validate_hda_map(
    source: Hda, target: Hda, mapping: Mapping[str, str]
) -> list[str]:
    """Check that ``mapping`` is an HDA morphism.

    It must be a precubical map of the carriers that sends start cells to
    start cells and accept cells to accept cells.
    """
    problems = validate_precubical_map(source.carrier, target.carrier, mapping)
    return problems or _unmarked(source, target, mapping)


def _unmarked(source: Hda, target: Hda, mapping: Mapping[str, str]) -> list[str]:
    """The marking check of :func:`validate_hda_map`, one text per offence.

    ``mapping`` must send every cell of ``source`` to a cell of ``target``.
    """
    problems = [
        f"start cell {cell!r} maps to unmarked {mapping[cell]!r}"
        for cell in sorted(source.start)
        if mapping[cell] not in target.start
    ]
    problems += [
        f"accept cell {cell!r} maps to unmarked {mapping[cell]!r}"
        for cell in sorted(source.accept)
        if mapping[cell] not in target.accept
    ]
    return problems


@dataclass(frozen=True)
class HdaMap:
    """A validated morphism of higher-dimensional automata."""

    source: Hda
    target: Hda
    mapping: dict[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", dict(self.mapping))
        problems = validate_hda_map(self.source, self.target, self.mapping)
        if problems:
            raise PrecubicalInvariant(problems)

    def __call__(self, cell: str) -> str:
        return self.mapping[cell]


# --- paths ------------------------------------------------------------------------


@dataclass(frozen=True)
class UpStep:
    """Start the events at these positions of the *target* cell (1-based)."""

    positions: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", frozenset(self.positions))


@dataclass(frozen=True)
class DownStep:
    """Finish the events at these positions of the *source* cell (1-based)."""

    positions: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", frozenset(self.positions))


Step = UpStep | DownStep


@dataclass(frozen=True)
class Path:
    """An alternating sequence of cells and steps; one more cell than steps."""

    cells: tuple[str, ...]
    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))
        object.__setattr__(self, "steps", tuple(self.steps))
        if len(self.cells) != len(self.steps) + 1:
            raise ValueError("a path needs exactly one more cell than steps")

    @property
    def first(self) -> str:
        return self.cells[0]

    @property
    def last(self) -> str:
        return self.cells[-1]


def validate_path(automaton: Hda, path: Path) -> None:
    """Check each step of ``path`` against the carrier's face structure.

    Raises:
        UnknownCell / PositionOutOfRange: a cell or position is absent.
        ValueError: a step does not connect its adjacent cells.
    """
    carrier = automaton.carrier
    for cell in path.cells:
        carrier.word(cell)
    for k, step in enumerate(path.steps):
        here, there = path.cells[k], path.cells[k + 1]
        if isinstance(step, UpStep):
            if not step.positions:
                raise ValueError(f"step {k} starts no event")
            if carrier.apply_face(there, lower=step.positions) != here:
                raise ValueError(
                    f"step {k}: cell {there!r} with unstarted {sorted(step.positions)} "
                    f"is not {here!r}"
                )
        else:
            if not step.positions:
                raise ValueError(f"step {k} finishes no event")
            if carrier.apply_face(here, upper=step.positions) != there:
                raise ValueError(
                    f"step {k}: finishing {sorted(step.positions)} in {here!r} "
                    f"does not give {there!r}"
                )


# --- path semantics -----------------------------------------------------------------


def _advance(label: Ipomset, step: Step, word: Word) -> Ipomset:
    """The label after ``step``; ``word`` is that of the step's higher cell.

    This is the glue of ``label`` with the step's piece: the higher cell's
    events, all concurrent, with the started ones unsourced or the finished
    ones untargeted.  ``label``'s targets are the current cell's events in
    word order, so they match the piece's sources.  A down-step renumbers
    nothing and only drops the finished events from the targets; an
    up-step is built by :func:`hdalang.ipomset._glued` from the fields.

    Raises:
        InternalOrderCycle: the step's event order conflicts with the
            label's precedence, so the glue has no canonical numbering.
    """
    targets = sorted(label.targets)
    if isinstance(step, DownStep):
        done = {targets[p - 1] for p in step.positions}
        return _unchecked(
            Ipomset, label.labels, label.precedence, label.sources, label.targets - done
        )
    idle = [i for i in range(len(word)) if i + 1 not in step.positions]
    return _glued(
        label.labels, label.precedence, label.sources, targets,
        word, (), idle, range(len(word)),
    )


def _identity(word: Word) -> Ipomset:
    """:func:`identity` on a checked cell's word, whose letters are valid."""
    every = frozenset(range(len(word)))
    return _unchecked(Ipomset, word, frozenset(), every, every)


@cache
def _subsets(d: int) -> tuple[tuple[int, int, int, UpStep, DownStep], ...]:
    """The non-empty position sets of a ``d``-cell, as ``_step_table`` takes them.

    Each is ``(mask, rest, low, up, down)``: bit ``p - 1`` of ``mask`` is
    set for position ``p``, ``low`` is the lowest position, ``rest`` the
    mask without it, and ``up``/``down`` the steps on those positions,
    built once and shared by every cell of dimension ``d``.  Sets go by
    size, then lexicographically, so ``rest`` always comes first.
    """
    out = []
    for r in range(1, d + 1):
        for positions in combinations(range(1, d + 1), r):
            mask = sum(1 << (p - 1) for p in positions)
            out.append((
                mask, mask & (mask - 1), positions[0],
                UpStep(frozenset(positions)), DownStep(frozenset(positions)),
            ))
    return tuple(out)


_Moves = dict[str, list[tuple[Step, str, Word]]]


def _step_table(carrier: PrecubicalSet) -> tuple[_Moves, _Moves]:
    """The up- and down-steps leaving each cell: ``(step, next cell, word)``.

    ``word`` is that of the step's higher cell, which :func:`_advance` takes.
    Up-steps go by upper cell in dimension-then-id order; within a cell,
    position sets go by size, then lexicographically.  Equal steps are one
    shared object.  The face that deletes the set ``P`` is the elementary
    face at ``P``'s lowest position of the face that deletes the rest of
    ``P``.  Deleting the higher positions first leaves the lowest one's
    index unchanged, so each (cell, set) costs one face lookup per
    direction.
    """
    faces = carrier.faces
    ups: _Moves = {c: [] for c in carrier.cells}
    downs: _Moves = {}
    for high in carrier.sorted_cells():
        word = carrier.cells[high]
        lower = [high] * (1 << len(word))
        upper = lower[:]
        out = downs[high] = []
        for mask, rest, low, up, down in _subsets(len(word)):
            lower[mask] = there = faces[(lower[rest], 0, low)]
            ups[there].append((up, high, word))
            upper[mask] = there = faces[(upper[rest], 1, low)]
            out.append((down, there, word))
    return ups, downs


def ev_label(automaton: Hda, path: Path) -> Ipomset:
    """The ipomset observed along a path.

    The label starts as the identity on the first cell's word and takes
    one :func:`_advance` per step: an up-step adds the events it starts,
    after every finished event, and a down-step removes the events it
    finishes from the target interface.  Events active in the first cell
    are sources, events active in the last cell are targets.

    Raises:
        InternalOrderCycle: the path's precedence contradicts the order in
            which its concurrent events started, so it has no canonical
            label; see the module docstring.
    """
    validate_path(automaton, path)
    carrier = automaton.carrier
    label = _identity(carrier.word(path.first))
    for k, step in enumerate(path.steps):
        high = path.cells[k + 1] if isinstance(step, UpStep) else path.cells[k]
        label = _advance(label, step, carrier.word(high))
    return label


def enumerate_accepting_paths(automaton: Hda, max_events: int) -> Iterator[Path]:
    """Yield every accepting path that starts at most ``max_events`` events.

    Paths begin in a start cell and end in an accept cell; the events
    already active at the start count against the budget.  Every up-step
    spends budget, and every down-step finishes an event, so a run of
    down-steps is no longer than the cell's dimension and the walk is
    finite even on cyclic automata.

    Raises:
        ValueError: ``max_events`` is negative.
    """
    if max_events < 0:
        raise ValueError("the event budget must be non-negative")
    carrier = automaton.carrier
    ups, downs = _step_table(carrier)

    def walk(cell: str, budget: int, cells: list[str], steps: list[Step]) -> Iterator[Path]:
        if cell in automaton.accept:
            yield Path(tuple(cells), tuple(steps))
        for step, there, _ in (*ups[cell], *downs[cell]):
            fresh = len(step.positions) if isinstance(step, UpStep) else 0
            if fresh <= budget:
                cells.append(there)
                steps.append(step)
                yield from walk(there, budget - fresh, cells, steps)
                cells.pop()
                steps.pop()

    return (
        path
        for cell in sorted(automaton.start)
        if carrier.dim(cell) <= max_events
        for path in walk(cell, max_events - carrier.dim(cell), [cell], [])
    )


def _expanded(
    automaton: Hda, max_events: int
) -> Iterator[tuple[str, Ipomset, type[Step] | None]]:
    """The states ``language`` expands, in that order, with how each was reached.

    A state is (cell, label, came): ``came`` is :class:`UpStep` or
    :class:`DownStep` for the kind of step that reached it, and ``None`` at
    a start cell.  Only sparse paths are followed: a state reached by an
    up-step takes only down-steps and one reached by a down-step only
    up-steps.  A label with no event left to start takes a down-step only
    into an accepting cell, since no up-step can follow it.

    States wait in buckets by their count of precedence pairs, drained in
    increasing order.  An up-step only adds pairs and a down-step keeps
    them, so a state never lands in a bucket already drained, and every
    label with fewer pairs than a popped one has been popped before it.
    A popped label with events left to start is dropped when it refines a
    label kept at the same cell; otherwise it is kept and expanded.  A
    label that has used the whole budget can only take down-steps and is
    expanded untested.  A state is pushed at most once.  The label after a
    step depends only on (label, positions, higher word), so each is built
    once per call and shared by every cell that takes that step from an
    equal label; likewise each (label, kept label) pair of the antichains
    is compared once per call.  Each distinct label gets a number when it
    is first built, which hashes it once: states, antichains, transitions
    and comparisons go by number, so no lookup hashes a label again.
    """
    carrier = automaton.carrier
    accept = automaton.accept
    ups, downs = _step_table(carrier)
    # A number's record: its label, size, pair count and bag, and its
    # transitions: by (step, higher word) for an up-step, ``None`` when it
    # raised InternalOrderCycle, and by step alone for a down-step, whose
    # word is that of the label's targets.  Steps are shared objects.
    numbers: dict[Ipomset, int] = {}
    records: list[tuple[Ipomset, int, int, int, dict]] = []
    bags: dict[tuple[int, Word], int] = {}

    def number(label: Ipomset) -> int:
        n = numbers.setdefault(label, len(records))
        if n == len(records):
            # Same cell, same bag of labels and sources: the targets are
            # the cell's events, so only these can be compared.
            bag = bags.setdefault((len(label.sources), tuple(sorted(label.labels))), len(bags))
            records.append((label, len(label.labels), len(label.precedence), bag, {}))
        return n

    # Identities have no precedence pairs.
    start = [
        (cell, number(_identity(carrier.cells[cell])), None)
        for cell in sorted(automaton.start)
        if carrier.dim(cell) <= max_events
    ]
    seen = set(start)
    buckets = [start]
    kept: dict[tuple[str, int], list[int]] = {}

    @cache
    def refines(low: int, high: int) -> bool:
        # Shared labels meet the same rivals at many cells.
        return subsumes(records[low][0], records[high][0]) is not None

    pairs = 0
    while pairs < len(buckets):
        bucket = buckets[pairs]
        while bucket:
            state = bucket.pop()
            cell, n, came = state
            label, size, _, bag, moves = records[n]
            room = max_events - size
            if room:
                rivals = kept.setdefault((cell, bag), [])
                if rivals and any(records[m][2] < pairs and refines(n, m) for m in rivals):
                    continue
                rivals.append(n)
            yield cell, label, came
            after = []
            if came is not UpStep and room:
                for step, there, word in ups[cell]:
                    if len(step.positions) > room:
                        continue
                    edge = (id(step), word)
                    nxt = moves.get(edge, False)
                    if nxt is False:  # not built yet
                        try:
                            nxt = number(_advance(label, step, word))
                        except InternalOrderCycle:
                            # No canonical label exists down this branch, nor
                            # down any extension of it; see the module docstring.
                            nxt = None
                        moves[edge] = nxt
                    if nxt is not None:
                        after.append((there, nxt, UpStep))
            if came is not DownStep:
                for step, there, word in downs[cell]:
                    if room or there in accept:
                        nxt = moves.get(id(step))
                        if nxt is None:
                            nxt = moves[id(step)] = number(_advance(label, step, word))
                        after.append((there, nxt, DownStep))
            for state in after:
                if state not in seen:
                    seen.add(state)
                    more = records[state[1]][2]
                    if more >= len(buckets):
                        buckets.extend([] for _ in range(more + 1 - len(buckets)))
                    buckets[more].append(state)
        pairs += 1


def language(automaton: Hda, max_events: int) -> Language:
    """The automaton's language up to ``max_events`` events.

    Explores states (cell, accumulated label, kind of the step that reached
    it): the label's target interface always lists the current cell's
    active events in word order, so cell and label determine all future
    behaviour.  Each step builds the next label in closed form with
    :func:`_advance`, whose count of events before each event is also its
    acyclicity test; a branch with no canonical label is cut there.  That
    label depends only on (label, positions, higher word), so each one is
    built once per call, numbered, and shared by every cell that reaches it.
    :func:`_expanded` makes three more cuts:

    * Sparse paths only: up- and down-steps alternate.  Two consecutive
      steps of one kind are one step of that kind on the union of their
      positions, lifted to the higher cell; it joins the same two cells,
      gives the same label, and raises :class:`InternalOrderCycle` exactly
      when the two steps do.  So every path is equivalent to exactly one
      sparse path, with the same label (Fahrenberg, Johansen, Struth &
      Ziemiański, *Languages of higher-dimensional automata*, MSCS 2021).
    * Dead faces: a label with no event left to start takes a down-step
      only into an accepting cell.  The state it reaches may take only
      up-steps, and none fits the budget, so it could add nothing but its
      own label, and that only at an accepting cell.
    * Antichains (De Wulf, Doyen, Henzinger & Raskin, CAV 2006): a label
      with events left to start is not expanded if it refines a label with
      fewer precedence pairs kept at the same cell.

    The labels expanded at accepting cells are normalised into a
    subsumption-closed language with this event bound.

    Soundness.  Write ``l <= m`` when ``l`` refines ``m``, and call a state
    ``(c, l)`` of the exploration of all paths *live* when ``l`` has events
    left to start or ``c`` accepts.  The claim is that every live state is
    covered: some ``(c, m, k)`` is expanded with ``l <= m``.  Accepting
    states are live, expanded labels are reached ones and the language is
    down-closed, so then both explorations give the same language.  The
    cover need not have been reached by the same kind of step as ``l``;
    the claim made per kind is false.  By induction on the pair count of
    ``l``, then on the length of the shortest path reaching ``(c, l)``,
    which is sparse because merging two steps of one kind would shorten it:

    * A start state has no pairs, so it is expanded.
    * Covering step.  Let ``(c0, m0, k0)`` be expanded with ``l0 <= m0``,
      and ``l = _advance(l0, s, w)`` for a step ``s`` from ``c0`` to
      ``c``.  Both labels have the same events,
      so the budget lets ``s`` leave both.  If ``k0`` allows ``s``, take
      ``t = s`` from ``m0``.  Otherwise ``k0`` is the kind of ``s``, and
      ``(c0, m0, k0)`` was pushed by a step ``s0`` of that kind from an
      expanded ``(c1, m1, k1)``; take for ``t`` the merged step of ``s0``
      and ``s`` from ``m1``, which ``k1`` allows.  If ``t`` gives a label
      ``m``, then ``l <= m``: gluing is monotone under refinement in both
      arguments (the gluing precongruence of the paper above), and both
      sides glue the same pieces.  ``(c, m)`` is pushed unless it is a dead
      face, which it is only when ``(c, l)`` is not live.  When popped it is
      expanded, or it refines a kept label at ``c``, which was expanded.
    * If ``t`` raises :class:`InternalOrderCycle`, monotonicity says
      nothing about canonical labels.  The glue of ``m0`` (or ``m1``) with
      the pieces still exists as a behaviour whose event order cannot be
      linearised with its precedence, and ``l`` refines it.  By the
      representability fact of the module docstring, a representable path
      of the automaton to ``c`` implements that behaviour, with a label
      ``l'`` that it refines and that has fewer pairs.  ``(c, l')`` is live
      as ``(c, l)`` is, so the induction covers it, and ``l <= l' <= m'``.
    * The path ends with ``s`` from ``(c0, l0)``.  If ``(c0, l0)`` is live
      or a start state, it is covered and the covering step applies.
      Otherwise ``l0`` has used the whole budget, so ``s`` is a down-step,
      and the sparse path reaches ``(c0, l0)`` by an up-step from a state
      with events left to start, which the induction covers.  The
      covering step for that up-step gives a label at ``c0`` with no room;
      such a label is expanded untested, and it was reached by an up-step,
      so the covering step applies to ``s`` from it.  If either step
      raises, the case above applies to the route through both.

    It is *not* true that a step from ``m0`` is defined whenever the one
    from ``l0`` is, so the representability case is needed.  Neither that
    fact nor the merged-step fact is proved in this package.  Tests check
    the merged-step fact on every pair of steps from the states of small
    automata, and check the covering itself against the exploration of
    all paths, including steps where only the representability case
    applies.

    Raises:
        ValueError: ``max_events`` is negative (from :func:`normalize`).
    """
    found = {
        label for cell, label, _ in _expanded(automaton, max_events)
        if cell in automaton.accept
    }
    return normalize(found, event_bound=max_events)


# --- constructions -------------------------------------------------------------------


def unit_hda() -> Hda:
    """The tensor unit: one vertex, both start and accept."""
    carrier = _unchecked(PrecubicalSet, {"v": ()}, {})
    return Hda(carrier, frozenset({"v"}), frozenset({"v"}))


def tensor_hda(x: Hda, y: Hda) -> Hda:
    """Parallel product: carriers tensor, markings pair up."""
    return Hda(
        tensor(x.carrier, y.carrier),
        frozenset(
            tensor_cell_id(s, t) for s in x.start for t in y.start
        ),
        frozenset(
            tensor_cell_id(s, t) for s in x.accept for t in y.accept
        ),
    )


def _marked_colimit(
    parts: Sequence[Hda], arrows: Sequence[tuple[int, int, Mapping[str, str]]]
) -> Hda:
    """The colimit of the parts' carriers, marked by the cocone images.

    The arrows must already be precubical maps; they are not checked again.
    """
    colim, cocones = _colimit([p.carrier for p in parts], arrows)
    marked = list(zip(parts, cocones))
    return Hda(
        colim,
        frozenset(cocone(c) for part, cocone in marked for c in part.start),
        frozenset(cocone(c) for part, cocone in marked for c in part.accept),
    )


def coproduct_hda(parts: Sequence[Hda]) -> Hda:
    """Disjoint union of automata; markings are inherited per summand."""
    return _marked_colimit(parts, [])


def pushout_hda(
    apex: Hda,
    left: Hda,
    right: Hda,
    into_left: Mapping[str, str],
    into_right: Mapping[str, str],
) -> Hda:
    """Glue ``left`` and ``right`` along ``apex``.

    Both legs must be HDA morphisms.  The result's markings are the images
    of all three components' markings under the colimit cocone.
    """
    for name, tgt, mapping in (
        ("left", left, into_left),
        ("right", right, into_right),
    ):
        problems = validate_hda_map(apex, tgt, mapping)
        if problems:
            raise PrecubicalInvariant(
                [f"{name} leg: {p}" for p in problems]
            )
    return _marked_colimit(
        [apex, left, right], [(0, 1, dict(into_left)), (0, 2, dict(into_right))]
    )


def tensor_power(x: Hda, n: int) -> Hda:
    """The ``n``-fold tensor of ``x``; the unit automaton when ``n`` is 0."""
    if n < 0:
        raise ValueError("tensor power needs a non-negative exponent")
    result = unit_hda()
    for _ in range(n):
        result = tensor_hda(result, x)
    return result


def replicate(x: Hda, n: int) -> Hda:
    """Zero to ``n`` parallel copies of ``x``, as a coproduct of tensor powers."""
    if n < 0:
        raise ValueError("replication needs a non-negative count")
    return coproduct_hda([tensor_power(x, k) for k in range(n + 1)])


def replication_chain_prefix(
    seed: Hda, n: int, base: str, far: str
) -> tuple[list[Hda], list[HdaMap]]:
    """Iterated-pushout prefix of the unbounded replication of ``seed``.

    Stage 1 is ``seed`` itself.  Stage ``k+1`` glues the full tensor power
    ``seed**(k+1)`` onto stage ``k``: the power's subautomaton
    ``power_k (x) base`` is identified with the image of ``power_k`` inside
    stage ``k``.  Accept markings accumulate -- each stage adds the new
    power's far corner -- while start markings are left for the caller to
    place.

    Args:
        seed: the automaton to replicate.  Its accept cells stay marked in
            every stage; later stages carry no start cells.
        n: number of stages to build (at least 1).
        base: a vertex of ``seed`` acting as the "not yet spawned" state.
        far: the vertex of ``seed`` whose tensor powers mark acceptance.

    Returns:
        The stages ``[stage_1 .. stage_n]`` and the inclusion of each stage
        into the next.

    Raises:
        ValueError: ``n`` is below 1, or ``base`` or ``far`` is not a vertex.
        UnknownCell: ``base`` or ``far`` is not a cell of ``seed``.
        PrecubicalInvariant: ``n`` is at least 2 and ``seed`` has start
            cells, which stage 2 leaves unmarked, so the inclusion of stage
            1 would not be an HDA map; or two tensor cell ids collide.
    """
    if n < 1:
        raise ValueError("the chain prefix has at least one stage")
    if len(seed.carrier.word(base)) != 0 or len(seed.carrier.word(far)) != 0:
        raise ValueError("base and far must be vertices")

    stages = [seed]
    inclusions: list[HdaMap] = []
    power = seed.carrier                       # carrier of seed ** (k)
    power_far = far                            # its accepting far corner
    into_stage = {c: c for c in seed.carrier.cells}
    for _ in range(1, n):
        bigger = tensor(power, seed.carrier)   # carrier of seed ** (k+1)
        onto_base = {c: tensor_cell_id(c, base) for c in power.cells}
        # Both arrows are precubical maps by construction: the first is the
        # identity or a cocone of the previous colimit, and tensoring with a
        # vertex keeps words and faces.
        colim, cocones = _colimit(
            [power, stages[-1].carrier, bigger],
            [(0, 1, into_stage), (0, 2, onto_base)],
        )
        bigger_far = tensor_cell_id(power_far, far)
        into_next = cocones[1].mapping
        accept = {into_next[c] for c in stages[-1].accept}
        accept.add(cocones[2](bigger_far))
        stage = Hda(colim, frozenset(), frozenset(accept))
        # The cocone is a precubical map that keeps every accept cell; only
        # the seed's start cells, which no later stage marks, can break it.
        unmarked = _unmarked(stages[-1], stage, into_next)
        if unmarked:
            raise PrecubicalInvariant(unmarked)
        inclusions.append(_unchecked(HdaMap, stages[-1], stage, into_next))
        stages.append(stage)
        power, power_far = bigger, bigger_far
        into_stage = cocones[2].mapping
    return stages, inclusions


# --- structural counts ------------------------------------------------------------


def start_cell_count(automaton: Hda) -> int:
    """Number of start-marked cells."""
    return len(automaton.start)
