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
finished ones untargeted), built in closed form by one step function.
The label of a single path (:func:`ev_label`), the path enumeration and
the memoised language extraction all take their steps from one table and
their labels from that one step.

Paths whose accumulated precedence contradicts the order in which
concurrent events were started admit no canonical label; they are
excluded from the extraction.  Every behaviour such a path implements is
also implemented by a representable path of the same automaton (its label
would refine one with strictly less precedence that is representable), so
bounded languages are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Mapping, Sequence

from hdalang.ipomset import InternalOrderCycle, Ipomset, _unchecked, identity
from hdalang.language import Language, normalize
from hdalang.precubical import (
    PrecubicalInvariant,
    PrecubicalMap,
    PrecubicalSet,
    UnknownCell,
    Word,
    coproduct,
    finite_colimit,
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
    if problems:
        return problems
    for cell in sorted(source.start):
        if mapping[cell] not in target.start:
            problems.append(f"start cell {cell!r} maps to unmarked {mapping[cell]!r}")
    for cell in sorted(source.accept):
        if mapping[cell] not in target.accept:
            problems.append(f"accept cell {cell!r} maps to unmarked {mapping[cell]!r}")
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
        if not self.cells:
            raise ValueError("a path visits at least one cell")

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

    This is the glue of ``label`` with the step's piece (the higher cell's
    events, all concurrent, with the started ones unsourced or the finished
    ones untargeted), built in closed form.  ``label``'s targets are the
    current cell's events in word order.  A down-step only drops the
    finished events from the targets.  An up-step keeps every non-target's
    number ``x``: its predecessors are the ``x`` events before it, and none
    of them is fresh.  Each fresh event comes after the ``m`` non-targets
    and the word events before it, so the one at word position ``i`` gets
    ``m + i``.  An old target comes after its old predecessors and the
    fresh events before it in the word, so it moves up by their number.
    These counts are a numbering exactly when precedence and event order
    are acyclic together; otherwise the label does not exist.

    Raises:
        InternalOrderCycle: the numbers are not ``0..n-1`` for the ``n``
            events of the result.
    """
    targets = sorted(label.targets)
    if isinstance(step, DownStep):
        done = {targets[p - 1] for p in step.positions}
        return _unchecked(
            Ipomset,
            labels=label.labels,
            precedence=label.precedence,
            sources=label.sources,
            targets=label.targets - done,
        )
    m = label.size - len(targets)
    number = list(range(label.size))
    ends: list[int] = []
    fresh: list[int] = []
    olds = iter(targets)
    for i in range(len(word)):
        if i + 1 in step.positions:
            fresh.append(m + i)
            ends.append(m + i)
        else:
            t = next(olds)
            number[t] = t + len(fresh)
            ends.append(number[t])
    size = label.size + len(fresh)
    labels: list[str | None] = [None] * size
    for x, k in enumerate(number):
        labels[k] = label.labels[x]
    for k in fresh:
        labels[k] = word[k - m]
    if None in labels:
        raise InternalOrderCycle(
            "the step's event order conflicts with the label's precedence"
        )
    # A predecessor of a non-target is a non-target, so the new pairs need
    # no closing.
    before = [x for x in range(label.size) if x not in label.targets]
    return _unchecked(
        Ipomset,
        labels=tuple(labels),
        precedence=frozenset((number[a], number[b]) for a, b in label.precedence)
        | frozenset((x, f) for x in before for f in fresh),
        sources=frozenset(number[s] for s in label.sources),
        targets=frozenset(ends),
    )


def _moves(carrier: PrecubicalSet) -> dict[str, list[tuple[Step, str, Word]]]:
    """For each cell, the steps leaving it: ``(step, next cell, word)``.

    ``word`` is that of the step's higher cell, which :func:`_advance` takes.
    Up-steps come first, by upper cell in dimension-then-id order, then
    down-steps; within a cell, position sets go by size, then
    lexicographically.
    """
    moves: dict[str, list[tuple[Step, str, Word]]] = {c: [] for c in carrier.cells}
    downs = []
    for high in carrier.sorted_cells():
        word = carrier.word(high)
        d = len(word)
        for r in range(1, d + 1):
            for positions in map(frozenset, combinations(range(1, d + 1), r)):
                up = UpStep(positions)
                low = carrier.apply_face(high, lower=positions)
                moves[low].append((up, high, word))
                down = DownStep(positions)
                low = carrier.apply_face(high, upper=positions)
                downs.append((high, (down, low, word)))
    for high, move in downs:
        moves[high].append(move)
    return moves


def _fresh(step: Step) -> int:
    """How many events ``step`` starts."""
    return len(step.positions) if isinstance(step, UpStep) else 0


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
    label = identity(carrier.word(path.first))
    for k, step in enumerate(path.steps):
        high = path.cells[k + 1] if isinstance(step, UpStep) else path.cells[k]
        label = _advance(label, step, carrier.word(high))
    return label


def enumerate_accepting_paths(automaton: Hda, max_events: int) -> Iterator[Path]:
    """Yield every accepting path that starts at most ``max_events`` events.

    Paths begin in a start cell and end in an accept cell; the events
    already active at the start count against the budget.  Every up-step
    starts at least one event and every down-step finishes at least one,
    so between consecutive up-steps the dimension strictly decreases and
    the walk is finite even on cyclic automata.
    """
    carrier = automaton.carrier
    moves = _moves(carrier)

    def walk(cell: str, budget: int, cells: list[str], steps: list[Step]) -> Iterator[Path]:
        if cell in automaton.accept:
            yield Path(tuple(cells), tuple(steps))
        for step, there, _ in moves[cell]:
            fresh = _fresh(step)
            if fresh <= budget:
                cells.append(there)
                steps.append(step)
                yield from walk(there, budget - fresh, cells, steps)
                cells.pop()
                steps.pop()

    for cell in sorted(automaton.start):
        active = carrier.dim(cell)
        if active <= max_events:
            yield from walk(cell, max_events - active, [cell], [])


def language(automaton: Hda, max_events: int) -> Language:
    """The automaton's language up to ``max_events`` events.

    Explores reachable pairs of (cell, accumulated label) with memoisation:
    the label's target interface always lists the current cell's active
    events in word order, so the pair determines all future behaviour.
    Each step builds the next label in closed form with :func:`_advance`,
    whose count of events before each event is also its acyclicity test;
    a branch with no canonical label is cut there.  Labels are collected
    at accepting cells and normalised into a subsumption-closed language
    with this event bound.
    """
    carrier = automaton.carrier
    moves = _moves(carrier)
    found: set[Ipomset] = set()
    seen: set[tuple[str, Ipomset]] = set()
    stack: list[tuple[str, Ipomset]] = []

    for cell in sorted(automaton.start):
        if carrier.dim(cell) <= max_events:
            state = (cell, identity(carrier.word(cell)))
            if state not in seen:
                seen.add(state)
                stack.append(state)

    while stack:
        cell, label = stack.pop()
        if cell in automaton.accept:
            found.add(label)
        for step, there, word in moves[cell]:
            if label.size + _fresh(step) > max_events:
                continue
            try:
                state = (there, _advance(label, step, word))
            except InternalOrderCycle:
                # No canonical label exists down this branch, nor down any
                # extension of it; see the module docstring.
                continue
            if state not in seen:
                seen.add(state)
                stack.append(state)

    return normalize(found, event_bound=max_events)


# --- constructions -------------------------------------------------------------------


def unit_hda() -> Hda:
    """The tensor unit: one vertex, both start and accept."""
    carrier = PrecubicalSet({"v": ()}, {})
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


def coproduct_hda(parts: Sequence[Hda]) -> Hda:
    """Disjoint union of automata; markings are inherited per summand."""
    total, injections = coproduct([p.carrier for p in parts])
    start: set[str] = set()
    accept: set[str] = set()
    for part, inj in zip(parts, injections):
        start |= {inj(c) for c in part.start}
        accept |= {inj(c) for c in part.accept}
    return Hda(total, frozenset(start), frozenset(accept))


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
    colim, cocones = finite_colimit(
        [apex.carrier, left.carrier, right.carrier],
        [(0, 1, dict(into_left)), (0, 2, dict(into_right))],
    )
    start: set[str] = set()
    accept: set[str] = set()
    for component, cocone in zip((apex, left, right), cocones):
        start |= {cocone(c) for c in component.start}
        accept |= {cocone(c) for c in component.accept}
    return Hda(colim, frozenset(start), frozenset(accept))


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
        seed: the automaton to replicate; used unmarked except for accepts.
        n: number of stages to build (at least 1).
        base: a vertex of ``seed`` acting as the "not yet spawned" state.
        far: the vertex of ``seed`` whose tensor powers mark acceptance.

    Returns:
        The stages ``[stage_1 .. stage_n]`` and the inclusion of each stage
        into the next.
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
        colim, cocones = finite_colimit(
            [power, stages[-1].carrier, bigger],
            [(0, 1, into_stage), (0, 2, onto_base)],
        )
        bigger_far = tensor_cell_id(power_far, far)
        accept = {cocones[1](c) for c in stages[-1].accept}
        accept.add(cocones[2](bigger_far))
        stage = Hda(colim, frozenset(), frozenset(accept))
        inclusions.append(HdaMap(stages[-1], stage, cocones[1].mapping))
        stages.append(stage)
        power, power_far = bigger, bigger_far
        into_stage = cocones[2].mapping
    return stages, inclusions


# --- structural counts ------------------------------------------------------------


def branching_degree(automaton: Hda, cell: str) -> int:
    """How many one-dimension-up cells have ``cell`` among their faces."""
    carrier = automaton.carrier
    word = carrier.word(cell)
    above = carrier.cells_of_dim(len(word) + 1)
    return sum(
        1
        for big in above
        if any(f == cell for (_, _, f) in carrier.iter_faces(big))
    )


def start_cell_count(automaton: Hda) -> int:
    """Number of start-marked cells."""
    return len(automaton.start)
