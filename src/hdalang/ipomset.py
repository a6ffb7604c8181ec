"""Ipomsets: partially ordered multisets with interfaces and an event order.

An ipomset is a finite set of labelled events carrying two relations:

* ``precedence`` -- a strict partial order; ``x`` precedes ``y`` when ``x``
  must finish before ``y`` starts.
* ``event order`` -- a strict partial order that arbitrates between events
  whose precedence is undetermined; it records which concurrent event was
  started first.

Two subsets of events are distinguished as interfaces: ``sources`` are
events already running when the behaviour begins (they must be minimal in
precedence) and ``targets`` are events still running when it ends (maximal
in precedence).

This module stores ipomsets in a *canonical form*: events are the integers
``0..n-1``, numbered along the linear order obtained by uniting precedence
with the essential part of the event order.  Under that numbering every
related pair increases, so the event order never needs to be stored -- it
is recovered as "all index-increasing pairs that precedence leaves
unordered".  Two canonical ipomsets are isomorphic if and only if they are
equal, which turns structure comparison into tuple comparison.

The module provides:

* :class:`Ipomset` -- the canonical, immutable representation;
* :func:`validate` -- builds the canonical ipomset from raw data over
  arbitrary event identities, rejecting malformed input with a precise
  error type;
* :func:`subsumes` -- the refinement preorder ("more ordered implements
  less ordered"), returning an explicit witness bijection;
* :func:`interval_representation` -- recognise interval orders and either
  return endpoint functions or a forbidden-suborder witness;
* :func:`glue` / :func:`parallel` -- sequential and parallel composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Iterable, Mapping, Sequence, TypeVar

Pair = tuple[int, int]
_T = TypeVar("_T")


# --- errors -----------------------------------------------------------------


class IpomsetError(ValueError):
    """Base class for ipomset domain errors."""


class LabelMissing(IpomsetError):
    """An event has no label, or its label is not a non-empty string."""


class CycleInPrecedence(IpomsetError):
    """The transitive closure of the precedence relation is reflexive."""


class EventOrderCycle(IpomsetError):
    """The event order is cyclic or contradicts precedence."""


class EventOrderIncomplete(IpomsetError):
    """Two precedence-incomparable events are not ordered by the event order."""


class SourceNotMinimal(IpomsetError):
    """A source event has a strict predecessor."""


class TargetNotMaximal(IpomsetError):
    """A target event has a strict successor."""


class SequentialMismatch(IpomsetError):
    """Gluing was attempted across interfaces that do not match."""


class InternalOrderCycle(IpomsetError):
    """A composite's precedence and event order cannot be linearised together."""


# --- relation helpers -------------------------------------------------------


def transitive_closure(pairs: Iterable[Pair]) -> frozenset[Pair]:
    """Return the transitive closure of a binary relation on integers.

    The closure may be reflexive; callers decide whether that is an error.
    """
    succ: dict[int, set[int]] = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    # Propagate reachability until a fixed point is reached.
    changed = True
    while changed:
        changed = False
        for a, outs in succ.items():
            extra = set()
            for b in outs:
                extra |= succ.get(b, frozenset())
            if not extra <= outs:
                outs |= extra
                changed = True
    return frozenset((a, b) for a, outs in succ.items() for b in outs)


# --- canonical representation ------------------------------------------------


@dataclass(frozen=True)
class Ipomset:
    """A canonical interval-interfaced pomset.

    Events are ``0..len(labels)-1``.  The numbering linearises the union of
    precedence and the essential event order, so every stored precedence
    pair is index-increasing and the event order is implicit: event ``i``
    was started no later than event ``j`` whenever ``i < j`` and the two
    are precedence-incomparable.

    Attributes:
        labels: label of each event, indexed by event number.
        precedence: transitively closed strict order; all pairs ``(i, j)``
            satisfy ``i < j``.
        sources: events already running at the start (minimal ones only).
        targets: events still running at the end (maximal ones only).
    """

    labels: tuple[str, ...]
    precedence: frozenset[Pair]
    sources: frozenset[int]
    targets: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(
            self, "precedence", transitive_closure(self.precedence)
        )
        object.__setattr__(self, "sources", frozenset(self.sources))
        object.__setattr__(self, "targets", frozenset(self.targets))
        n = len(self.labels)
        for lab in self.labels:
            if not isinstance(lab, str) or not lab:
                raise LabelMissing(f"event label {lab!r} is not a non-empty string")
        if any(a == b for a, b in self.precedence):
            raise CycleInPrecedence("precedence has a cycle")
        for a, b in self.precedence:
            if not (0 <= a < b < n):
                raise EventOrderCycle(
                    f"precedence pair ({a}, {b}) is not index-increasing; "
                    "the ipomset is not in canonical form"
                )
        for s in self.sources:
            if any(b == s for _, b in self.precedence):
                raise SourceNotMinimal(f"source event {s} has a predecessor")
        for t in self.targets:
            if any(a == t for a, _ in self.precedence):
                raise TargetNotMaximal(f"target event {t} has a successor")
        if not all(0 <= e < n for e in self.sources | self.targets):
            raise LabelMissing("interface refers to an event with no label")

    # -- derived structure --

    @property
    def size(self) -> int:
        """Number of events."""
        return len(self.labels)

    @property
    def is_empty(self) -> bool:
        return not self.labels

    @property
    def event_order(self) -> frozenset[Pair]:
        """The essential event order: index-increasing incomparable pairs."""
        return frozenset(
            (i, j)
            for i, j in combinations(range(self.size), 2)
            if (i, j) not in self.precedence
        )

    def predecessors(self, event: int) -> frozenset[int]:
        """Strict precedence-predecessors of ``event``."""
        return frozenset(a for a, b in self.precedence if b == event)

    def successors(self, event: int) -> frozenset[int]:
        """Strict precedence-successors of ``event``."""
        return frozenset(b for a, b in self.precedence if a == event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        marks = []
        for i, lab in enumerate(self.labels):
            pre = "*" if i in self.sources else ""
            post = "*" if i in self.targets else ""
            marks.append(f"{pre}{lab}{post}")
        rel = ",".join(f"{a}<{b}" for a, b in sorted(self.precedence))
        return f"Ipomset([{' '.join(marks)}]{'; ' + rel if rel else ''})"


EMPTY: Ipomset = Ipomset((), frozenset(), frozenset(), frozenset())


def _unchecked(cls: type[_T], **fields: object) -> _T:
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given.

    Skips ``__post_init__``, so it is only for values the library built
    from checked ones: they must already have the field types and the
    invariants the checked constructor would establish.
    """
    value = object.__new__(cls)
    for name, field_value in fields.items():
        object.__setattr__(value, name, field_value)
    return value


def _canonical(
    labels: Sequence[str],
    prec: frozenset[Pair],
    order: Iterable[Pair],
    sources: Iterable[int],
    targets: Iterable[int],
) -> Ipomset | None:
    """Number events along ``prec`` united with ``order``; ``None`` if cyclic.

    ``labels`` names the events ``0..n-1``, ``prec`` is their transitively
    closed precedence, and ``order`` orders each pair that ``prec`` leaves
    unordered in one direction, so the union relates every pair of events
    exactly once.  Such a relation is acyclic exactly when the numbers of
    events before each event are ``0..n-1``, and that number is the event's
    canonical one.  The interfaces must already be extremal in ``prec``.
    """
    n = len(labels)
    rank = [0] * n
    for _, b in prec:
        rank[b] += 1
    for _, b in order:
        rank[b] += 1
    if sorted(rank) != list(range(n)):
        return None
    return _unchecked(
        Ipomset,
        labels=tuple(labels[x] for x in sorted(range(n), key=rank.__getitem__)),
        precedence=frozenset((rank[a], rank[b]) for a, b in prec),
        sources=frozenset(rank[s] for s in sources),
        targets=frozenset(rank[t] for t in targets),
    )


# --- construction from raw data ----------------------------------------------


def validate(
    labels: Mapping[Hashable, str],
    precedence: Iterable[tuple[Hashable, Hashable]] = (),
    event_order: Iterable[tuple[Hashable, Hashable]] = (),
    sources: Iterable[Hashable] = (),
    targets: Iterable[Hashable] = (),
) -> Ipomset:
    """Check raw ipomset data and return its canonical form.

    ``labels`` maps arbitrary hashable event identities to label strings;
    the relations and interfaces refer to those identities.  Both relations
    are treated as generators and transitively closed here, so callers may
    pass covering pairs only.

    Event-order pairs that duplicate a precedence pair in the same
    direction are redundant and dropped silently; a pair opposing
    precedence is an error.  After closure, every precedence-incomparable
    pair must be ordered by the event order in exactly one direction.

    Raises:
        LabelMissing: an event lacks a non-empty string label, or a
            relation/interface mentions an unknown event.
        CycleInPrecedence: precedence closes to a reflexive relation.
        EventOrderCycle: the event order closes to a reflexive relation,
            opposes precedence, or the union of the two cannot be
            linearised.
        EventOrderIncomplete: some incomparable pair is left unordered.
        SourceNotMinimal / TargetNotMaximal: an interface event is not
            extremal in precedence.
    """
    events = list(labels.keys())
    index = {e: i for i, e in enumerate(events)}
    n = len(events)
    for e in events:
        lab = labels[e]
        if not isinstance(lab, str) or not lab:
            raise LabelMissing(f"event {e!r} has no valid label")

    def _idx(e: Hashable, role: str) -> int:
        if e not in index:
            raise LabelMissing(f"{role} mentions unknown event {e!r}")
        return index[e]

    prec_pairs = {( _idx(a, "precedence"), _idx(b, "precedence")) for a, b in precedence}
    order_pairs = {(_idx(a, "event order"), _idx(b, "event order")) for a, b in event_order}

    prec = transitive_closure(prec_pairs)
    if any(a == b for a, b in prec):
        raise CycleInPrecedence("precedence has a cycle")

    order = transitive_closure(order_pairs)
    if any(a == b for a, b in order):
        raise EventOrderCycle("event order has a cycle")
    for a, b in order:
        if (b, a) in prec:
            raise EventOrderCycle(
                f"event order puts {events[a]!r} before {events[b]!r} "
                "against their precedence"
            )

    # The essential event order: only pairs precedence leaves unordered.
    essential = frozenset((a, b) for a, b in order if (a, b) not in prec)
    for i, j in combinations(range(n), 2):
        if (i, j) in prec or (j, i) in prec:
            continue
        if (i, j) not in essential and (j, i) not in essential:
            raise EventOrderIncomplete(
                f"events {events[i]!r} and {events[j]!r} are concurrent "
                "but the event order does not relate them"
            )

    src = {_idx(e, "sources") for e in sources}
    tgt = {_idx(e, "targets") for e in targets}
    for s in src:
        if any(b == s for _, b in prec):
            raise SourceNotMinimal(f"source event {events[s]!r} has a predecessor")
    for t in tgt:
        if any(a == t for a, _ in prec):
            raise TargetNotMaximal(f"target event {events[t]!r} has a successor")

    result = _canonical([labels[e] for e in events], prec, essential, src, tgt)
    if result is None:
        raise EventOrderCycle(
            "precedence and event order cannot be linearised together"
        )
    return result


# --- convenience constructors -------------------------------------------------


def from_chain(
    labels: Sequence[str],
    sources: Iterable[int] = (),
    targets: Iterable[int] = (),
) -> Ipomset:
    """A totally ordered ipomset: each event precedes the next."""
    n = len(labels)
    return Ipomset(
        labels=tuple(labels),
        precedence=transitive_closure((i, i + 1) for i in range(n - 1)),
        sources=frozenset(sources),
        targets=frozenset(targets),
    )


def from_concurrent(
    labels: Sequence[str],
    sources: Iterable[int] = (),
    targets: Iterable[int] = (),
) -> Ipomset:
    """A fully concurrent ipomset; the event order follows index order."""
    return Ipomset(
        labels=tuple(labels),
        precedence=frozenset(),
        sources=frozenset(sources),
        targets=frozenset(targets),
    )


def point(label: str, *, source: bool = False, target: bool = False) -> Ipomset:
    """A single event, optionally in the source and/or target interface."""
    return Ipomset(
        labels=(label,),
        precedence=frozenset(),
        sources=frozenset({0} if source else ()),
        targets=frozenset({0} if target else ()),
    )


def identity(labels: Sequence[str]) -> Ipomset:
    """Concurrent events that are all both sources and targets.

    Gluing with an identity on either side leaves a matching ipomset
    unchanged; these are the labels of zero-length automaton paths.
    """
    every = frozenset(range(len(labels)))
    return Ipomset(tuple(labels), frozenset(), every, every)


# --- subsumption ---------------------------------------------------------------


def _interface_key(p: Ipomset, event: int) -> tuple[str, bool, bool]:
    return (p.labels[event], event in p.sources, event in p.targets)


def subsumes(p: Ipomset, q: Ipomset) -> tuple[int, ...] | None:
    """Decide whether ``p`` refines ``q``; return the witness bijection.

    ``p`` refines ``q`` when some label- and interface-preserving bijection
    ``f`` *reflects* precedence (``f(x)`` before ``f(y)`` forces ``x``
    before ``y``) and preserves the event order on pairs that stay
    concurrent.  Intuitively ``p`` has at least the ordering of ``q``, so
    every schedule of ``p`` is a schedule of ``q``.

    Returns:
        A tuple ``w`` with ``w[x] = f(x)``, or ``None`` when no witness
        exists.  On canonical forms the relation is a partial order: the
        only ipomset that both subsumes and is subsumed by ``p`` is ``p``
        itself.
    """
    n = p.size
    if n != q.size or sorted(p.labels) != sorted(q.labels):
        return None
    if len(p.sources) != len(q.sources) or len(p.targets) != len(q.targets):
        return None

    # Candidate images for each p-event, grouped by label and interface role.
    pools: dict[tuple[str, bool, bool], list[int]] = {}
    for v in range(n):
        pools.setdefault(_interface_key(q, v), []).append(v)
    for x in range(n):
        if _interface_key(p, x) not in pools:
            return None

    image = [-1] * n
    used = [False] * n

    def consistent(x: int, u: int) -> bool:
        for y in range(x):
            v = image[y]
            if (v, u) in q.precedence:
                if (y, x) not in p.precedence:
                    return False
            elif (u, v) in q.precedence:
                if (x, y) not in p.precedence:
                    return False
            else:
                # Images concurrent in q: if the pair is concurrent in p,
                # its event order (index order, y < x) must transfer.
                if (y, x) not in p.precedence and (x, y) not in p.precedence:
                    if not v < u:
                        return False
        return True

    def assign(x: int) -> bool:
        if x == n:
            return True
        for u in pools[_interface_key(p, x)]:
            if not used[u] and consistent(x, u):
                used[u] = True
                image[x] = u
                if assign(x + 1):
                    return True
                used[u] = False
                image[x] = -1
        return False

    return tuple(image) if assign(0) else None


# --- interval recognition --------------------------------------------------------


@dataclass(frozen=True)
class IntervalRepresentation:
    """Closed integer intervals realising a precedence order.

    Event ``x`` is assigned the interval ``[begin[x], end[x]]``; ``x``
    precedes ``y`` exactly when ``end[x] < begin[y]``.
    """

    begin: tuple[int, ...]
    end: tuple[int, ...]


@dataclass(frozen=True)
class TwoPlusTwoWitness:
    """Four events forming the forbidden ``2+2`` suborder.

    ``first_low`` precedes ``first_high`` and ``second_low`` precedes
    ``second_high``, while all four cross pairs are concurrent.  An order
    admits an interval representation exactly when no such quadruple
    exists.
    """

    first_low: int
    first_high: int
    second_low: int
    second_high: int


def interval_representation(p: Ipomset) -> IntervalRepresentation | TwoPlusTwoWitness:
    """Build an interval representation of ``p``'s precedence, or refute it.

    The construction orders the distinct predecessor sets by inclusion;
    precedence is an interval order exactly when they form a chain.  When
    two predecessor sets are incomparable, the four events witnessing that
    incomparability form a ``2+2`` and are returned instead.
    """
    n = p.size
    preds = [p.predecessors(x) for x in range(n)]
    distinct = sorted(set(preds), key=len)
    for first, second in combinations(distinct, 2):
        if first <= second:
            continue
        low_a = next(iter(first - second))
        low_b = next(iter(second - first))
        high_a = next(x for x in range(n) if preds[x] == first)
        high_b = next(x for x in range(n) if preds[x] == second)
        return TwoPlusTwoWitness(
            first_low=low_a,
            first_high=high_a,
            second_low=low_b,
            second_high=high_b,
        )
    level = {s: i for i, s in enumerate(distinct)}
    begin = tuple(level[preds[x]] for x in range(n))
    end = tuple(
        max((i for i, s in enumerate(distinct) if x not in s), default=0)
        for x in range(n)
    )
    return IntervalRepresentation(begin=begin, end=end)


def is_interval(p: Ipomset) -> bool:
    """True when ``p``'s precedence admits an interval representation."""
    return isinstance(interval_representation(p), IntervalRepresentation)


# --- composition -------------------------------------------------------------------


def glue(p: Ipomset, q: Ipomset) -> Ipomset:
    """Sequential composition: run ``p``, hand its targets to ``q``'s sources.

    The target interface of ``p`` and source interface of ``q`` must carry
    the same labels in event-order sequence; matching events are identified
    pairwise.  Every non-target event of ``p`` precedes every non-source
    event of ``q``; all other order is inherited.

    Raises:
        SequentialMismatch: the interfaces differ in length or labelling.
        InternalOrderCycle: the inherited event order conflicts with the
            composite precedence, so no canonical numbering exists.
    """
    p_targets = sorted(p.targets)
    q_sources = sorted(q.sources)
    if [p.labels[t] for t in p_targets] != [q.labels[s] for s in q_sources]:
        raise SequentialMismatch(
            f"target interface {[p.labels[t] for t in p_targets]} does not "
            f"match source interface {[q.labels[s] for s in q_sources]}"
        )

    # Carrier: p's events keep their numbers; q's interface events are
    # identified with p's targets; the rest of q gets fresh numbers.
    carry = dict(zip(q_sources, p_targets))
    fresh = [b for b in range(q.size) if b not in carry]
    carry.update((b, p.size + k) for k, b in enumerate(fresh))
    labels = p.labels + tuple(q.labels[b] for b in fresh)

    raw = set(p.precedence)
    raw |= {(carry[a], carry[b]) for a, b in q.precedence}
    raw |= {
        (x, carry[b])
        for x in range(p.size)
        if x not in p.targets
        for b in range(q.size)
        if b not in q.sources
    }
    prec = transitive_closure(raw)

    # The new precedence only joins a non-target of p to a non-source of q,
    # so a pair inside one operand keeps its relation and its event order.
    order = p.event_order | {(carry[a], carry[b]) for a, b in q.event_order}
    result = _canonical(
        labels, prec, order, p.sources, (carry[t] for t in q.targets)
    )
    if result is None:
        raise InternalOrderCycle(
            "gluing produced precedence and event order that cannot be "
            "linearised together"
        )
    return result


def parallel(p: Ipomset, q: Ipomset) -> Ipomset:
    """Parallel composition: disjoint union, ``p``'s events started first.

    Events of the two operands stay mutually concurrent; the event order
    places every ``p`` event before every ``q`` event, which the canonical
    block numbering encodes for free.
    """
    shift = p.size
    return _unchecked(
        Ipomset,
        labels=p.labels + q.labels,
        precedence=p.precedence
        | frozenset((a + shift, b + shift) for a, b in q.precedence),
        sources=p.sources | frozenset(s + shift for s in q.sources),
        targets=p.targets | frozenset(t + shift for t in q.targets),
    )
