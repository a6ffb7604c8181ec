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
equal, which turns structure comparison into tuple comparison.  A
canonical ipomset is thus raw data whose event order is the index order,
and ``Ipomset(...)`` checks it with :func:`validate`, the one checker.

The kernels work on bitmasks: each event's predecessors and successors as
an ``int``, with its label and interface role.  The masks are derived from
the stored fields on first use and kept on the instance; the stored fields,
equality, hashing and every output are those of the canonical form above.
The checker works on masks too: :func:`validate` closes both raw relations
into them, and checks and numbers on them.

The module provides:

* :class:`Ipomset` -- the canonical, immutable representation;
* :func:`validate` -- builds the canonical ipomset from raw data over
  arbitrary event identities, rejecting malformed input with a precise
  error type;
* :func:`subsumes` -- the refinement preorder ("more ordered implements
  less ordered"), returning an explicit witness bijection;
* :func:`interval_representation` -- recognise interval orders and either
  return endpoint functions or a forbidden-suborder witness;
* :func:`glue` / :func:`parallel` -- sequential and parallel composition;
  ``glue`` and the path steps of :mod:`hdalang.hda` share one kernel,
  ``_glued``, which numbers the composite in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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


@lru_cache(maxsize=1 << 12)
def _members(mask: int) -> tuple[int, ...]:
    """The events whose bits are set in ``mask``, in ascending order.

    It is the package's one walk over the bits of a mask.  Cached:
    relations on a few events give few distinct masks, and the search for
    refinement orders in :mod:`hdalang.language` walks the same ones at
    every node.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _closed(n: int, pairs: Iterable[Pair]) -> tuple[list[int], list[int]]:
    """The transitive closure of a relation on ``0..n-1``, as bitmasks.

    Returns ``(succ, pred)``: bit ``b`` of ``succ[a]`` and bit ``a`` of
    ``pred[b]`` are set when the closure holds ``(a, b)``.  Warshall's
    algorithm on successor masks: for each event ``k`` in turn, every
    event that reaches ``k`` also reaches ``k``'s successors.  The closure
    may be reflexive (bit ``x`` of ``succ[x]``); callers decide whether
    that is an error.
    """
    succ = [0] * n
    for a, b in pairs:
        succ[a] |= 1 << b
    for k, via in enumerate(succ):
        if via:
            bit = 1 << k
            for a, outs in enumerate(succ):
                if outs & bit:
                    succ[a] = outs | via
    pred = [0] * n
    for a, outs in enumerate(succ):
        for b in _members(outs):
            pred[b] |= 1 << a
    return succ, pred


# --- canonical representation ------------------------------------------------


@dataclass(frozen=True)
class Ipomset:
    """A canonical interval-interfaced pomset.

    Events are ``0..len(labels)-1``.  The numbering linearises the union of
    precedence and the essential event order, so every stored precedence
    pair is index-increasing and the event order is implicit: event ``i``
    was started no later than event ``j`` whenever ``i < j`` and the two
    are precedence-incomparable.

    The constructor checks that each precedence pair names an event, then
    is :func:`validate` over the index order, with its errors and texts.
    It passes that order as the covering pairs ``(i, i + 1)``, which
    :func:`validate` closes to every index-increasing pair.

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

    # Derived bitmasks, set by :func:`_masks` on first use; not a field.
    _derived = None

    def __post_init__(self) -> None:
        n = len(self.labels)
        pairs = list(self.precedence)
        # An unknown event in a pair is an EventOrderCycle here, not
        # validate's LabelMissing.
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise EventOrderCycle(
                    f"precedence pair ({a}, {b}) names an event outside 0..{n - 1}"
                )
        checked = validate(
            dict(enumerate(self.labels)), pairs, zip(range(n), range(1, n)),
            self.sources, self.targets,
        )
        for name in self.__match_args__:
            _set(self, name, getattr(checked, name))

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
        return frozenset(_members(_masks(self)[0][event]))

    def successors(self, event: int) -> frozenset[int]:
        """Strict precedence-successors of ``event``."""
        return frozenset(_members(_masks(self)[1][event]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        marks = []
        for i, lab in enumerate(self.labels):
            pre = "*" if i in self.sources else ""
            post = "*" if i in self.targets else ""
            marks.append(f"{pre}{lab}{post}")
        rel = ",".join(f"{a}<{b}" for a, b in sorted(self.precedence))
        return f"Ipomset([{' '.join(marks)}]{'; ' + rel if rel else ''})"


_set = object.__setattr__


def _unchecked(cls: type[_T], *fields: object) -> _T:
    """An instance of the dataclass ``cls`` holding ``fields`` as they are.

    The fields are given by position, in ``cls.__match_args__`` order.
    Skips ``__post_init__``, so it is only for values the library built
    from checked ones: they must already have the field types and the
    invariants the checked constructor would establish.  It is the
    package's one builder of this kind, for every dataclass it makes.
    """
    value = object.__new__(cls)
    for name, field_value in zip(cls.__match_args__, fields):
        _set(value, name, field_value)
    return value


_Key = tuple[str, bool, bool]
_Masks = tuple[
    tuple[int, ...], tuple[int, ...], tuple[_Key, ...], dict[_Key, int], tuple[_Key, ...]
]


def _masks(p: Ipomset) -> _Masks:
    """Bitmasks of ``p``'s structure: ``(pred, succ, keys, pools, bag)``.

    Bit ``y`` of ``pred[x]`` (``succ[x]``) is set when ``y`` precedes
    (follows) ``x``; ``keys[x]`` is event ``x``'s label and interface role,
    ``pools`` maps each key to the mask of the events that have it, and
    ``bag`` is the sorted keys, the multiset a bijection must preserve.
    They are derived from the stored fields on first use and kept on the
    instance.  The cache is written by attribute, never through
    ``__dict__``, which would turn the instance's inline attribute values
    into a full dictionary and cost memory on every cached ipomset.
    """
    masks = p._derived
    if masks is None:
        pred = [0] * p.size
        succ = [0] * p.size
        for a, b in p.precedence:
            pred[b] |= 1 << a
            succ[a] |= 1 << b
        keys = tuple(
            (lab, x in p.sources, x in p.targets) for x, lab in enumerate(p.labels)
        )
        pools: dict[_Key, int] = {}
        for x, key in enumerate(keys):
            pools[key] = pools.get(key, 0) | 1 << x
        masks = (tuple(pred), tuple(succ), keys, pools, tuple(sorted(keys)))
        _set(p, "_derived", masks)
    return masks


def _numbered(
    labels: Sequence[str],
    pred: Sequence[int],
    rank: Sequence[int],
    sources: Iterable[int],
    targets: Iterable[int],
) -> Ipomset:
    """The ipomset with event ``x`` renumbered ``rank[x]``.

    ``pred[x]`` masks ``x``'s predecessors in a strict order, ``rank``
    must be a permutation of ``0..n-1`` that makes every pair of that order
    increasing, and the interfaces must be extremal in it.  The pairs go
    through a set: a frozenset copied from one gets a table sized to its
    contents, one built from a generator may get one twice as large.
    """
    return _unchecked(
        Ipomset,
        tuple(labels[x] for x in sorted(range(len(labels)), key=rank.__getitem__)),
        frozenset(
            {(rank[a], rank[b]) for b, mask in enumerate(pred) for a in _members(mask)}
        ),
        frozenset(rank[s] for s in sources),
        frozenset(rank[t] for t in targets),
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

    It is the one checker of the canonical form: ``Ipomset(...)`` is this
    function with the index order as event order.  It closes both
    relations into per-event masks (:func:`_closed`), on which every check
    and the numbering work.  The checks run in the order listed below; of
    several pairs opposing precedence, the least one by event index
    (``labels`` order), first event then second, is named.

    Raises:
        LabelMissing: an event lacks a non-empty string label, or a
            relation/interface mentions an unknown event.
        CycleInPrecedence: precedence closes to a reflexive relation.
        EventOrderCycle: the event order closes to a reflexive relation
            or opposes precedence; otherwise the union of the two is
            always linearisable.
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

    # Both relations are indexed before either is closed: unknown events first.
    prec_pairs = [(_idx(a, "precedence"), _idx(b, "precedence")) for a, b in precedence]
    order_pairs = [(_idx(a, "event order"), _idx(b, "event order")) for a, b in event_order]

    succ, pred = _closed(n, prec_pairs)
    if any(outs >> x & 1 for x, outs in enumerate(succ)):
        raise CycleInPrecedence("precedence has a cycle")

    later, earlier = _closed(n, order_pairs)
    if any(outs >> x & 1 for x, outs in enumerate(later)):
        raise EventOrderCycle("event order has a cycle")
    for a in range(n):
        against = _members(later[a] & pred[a])
        if against:
            raise EventOrderCycle(
                f"event order puts {events[a]!r} before {events[against[0]]!r} "
                "against their precedence"
            )

    for i in range(n):
        loose = _members((1 << n) - (2 << i) & ~(succ[i] | pred[i] | later[i] | earlier[i]))
        if loose:
            raise EventOrderIncomplete(
                f"events {events[i]!r} and {events[loose[0]]!r} are concurrent "
                "but the event order does not relate them"
            )

    src = {_idx(e, "sources") for e in sources}
    tgt = {_idx(e, "targets") for e in targets}
    for s in src:
        if pred[s]:
            raise SourceNotMinimal(f"source event {events[s]!r} has a predecessor")
    for t in tgt:
        if succ[t]:
            raise TargetNotMaximal(f"target event {events[t]!r} has a successor")

    # Both relations are acyclic, no event-order pair opposes precedence,
    # and each concurrent pair is in the event order one way only, so
    # precedence and the rest of the event order relate every pair once: a
    # tournament.  A 3-cycle in it would take two edges of one relation and
    # one of the other; closing the two gives a pair that opposes the third,
    # which has raised above.  A tournament with no 3-cycle is a linear
    # order, and the events before each event (predecessors, or earlier in
    # the event order) number it.
    rank = [(pred[x] | earlier[x]).bit_count() for x in range(n)]
    return _numbered([labels[e] for e in events], pred, rank, src, tgt)


EMPTY: Ipomset = Ipomset((), frozenset(), frozenset(), frozenset())


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
        precedence=frozenset((i, i + 1) for i in range(n - 1)),
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
    A word of non-empty strings is built unchecked; any other goes through
    ``Ipomset(...)``, which refuses it with :func:`validate`'s error.
    """
    word = tuple(labels)
    every = frozenset(range(len(word)))
    if all(isinstance(letter, str) and letter for letter in word):
        return _unchecked(Ipomset, word, frozenset(), every, every)
    return Ipomset(word, frozenset(), every, every)


# --- subsumption ---------------------------------------------------------------


def subsumes(p: Ipomset, q: Ipomset) -> tuple[int, ...] | None:
    """Decide whether ``p`` refines ``q``; return the witness bijection.

    ``p`` refines ``q`` when some label- and interface-preserving bijection
    ``f`` *reflects* precedence (``f(x)`` before ``f(y)`` forces ``x``
    before ``y``) and preserves the event order on pairs that stay
    concurrent.  Intuitively ``p`` has at least the ordering of ``q``, so
    every schedule of ``p`` is a schedule of ``q``.

    Since ``f`` reflects precedence, ``p`` needs more precedence pairs than
    ``q`` unless the two are equal; both need the same multiset of labels
    with interface roles.  The identity is tried first: it is a witness
    exactly when the labels, sources and targets agree index by index and
    ``q``'s pairs are among ``p``'s (a pair concurrent in ``p`` is then
    concurrent in ``q``, in index order), and as the least permutation it
    is the witness the search would find.  The search is forward checking
    on bitmasks.
    Each ``p``-event starts with the ``q``-events of its label and
    interface role that have no more predecessors and no more successors
    than it has.  Events are mapped in index order, each to its candidates
    in ascending order; a choice narrows the candidates of every later
    event by one mask and backtracks as soon as one has none left.  Only
    dead branches are cut, so the witness found is the lexicographically
    least one.

    Returns:
        A tuple ``w`` with ``w[x] = f(x)``, or ``None`` when no witness
        exists.  On canonical forms the relation is a partial order: the
        only ipomset that both subsumes and is subsumed by ``p`` is ``p``
        itself.
    """
    # ``f`` maps ``q``'s pairs into ``p``'s; with as many pairs it also
    # preserves precedence, and then index order, so it is the identity.
    if len(p.precedence) <= len(q.precedence):
        return tuple(range(p.size)) if p == q else None
    if (p.labels, p.sources, p.targets) == (q.labels, q.sources, q.targets):
        if q.precedence <= p.precedence:
            return tuple(range(p.size))
    p_pred, p_succ, p_keys, _, p_bag = _masks(p)
    q_pred, q_succ, _, q_pools, q_bag = _masks(q)
    if p_bag != q_bag:
        return None
    n = p.size

    domains = []
    for x in range(n):
        below, above = p_pred[x].bit_count(), p_succ[x].bit_count()
        domain = 0
        for u in _members(q_pools.get(p_keys[x], 0)):
            if q_pred[u].bit_count() <= below and q_succ[u].bit_count() <= above:
                domain |= 1 << u
        if not domain:
            return None
        domains.append(domain)
    image = [0] * n

    def extend(x: int, rest: list[int]) -> bool:
        """Map ``x`` onward, given the candidates left for ``x..n-1``."""
        if x == n:
            return True
        after, before = p_succ[x], p_pred[x]
        relation = [
            1 if after >> z & 1 else 2 if before >> z & 1 else 0
            for z in range(x + 1, n)
        ]
        for u in _members(rest[0]):
            bit = 1 << u
            # What a later z may map to, by its relation to x: concurrent
            # (0) with u and above it, no q-predecessor of u when x precedes
            # z (1), no q-successor of u when z precedes x (2); never u.
            allowed = (
                -(bit << 1) & ~(q_pred[u] | q_succ[u]),
                ~(q_pred[u] | bit),
                ~(q_succ[u] | bit),
            )
            later = [d & allowed[r] for d, r in zip(rest[1:], relation)]
            if all(later) and extend(x + 1, later):
                image[x] = u
                return True
        return False

    return tuple(image) if extend(0, domains) else None


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
    pred = _masks(p)[0]
    distinct, broken = _predecessor_chain(pred)
    if broken is not None:
        return TwoPlusTwoWitness(*_two_plus_two(pred, *broken))
    level = {mask: i for i, mask in enumerate(distinct)}
    begin = tuple(level[mask] for mask in pred)
    end = tuple(
        max((i for i, mask in enumerate(distinct) if not mask >> x & 1), default=0)
        for x in range(n)
    )
    return IntervalRepresentation(begin=begin, end=end)


def _predecessor_chain(
    pred: Sequence[int],
) -> tuple[list[int], tuple[int, int] | None]:
    """The distinct masks of ``pred`` by size, and where they stop nesting.

    The second value is the first pair of neighbours in that order whose
    smaller mask is not inside the larger one, or ``None`` when the masks
    form a chain.
    """
    distinct = sorted(set(pred), key=int.bit_count)
    for smaller, larger in zip(distinct, distinct[1:]):
        if smaller & ~larger:
            return distinct, (smaller, larger)
    return distinct, None


def _two_plus_two(
    pred: Sequence[int], first: int, second: int
) -> tuple[int, int, int, int]:
    """The ``2+2`` shown by two incomparable predecessor masks.

    Returns ``(first_low, first_high, second_low, second_high)``, the
    fields of a :class:`TwoPlusTwoWitness`.  Each low event is the least
    event of its mask missing from the other mask, and each high event is
    the least event with that mask, so the witness depends only on the
    ipomset's value.
    """
    first_only, second_only = first & ~second, second & ~first
    return (
        _members(first_only)[0],
        pred.index(first),
        _members(second_only)[0],
        pred.index(second),
    )


def is_interval(p: Ipomset) -> bool:
    """True when ``p``'s precedence admits an interval representation."""
    return _predecessor_chain(_masks(p)[0])[1] is None


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
    return _glued(
        p.labels, p.precedence, p.sources, p_targets,
        q.labels, q.precedence, q_sources, q.targets,
    )


def _glued(
    p_labels: Sequence[str], p_prec: Iterable[Pair],
    p_sources: Iterable[int], p_targets: Sequence[int],
    q_labels: Sequence[str], q_prec: Iterable[Pair],
    q_sources: Sequence[int], q_targets: Iterable[int],
) -> Ipomset:
    """The glue of canonical ``p`` and ``q``, given by their fields.

    ``p_targets`` and ``q_sources`` are sorted and carry the same labels,
    which is not checked here.  Each event is numbered by its count of
    predecessors in precedence united with the inherited event order, a
    union that relates every pair of events once.  With ``t_0 < .. <
    t_{k-1}`` the targets of ``p``, ``s_0 < .. < s_{k-1}`` the sources of
    ``q`` and ``m`` the non-targets of ``p``: a non-target ``x`` of ``p``
    keeps ``x``; ``t_i`` becomes ``t_i + s_i - i``, after the ``s_i - i``
    non-sources before ``s_i``; a non-source ``b`` of ``q`` becomes
    ``m + b``, after the non-targets.  These counts lie in ``0..N-1`` for
    the ``N`` events of the result and are a numbering exactly when the
    union is acyclic.

    Raises:
        InternalOrderCycle: two events get the same count.
    """
    m = len(p_labels) - len(p_targets)
    number = list(range(len(p_labels)))
    carry: list[int] = []
    fresh: list[int] = []
    olds = iter(p_targets)
    for b in range(len(q_labels)):
        if b in q_sources:
            # The ``s_i - i`` non-sources before ``s_i`` come before ``t_i``.
            t = next(olds)
            number[t] = t + len(fresh)
            carry.append(number[t])
        else:
            fresh.append(m + b)
            carry.append(m + b)
    labels: list[str | None] = [None] * (m + len(q_labels))
    for x, k in enumerate(number):
        labels[k] = p_labels[x]
    for k in fresh:
        labels[k] = q_labels[k - m]
    if None in labels:
        raise InternalOrderCycle(
            "gluing produced precedence and event order that cannot be "
            "linearised together"
        )

    # The union of p's pairs P, q's carried pairs Q and the block B of
    # (non-target of p, non-source of q) is already transitive.  A chain
    # through an event of p starts in P: Q meets p only at the images of
    # q's sources, which are minimal, and B ends only at fresh events.  A
    # chain through a fresh event goes on in Q.  Targets of p are maximal
    # and sources of q minimal, so P then P lies in P, P then Q or B lies
    # in B, Q then Q lies in Q, and B then Q lies in B.  A pair of p starts
    # at a non-target, which keeps its number.  The pairs go through a set
    # because a frozenset copied from a set gets a table sized to its
    # contents, where one built from a list of 5 to 7 pairs gets one twice
    # as large; path labels are kept by the thousand.
    prec = {(a, number[b]) for a, b in p_prec}
    prec.update([(carry[a], carry[b]) for a, b in q_prec])
    prec.update([(x, f) for x in range(len(p_labels)) if x not in p_targets for f in fresh])
    return _unchecked(
        Ipomset,
        tuple(labels),
        frozenset(prec),
        frozenset(map(number.__getitem__, p_sources)),
        frozenset(map(carry.__getitem__, q_targets)),
    )


def parallel(p: Ipomset, q: Ipomset) -> Ipomset:
    """Parallel composition: disjoint union, ``p``'s events started first.

    Events of the two operands stay mutually concurrent; the event order
    places every ``p`` event before every ``q`` event, which the canonical
    block numbering encodes for free.
    """
    shift = p.size
    return _unchecked(
        Ipomset,
        p.labels + q.labels,
        p.precedence | frozenset((a + shift, b + shift) for a, b in q.precedence),
        p.sources | frozenset(s + shift for s in q.sources),
        p.targets | frozenset(t + shift for t in q.targets),
    )
