"""Languages: subsumption-closed sets of interval ipomsets.

A language is an order ideal in the subsumption preorder: whenever it
contains a behaviour, it contains every more-ordered refinement of that
behaviour.  Ideals over interval ipomsets are represented by their
generators -- an antichain of maximal elements -- so a language value
stays finite even though the ideal it denotes can be large.

Because subsumption only relates ipomsets of equal size, every operation
here preserves the generator representation exactly; no approximation is
involved.  :func:`expand` materialises the ideal up to an event budget,
which is the bridge between this symbolic representation and the
path-by-path semantics of automata.

Ideals are materialised by growing interval refinement orders of a
generator event by event, on predecessor and successor bitmasks, and
cutting a branch as soon as it stops being interval or stops fitting the
inherited event order (:func:`_interval_refinements`).  Orders that are
not interval are never built.  :func:`normalize` needs only the maximal
members, which come from inclusion-minimal orders, so it does not grow
every order: it starts from the generator's own precedence and branches
on one obstruction at a time (a ``2+2``, or a 3-cycle with the inherited
event order), adding one of the two pairs that every valid order above
the obstruction must hold (:func:`_maximal_candidates`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from hdalang.ipomset import (
    EMPTY,
    InternalOrderCycle,
    Ipomset,
    SequentialMismatch,
    _Key,
    _masks,
    _members,
    _numbered,
    _predecessor_chain,
    _two_plus_two,
    _unchecked,
    glue,
    is_interval,
    parallel,
    subsumes,
)


class NotInterval(ValueError):
    """A language generator's precedence is not an interval order."""


@dataclass(frozen=True)
class Language:
    """A subsumption-closed language, given by its generator antichain.

    Attributes:
        generators: pairwise subsumption-incomparable interval ipomsets;
            the language denoted is every ipomset subsumed by one of them.
        event_bound: when set, the language is only known to be complete
            for ipomsets with at most this many events (languages read off
            automata are computed under such a budget).  ``None`` means
            the generators describe the language at every size.
    """

    generators: frozenset[Ipomset]
    event_bound: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", frozenset(self.generators))
        for g in self.generators:
            if not is_interval(g):
                raise NotInterval(f"generator {g!r} is not an interval ipomset")
        for g, h in combinations(self.generators, 2):
            if subsumes(g, h) is not None or subsumes(h, g) is not None:
                raise ValueError(
                    "generators must form an antichain; use normalize()"
                )


def normalize(ipomsets: Iterable[Ipomset], event_bound: int | None = None) -> Language:
    """Build a language from any finite set of canonical ipomsets.

    A non-interval ipomset cannot itself belong to a language, but its
    refinements can: it is replaced by the maximal interval elements of
    its ideal, so the denoted down-closure (within interval ipomsets) is
    unchanged.  Duplicates and ipomsets subsumed by another member are
    then dropped, leaving the antichain of maximal elements.

    The maxima come from one pass over the distinct members sorted by
    their number of precedence pairs.  A refinement has at least the pairs
    of what it refines, and as many only when the two are equal, so a
    member can only be dominated by one with strictly fewer pairs, which
    comes earlier.  Refinement is transitive, so a dominated member is
    dominated by a maximal one, and each member is tested only against the
    generators kept so far with its bag of labels and interface roles,
    which subsumption preserves: at most one call of :func:`subsumes` per
    pair of members with the same bag.  The generators kept do not depend
    on the input order or on hashing; how many calls a dominated member
    takes before one hits does, as members with equal pair counts come in
    set order.

    A non-interval ipomset is replaced only by the members of its ideal
    that come from inclusion-minimal refinement orders (see
    :func:`_maximal_candidates`); every maximal interval element is among
    them, and the pass above drops the rest.  Those orders are found by
    branching on obstructions, not by growing the whole ideal, so the cost
    depends on how many distinct orders that search closes on its way to
    the minimal ones (272 for four copies of ``ab`` in parallel, which
    keep 23 generators), not on the size of the ideal.

    Raises:
        ValueError: ``event_bound`` is negative.
    """
    if event_bound is not None and event_bound < 0:
        raise ValueError("the event bound must be non-negative")
    flat: set[Ipomset] = set()
    for p in set(ipomsets):
        if is_interval(p):
            flat.add(p)
        else:
            flat |= _maximal_candidates(p)
    keep: list[Ipomset] = []
    rivals: dict[tuple[_Key, ...], list[Ipomset]] = {}
    for p in sorted(flat, key=lambda member: len(member.precedence)):
        pairs = len(p.precedence)
        same_bag = rivals.setdefault(_masks(p)[4], [])
        if not any(
            len(g.precedence) < pairs and subsumes(p, g) is not None for g in same_bag
        ):
            same_bag.append(p)
            keep.append(p)
    return _unchecked(Language, frozenset(keep), event_bound)


def contains(lang: Language, p: Ipomset) -> bool:
    """Ideal membership: does some generator subsume ``p``?"""
    return any(subsumes(p, g) is not None for g in lang.generators)


# --- rational operations ---------------------------------------------------


def _combined_bound(first: Language, second: Language) -> int | None:
    """Tightest sound event bound for a composition of two languages.

    A member within ``min`` of the stated bounds only ever decomposes into
    factors that are themselves within both bounds (subsumption and both
    compositions never shrink a factor below its contribution), so the
    minimum of the stated bounds is sound; an unbounded operand imposes
    nothing.
    """
    bounds = [
        b for b in (first.event_bound, second.event_bound) if b is not None
    ]
    return min(bounds) if bounds else None


def seq_compose(first: Language, second: Language) -> Language:
    """Sequential composition: glue every matching generator pair.

    Pairs whose interfaces do not match contribute nothing; if no pair
    matches the result is the empty language.  Pairs whose glue admits no
    consistent event ordering likewise contribute nothing: such composites
    fall outside the representable universe, and every behaviour they
    would dominate is already dominated by a representable generator.
    """
    out: set[Ipomset] = set()
    for p in first.generators:
        for q in second.generators:
            try:
                out.add(glue(p, q))
            except (SequentialMismatch, InternalOrderCycle):
                continue
    return normalize(out, _combined_bound(first, second))


def par_compose(first: Language, second: Language) -> Language:
    """Parallel composition: parallel product of all generator pairs.

    A parallel product of interval generators need not itself be interval
    (two independent chains already contain the forbidden suborder), so
    the products are handed to :func:`normalize`, which replaces each
    such product by the maximal interval refinements it dominates.  When
    the result carries an event bound, products too large to dominate any
    member within the bound are dropped before that replacement.
    """
    bound = _combined_bound(first, second)
    out: set[Ipomset] = set()
    for p in first.generators:
        for q in second.generators:
            if bound is not None and p.size + q.size > bound:
                continue
            out.add(parallel(p, q))
    return normalize(out, bound)


def par_closure_bounded(lang: Language, max_factors: int) -> Language:
    """Union of parallel powers ``lang**0 .. lang**max_factors``.

    The zeroth power is the unit language containing only the empty
    ipomset, so the closure of the empty language is that unit.
    """
    if max_factors < 0:
        raise ValueError("max_factors must be non-negative")
    unit = Language(frozenset({EMPTY}))
    acc = set(unit.generators)
    power = unit
    for _ in range(max_factors):
        power = par_compose(power, lang)
        acc |= power.generators
    return normalize(acc, lang.event_bound)


def union(first: Language, second: Language) -> Language:
    """Union of ideals; generators are re-normalised jointly."""
    return normalize(
        first.generators | second.generators, _combined_bound(first, second)
    )


def restrict(lang: Language, max_events: int) -> Language:
    """Drop generators larger than ``max_events``.

    Subsumption preserves event counts, so small members of the ideal are
    generated by small generators and the restriction is exact.

    Raises:
        ValueError: ``max_events`` is negative.
    """
    if max_events < 0:
        raise ValueError("the event bound must be non-negative")
    return _unchecked(
        Language,
        frozenset(g for g in lang.generators if g.size <= max_events),
        max_events,
    )


# --- comparison --------------------------------------------------------------


def is_subset(first: Language, second: Language) -> bool:
    """Ideal inclusion: every generator of ``first`` lies in ``second``."""
    return all(contains(second, g) for g in first.generators)


def is_equal(first: Language, second: Language) -> bool:
    """Ideal equality (event bounds are bookkeeping and not compared)."""
    return is_subset(first, second) and is_subset(second, first)


# --- expansion ----------------------------------------------------------------


_Order = tuple[tuple[int, ...], tuple[int, ...]]


def _interval_refinements(q: Ipomset) -> list[_Order]:
    """Refinement orders of ``q`` that reach its ideal, as bitmasks.

    A refinement order is a strict order ``R`` on ``q``'s events that
    contains ``q``'s precedence, keeps the sources minimal and the targets
    maximal, is interval, and whose union with the index order inherited
    by the pairs ``R`` leaves concurrent is acyclic.  :func:`_refinement`
    numbers each into a member of ``q``'s ideal, and every member comes
    from one of the orders returned, given by each event's predecessor
    and successor masks.

    ``R`` grows one event at a time, in index order.  Event ``k`` gets
    predecessors ``D`` and successors ``U`` among the events before it.
    ``D`` is down-closed, holds ``q``'s predecessors of ``k`` and no
    target, and is empty when ``k`` is a source.  ``U`` is up-closed, lies
    wholly above ``D``, holds no source, and is empty when ``k`` is a
    target.  So ``R`` stays a strict order with extremal interfaces.  Two
    more conditions are hereditary, and a branch ends at the first event
    that breaks one:

    * The predecessor masks form a chain, so ``R`` is interval.  The new
      masks are ``D`` and those of ``U`` with ``k`` added; they stay a
      chain when ``D`` is comparable with every mask so far and ``U``
      takes along each event whose predecessors strictly include those
      of one of its members.
    * ``R`` with the inherited index order is acyclic.  That union relates
      every pair exactly once, so it is acyclic when it has no 3-cycle.
      A new one would run from ``k`` to some ``u`` in ``U``, on to a
      later event concurrent with ``u`` and outside ``U``, and back to
      ``k``.  So ``U`` takes along every later event concurrent with one
      of its members.

    Twins are consecutive events with the same label, interface role,
    predecessors and successors in ``q``.  Permuting a run of twins maps
    refinement orders to refinement orders with the same member: no event
    lies between two twins, so every pair with an event outside the run
    keeps its index order.  Numbering a run along a linear extension of
    ``R`` shows that the orders in which no twin precedes an earlier twin
    of its run still reach every member, so ``U`` holds no earlier twin
    of ``k``.
    """
    n = q.size
    q_pred, q_succ, keys, _, _ = _masks(q)
    twins = [0] * n
    for k in range(1, n):
        same = keys[k] == keys[k - 1] and q_pred[k] == q_pred[k - 1]
        if same and q_succ[k] == q_succ[k - 1]:
            twins[k] = twins[k - 1] | 1 << k - 1
    sources = sum(1 << s for s in q.sources)
    targets = sum(1 << t for t in q.targets)
    pred = [0] * n
    succ = [0] * n
    out: list[_Order] = []

    def grow(k: int) -> None:
        if k == n:
            out.append((tuple(pred), tuple(succ)))
            return
        bit = 1 << k
        earlier = bit - 1
        # ``along[x]``: the events ``U`` must hold when it holds ``x``.  The
        # masks form a chain, so a strictly larger one strictly includes.
        sizes = [mask.bit_count() for mask in pred[:k]]
        along = [
            succ[x]
            | earlier & ~(pred[x] | succ[x]) & -(2 << x)
            | sum(1 << y for y in range(k) if sizes[y] > sizes[x])
            for x in range(k)
        ]
        # ``D`` is ``base`` and a down-closed part of ``free``.
        base = q_pred[k]
        for d in _members(base):
            base |= pred[d]
        free = 0 if bit & sources else earlier & ~targets & ~base
        extra = free
        while True:
            down = base | extra
            if all(not pred[d] & ~down for d in _members(extra)) and all(
                mask & down in (mask, down) for mask in pred[:k]
            ):
                # ``U`` is a part of ``room`` that holds what it takes along.
                room = 0
                if not bit & targets:
                    room = sum(
                        1 << x
                        for x in range(k)
                        if pred[x] & down == down and not sources >> x & 1
                    ) & ~twins[k]
                ups = room
                while True:
                    if all(not along[u] & ~ups for u in _members(ups)):
                        for u in _members(ups):
                            pred[u] |= bit
                        for d in _members(down):
                            succ[d] |= bit
                        pred[k], succ[k] = down, ups
                        grow(k + 1)
                        for u in _members(ups):
                            pred[u] ^= bit
                        for d in _members(down):
                            succ[d] ^= bit
                    if not ups:
                        break
                    ups = (ups - 1) & room
            if not extra:
                break
            extra = (extra - 1) & free
        pred[k] = succ[k] = 0

    grow(0)
    return out


def _refinement(q: Ipomset, order: _Order) -> Ipomset:
    """The member of ``q``'s ideal that one refinement order numbers into.

    Each event is numbered by how many events come before it in the order
    united with the inherited index order: its predecessors, and the
    events concurrent with it that have a lower index.
    """
    pred, succ = order
    rank = [
        pred[x].bit_count() + ((1 << x) - 1 & ~(pred[x] | succ[x])).bit_count()
        for x in range(q.size)
    ]
    return _numbered(q.labels, pred, rank, q.sources, q.targets)


def _maximal_candidates(q: Ipomset) -> set[Ipomset]:
    """The members of ``q``'s ideal from inclusion-minimal refinement orders.

    If one refinement order ``R'`` (see :func:`_interval_refinements`) is
    strictly included in another ``R``, the identity on ``q``'s events
    shows that ``R``'s member strictly refines ``R'``'s.  So a maximal
    member of the ideal comes from an order minimal among all refinement
    orders.  Those are found by a search over closed orders between
    ``q``'s precedence and them, on predecessor and successor masks.  A
    node is a strict order holding ``q``'s precedence, and the search
    stops at its first obstruction:

    * A ``2+2`` ``a < b``, ``c < d`` (the first pair of predecessor masks
      that do not nest, with the least events, as in
      :func:`interval_representation`).  Every interval order above it
      holds ``a < d`` or ``c < b`` (Fishburn, *Intransitive indifference
      with unequal indifference intervals*, J. Math. Psych. 1970), so the
      node branches on adding one or the other.
    * A 3-cycle with the inherited index order: ``x R y`` with
      ``y < z < x`` by index, ``z`` concurrent with both.  A valid order
      above it must order ``z`` with ``y`` or with ``x``, or the same
      cycle stays.  ``z < y`` and ``x < z`` are the two branches, and the
      other two directions bring one of them by transitivity:
      ``y < z`` gives ``x < z`` and ``z < x`` gives ``z < y``.  Only this
      check is needed: the union of an order with the index order of its
      concurrent pairs relates every pair once, so it is acyclic when it
      has no 3-cycle, and a 3-cycle holds exactly one pair of the order
      (two would close to a third).

    Adding ``(u, v)`` puts every event at or below ``u`` before every event
    at or above ``v``, which keeps the node closed.  It stays acyclic:
    ``d <= a`` would give ``c < b``, ``b <= c`` would give ``a < d``, and
    ``z`` is concurrent with ``x`` and ``y``.  A branch that gives a
    source a predecessor or a target a successor is dropped: pairs are
    only ever added, so no order above it keeps the interfaces extremal.
    A ``2+2`` addition never does this, since ``a`` has a successor and
    ``d`` a predecessor; only a 3-cycle branch can.  A node with no
    obstruction is a refinement order, a leaf.

    Each minimal order ``M`` is a leaf: the root lies below ``M``, and a
    node below ``M`` with an obstruction has a branch still below ``M``,
    because ``M`` holds that branch's pair and is closed.  The descent
    ends at a leaf below ``M``, a refinement order, so it is ``M``.
    Leaves may also include orders that are not minimal.  Closed orders
    reached twice are searched once.  The leaves are tested in order of
    size against the minimal ones kept so far, each encoded as one mask of
    ``n * n`` bits.
    """
    n = q.size
    q_pred, q_succ, _, _, _ = _masks(q)
    sources = sum(1 << s for s in q.sources)
    targets = sum(1 << t for t in q.targets)
    leaves: list[tuple[int, _Order]] = []
    seen: set[tuple[int, ...]] = set()
    stack: list[_Order] = [(q_pred, q_succ)]
    while stack:
        pred, succ = stack.pop()
        broken = _predecessor_chain(pred)[1]
        if broken is not None:
            two = _two_plus_two(pred, *broken)
            pairs = (
                (two.first_low, two.second_high),
                (two.second_low, two.first_high),
            )
        else:
            pairs = _index_cycle(pred, succ)
        if pairs is None:
            relation = 0
            for x, mask in enumerate(pred):
                relation |= mask << x * n
            leaves.append((relation, (pred, succ)))
            continue
        for u, v in pairs:
            down = pred[u] | 1 << u
            up = succ[v] | 1 << v
            if up & sources or down & targets:
                continue
            new_pred = list(pred)
            new_succ = list(succ)
            for y in _members(up):
                new_pred[y] |= down
            for x in _members(down):
                new_succ[x] |= up
            key = tuple(new_pred)
            if key not in seen:
                seen.add(key)
                stack.append((key, tuple(new_succ)))
    leaves.sort(key=lambda item: item[0].bit_count())
    minimal: list[int] = []
    out: set[Ipomset] = set()
    for relation, order in leaves:
        if all(smaller & ~relation for smaller in minimal):
            minimal.append(relation)
            out.add(_refinement(q, order))
    return out


def _index_cycle(
    pred: Sequence[int], succ: Sequence[int]
) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """The branch pairs of a 3-cycle of a strict order with the index order.

    The order ``R`` is given by its predecessor and successor masks.  Looks
    for ``x R y`` with ``y < z < x`` by index and ``z`` concurrent with
    both, and returns ``((z, y), (x, z))`` for the first one found, or
    ``None`` when there is none.
    """
    for x in range(1, len(pred)):
        for y in _members(succ[x] & (1 << x) - 1):
            free = (1 << x) - (2 << y) & ~(pred[x] | succ[x] | pred[y] | succ[y])
            if free:
                z = (free & -free).bit_length() - 1
                return (z, y), (x, z)
    return None


def extensions(q: Ipomset) -> frozenset[Ipomset]:
    """Every canonical ipomset subsumed by ``q`` (including ``q`` itself).

    The members are grown directly as interval refinements of ``q``'s
    precedence (see :func:`_interval_refinements`), one event at a time,
    so no order that is not interval is ever built.  The returned set is
    exactly ``q``'s principal ideal: transporting structure along a
    subsumption witness shows that every refinement arises from such an
    order, and several orders may give the same member.
    """
    return frozenset(_refinement(q, order) for order in _interval_refinements(q))


def expand(lang: Language, max_events: int) -> frozenset[Ipomset]:
    """Materialise the ideal: all members with at most ``max_events`` events.

    Expanding at budget 0 yields ``{empty ipomset}`` when the language
    contains it and the empty set otherwise.
    """
    out: set[Ipomset] = set()
    for g in lang.generators:
        if g.size <= max_events:
            out |= extensions(g)
    return frozenset(out)
