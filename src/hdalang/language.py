"""Languages: subsumption-closed sets of interval ipomsets.

A language is an order ideal in the subsumption preorder: whenever it
contains a behaviour, it contains every more-ordered refinement of that
behaviour.  Ideals over interval ipomsets are represented by their
generators -- an antichain of maximal elements -- so a language value
stays finite even though the ideal it denotes can be large; subsumption
relates only ipomsets of equal size, so the operations are exact.

Interval-ness is decided where it is known.  Generators are interval by
the ``Language`` invariant; a glue of interval ipomsets is interval
(Fahrenberg, Johansen, Struth & Ziemiański, MSCS 2021); and a parallel
product of two is interval exactly when one factor has no precedence
pair, since one pair from each factor is a ``2+2`` and a ``2+2`` within
one factor is impossible (Fishburn, J. Math. Psych. 1970).  So the
operations hand interval results straight to the maxima pass
:func:`_maxima`; only :func:`normalize`, for input no operation built,
runs :func:`is_interval`.

Refinements come from one search over closed orders that branches on one
obstruction at a time (:func:`_refinement_orders`): it stops at the first
valid order on each branch for the maximal members
(:func:`_maximal_candidates`) and goes on for :func:`extensions`.
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

    It serves input that no operation built, so each member is tested with
    :func:`is_interval`.  A non-interval one is replaced by the members of
    its ideal from inclusion-minimal refinement orders
    (:func:`_maximal_candidates`), which include every maximal interval
    element, so the denoted down-closure is unchanged; :func:`_maxima`
    then keeps the maximal members.

    Raises:
        ValueError: ``event_bound`` is negative.
    """
    flat: set[Ipomset] = set()
    for p in set(ipomsets):
        if is_interval(p):
            flat.add(p)
        else:
            flat |= _maximal_candidates(p)
    return _maxima(flat, event_bound)


def _maxima(members: Iterable[Ipomset], event_bound: int | None) -> Language:
    """The language generated by the maxima of ``members``, all interval.

    Each caller knows its members are interval (see the module docstring
    and :func:`hdalang.hda.language`).  The maxima come from one pass over
    the members sorted by their number of precedence pairs.  A refinement
    has at least the pairs of what it refines, and as many only when the
    two are equal, so a member can only be dominated by one with strictly
    fewer pairs, which comes earlier.  Refinement is transitive, so a
    dominated member is dominated by a maximal one, and each member is
    tested only against the generators kept so far with its labels and
    numbers of sources and targets, which subsumption preserves: at most
    one call of :func:`subsumes` per pair of such members.  That key needs
    no bitmasks, so a member that meets no rival derives none.  The
    generators kept do not depend on the input order or on hashing; how
    many calls a dominated member takes before one hits does, as members
    with equal pair counts come in set order.
    """
    if event_bound is not None and event_bound < 0:
        raise ValueError("the event bound must be non-negative")
    keep: list[Ipomset] = []
    rivals: dict[tuple[int, int, tuple[str, ...]], list[Ipomset]] = {}
    for p in sorted(members, key=lambda member: len(member.precedence)):
        pairs = len(p.precedence)
        key = (len(p.sources), len(p.targets), tuple(sorted(p.labels)))
        same_key = rivals.setdefault(key, [])
        if not any(
            len(g.precedence) < pairs and subsumes(p, g) is not None for g in same_key
        ):
            same_key.append(p)
            keep.append(p)
    return _unchecked(Language, frozenset(keep), event_bound)


def contains(lang: Language, p: Ipomset) -> bool:
    """Ideal membership: does some generator subsume ``p``?

    Only a generator of ``p``'s size with no more pairs than ``p`` can.
    """
    n, pairs = p.size, len(p.precedence)
    return any(
        g.size == n and len(g.precedence) <= pairs and subsumes(p, g) is not None
        for g in lang.generators
    )


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
    Glues of interval ipomsets are interval (Fahrenberg et al. 2021), so
    they go straight to :func:`_maxima`.
    """
    out: set[Ipomset] = set()
    for p in first.generators:
        for q in second.generators:
            try:
                out.add(glue(p, q))
            except (SequentialMismatch, InternalOrderCycle):
                continue
    return _maxima(out, _combined_bound(first, second))


def par_compose(first: Language, second: Language) -> Language:
    """Parallel composition: parallel product of all generator pairs.

    A product of interval generators is interval exactly when one factor
    has no precedence pair (Fishburn 1970); then it goes to :func:`_maxima`.
    A product of two ordered factors is replaced by its candidate maximal
    refinements (:func:`_maximal_candidates`).  When the result carries an
    event bound, products too large to dominate any member within the
    bound are dropped first.
    """
    bound = _combined_bound(first, second)
    out: set[Ipomset] = set()
    ordered: set[Ipomset] = set()
    for p in first.generators:
        for q in second.generators:
            if bound is None or p.size + q.size <= bound:
                (ordered if p.precedence and q.precedence else out).add(parallel(p, q))
    for r in ordered:
        out |= _maximal_candidates(r)
    return _maxima(out, bound)


def par_closure_bounded(lang: Language, max_factors: int) -> Language:
    """Union of parallel powers ``lang**0 .. lang**max_factors``.

    The zeroth power is the unit language containing only the empty
    ipomset, so the closure of the empty language is that unit.  Powers
    are languages, so their generators go straight to :func:`_maxima`.
    """
    if max_factors < 0:
        raise ValueError("max_factors must be non-negative")
    acc = {EMPTY}
    power = _unchecked(Language, frozenset(acc), None)
    for _ in range(max_factors):
        power = par_compose(power, lang)
        acc |= power.generators
    return _maxima(acc, lang.event_bound)


def union(first: Language, second: Language) -> Language:
    """Union of ideals: the maxima of both (interval) generator sets."""
    return _maxima(
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


def _refinement_orders(q: Ipomset, every: bool) -> list[_Order]:
    """Refinement orders of ``q``: every one, or a superset of the minimal.

    A refinement order is a strict order ``R`` on ``q``'s events that
    contains ``q``'s precedence, keeps the sources minimal and the targets
    maximal, is interval, and whose union with the index order inherited
    by the pairs ``R`` leaves concurrent is acyclic.  :func:`_refinement`
    numbers each into a member of ``q``'s ideal.  Orders are given by
    their predecessor and successor masks.

    The search walks closed orders up from ``q``'s precedence.  A node
    that is not a refinement order branches on its first obstruction
    (:func:`_forced_pairs`), adding one of two pairs that every
    refinement order above it holds:

    * A ``2+2`` ``a < b``, ``c < d``: every interval order above it holds
      ``a < d`` or ``c < b`` (Fishburn, *Intransitive indifference with
      unequal indifference intervals*, J. Math. Psych. 1970).
    * A 3-cycle with the inherited index order: ``x R y`` with
      ``y < z < x`` by index, ``z`` concurrent with both.  A valid order
      above it orders ``z`` with ``y`` or ``x``, and ``y < z`` brings
      ``x < z`` while ``z < x`` brings ``z < y``, so those two are the
      branches.  The union of an order with the index order of its
      concurrent pairs relates every pair once, so it is acyclic when it
      has no 3-cycle, and a 3-cycle holds one pair of the order (two
      would close to a third).

    A refinement order is returned, and ends its branch unless ``every``
    is set.  With ``every`` it also branches on each cover pair
    ``(u, v)``: ``u`` and ``v`` concurrent, ``pred[u]`` inside
    ``pred[v]`` and ``succ[v]`` inside ``succ[u]``.  Every pair added is
    concurrent in the node.  Adding ``(u, v)`` puts every event at or
    below ``u`` before every event at or above ``v``, which keeps the node
    a closed order (a cycle would need ``v`` at or below ``u``); for a
    cover pair it adds ``(u, v)`` alone.

    Each node carries a set of banned pairs, and a child that would hold
    one is dropped.  The root bans every pair that gives a source a
    predecessor or a target a successor, and every pair that puts a later
    twin before an earlier one of its run.  A node's branch pair is
    banned in the siblings after it, since an order above the node that
    holds the pair lies above that child.  So no order is reached twice.

    Twins are consecutive events with the same label, interface role,
    predecessors and successors in ``q``.  Permuting a run of twins maps
    refinement orders to refinement orders with the same member: no event
    lies between two twins, so every pair with an event outside the run
    keeps its index order.  Numbering a run along a linear extension of
    ``R`` shows that the twin-respecting orders still reach every member,
    and every order below a twin-respecting one respects twins too.

    Let ``R`` be a twin-respecting refinement order above a node ``N``,
    holding none of ``N``'s bans.  If ``N`` has an obstruction, ``R``
    holds one of its pairs; for the first of them that ``R`` holds, ``R``
    holds that whole child, being closed, and none of its bans.  If ``N``
    is a refinement order other than ``R``, take a pair of ``R`` missing
    from ``N``, move its lower end down through ``N``-predecessors while
    the pair stays out of ``N``, then its upper end up through
    ``N``-successors likewise: ``R`` holds each pair on the way, and the
    descent ends at a cover pair of ``N``, so the first cover pair that
    ``R`` holds serves as before.  So with ``every`` each twin-respecting
    refinement order is returned once, and without it each one that is
    minimal among those.
    """
    n = q.size
    q_pred, q_succ, keys, _, _ = _masks(q)
    targets = sum(1 << t for t in q.targets)
    # Bit ``y * n + x`` of ``banned``: ``x`` may not come before ``y``,
    # because ``y`` is a source, ``x`` a target or a later twin of ``y``.
    shape = list(zip(keys, q_pred, q_succ))
    banned = later = 0
    for y in range(n - 1, -1, -1):
        later = later | 1 << y + 1 if y + 1 < n and shape[y] == shape[y + 1] else 0
        ban = (1 << n) - 1 if y in q.sources else targets | later
        banned |= ban << y * n
    out: list[_Order] = []
    stack = [(q_pred, q_succ, banned)]
    while stack:
        pred, succ, banned = stack.pop()
        pairs = _forced_pairs(pred, succ)
        if pairs is None:
            out.append((pred, succ))
            if not every:
                continue
            pairs = [
                (u, v)
                for u in range(n)
                for v in _members((1 << n) - 1 & ~(pred[u] | succ[u] | 1 << u))
                if not pred[u] & ~pred[v] and not succ[v] & ~succ[u]
            ]
        for u, v in pairs:
            down = pred[u] | 1 << u
            up = succ[v] | 1 << v
            new_pred = list(pred)
            for y in _members(up):
                if banned >> y * n & down:
                    break
                new_pred[y] |= down
            else:
                new_succ = list(succ)
                for x in _members(down):
                    new_succ[x] |= up
                stack.append((tuple(new_pred), tuple(new_succ), banned))
            # The later siblings cover the orders without ``(u, v)``.
            banned |= 1 << v * n + u
    return out


def _forced_pairs(
    pred: Sequence[int], succ: Sequence[int]
) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """The branch pairs of a strict order's first obstruction, if any.

    For a ``2+2`` ``a < b``, ``c < d`` (the first pair of predecessor
    masks that do not nest, as in :func:`interval_representation`) they
    are ``(a, d)`` and ``(c, b)``.  Otherwise, for the first ``x R y``
    with ``y < z < x`` by index and ``z`` concurrent with both, they are
    ``(z, y)`` and ``(x, z)``.
    """
    broken = _predecessor_chain(pred)[1]
    if broken is not None:
        a, b, c, d = _two_plus_two(pred, *broken)
        return (a, d), (c, b)
    for x in range(1, len(pred)):
        for y in _members(succ[x] & (1 << x) - 1):
            free = (1 << x) - (2 << y) & ~(pred[x] | succ[x] | pred[y] | succ[y])
            if free:
                z = (free & -free).bit_length() - 1
                return (z, y), (x, z)
    return None


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
    """The members of ``q``'s ideal from minimal twin-respecting orders.

    If one refinement order ``R'`` (see :func:`_refinement_orders`) is
    strictly included in another ``R``, the identity on ``q``'s events
    shows that ``R``'s member strictly refines ``R'``'s.  A maximal member
    comes from a twin-respecting order, which is therefore minimal among
    those.  The search without cover pairs returns each such order, and
    perhaps others above one; they are tested in order of size against
    the minimal ones kept so far, each encoded as one mask of ``n * n``
    bits.
    """
    n = q.size
    leaves: list[tuple[int, _Order]] = []
    for order in _refinement_orders(q, every=False):
        relation = 0
        for x, mask in enumerate(order[0]):
            relation |= mask << x * n
        leaves.append((relation, order))
    leaves.sort(key=lambda item: item[0].bit_count())
    minimal: list[int] = []
    out: set[Ipomset] = set()
    for relation, order in leaves:
        if all(smaller & ~relation for smaller in minimal):
            minimal.append(relation)
            out.add(_refinement(q, order))
    return out


def extensions(q: Ipomset) -> frozenset[Ipomset]:
    """Every canonical ipomset subsumed by ``q`` (including ``q`` itself).

    The members are numbered from every twin-respecting refinement order
    of ``q`` (see :func:`_refinement_orders`).  The returned set is
    exactly ``q``'s principal ideal: transporting structure along a
    subsumption witness shows that every refinement arises from a
    refinement order, and renumbering twins from a twin-respecting one.
    """
    orders = _refinement_orders(q, every=True)
    return frozenset(_refinement(q, order) for order in orders)


def expand(lang: Language, max_events: int) -> frozenset[Ipomset]:
    """Materialise the ideal: all members with at most ``max_events`` events.

    Expanding at budget 0 yields ``{empty ipomset}`` when the language
    contains it and the empty set otherwise.

    Raises:
        ValueError: ``max_events`` is negative.
    """
    if max_events < 0:
        raise ValueError("the event bound must be non-negative")
    out: set[Ipomset] = set()
    for g in lang.generators:
        if g.size <= max_events:
            out |= extensions(g)
    return frozenset(out)
