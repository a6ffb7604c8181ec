"""Languages: subsumption-closed sets of interval ipomsets.

A language is an order ideal in the subsumption preorder: whenever it
contains a behaviour, it contains every more-ordered refinement of that
behaviour.  Ideals over interval ipomsets are represented by their
generators -- an antichain of maximal elements -- so a language value
stays finite even though the ideal it denotes can be large; subsumption
relates only ipomsets of equal size, so the operations are exact.
The generators are the ideal's maximal elements, so language equality is
equality of generator sets, as isomorphism is plain equality of ipomsets.

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
obstruction at a time (:func:`_refinement_orders`): it returns exactly the
minimal orders for the maximal members (:func:`_maximal_candidates`) and
every order for :func:`extensions`.
"""

from __future__ import annotations

from operator import itemgetter
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
    _Value,
    glue,
    is_interval,
    parallel,
    subsumes,
)


class NotInterval(ValueError):
    """A language generator's precedence is not an interval order."""


class Language(_Value):
    """A subsumption-closed language, given by its generator antichain.

    Attributes:
        generators: pairwise subsumption-incomparable interval ipomsets;
            the language denoted is every ipomset subsumed by one of them.
        event_bound: when set, the language is only known to be complete
            for ipomsets with at most this many events (languages read off
            automata are computed under such a budget).  ``None`` means
            the generators describe the language at every size.  A bound
            that is not a non-negative ``int`` is refused with ``ValueError``.
    """

    __slots__ = ("generators", "event_bound")
    _defaults = {"event_bound": None}

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", frozenset(self.generators))
        for g in self.generators:
            if not is_interval(g):
                raise NotInterval(f"generator {g!r} is not an interval ipomset")
        # The maxima pass drops exactly the generators another one refines.
        if len(_maxima(self.generators, self.event_bound).generators) < len(self.generators):
            raise ValueError("generators must form an antichain; use normalize()")


def normalize(ipomsets: Iterable[Ipomset], event_bound: int | None = None) -> Language:
    """Build a language from any finite set of canonical ipomsets.

    It serves input that no operation built, so each member is tested with
    :func:`is_interval`.  A non-interval one is replaced by the members of
    its ideal from the inclusion-minimal refinement orders, which the
    search returns exactly (:func:`_maximal_candidates`); they include
    every maximal interval element, so the denoted down-closure is
    unchanged, and :func:`_maxima` then keeps the maximal members.

    Raises:
        ValueError: ``event_bound`` is neither None nor a non-negative ``int``.
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
    and :func:`hdalang.hda.language`).  One pass over the members sorted
    by pair count keeps the maxima: a refinement has more pairs than what
    it refines unless the two are equal, so a member can only be dominated
    by an earlier one, and by transitivity by a kept one.  Subsumption
    keeps labels and the numbers of sources and targets, so a member is
    tried only against the kept generators with that key, at most one
    :func:`subsumes` call per pair, and the first member of a key is kept
    with none.  The generators kept do not depend on the input order or
    on hashing; how many calls a dominated member takes before one hits
    does, as members with equal pair counts come in set order.
    """
    if event_bound is not None:
        _check_bound(event_bound)
    rivals: dict[tuple[int, int, tuple[str, ...]], list[Ipomset]] = {}
    for pairs, p in sorted([(len(m.precedence), m) for m in members], key=itemgetter(0)):
        key = (len(p.sources), len(p.targets), tuple(sorted(p.labels)))
        same_key = rivals.get(key)
        if same_key is None:
            rivals[key] = [p]
        elif not any(
            len(g.precedence) < pairs and subsumes(p, g) is not None for g in same_key
        ):
            same_key.append(p)
    return _unchecked(Language, frozenset().union(*rivals.values()), event_bound)


def _check_bound(bound: int) -> None:
    # The document reader takes the same bounds, so every language round-trips.
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < 0:
        raise ValueError("the event bound must be a non-negative integer")


def contains(lang: Language, p: Ipomset) -> bool:
    """Ideal membership: ``p`` is a generator or strictly refines one.

    A generator that ``p`` strictly refines has its size and fewer pairs.
    """
    n, pairs = p.size, len(p.precedence)
    return p in lang.generators or any(
        g.size == n and len(g.precedence) < pairs and subsumes(p, g) is not None
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
    bounds = [b for b in (first.event_bound, second.event_bound) if b is not None]
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
    generated by small generators and the restriction is exact.  The result
    is known complete up to ``max_events``, or up to the input's bound if
    that is smaller.

    Raises:
        ValueError: ``max_events`` is not a non-negative ``int``.
    """
    _check_bound(max_events)
    if lang.event_bound is not None:
        max_events = min(lang.event_bound, max_events)
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
    """Ideal equality: equal generator sets (event bounds are not compared).

    Generators are an antichain (checked by ``Language(...)``, kept by each
    ``_unchecked`` builder), and in the partial order :func:`subsumes` an
    antichain is the set of maxima of the ideal it generates.
    """
    return first.generators == second.generators


# --- expansion ----------------------------------------------------------------


_Order = tuple[tuple[int, ...], tuple[int, ...]]


def _refinement_orders(q: Ipomset, every: bool) -> list[_Order]:
    """Refinement orders of ``q``: every one, or exactly the minimal ones.

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

    A refinement order is a leaf unless ``every`` is set, and then it is
    returned and also branches on each cover pair ``(u, v)``: ``u`` and
    ``v`` concurrent, ``pred[u]`` inside ``pred[v]`` and ``succ[v]``
    inside ``succ[u]``.  Every pair added is concurrent in the node.  Adding
    ``(u, v)`` puts every event at or below ``u`` before every event at or
    above ``v``, which keeps the node a closed order (a cycle would need
    ``v`` at or below ``u``); for a cover pair it adds ``(u, v)`` alone.

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
    refinement order is returned once.  Without it a leaf that includes
    one already returned is skipped, and a minimal ``M`` is returned before
    any ``L`` above it: at the deepest node on both paths, ``L`` holds the
    first branch pair and ``M`` does not, as the later sibling bans it and
    ``L`` holds ``M``, and the stack pops that sibling's whole subtree first.
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
    returned: list[int] = []
    stack = [(q_pred, q_succ, banned)]
    while stack:
        pred, succ, banned = stack.pop()
        pairs = _forced_pairs(pred, succ)
        if pairs is None:
            if not every:
                relation = sum(mask << y * n for y, mask in enumerate(pred))  # as ``banned``
                if all(low & ~relation for low in returned):
                    returned.append(relation)
                    out.append((pred, succ))
                continue
            out.append((pred, succ))
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

    A refinement order (see :func:`_refinement_orders`) strictly above
    another gives a strictly refined member, by the identity on ``q``'s
    events, so a maximal member comes from a minimal twin-respecting
    order; the search without cover pairs returns exactly those.
    """
    return {_refinement(q, order) for order in _refinement_orders(q, every=False)}


def extensions(q: Ipomset) -> frozenset[Ipomset]:
    """Every canonical ipomset subsumed by ``q`` (including ``q`` itself).

    The members are numbered from every twin-respecting refinement order
    of ``q`` (see :func:`_refinement_orders`).  The returned set is
    exactly ``q``'s principal ideal: transporting structure along a
    subsumption witness shows that every refinement arises from a
    refinement order, and renumbering twins from a twin-respecting one.
    """
    return frozenset(_refinement(q, order) for order in _refinement_orders(q, every=True))


def expand(lang: Language, max_events: int) -> frozenset[Ipomset]:
    """Materialise the ideal: all members with at most ``max_events`` events.

    Expanding at budget 0 yields ``{empty ipomset}`` when the language
    contains it and the empty set otherwise.

    Raises:
        ValueError: ``max_events`` is negative.
    """
    if max_events < 0:
        raise ValueError("the event bound must be non-negative")
    return frozenset().union(
        *(extensions(g) for g in lang.generators if g.size <= max_events)
    )
