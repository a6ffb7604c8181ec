"""Independent oracles and generators for the test suite.

Everything here recomputes expected values by a route different from the
implementation under test: subsumption and its least witness by brute
force over all event bijections, interval recognition by searching for a
forbidden suborder, principal ideals by filtering every strict order,
sequential composition by naive relation-building over tagged event
names, step tables by applying one elementary face at a time, accepting
paths by a walk over that step table, colimit classes by merging sets,
and exhaustive enumeration of every canonical ipomset up to a size.
Random structures are always drawn from a caller-provided seeded
generator so failures replay.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Iterator

from hdalang.hda import DownStep, Hda, Path, Step, UpStep
from hdalang.ipomset import Ipomset, SequentialMismatch, validate
from hdalang.precubical import PrecubicalSet

Pair = tuple[int, int]


# --- exhaustive enumeration -------------------------------------------------


def naive_closure(pairs: frozenset[Pair]) -> frozenset[Pair]:
    """Transitive closure by composing the relation with itself to a fixpoint."""
    closed = set(pairs)
    while True:
        composed = {(a, d) for a, b in closed for c, d in closed if b == c}
        if composed <= closed:
            return frozenset(closed)
        closed |= composed


def natural_orders(n: int) -> list[frozenset[Pair]]:
    """All transitively closed strict orders on 0..n-1 with increasing pairs."""
    increasing = list(combinations(range(n), 2))
    out = []
    for bits in range(1 << len(increasing)):
        chosen = frozenset(p for k, p in enumerate(increasing) if bits >> k & 1)
        if naive_closure(chosen) == chosen:
            out.append(chosen)
    return out


def universe(n: int, alphabet: str = "ab") -> list[Ipomset]:
    """Every canonical ipomset with exactly ``n`` events over ``alphabet``."""
    out: list[Ipomset] = []
    for order in natural_orders(n):
        minimal = [e for e in range(n) if not any(b == e for _, b in order)]
        maximal = [e for e in range(n) if not any(a == e for a, _ in order)]
        sources = [
            frozenset(c) for r in range(len(minimal) + 1) for c in combinations(minimal, r)
        ]
        targets = [
            frozenset(c) for r in range(len(maximal) + 1) for c in combinations(maximal, r)
        ]
        for labels in product(alphabet, repeat=n):
            for src in sources:
                for tgt in targets:
                    out.append(Ipomset(tuple(labels), order, src, tgt))
    return out


def universe_up_to(n: int, alphabet: str = "ab") -> list[Ipomset]:
    """Every canonical ipomset with at most ``n`` events over ``alphabet``."""
    out: list[Ipomset] = []
    for k in range(n + 1):
        out.extend(universe(k, alphabet))
    return out


# --- independent subsumption -------------------------------------------------


def oracle_subsumes(p: Ipomset, q: Ipomset) -> bool:
    """Brute-force subsumption check over all event bijections.

    Tries every permutation as the witness and checks the definition
    directly: labels and interfaces preserved, precedence reflected, and
    the event order preserved on pairs concurrent on both sides.  In the
    canonical encoding the event order of concurrent events is their
    index order.
    """
    n = p.size
    if n != q.size:
        return False
    for perm in permutations(range(n)):
        if any(p.labels[x] != q.labels[perm[x]] for x in range(n)):
            continue
        if {perm[s] for s in p.sources} != set(q.sources):
            continue
        if {perm[t] for t in p.targets} != set(q.targets):
            continue
        good = True
        for x in range(n):
            for y in range(n):
                if x == y:
                    continue
                u, v = perm[x], perm[y]
                if (u, v) in q.precedence and (x, y) not in p.precedence:
                    good = False
                    break
                p_conc = (x, y) not in p.precedence and (y, x) not in p.precedence
                q_conc = (u, v) not in q.precedence and (v, u) not in q.precedence
                if p_conc and q_conc and x < y and not u < v:
                    good = False
                    break
            if not good:
                break
        if good:
            return True
    return False


def is_witness(p: Ipomset, q: Ipomset, f: tuple[int, ...]) -> bool:
    """Whether ``f`` (``f[x]`` the image of ``x``) shows that ``p`` refines ``q``.

    Checks the definition directly, as :func:`oracle_subsumes` does: ``f``
    is a bijection that keeps labels and both interfaces, reflects
    precedence, and keeps the index order of pairs concurrent on both sides.
    """
    n = p.size
    if n != q.size or sorted(f) != list(range(n)):
        return False
    if any(p.labels[x] != q.labels[f[x]] for x in range(n)):
        return False
    if {f[s] for s in p.sources} != set(q.sources):
        return False
    if {f[t] for t in p.targets} != set(q.targets):
        return False
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            u, v = f[x], f[y]
            if (u, v) in q.precedence and (x, y) not in p.precedence:
                return False
            p_conc = (x, y) not in p.precedence and (y, x) not in p.precedence
            q_conc = (u, v) not in q.precedence and (v, u) not in q.precedence
            if p_conc and q_conc and x < y and not u < v:
                return False
    return True


def oracle_witness(p: Ipomset, q: Ipomset) -> tuple[int, ...] | None:
    """The least witness that ``p`` refines ``q``, or ``None`` if there is none.

    It is the first witness in ``itertools.permutations`` order, which is
    lexicographic.
    """
    if p.size != q.size:
        return None
    return next(
        (f for f in permutations(range(p.size)) if is_witness(p, q, f)), None
    )


def oracle_is_interval(p: Ipomset) -> bool:
    """Interval recognition by exhaustive forbidden-suborder search."""
    return _interval_by_search(p.size, p.precedence)


@lru_cache(maxsize=None)
def _interval_by_search(size: int, precedence: frozenset[Pair]) -> bool:
    """:func:`oracle_is_interval` by value: the answer depends on nothing else."""
    events = range(size)
    for a, b in product(events, repeat=2):
        if (a, b) not in precedence:
            continue
        for c, d in product(events, repeat=2):
            if (c, d) not in precedence:
                continue
            if {a, b} & {c, d}:
                continue
            if all(
                (x, y) not in precedence and (y, x) not in precedence
                for x, y in ((a, d), (c, b))
            ):
                return False
    return True


@lru_cache(maxsize=None)
def strict_orders(n: int) -> tuple[frozenset[Pair], ...]:
    """Every strict order on 0..n-1.

    Each one has a linear extension, so it is a natural order with its
    events renamed by some permutation.
    """
    return tuple(
        {
            frozenset((perm[a], perm[b]) for a, b in order)
            for order in natural_orders(n)
            for perm in permutations(range(n))
        }
    )


def oracle_extensions(q: Ipomset) -> set[Ipomset]:
    """``q``'s principal ideal, from every strict order containing its precedence.

    An order is kept when the sources stay minimal and the targets
    maximal, its union with the index order of the pairs it leaves
    concurrent is acyclic under :func:`naive_closure`, and the result is
    interval by :func:`oracle_is_interval`.  Each event is numbered by the
    events before it in that union, and the result is built with
    ``Ipomset(...)``, which checks it.
    """
    n = q.size
    out = set()
    for order in strict_orders(n):
        if not q.precedence <= order:
            continue
        if any(b in q.sources or a in q.targets for a, b in order):
            continue
        union = order | {
            (i, j)
            for i, j in combinations(range(n), 2)
            if (j, i) not in order
        }
        closed = naive_closure(frozenset(union))
        if any(a == b for a, b in closed):
            continue
        rank = {e: sum(1 for _, b in closed if b == e) for e in range(n)}
        member = Ipomset(
            labels=tuple(q.labels[e] for e in sorted(range(n), key=rank.__getitem__)),
            precedence=frozenset((rank[a], rank[b]) for a, b in order),
            sources=frozenset(rank[s] for s in q.sources),
            targets=frozenset(rank[t] for t in q.targets),
        )
        if oracle_is_interval(member):
            out.add(member)
    return out


def oracle_down_set(q: Ipomset, same_size_universe: list[Ipomset]) -> set[Ipomset]:
    """All universe members that refine ``q``, by the brute-force check."""
    return {p for p in same_size_universe if oracle_subsumes(p, q)}


# --- independent sequential composition ------------------------------------------


def oracle_glue(p: Ipomset, q: Ipomset) -> Ipomset | None:
    """Sequential composition built naively over tagged event names.

    Constructs the composite's label map, precedence generators and event
    order generators on strings like ``"p0"``/``"q3"``, closes their union
    with :func:`naive_closure`, and numbers each event by how many events
    come before it in that closure.  Only the public :class:`Ipomset`
    constructor, which checks the result, is shared with the implementation
    under test.

    Returns ``None`` when the inherited event order knots with the new
    cross precedence, i.e. when the composite has no canonical form.
    """
    p_targets = sorted(p.targets)
    q_sources = sorted(q.sources)
    if [p.labels[t] for t in p_targets] != [q.labels[s] for s in q_sources]:
        raise SequentialMismatch("oracle: interfaces do not match")
    name: dict[tuple[str, int], str] = {}
    for x in range(p.size):
        name[("p", x)] = f"p{x}"
    for b in range(q.size):
        name[("q", b)] = f"q{b}"
    for s, t in zip(q_sources, p_targets):
        name[("q", s)] = f"p{t}"

    labels = {f"p{x}": p.labels[x] for x in range(p.size)}
    for b in range(q.size):
        labels[name[("q", b)]] = q.labels[b]

    prec = [(f"p{a}", f"p{b}") for a, b in p.precedence]
    prec += [(name[("q", a)], name[("q", b)]) for a, b in q.precedence]
    prec += [
        (f"p{x}", name[("q", b)])
        for x in range(p.size)
        if x not in p.targets
        for b in range(q.size)
        if b not in q.sources
    ]
    order = [(f"p{a}", f"p{b}") for a, b in combinations(range(p.size), 2)]
    order += [
        (name[("q", a)], name[("q", b)]) for a, b in combinations(range(q.size), 2)
    ]
    together = naive_closure(frozenset(prec) | frozenset(order))
    if any(a == b for a, b in together):
        return None
    rank = {e: sum(1 for _, b in together if b == e) for e in labels}
    return Ipomset(
        labels=tuple(labels[e] for e in sorted(labels, key=rank.__getitem__)),
        precedence=frozenset(
            (rank[a], rank[b]) for a, b in naive_closure(frozenset(prec))
        ),
        sources=frozenset(rank[f"p{s}"] for s in p.sources),
        targets=frozenset(rank[name[("q", t)]] for t in q.targets),
    )


# --- event-order-blind comparison ---------------------------------------------


def precedence_signature(p: Ipomset) -> tuple:
    """A complete invariant of (labels, precedence, interfaces) up to iso.

    Minimises the renumbered presentation over all event permutations, so
    two ipomsets get equal signatures exactly when they agree up to a
    label/interface/precedence isomorphism -- the event order is ignored.
    """
    n = p.size
    best = None
    for perm in permutations(range(n)):
        code = (
            tuple(p.labels[perm.index(i)] for i in range(n)),
            tuple(sorted((perm[a], perm[b]) for a, b in p.precedence)),
            tuple(sorted(perm[s] for s in p.sources)),
            tuple(sorted(perm[t] for t in p.targets)),
        )
        if best is None or code < best:
            best = code
    return ("empty",) if best is None else best


# --- path-level language oracle ------------------------------------------------


def path_label_language(automaton: Hda, max_events: int) -> set[Ipomset]:
    """Labels of all accepting paths, skipping unrepresentable ones.

    Each label folds :func:`oracle_glue` over one piece per step, built
    from the path's cell words: the higher cell's events, all concurrent,
    with the events an up-step starts left out of the sources and the
    events a down-step finishes left out of the targets.
    """
    carrier = automaton.carrier
    out: set[Ipomset] = set()
    for path in oracle_accepting_paths(automaton, max_events):
        word = carrier.word(path.first)
        every = frozenset(range(len(word)))
        label: Ipomset | None = Ipomset(word, frozenset(), every, every)
        for k, step in enumerate(path.steps):
            high = path.cells[k + 1] if isinstance(step, UpStep) else path.cells[k]
            label = oracle_glue(label, step_piece(carrier.word(high), step))
            if label is None:
                break
        else:
            out.add(label)
    return out


def step_piece(word: tuple[str, ...], step: Step) -> Ipomset:
    """The label piece of ``step``, given the word of its higher cell."""
    every = frozenset(range(len(word)))
    rest = every - {p - 1 for p in step.positions}
    if isinstance(step, UpStep):
        return Ipomset(word, frozenset(), rest, every)
    return Ipomset(word, frozenset(), every, rest)


def oracle_accepting_paths(automaton: Hda, max_events: int) -> Iterator[Path]:
    """Every accepting path that starts at most ``max_events`` events.

    A depth-first walk over :func:`oracle_moves` from each start cell in id
    order; the start cell's events count against the budget and each
    up-step spends one per position it starts.
    """
    carrier = automaton.carrier
    moves = oracle_moves(carrier)

    def walk(cells: list[str], steps: list[Step], budget: int) -> Iterator[Path]:
        if cells[-1] in automaton.accept:
            yield Path(tuple(cells), tuple(steps))
        for step, there, _ in moves[cells[-1]]:
            spent = len(step.positions) if isinstance(step, UpStep) else 0
            if spent <= budget:
                yield from walk(cells + [there], steps + [step], budget - spent)

    for cell in sorted(automaton.start):
        if len(carrier.cells[cell]) <= max_events:
            yield from walk([cell], [], max_events - len(carrier.cells[cell]))


def oracle_moves(carrier: PrecubicalSet) -> dict[str, list[tuple[Step, str, tuple[str, ...]]]]:
    """The steps leaving each cell: ``(step, next cell, higher cell's word)``.

    Each face is reached from the higher cell by one elementary face of
    ``carrier.faces`` per deleted position, the highest position first so
    that the lower ones keep their indices.  Up-steps come first, by upper
    cell in dimension-then-id order, then down-steps; within a cell,
    position sets go by size, then lexicographically.
    """

    def face(cell: str, nu: int, positions: tuple[int, ...]) -> str:
        for position in reversed(positions):
            cell = carrier.faces[(cell, nu, position)]
        return cell

    ups: dict[str, list] = {cell: [] for cell in carrier.cells}
    downs: dict[str, list] = {cell: [] for cell in carrier.cells}
    for high in sorted(carrier.cells, key=lambda c: (len(carrier.cells[c]), c)):
        word = carrier.cells[high]
        for size in range(1, len(word) + 1):
            for positions in combinations(range(1, len(word) + 1), size):
                chosen = frozenset(positions)
                ups[face(high, 0, positions)].append((UpStep(chosen), high, word))
                downs[high].append((DownStep(chosen), face(high, 1, positions), word))
    return {cell: ups[cell] + downs[cell] for cell in carrier.cells}


def oracle_colimit_names(
    objects: list[PrecubicalSet], arrows: list[tuple[int, int, dict[str, str]]]
) -> dict[tuple[int, str], str]:
    """The name of every tagged cell's class in a colimit, by merging sets.

    Classes start as single tagged cells ``(index, cell)`` and are merged
    until no arrow relates two of them; each is named ``"index:cell"``
    after its least member.
    """
    classes = [{(i, c)} for i, obj in enumerate(objects) for c in obj.cells]
    links = [((s, c), (t, d)) for s, t, mapping in arrows for c, d in mapping.items()]
    merged = True
    while merged:
        merged = False
        for one, two in links:
            first = next(k for k in classes if one in k)
            second = next(k for k in classes if two in k)
            if first is not second:
                classes.remove(second)
                first |= second
                merged = True
    names = {}
    for members in classes:
        i, c = min(members)
        for member in members:
            names[member] = f"{i}:{c}"
    return names


# --- random structures -----------------------------------------------------------


def random_ipomset(rnd: random.Random, max_events: int, alphabet: str = "ab") -> Ipomset:
    """A random canonical ipomset with up to ``max_events`` events."""
    n = rnd.randint(0, max_events)
    labels = {i: rnd.choice(alphabet) for i in range(n)}
    prec = {
        (i, j)
        for i, j in combinations(range(n), 2)
        if rnd.random() < 0.4
    }
    order = list(combinations(range(n), 2))
    base = validate(labels, prec, order)
    minimal = [e for e in range(n) if not base.predecessors(e)]
    maximal = [e for e in range(n) if not base.successors(e)]
    return Ipomset(
        base.labels,
        base.precedence,
        frozenset(e for e in minimal if rnd.random() < 0.4),
        frozenset(e for e in maximal if rnd.random() < 0.4),
    )


def random_hda(
    rnd: random.Random,
    *,
    max_vertices: int = 6,
    max_edges: int = 6,
    max_squares: int = 6,
    alphabet: str = "ab",
    allow_empty_marks: bool = True,
) -> Hda:
    """A random automaton of dimension at most two.

    Draws a random labelled graph (self-loops allowed, so cyclic automata
    occur), then fills up to ``max_squares`` of the commuting squares the
    graph happens to contain.  Start and accept cells are random subsets
    of all cells, so marked squares and edges occur too.
    """
    n_vertices = rnd.randint(1, max_vertices)
    cells: dict[str, tuple[str, ...]] = {f"n{i}": () for i in range(n_vertices)}
    faces: dict[tuple[str, int, int], str] = {}

    edges: list[tuple[str, str, str, str]] = []  # (id, source, target, label)
    for k in range(rnd.randint(0, max_edges)):
        src = f"n{rnd.randrange(n_vertices)}"
        tgt = f"n{rnd.randrange(n_vertices)}"
        label = rnd.choice(alphabet)
        eid = f"e{k}"
        cells[eid] = (label,)
        faces[(eid, 0, 1)] = src
        faces[(eid, 1, 1)] = tgt
        edges.append((eid, src, tgt, label))

    # A fillable square is a pair of edges out of one vertex plus a pair
    # into one vertex completing the rectangle with matching labels.
    candidates = []
    for e1, e2 in product(edges, repeat=2):
        if e1[0] == e2[0] or e1[1] != e2[1]:
            continue
        for e3 in edges:  # same label as e1, continues e2
            if e3[3] != e1[3] or e3[1] != e2[2]:
                continue
            for e4 in edges:  # same label as e2, continues e1
                if e4[3] != e2[3] or e4[1] != e1[2] or e4[2] != e3[2]:
                    continue
                candidates.append((e1, e2, e3, e4))
    rnd.shuffle(candidates)
    filled = set()
    for k, (e1, e2, e3, e4) in enumerate(candidates[:max_squares]):
        key = (e1[0], e2[0], e3[0], e4[0])
        if key in filled:
            continue
        filled.add(key)
        sid = f"s{k}"
        cells[sid] = (e1[3], e2[3])
        faces[(sid, 0, 1)] = e2[0]
        faces[(sid, 1, 1)] = e4[0]
        faces[(sid, 0, 2)] = e1[0]
        faces[(sid, 1, 2)] = e3[0]

    carrier = PrecubicalSet(cells, faces)
    ids = sorted(cells)
    lo = 0 if allow_empty_marks else 1
    start = frozenset(rnd.sample(ids, rnd.randint(lo, max(lo, len(ids) // 3))))
    accept = frozenset(rnd.sample(ids, rnd.randint(lo, max(lo, len(ids) // 3))))
    return Hda(carrier, start, accept)
