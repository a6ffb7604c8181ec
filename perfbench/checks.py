"""Independent output checks for the benchmark.

Nothing here imports ``hdalang``.  Every check recomputes what it needs by
its own route: closure by Warshall's algorithm on boolean rows, canonical
numbering by ranking events in the closed total order, refinement by trying
every label- and interface-preserving bijection, and interval orders by
Fishburn's condition.  Ipomsets are handled as plain tuples
``(labels, precedence, sources, targets)``, read either from the attributes
of a library object or from a serialized JSON document, so a check never
trusts a library method of the object it checks.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations, permutations, product

Plain = tuple  # (labels tuple, frozenset of pairs, frozenset, frozenset)


# --- plain ipomsets ------------------------------------------------------------


def plain(p) -> Plain:
    """The data of a library ipomset, as a plain tuple."""
    return (
        tuple(p.labels),
        frozenset(p.precedence),
        frozenset(p.sources),
        frozenset(p.targets),
    )


def plain_from_doc(doc: dict) -> Plain:
    """The data of a serialized ipomset document, as a plain tuple."""
    return (
        tuple(doc["events"]),
        frozenset((a, b) for a, b in doc["precedence"]),
        frozenset(doc["sources"]),
        frozenset(doc["targets"]),
    )


def show(p: Plain) -> str:
    """A deterministic one-line text form, used for digests and messages."""
    labels, prec, src, tgt = p
    return "%s|%s|%s|%s" % (
        "".join(f"{lab};" for lab in labels),
        ",".join(f"{a}<{b}" for a, b in sorted(prec)),
        ",".join(map(str, sorted(src))),
        ",".join(map(str, sorted(tgt))),
    )


def closure(n: int, pairs) -> set[tuple[int, int]]:
    """Transitive closure on ``0..n-1`` by Warshall's algorithm."""
    reach = [[False] * n for _ in range(n)]
    for a, b in pairs:
        reach[a][b] = True
    for k in range(n):
        via = reach[k]
        for row in reach:
            if row[k]:
                for j in range(n):
                    if via[j]:
                        row[j] = True
    return {(i, j) for i in range(n) for j in range(n) if reach[i][j]}


def canonical(labels: dict, precedence, event_order, sources, targets) -> Plain | None:
    """Canonical form of raw ipomset data; ``None`` when no numbering exists.

    Events are numbered by their rank in the closure of precedence united
    with the event order on precedence-concurrent pairs.  Returns ``None``
    when precedence or the event order is cyclic, when they oppose each
    other, or when some concurrent pair is left unordered.
    """
    events = list(labels)
    index = {e: i for i, e in enumerate(events)}
    n = len(events)
    prec = closure(n, [(index[a], index[b]) for a, b in precedence])
    order = closure(n, [(index[a], index[b]) for a, b in event_order])
    if any(a == b for a, b in prec | order):
        return None
    if any((b, a) in prec for a, b in order):
        return None
    essential = {pair for pair in order if pair not in prec}
    total = closure(n, prec | essential)
    if any(a == b for a, b in total) or len(total) != n * (n - 1) // 2:
        return None
    rank = [sum(1 for x in range(n) if (x, e) in total) for e in range(n)]
    at = sorted(range(n), key=rank.__getitem__)
    return (
        tuple(labels[events[old]] for old in at),
        frozenset((rank[a], rank[b]) for a, b in prec),
        frozenset(rank[index[s]] for s in sources),
        frozenset(rank[index[t]] for t in targets),
    )


def parallel_of(p: Plain, q: Plain) -> Plain:
    """Parallel composition: ``q``'s events renumbered after ``p``'s."""
    shift = len(p[0])
    return (
        p[0] + q[0],
        p[1] | {(a + shift, b + shift) for a, b in q[1]},
        p[2] | {s + shift for s in q[2]},
        p[3] | {t + shift for t in q[3]},
    )


def glue_of(p: Plain, q: Plain) -> Plain | str:
    """Sequential composition over tagged event names.

    Returns ``"mismatch"`` when the interfaces differ and ``"cycle"`` when
    the composite has no canonical numbering.
    """
    p_labels, p_prec, p_src, p_tgt = p
    q_labels, q_prec, q_src, q_tgt = q
    p_targets, q_sources = sorted(p_tgt), sorted(q_src)
    if [p_labels[t] for t in p_targets] != [q_labels[s] for s in q_sources]:
        return "mismatch"
    name = {("q", s): ("p", t) for s, t in zip(q_sources, p_targets)}
    for b in range(len(q_labels)):
        name.setdefault(("q", b), ("q", b))
    labels = {("p", x): p_labels[x] for x in range(len(p_labels))}
    for b in range(len(q_labels)):
        labels[name[("q", b)]] = q_labels[b]
    prec = [(("p", a), ("p", b)) for a, b in p_prec]
    prec += [(name[("q", a)], name[("q", b)]) for a, b in q_prec]
    prec += [
        (("p", x), name[("q", b)])
        for x in range(len(p_labels))
        if x not in p_tgt
        for b in range(len(q_labels))
        if b not in q_src
    ]
    order = [(("p", a), ("p", b)) for a, b in combinations(range(len(p_labels)), 2)]
    order += [
        (name[("q", a)], name[("q", b)])
        for a, b in combinations(range(len(q_labels)), 2)
    ]
    out = canonical(
        labels, prec, order, [("p", s) for s in p_src], [name[("q", t)] for t in q_tgt]
    )
    return "cycle" if out is None else out


# --- properties -----------------------------------------------------------------


def well_formed(p: Plain) -> list[str]:
    """Canonical-form invariants of a plain ipomset."""
    labels, prec, src, tgt = p
    n = len(labels)
    problems = []
    if not all(isinstance(lab, str) and lab for lab in labels):
        problems.append(f"bad labels in {show(p)}")
    if not all(0 <= a < b < n for a, b in prec):
        problems.append(f"precedence not index-increasing in {show(p)}")
    elif closure(n, prec) != set(prec):
        problems.append(f"precedence not transitively closed in {show(p)}")
    if not all(0 <= e < n for e in src | tgt):
        problems.append(f"interface outside the events in {show(p)}")
    if any(b in src for _, b in prec) or any(a in tgt for a, _ in prec):
        problems.append(f"interface event not extremal in {show(p)}")
    return problems


def is_interval(p: Plain) -> bool:
    """Fishburn: ``a<b`` and ``c<d`` imply ``a<d`` or ``c<b``."""
    prec = p[1]
    return all((a, d) in prec or (c, b) in prec for (a, b), (c, d) in product(prec, prec))


def _key(p: Plain, x: int) -> tuple:
    return (p[0][x], x in p[2], x in p[3])


def bucket_key(p: Plain) -> tuple:
    """Refinement only relates ipomsets with equal label and interface multisets."""
    return tuple(sorted(_key(p, x) for x in range(len(p[0]))))


def witness_ok(p: Plain, q: Plain, w) -> bool:
    """Is ``w`` (``w[x]`` is the image of ``x``) a refinement witness of ``p`` into ``q``?"""
    n = len(p[0])
    if len(q[0]) != n or sorted(w) != list(range(n)):
        return False
    if any(p[0][x] != q[0][w[x]] for x in range(n)):
        return False
    if {w[s] for s in p[2]} != q[2] or {w[t] for t in p[3]} != q[3]:
        return False
    p_prec, q_prec = p[1], q[1]
    for x, y in permutations(range(n), 2):
        u, v = w[x], w[y]
        if (u, v) in q_prec and (x, y) not in p_prec:
            return False
        p_conc = (x, y) not in p_prec and (y, x) not in p_prec
        q_conc = (u, v) not in q_prec and (v, u) not in q_prec
        if p_conc and q_conc and x < y and not u < v:
            return False
    return True


def refines(p: Plain, q: Plain) -> bool:
    """Brute force: does some bijection witness that ``p`` refines ``q``?"""
    n = len(p[0])
    if len(q[0]) != n or bucket_key(p) != bucket_key(q):
        return False
    pools: dict[tuple, list[int]] = {}
    for u in range(n):
        pools.setdefault(_key(q, u), []).append(u)
    groups = [[x for x in range(n) if _key(p, x) == k] for k in pools]
    for choice in product(*(permutations(pools[k]) for k in pools)):
        w = [0] * n
        for xs, us in zip(groups, choice):
            for x, u in zip(xs, us):
                w[x] = u
        if witness_ok(p, q, w):
            return True
    return False


def antichain_problems(gens: list[Plain]) -> list[str]:
    problems = []
    if len(set(gens)) != len(gens):
        problems.append("generators repeat")
    by_key: dict[tuple, list[Plain]] = {}
    for g in gens:
        by_key.setdefault(bucket_key(g), []).append(g)
    for group in by_key.values():
        for g, h in combinations(group, 2):
            if refines(g, h) or refines(h, g):
                problems.append(f"generators {show(g)} and {show(h)} are comparable")
    return problems


def natural_orders(n: int) -> list[frozenset]:
    """All closed strict orders on ``0..n-1`` whose pairs increase."""
    pairs = list(combinations(range(n), 2))
    out = []
    for bits in range(1 << len(pairs)):
        chosen = {pair for k, pair in enumerate(pairs) if bits >> k & 1}
        if closure(n, chosen) == chosen:
            out.append(frozenset(chosen))
    return out


class Enumerator:
    """Exhaustive refinement enumeration, with its tables kept between calls."""

    def __init__(self) -> None:
        self.orders: dict[int, list[frozenset]] = {}
        self.maximal: dict[Plain, list[Plain]] = {}

    def down_set(self, g: Plain) -> set[Plain]:
        """Every interval ipomset that refines ``g``."""
        n = len(g[0])
        if n not in self.orders:
            self.orders[n] = natural_orders(n)
        n_src, n_tgt = len(g[2]), len(g[3])
        out = set()
        for prec in self.orders[n]:
            minimal = [e for e in range(n) if not any(b == e for _, b in prec)]
            maximal = [e for e in range(n) if not any(a == e for a, _ in prec)]
            for labels in set(permutations(g[0])):
                for src in combinations(minimal, n_src):
                    for tgt in combinations(maximal, n_tgt):
                        cand = (labels, prec, frozenset(src), frozenset(tgt))
                        if is_interval(cand) and refines(cand, g):
                            out.add(cand)
        return out

    def maximal_refinements(self, p: Plain) -> list[Plain]:
        """The maximal interval ipomsets that refine ``p``."""
        if len(self.maximal) >= 512:
            # Bounded, so that the checker's memory does not grow with the
            # length of the run and move the workload's peak RSS.
            self.maximal.clear()
        if p not in self.maximal:
            below = self.down_set(p)
            self.maximal[p] = [
                x for x in below if not any(y != x and refines(x, y) for y in below)
            ]
        return self.maximal[p]


# --- checks of whole outputs ------------------------------------------------------


def check_generators(gens: list[Plain], max_events: int | None) -> list[str]:
    """A language's generators: well formed, interval, within bound, an antichain."""
    problems = []
    for g in gens:
        problems += well_formed(g)
        if not is_interval(g):
            problems.append(f"generator {show(g)} is not interval")
        if max_events is not None and len(g[0]) > max_events:
            problems.append(f"generator {show(g)} exceeds the bound {max_events}")
    return problems or antichain_problems(gens)


def check_normalized(gens: list[Plain], pool: list[Plain], bound, enum: Enumerator) -> list[str]:
    """``gens`` must be the maximal interval elements below ``pool``.

    Every generator refines some pool member.  Every interval pool member
    within ``bound`` refines some generator, and so does every maximal
    interval refinement of a non-interval member of at most 4 events.
    """
    problems = check_generators(gens, bound)
    if problems:
        return problems
    for g in gens:
        if not any(refines(g, p) for p in pool):
            problems.append(f"generator {show(g)} lies below no input")
    for p in pool:
        if bound is not None and len(p[0]) > bound:
            continue
        if is_interval(p):
            wanted = [p]
        elif len(p[0]) <= 4:
            wanted = enum.maximal_refinements(p)
        else:
            continue
        for w in wanted:
            if not any(refines(w, g) for g in gens):
                problems.append(f"{show(w)} below input {show(p)} is covered by no generator")
    return problems


def check_language_doc(text: str, max_events: int) -> tuple[list[str], list[Plain]]:
    """Parse a serialized language document and check its generators."""
    doc = json.loads(text)
    problems = []
    if doc.get("type") != "language" or doc.get("eventBound") != max_events:
        problems.append("not a language document with the requested bound")
    gens = [plain_from_doc(g) for g in doc.get("generators", [])]
    for g_doc, g in zip(doc.get("generators", []), gens):
        concurrent = [
            [i, j]
            for i, j in combinations(range(len(g[0])), 2)
            if (i, j) not in g[1]
        ]
        if g_doc.get("eventOrder") != concurrent:
            problems.append(f"eventOrder of {show(g)} is not the concurrent pairs")
    return problems + check_generators(gens, max_events), gens


def check_interval_result(p: Plain, result) -> list[str]:
    """An interval representation must realise precedence exactly; a 2+2 must be one."""
    n = len(p[0])
    prec = p[1]
    if hasattr(result, "begin"):
        begin, end = result.begin, result.end
        if len(begin) != n or len(end) != n:
            return [f"interval representation of {show(p)} has the wrong length"]
        if any(begin[x] > end[x] for x in range(n)):
            return [f"interval representation of {show(p)} has an empty interval"]
        for x, y in permutations(range(n), 2):
            if (end[x] < begin[y]) != ((x, y) in prec):
                return [f"interval representation of {show(p)} is wrong at ({x}, {y})"]
        return []
    quad = (result.first_low, result.first_high, result.second_low, result.second_high)
    fl, fh, sl, sh = quad
    if len(set(quad)) != 4 or not all(0 <= e < n for e in quad):
        return [f"2+2 witness {quad} of {show(p)} is not four events"]
    if (fl, fh) not in prec or (sl, sh) not in prec:
        return [f"2+2 witness {quad} of {show(p)} lacks a chain"]
    for x, y in ((fl, sl), (fl, sh), (fh, sl), (fh, sh)):
        if (x, y) in prec or (y, x) in prec:
            return [f"2+2 witness {quad} of {show(p)} has a comparable cross pair"]
    return []


def check_subsumption(p: Plain, q: Plain, witness, reverse) -> list[str]:
    """A witness must be valid; ``p`` and ``q`` refining each other means equality."""
    if witness is not None and not witness_ok(p, q, witness):
        return [f"bad witness {witness} for {show(p)} into {show(q)}"]
    if p == q and witness is None:
        return [f"{show(p)} does not refine itself"]
    if witness is not None and reverse is not None and p != q:
        return [f"distinct {show(p)} and {show(q)} refine each other"]
    return []


# --- precubical sets --------------------------------------------------------------


def check_cubical(cells: dict, faces: dict) -> list[str]:
    """Face words and the cubical identities, on plain cell and face tables."""
    problems = []
    for cid, word in cells.items():
        d = len(word)
        for nu, pos in product((0, 1), range(1, d + 1)):
            tgt = faces.get((cid, nu, pos))
            if tgt not in cells or tuple(cells[tgt]) != tuple(word[: pos - 1] + word[pos:]):
                problems.append(f"face ({cid}, {nu}, {pos}) is missing or has the wrong word")
        if problems:
            return problems
        for i, j in combinations(range(1, d + 1), 2):
            for nu, mu in product((0, 1), (0, 1)):
                if faces[(faces[(cid, mu, j)], nu, i)] != faces[(faces[(cid, nu, i)], mu, j - 1)]:
                    problems.append(f"faces of {cid} at {i}, {j} do not commute")
    if len(faces) != sum(2 * len(w) for w in cells.values()):
        problems.append("faces of unknown cells or positions")
    return problems


def word_counts(cells: dict) -> Counter:
    return Counter(tuple(w) for w in cells.values())


def tensor_counts(x: Counter, y: Counter) -> Counter:
    """Cells of a tensor product per word: the convolution of the factors'."""
    out: Counter = Counter()
    for u, cu in x.items():
        for v, cv in y.items():
            out[u + v] += cu * cv
    return out


def cells_from_doc(doc: dict) -> tuple[dict, dict]:
    cells = {c["id"]: tuple(c["word"]) for c in doc["cells"]}
    faces = {}
    for c in doc["cells"]:
        for key, tgt in c["faces"].items():
            nu, pos = key.split(",")
            faces[(c["id"], int(nu), int(pos))] = tgt
    return cells, faces
