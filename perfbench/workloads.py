"""The four benchmark workloads.

A workload turns a seed into *cycles* of operations.  A cycle holds one
operation per template, in a fixed order, so every whole cycle has the same
mix of operation kinds; only the random content changes from cycle to
cycle.  The run loop measures whole cycles, which keeps the mix, and so the
percentiles and the throughput, independent of where the clock stops.

Each workload has three jobs:

* ``make_cycle(rng)`` builds the inputs of one cycle (set-up work, never
  timed as an operation);
* ``run(api, op)`` performs one operation through ``api``, the table of the
  library's public functions (wrapped with spans in a traced run);
* ``check(op, out)`` checks the output with :mod:`checks` and returns
  ``(problems, fingerprint)``, where the fingerprint is a deterministic text
  form of the output that goes into the run's digest.

Why each workload exists is written in ``README.md`` next to this file.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Any

import checks

ALPHABET = "ab"


@dataclass
class Op:
    kind: str
    args: tuple
    expect: Any = None


# --- random structures -------------------------------------------------------------


def random_automaton(lib, rng: random.Random, n_vertices: int, n_extra: int, n_squares: int):
    """A cyclic automaton of dimension two.

    A labelled cycle through every vertex makes the automaton cyclic and
    every vertex reachable; extra random edges add branching; each square is
    a fresh commuting diamond of four edges between random vertices, filled.
    The start is ``v0``; ``v0`` and one random vertex accept.
    """
    cells: dict[str, tuple] = {f"v{i}": () for i in range(n_vertices)}
    faces: dict[tuple, str] = {}
    verts = list(cells)
    n_edges = 0

    def edge(src: str, tgt: str, lab: str) -> str:
        nonlocal n_edges
        eid = f"e{n_edges}"
        n_edges += 1
        cells[eid] = (lab,)
        faces[(eid, 0, 1)] = src
        faces[(eid, 1, 1)] = tgt
        return eid

    for i in range(n_vertices):
        edge(verts[i], verts[(i + 1) % n_vertices], rng.choice(ALPHABET))
    for _ in range(n_extra):
        edge(rng.choice(verts), rng.choice(verts), rng.choice(ALPHABET))
    for k in range(n_squares):
        x, y, z, w = (rng.choice(verts) for _ in range(4))
        first, second = rng.choice(ALPHABET), rng.choice(ALPHABET)
        e1, e2 = edge(x, y, first), edge(x, z, second)
        e3, e4 = edge(z, w, first), edge(y, w, second)
        sid = f"s{k}"
        cells[sid] = (first, second)
        faces.update({(sid, 0, 1): e2, (sid, 1, 1): e4, (sid, 0, 2): e1, (sid, 1, 2): e3})
    accept = frozenset({verts[0], rng.choice(verts)})
    return lib.Hda(lib.PrecubicalSet(cells, faces), frozenset({verts[0]}), accept)


def raw_ipomset(rng: random.Random, labels: list[str], n_src: int, n_tgt: int, density: float):
    """Raw ipomset data over fresh event names: ``(labels, prec, order, src, tgt)``.

    A hidden linear order decides which pairs may be ordered; sources come
    first and receive no precedence, targets come last and give none.  The
    event order is a chain along a random linear extension of precedence, so
    the data is always valid and ``validate`` has to close both relations.
    """
    n = len(labels)
    names = [f"x{rng.randrange(10**9)}_{i}" for i in range(n)]
    hidden = names[:]
    rng.shuffle(hidden)
    src, tgt = set(hidden[:n_src]), set(hidden[n - n_tgt:])
    prec = [
        (hidden[i], hidden[j])
        for i in range(n)
        for j in range(i + 1, n)
        if hidden[j] not in src and hidden[i] not in tgt and rng.random() < density
    ]
    reach = {(a, b) for a, b in checks.closure(n, [(names.index(a), names.index(b)) for a, b in prec])}
    remaining, line = list(range(n)), []
    while remaining:  # random topological order of the precedence closure
        ready = [x for x in remaining if not any((y, x) in reach for y in remaining)]
        pick = rng.choice(ready)
        line.append(names[pick])
        remaining.remove(pick)
    shuffled = labels[:]
    rng.shuffle(shuffled)
    label_of = dict(zip(names, shuffled))
    order = list(zip(line, line[1:]))
    rng.shuffle(names)
    return ({e: label_of[e] for e in names}, prec, order, sorted(src), sorted(tgt))


def renamed(rng: random.Random, raw):
    """The same raw data over new event names, in a new insertion order."""
    labels, prec, order, src, tgt = raw
    new = {e: f"y{rng.randrange(10**9)}_{i}" for i, e in enumerate(labels)}
    events = list(labels)
    rng.shuffle(events)
    return (
        {new[e]: labels[e] for e in events},
        [(new[a], new[b]) for a, b in prec],
        [(new[a], new[b]) for a, b in order],
        [new[e] for e in src],
        [new[e] for e in tgt],
    )


def small_ipomset(lib, rng: random.Random, max_events: int, min_events: int = 1, density: float = 0.4):
    """A random canonical ipomset with ``min_events..max_events`` events over ``ab``."""
    n = rng.randint(min_events, max_events)
    labels = [rng.choice(ALPHABET) for _ in range(n)]
    n_src, n_tgt = rng.randint(0, 1), rng.randint(0, 1)
    if n_src + n_tgt > n:
        n_tgt = 0
    labs, prec, order, src, tgt = raw_ipomset(rng, labels, n_src, n_tgt, density)
    return lib.validate(labs, prec, order, src, tgt)


def lang_gens(lang) -> list:
    return [checks.plain(g) for g in lang.generators]


def fingerprint_language(lang) -> str:
    return f"{lang.event_bound}:" + " ".join(sorted(checks.show(g) for g in lang_gens(lang)))


# --- hda-extract --------------------------------------------------------------------


class HdaExtract:
    """The in-process ``hdalang language`` path on a fixed mix of automata."""

    name = "hda-extract"
    setup_cycles = 4

    def __init__(self, lib, workdir: str):
        self.lib = lib
        self._grid_members: dict = {}
        self._enum = checks.Enumerator()

    def make_cycle(self, rng: random.Random) -> list[Op]:
        lib, ops = self.lib, []
        label = rng.choice(ALPHABET)
        edge = lib.edge_automaton(label)

        def doc_of(automaton) -> str:
            return lib.serialize(lib.hda_to_doc(automaton))

        # Four copies of the 4-cube put the 90th percentile inside one
        # deterministic tier instead of at the edge between two.
        for n, copies in ((3, 2), (4, 4), (5, 1)):
            text = doc_of(lib.tensor_power(edge, n))
            ops += [Op("tensor-power", (text, n), (label, n)) for _ in range(copies)]
        ops += [Op("grid", (doc_of(lib.grid_automaton()), 4)) for _ in range(2)]
        for n in (2, 3, 4):
            ops.append(Op("replicate", (doc_of(lib.replicate(edge, n)), n), (label, n)))
        for _ in range(22):
            automaton = random_automaton(lib, rng, 4, 2, 2)
            ops.append(Op("random", (doc_of(automaton), 4), automaton))
        for _ in range(6):
            pair = [random_automaton(lib, rng, 3, 0, 1) for _ in range(2)]
            ops.append(Op("random-tensor", (doc_of(lib.tensor_hda(*pair)), 3), pair))
        return ops

    def run(self, api, op: Op) -> str:
        text, max_events = op.args
        automaton = api.parse_document(text)
        lang = api.language(automaton, max_events)
        return api.serialize(api.language_to_doc(lang))

    def check(self, op: Op, out: str):
        max_events = op.args[1]
        problems, gens = checks.check_language_doc(out, max_events)
        if op.kind == "tensor-power":
            label, n = op.expect
            if gens != [((label,) * n, frozenset(), frozenset(), frozenset())]:
                problems.append(f"tensor power {n} is not generated by {label * n} alone")
        elif op.kind == "replicate":
            label, n = op.expect
            want = {((label,) * k, frozenset(), frozenset(), frozenset()) for k in range(n + 1)}
            if set(gens) != want:
                problems.append(f"replicate {n} is not generated by the powers 0..{n}")
        elif op.kind == "random" and not problems:
            # Paths of fewer events are explored alike under both budgets,
            # so the generators below the bound are the smaller language.
            smaller = {checks.plain(g) for g in self.lib.language(op.expect, max_events - 1).generators}
            if smaller != {g for g in gens if len(g[0]) < max_events}:
                problems.append(f"language at {max_events} does not restrict to the one at {max_events - 1}")
        elif op.kind == "random-tensor" and not problems:
            # Acceptance criterion C04 by another route: the language of a
            # tensor product is the parallel composition of the languages.
            lib = self.lib
            parts = [lib.language(a, max_events) for a in op.expect]
            composed = lib.restrict(lib.par_compose(*parts), max_events)
            if not lib.is_equal(lib.parse_document(out), composed):
                problems.append("tensor language differs from the parallel composition")
        elif op.kind == "grid" and not problems:
            key = tuple(sorted(gens))
            if key not in self._grid_members:
                members: set = set()
                for g in gens:
                    members |= self._enum.down_set(g)
                self._grid_members[key] = len(members)
            if self._grid_members[key] != 10:
                problems.append(f"grid language has {self._grid_members[key]} members, not 10")
        return problems, out


# --- ideal-algebra ------------------------------------------------------------------


class IdealAlgebra:
    """Composition of seeded random languages held as generator antichains."""

    name = "ideal-algebra"
    setup_cycles = 16
    bound = 4

    def __init__(self, lib, workdir: str):
        self.lib = lib
        self._enum = checks.Enumerator()

    def _raw_pool(self, rng: random.Random) -> list:
        """Two to three small ipomsets plus one non-interval ``2+2``."""
        lib = self.lib
        pool = [small_ipomset(lib, rng, 3) for _ in range(rng.randint(2, 3))]
        chains = [lib.from_chain([rng.choice(ALPHABET) for _ in range(2)]) for _ in range(2)]
        pool.append(lib.parallel(*chains))
        return pool

    def _language(self, rng: random.Random, max_events: int = 3, count: int = 4):
        members = [small_ipomset(self.lib, rng, max_events) for _ in range(rng.randint(2, count))]
        return self.lib.normalize(members, self.bound)

    def make_cycle(self, rng: random.Random) -> list[Op]:
        # Eight of the twelve operations are the heavier kinds, so the
        # median falls among their overlapping costs, not in the gap
        # between them and the light binary compositions.
        ops = []
        for _ in range(2):
            ops.append(Op("normalize", (self._raw_pool(rng),)))
        for kind, copies in (("par_compose", 2), ("seq_compose", 1), ("union", 1)):
            for _ in range(copies):
                ops.append(Op(kind, (self._language(rng), self._language(rng))))
        for _ in range(2):
            ops.append(Op("par_closure_bounded", (self._language(rng, 2, 2), 3)))
            ops.append(Op("distributivity", tuple(self._language(rng) for _ in range(3))))
        # The cost of an expansion grows with the concurrency of its
        # generator; the denser 5-event generators keep the heavy tail of
        # that cost from deciding a run's throughput.
        for max_events, density in ((4, 0.4), (5, 0.6)):
            member = small_ipomset(self.lib, rng, max_events, max_events, density)
            ops.append(Op("expand", (self.lib.normalize([member]), max_events)))
        return ops

    def run(self, api, op: Op):
        if op.kind == "normalize":
            return api.normalize(op.args[0], self.bound)
        if op.kind == "distributivity":
            first, second, other = op.args
            left = api.par_compose(api.union(first, second), other)
            right = api.union(api.par_compose(first, other), api.par_compose(second, other))
            return api.is_equal(left, right)
        return getattr(api, op.kind)(*op.args)

    def check(self, op: Op, out):
        bound = self.bound
        if op.kind == "distributivity":
            return ([] if out is True else ["parallel composition does not distribute"]), str(out)
        if op.kind == "expand":
            return self._check_expand(op, out)
        gens = lang_gens(out)
        if op.kind == "normalize":
            pool = [checks.plain(p) for p in op.args[0]]
        elif op.kind == "union":
            pool = lang_gens(op.args[0]) + lang_gens(op.args[1])
        elif op.kind == "par_compose":
            pool = [
                checks.parallel_of(g, h)
                for g in lang_gens(op.args[0])
                for h in lang_gens(op.args[1])
            ]
        elif op.kind == "seq_compose":
            glued = [
                checks.glue_of(g, h)
                for g in lang_gens(op.args[0])
                for h in lang_gens(op.args[1])
            ]
            pool = [p for p in glued if not isinstance(p, str)]
        else:  # par_closure_bounded
            factors = lang_gens(op.args[0])
            pool, layer = [((), frozenset(), frozenset(), frozenset())], [((), frozenset(), frozenset(), frozenset())]
            for _ in range(op.args[1]):
                layer = [checks.parallel_of(p, g) for p in layer for g in factors]
                pool += layer
        # Only the parallel operations drop composites beyond the bound.
        limit = bound if op.kind in ("par_compose", "par_closure_bounded") else None
        pool = [p for p in pool if limit is None or len(p[0]) <= limit]
        problems = checks.check_normalized(gens, pool, limit, self._enum)
        if out.event_bound != bound:
            problems.append(f"event bound {out.event_bound}, expected {bound}")
        return problems, fingerprint_language(out)

    def _check_expand(self, op: Op, members):
        lang, max_events = op.args
        gens = [g for g in lang_gens(lang) if len(g[0]) <= max_events]
        got = {checks.plain(p) for p in members}
        problems = []
        for p in got:
            problems += checks.well_formed(p)
            if not checks.is_interval(p) or len(p[0]) > max_events:
                problems.append(f"member {checks.show(p)} is not interval or too large")
            elif not any(checks.refines(p, g) for g in gens):
                problems.append(f"member {checks.show(p)} lies below no generator")
        if not set(gens) <= got:
            problems.append("a generator is missing from its own expansion")
        if max_events <= 4 and not problems:
            want: set = set()
            for g in gens:
                want |= self._enum.down_set(g)
            if want != got:
                problems.append(f"expansion has {len(got)} members, not {len(want)}")
        return problems, " ".join(sorted(checks.show(p) for p in got))


# --- refine-query -------------------------------------------------------------------


class RefineQuery:
    """Bucket batches of refinement queries over canonical ipomsets of 4-7 events."""

    name = "refine-query"
    setup_cycles = 16
    size = 8
    # (events, labels, sources, targets, density); the all-``a`` buckets are
    # where ``subsumes`` backtracks the most.
    buckets = (
        (4, "aabb", 1, 1, 0.4),
        (5, "aaaaa", 0, 0, 0.3),
        (5, "aaabb", 1, 0, 0.4),
        (6, "aaaaaa", 1, 1, 0.4),
        (6, "aaabbb", 0, 1, 0.3),
        (7, "aaaaaaa", 0, 0, 0.5),
        (7, "aaaabbb", 1, 1, 0.5),
    )

    def __init__(self, lib, workdir: str):
        self.lib = lib

    def make_cycle(self, rng: random.Random) -> list[Op]:
        ops = []
        for n, labels, n_src, n_tgt, density in self.buckets:
            found: dict = {}
            for _ in range(40 * self.size):
                raw = raw_ipomset(rng, list(labels), n_src, n_tgt, density)
                canon = self.lib.validate(*raw)
                found.setdefault(canon, raw)
                if len(found) == self.size:
                    break
            members = list(found)
            rename = [renamed(rng, found[p]) for p in members]
            ops.append(Op(f"bucket-{n}{labels}", (rename,), members))
        return ops

    def run(self, api, op: Op):
        members = [api.validate(*raw) for raw in op.args[0]]
        pairs = [(p, q, api.subsumes(p, q)) for p in members for q in members]
        reps = [api.interval_representation(p) for p in members]
        composed = []
        for p, q in zip(members, members[1:] + members[:1]):
            try:
                glued = api.glue(p, q)
            except (self.lib.SequentialMismatch, self.lib.InternalOrderCycle) as exc:
                glued = type(exc).__name__
            composed.append((glued, api.parallel(p, q)))
        return members, pairs, reps, composed

    def check(self, op: Op, out):
        members, pairs, reps, composed = out
        plains = [checks.plain(p) for p in members]
        problems = []
        for raw, got, member, want in zip(op.args[0], plains, members, op.expect):
            if got != checks.canonical(*raw) or member != want:
                problems.append(f"validate gave {checks.show(got)}")
        witness = {(checks.plain(p), checks.plain(q)): w for p, q, w in pairs}
        for (p, q), w in witness.items():
            problems += checks.check_subsumption(p, q, w, witness[(q, p)])
        for p, rep in zip(plains, reps):
            problems += checks.check_interval_result(p, rep)
        parts = []
        for (p, q), (glued, par) in zip(zip(plains, plains[1:] + plains[:1]), composed):
            want = checks.glue_of(p, q)
            got = glued if isinstance(glued, str) else checks.plain(glued)
            expected = {"mismatch": "SequentialMismatch", "cycle": "InternalOrderCycle"}.get(want, want)
            if got != expected:
                problems.append(f"glue of {checks.show(p)} and {checks.show(q)} is wrong")
            if checks.plain(par) != checks.parallel_of(p, q):
                problems.append(f"parallel of {checks.show(p)} and {checks.show(q)} is wrong")
            parts.append(got if isinstance(got, str) else checks.show(got))
        hits = "".join("1" if w is not None else "0" for _, _, w in pairs)
        kinds = "".join("i" if hasattr(r, "begin") else "n" for r in reps)
        return problems, " ".join([hits, kinds] + parts)


# --- build --------------------------------------------------------------------------


class Build:
    """Construction, serialization and rendering of automata, directly and by the CLI."""

    name = "build"
    setup_cycles = 64

    def __init__(self, lib, workdir: str):
        self.lib = lib
        self.workdir = workdir
        self._files = 0
        self._jobs = 0
        self._direct: dict = {}

    def _file(self, text: str) -> str:
        self._files += 1
        path = os.path.join(self.workdir, f"in{self._files}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def make_cycle(self, rng: random.Random) -> list[Op]:
        lib, ops = self.lib, []

        def small():
            return random_automaton(lib, rng, 3, 1, 1)

        seed_edge = lib.edge_automaton(rng.choice(ALPHABET), with_start=False, with_accept=True)
        apex = lib.Hda(lib.PrecubicalSet({"p": ()}, {}), frozenset(), frozenset())
        jobs = {
            "tensor": (small(), small()),
            "coproduct": (small(), small(), small()),
            "pushout": (apex, small(), small(), {"p": "v1"}, {"p": "v2"}),
            "replicate": (small(), 2),
            "chain": (seed_edge, 3, "v0", "v1"),
        }
        for kind, args in jobs.items():
            ops.append(Op(kind, args))
        # Two more chains, whose cost does not depend on the seed, hold the
        # median of the cycle's eleven operations.
        for label in ALPHABET:
            edge = lib.edge_automaton(label, with_start=False, with_accept=True)
            ops.append(Op("chain", (edge, 3, "v0", "v1")))
        for kind in ("carrier-tensor", "carrier-coproduct", "carrier-colimit"):
            pair = (random_automaton(lib, rng, 4, 2, 2) for _ in range(2))
            ops.append(Op(kind, tuple(a.carrier for a in pair)))
        # One job per cycle also runs through the CLI; its output must match
        # the direct operation's byte for byte.
        direct = rng.choice(ops[: len(jobs)])
        self._jobs += 1
        direct.expect = self._jobs
        ops.append(Op("cli-" + direct.kind, self._cli_args(direct.kind, direct.args), self._jobs))
        return ops

    def _cli_args(self, kind: str, args) -> list[str]:
        doc = lambda automaton: self._file(self.lib.serialize(self.lib.hda_to_doc(automaton)))
        if kind == "tensor":
            return ["tensor", doc(args[0]), doc(args[1])]
        if kind == "coproduct":
            return ["coproduct"] + [doc(a) for a in args]
        if kind == "pushout":
            span = self.lib.serialize(self.lib.span_to_doc(*args))
            return ["pushout", self._file(span)]
        if kind == "replicate":
            return ["replicate", doc(args[0]), "--n", str(args[1])]
        return ["chain", doc(args[0]), "--n", str(args[1]), "--base", args[2], "--far", args[3]]

    def run(self, api, op: Op):
        lib = self.lib
        if op.kind.startswith("cli-"):
            out = os.path.join(self.workdir, "out.json")
            code = api.main(op.args + ["--out", out])
            with open(out, "r", encoding="utf-8") as handle:
                return code, handle.read()
        if op.kind.startswith("carrier-"):
            x, y = op.args
            if op.kind == "carrier-tensor":
                return api.tensor(x, y)
            if op.kind == "carrier-coproduct":
                return api.coproduct([x, y, x])[0]
            # Glue the two carriers at their base vertices.
            return api.finite_colimit(
                [lib.PrecubicalSet({"p": ()}, {}), x, y],
                [(0, 1, {"p": "v0"}), (0, 2, {"p": "v0"})],
            )[0]
        if op.kind == "tensor":
            automaton = api.tensor_hda(*op.args)
        elif op.kind == "coproduct":
            automaton = api.coproduct_hda(list(op.args))
        elif op.kind == "pushout":
            automaton = api.pushout_hda(*op.args)
        elif op.kind == "replicate":
            automaton = api.replicate(*op.args)
        else:
            automaton = api.replication_chain_prefix(*op.args)[0][-1]
        text = api.serialize(api.hda_to_doc(automaton))
        return text, api.parse_document(text), automaton, api.to_dot(automaton)

    def check(self, op: Op, out):
        if op.kind.startswith("cli-"):
            code, text = out
            direct = self._direct.pop(op.expect, None)
            if code != 0 or text != direct:
                return [f"{op.kind} output differs from the direct path"], text
            return [], text
        if op.kind.startswith("carrier-"):
            text = repr(sorted(out.cells.items())) + repr(sorted(out.faces.items()))
            cells, faces, problems = out.cells, out.faces, []
        else:
            text, back, built = out[:3]
            cells, faces = checks.cells_from_doc(json.loads(text))
            problems = [] if back == built else ["parsing the serialized result does not give it back"]
        problems += checks.check_cubical(cells, faces)
        counts = checks.word_counts(cells)
        want = self._expected_counts(op)
        if want is not None and counts != want:
            problems.append(f"{op.kind} has the wrong cells per word")
        if not op.kind.startswith("carrier-"):
            dot = out[3]
            vertices = sum(1 for w in cells.values() if not w)
            if not dot.startswith("digraph hda {") or not dot.endswith("}\n") or dot.count("[shape=circle") != vertices:
                problems.append("DOT output does not draw every vertex")
            if op.expect is not None:
                self._direct[op.expect] = text
        return problems, text

    def _expected_counts(self, op: Op):
        def counts(x):
            return checks.word_counts(x.carrier.cells if hasattr(x, "carrier") else x.cells)

        args = op.args
        if op.kind in ("tensor", "carrier-tensor"):
            return checks.tensor_counts(counts(args[0]), counts(args[1]))
        if op.kind == "coproduct":
            return sum((counts(a) for a in args), checks.Counter())
        if op.kind == "carrier-coproduct":
            return counts(args[0]) + counts(args[1]) + counts(args[0])
        if op.kind in ("pushout", "carrier-colimit"):
            parts = args[1:3] if op.kind == "pushout" else args
            return counts(parts[0]) + counts(parts[1]) - checks.Counter({(): 1})
        if op.kind == "replicate":
            unit = checks.Counter({(): 1})
            one = counts(args[0])
            return unit + one + checks.tensor_counts(one, one)
        return None


WORKLOADS = {w.name: w for w in (HdaExtract, IdealAlgebra, RefineQuery, Build)}
