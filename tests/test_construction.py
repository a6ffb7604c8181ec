"""Values the library builds itself equal those the public constructors build.

``validate``, ``glue``, ``parallel``, ``extensions``, ``normalize``,
``restrict`` and the path labels of automata build their results without
re-running the constructors' checks, and so do the tensors, colimits and
cocones of precubical sets and the automata built from them.  These tests
rebuild such results through ``Ipomset(...)``, ``Language(...)``,
``PrecubicalSet(...)``, ``PrecubicalMap(...)``, ``Hda(...)`` and
``HdaMap(...)``, which check everything, and require the same value and
the same field types: a builder that hands over a ``list`` or a relation
that is not transitively closed fails here.  The last tests keep
``assert`` out of the package, because ``python -O`` strips it, and
``raise AssertionError`` too, because a failure must reach the user as a
typed error; they keep ``object.__new__``, which skips every check,
inside the ``_unchecked`` builder; they keep ``formats._expect`` to
constant messages, so a document error text is formatted only on failure;
and they keep ``ipomset.validate`` the one checker of the canonical form.
The public names in ``hdalang.__all__`` are pinned at the end.
"""

from __future__ import annotations

import ast
import pathlib
import random
import sys
import types

import hdalang

from hdalang import (
    Hda,
    HdaMap,
    InternalOrderCycle,
    Ipomset,
    Language,
    PrecubicalMap,
    PrecubicalSet,
    SequentialMismatch,
    coproduct,
    coproduct_hda,
    extensions,
    finite_colimit,
    glue,
    language,
    normalize,
    parallel,
    pushout_hda,
    replicate,
    replication_chain_prefix,
    restrict,
    tensor,
    tensor_hda,
    tensor_power,
    validate,
)
from hdalang.samples import edge_automaton, grid_automaton, pushout_span
from oracles import oracle_colimit_names, random_hda, random_ipomset, universe_up_to

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hdalang"


def assert_as_if_public(p: Ipomset) -> None:
    """``p`` equals its rebuild by ``Ipomset(...)`` and has its field types."""
    again = Ipomset(p.labels, p.precedence, p.sources, p.targets)
    assert again == p and hash(again) == hash(p), p
    assert type(p.labels) is tuple
    assert type(p.precedence) is frozenset
    assert type(p.sources) is frozenset
    assert type(p.targets) is frozenset


def assert_language_as_if_public(lang: Language) -> None:
    """``Language(...)`` accepts ``lang``'s own data and builds an equal value."""
    again = Language(lang.generators, lang.event_bound)
    assert again == lang and hash(again) == hash(lang)
    assert type(lang.generators) is frozenset
    for g in lang.generators:
        assert_as_if_public(g)


class TestIpomsetBuilds:
    def test_validate_returns_a_canonical_ipomset_unchanged(self):
        for p in universe_up_to(3):
            got = validate(
                dict(enumerate(p.labels)),
                p.precedence,
                p.event_order,
                p.sources,
                p.targets,
            )
            assert got == p
            assert_as_if_public(got)

    def test_glue_of_every_matching_pair(self):
        pool = universe_up_to(2)
        glued = 0
        for p in pool:
            for q in pool:
                try:
                    composite = glue(p, q)
                except (SequentialMismatch, InternalOrderCycle):
                    continue
                assert_as_if_public(composite)
                glued += 1
        assert glued > 1000

    def test_parallel_of_every_pair(self):
        pool = universe_up_to(2)
        for p in pool:
            for q in pool:
                assert_as_if_public(parallel(p, q))

    def test_every_member_of_extensions(self):
        for q in universe_up_to(3):
            for p in extensions(q):
                assert_as_if_public(p)


class TestLanguageBuilds:
    def test_normalize_and_restrict_outputs(self):
        rnd = random.Random(601)
        for _ in range(60):
            pool = [random_ipomset(rnd, 4) for _ in range(rnd.randint(0, 5))]
            bound = rnd.choice([None, 2, 4])
            lang = normalize(pool, bound)
            assert_language_as_if_public(lang)
            assert_language_as_if_public(restrict(lang, rnd.randint(0, 4)))

    def test_languages_of_automata(self):
        automata = [
            tensor_power(edge_automaton("a"), 3),
            grid_automaton(),
            replicate(edge_automaton("b"), 2),
        ]
        rnd = random.Random(602)
        automata += [random_hda(rnd, allow_empty_marks=False) for _ in range(20)]
        for automaton in automata:
            assert_language_as_if_public(language(automaton, 3))


def assert_set_as_if_public(x: PrecubicalSet) -> None:
    """``PrecubicalSet(...)`` accepts ``x``'s own data and builds an equal value."""
    assert PrecubicalSet(x.cells, x.faces) == x
    assert type(x.cells) is dict and type(x.faces) is dict
    assert all(type(w) is tuple for w in x.cells.values())


def assert_map_as_if_public(f: PrecubicalMap) -> None:
    """``PrecubicalMap(...)`` accepts ``f``'s own data and builds an equal value."""
    assert PrecubicalMap(f.source, f.target, f.mapping) == f
    assert type(f.mapping) is dict


def assert_hda_as_if_public(a: Hda) -> None:
    """``Hda(...)`` accepts ``a``'s own data, with a checked carrier."""
    assert_set_as_if_public(a.carrier)
    assert Hda(a.carrier, a.start, a.accept) == a
    assert type(a.start) is frozenset and type(a.accept) is frozenset


def small_hda(rnd: random.Random) -> Hda:
    return random_hda(rnd, max_vertices=4, max_edges=4, max_squares=2)


class TestPrecubicalBuilds:
    def test_tensor_and_coproduct_of_random_carriers(self):
        rnd = random.Random(604)
        for _ in range(30):
            x, y = small_hda(rnd).carrier, small_hda(rnd).carrier
            assert_set_as_if_public(tensor(x, y))
            parts = [x, y, x]
            total, injections = coproduct(parts)
            assert_set_as_if_public(total)
            for injection in injections:
                assert_map_as_if_public(injection)
            assert (total, injections) == finite_colimit(parts, [])

    def test_colimits_name_classes_after_their_least_member(self):
        # Arrows run from lower to higher indices and back, so unions meet
        # roots in either order.
        rnd = random.Random(605)
        point = PrecubicalSet({"p": ()}, {})
        for _ in range(40):
            x, y = small_hda(rnd).carrier, small_hda(rnd).carrier
            objects = [y, point, x, point, x]
            arrows = [
                (s, t, {"p": rnd.choice(objects[t].cells_of_dim(0))})
                for s in (1, 3)
                for t in (0, 2)
            ]
            arrows.append((4, 2, {c: c for c in x.cells}))
            colim, cocones = finite_colimit(objects, arrows)
            assert_set_as_if_public(colim)
            names = oracle_colimit_names(objects, arrows)
            for i, cocone in enumerate(cocones):
                assert_map_as_if_public(cocone)
                assert cocone.mapping == {c: names[(i, c)] for c in objects[i].cells}


class TestAutomatonBuilds:
    def test_tensor_coproduct_pushout_and_replicate(self):
        rnd = random.Random(606)
        apex = Hda(PrecubicalSet({"p": ()}, {}), frozenset(), frozenset())
        for _ in range(20):
            x, y = small_hda(rnd), small_hda(rnd)
            assert_hda_as_if_public(tensor_hda(x, y))
            assert_hda_as_if_public(coproduct_hda([x, y, x]))
            assert_hda_as_if_public(replicate(x, 2))
            into_x = {"p": rnd.choice(x.carrier.cells_of_dim(0))}
            into_y = {"p": rnd.choice(y.carrier.cells_of_dim(0))}
            assert_hda_as_if_public(pushout_hda(apex, x, y, into_x, into_y))

    def test_replication_chain_stages_and_inclusions(self):
        rnd = random.Random(607)
        seeds = [edge_automaton("a", with_start=False, with_accept=True)]
        for _ in range(6):
            x = small_hda(rnd)
            seeds.append(Hda(x.carrier, frozenset(), x.accept))
        for seed in seeds:
            vertices = seed.carrier.cells_of_dim(0)
            base, far = rnd.choice(vertices), rnd.choice(vertices)
            stages, inclusions = replication_chain_prefix(seed, 3, base, far)
            for stage in stages:
                assert_hda_as_if_public(stage)
            for inclusion in inclusions:
                again = HdaMap(inclusion.source, inclusion.target, inclusion.mapping)
                assert again == inclusion
                assert type(inclusion.mapping) is dict

    def test_built_sets_skip_validate_precubical(self, monkeypatch):
        edge = edge_automaton("a")
        module = sys.modules["hdalang.precubical"]
        check = module.validate_precubical
        calls = []

        def counted(cells, faces):
            calls.append(len(cells))
            return check(cells, faces)

        monkeypatch.setattr(module, "validate_precubical", counted)
        replicate(edge, 4)
        tensor_power(edge, 4)
        assert calls == []
        # The count does see the public constructor.
        PrecubicalSet(edge.carrier.cells, edge.carrier.faces)
        assert calls == [3]

    def test_arrows_are_checked_once(self, monkeypatch):
        # pushout_hda checks each leg as an HDA map and builds the colimit
        # without checking the legs again; a chain builds its own arrows.
        span = pushout_span()
        seed = edge_automaton("a", with_start=False, with_accept=True)
        check = sys.modules["hdalang.precubical"].validate_precubical_map
        calls = []

        def counted(source, target, mapping):
            calls.append(len(mapping))
            return check(source, target, mapping)

        for name in ("hdalang.precubical", "hdalang.hda"):
            monkeypatch.setattr(sys.modules[name], "validate_precubical_map", counted)
        pushout_hda(*span)
        assert calls == [1, 1]
        replication_chain_prefix(seed, 3, "v0", "v1")
        assert calls == [1, 1]
        # The count does see the public colimit.
        finite_colimit([span[0].carrier, span[1].carrier], [(0, 1, span[3])])
        assert calls == [1, 1, 1]


class TestNoAssert:
    def test_package_has_no_assert_statement(self):
        modules = sorted(SRC.glob("*.py"))
        assert modules
        for module in modules:
            tree = ast.parse(module.read_text(encoding="utf-8"), str(module))
            lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
            assert not lines, f"{module.name} has assert statements at lines {lines}"
            raised = [
                n.lineno
                for n in ast.walk(tree)
                if isinstance(n, ast.Raise)
                and n.exc is not None
                and "AssertionError"
                in {x.id for x in ast.walk(n.exc) if isinstance(x, ast.Name)}
            ]
            assert not raised, f"{module.name} raises AssertionError at lines {raised}"

    def test_only_unchecked_builders_call_object_new(self):
        trees = {
            module.name: ast.parse(module.read_text(encoding="utf-8"), str(module))
            for module in sorted(SRC.glob("*.py"))
        }

        def is_object_new(node):
            return (
                isinstance(node, ast.Attribute)
                and node.attr == "__new__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            )

        # Names bound to ``object.__new__``, and the names they are
        # imported under.
        aliases = {
            target.id
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and is_object_new(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        aliases |= {
            name.asname or name.name
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for name in node.names
            if name.name in aliases
        }

        def calls(node, scope):
            """``(line, enclosing function)`` of each call of ``object.__new__``."""
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node.name
            if isinstance(node, ast.Call) and (
                is_object_new(node.func)
                or isinstance(node.func, ast.Name) and node.func.id in aliases
            ):
                yield node.lineno, scope
            for child in ast.iter_child_nodes(node):
                yield from calls(child, scope)

        found = [
            (name, line, scope)
            for name, tree in trees.items()
            for line, scope in calls(tree, "<module>")
        ]
        assert found
        stray = [c for c in found if c[2] != "_unchecked"]
        assert not stray, f"object.__new__ called outside the _unchecked builder: {stray}"
        builders = [
            (name, node.lineno)
            for name, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "_unchecked"
        ]
        assert len(builders) == 1, f"expected one _unchecked builder, found {builders}"

    def test_document_errors_are_formatted_only_on_failure(self):
        # ``_expect`` receives its message whether or not the check fails, so a
        # formatted message there would be built on every call.
        module = SRC / "formats.py"
        tree = ast.parse(module.read_text(encoding="utf-8"), str(module))
        calls = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_expect"
        ]
        assert calls
        messages = [
            (node.lineno, arg)
            for node in calls
            for arg in node.args[1:] + [k.value for k in node.keywords if k.arg == "message"]
        ]
        eager = [line for line, arg in messages if not isinstance(arg, ast.Constant)]
        assert not eager, f"_expect gets a computed message at lines {eager}"


class TestOneIpomsetChecker:
    def test_invariant_errors_are_raised_only_by_validate(self):
        # ``Ipomset(...)`` checks its fields through ``validate``; only its
        # check that each precedence pair names an event stays its own.
        module = SRC / "ipomset.py"
        tree = ast.parse(module.read_text(encoding="utf-8"), str(module))

        def raises(node, owner):
            """``(error name, owner)`` of each ``raise Name(...)``."""
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = f"{owner}.{node.name}" if owner else node.name
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                if isinstance(node.exc.func, ast.Name):
                    yield node.exc.func.id, owner
            for child in ast.iter_child_nodes(node):
                yield from raises(child, owner)

        found = list(raises(tree, ""))
        allowed = {
            "LabelMissing": {"validate._idx", "validate"},
            "CycleInPrecedence": {"validate"},
            "SourceNotMinimal": {"validate"},
            "TargetNotMaximal": {"validate"},
            "EventOrderIncomplete": {"validate"},
            "EventOrderCycle": {"validate", "Ipomset.__post_init__"},
        }
        for name, owners in allowed.items():
            where = {owner for error, owner in found if error == name}
            assert where, f"{name} is never raised"
            assert where <= owners, f"{name} is raised in {sorted(where - owners)}"
        constructor = [e for e, owner in found if owner == "Ipomset.__post_init__"]
        assert constructor == ["EventOrderCycle"]


# The public names.  A change here is an API change, listed in CHANGES.md.
PUBLIC_API = [
    "CofaceMap", "CycleInPrecedence", "DownStep", "EMPTY", "EventOrderCycle",
    "EventOrderIncomplete", "Hda", "HdaMap", "IllFormedDiagram",
    "InternalOrderCycle", "IntervalRepresentation", "Ipomset", "IpomsetError",
    "LabelMissing", "Language", "NotInterval", "Path", "PositionOutOfRange",
    "PrecubicalError", "PrecubicalInvariant", "PrecubicalMap", "PrecubicalSet",
    "SequentialMismatch", "ShapeMismatch", "SourceNotMinimal", "TargetNotMaximal",
    "TwoPlusTwoWitness", "UnknownCell", "UpStep", "all_cofaces", "compose_coface",
    "compose_maps", "contains", "coproduct", "coproduct_hda", "elementary_coface",
    "enumerate_accepting_paths", "ev_label", "expand", "extensions",
    "finite_colimit", "from_chain", "from_concurrent", "glue", "identity",
    "identity_coface", "interval_representation", "is_equal", "is_interval",
    "is_subset", "language", "normalize", "par_closure_bounded", "par_compose",
    "parallel", "point", "pushout_hda", "replicate", "replication_chain_prefix",
    "restrict", "seq_compose", "start_cell_count", "subsumes", "tensor",
    "tensor_cell_id", "tensor_coface", "tensor_hda", "tensor_power", "tensor_word",
    "union", "unit_hda", "validate", "validate_hda_map", "validate_path",
    "validate_precubical", "validate_precubical_map",
]


class TestPublicApi:
    def test_all_is_pinned_and_resolves(self):
        assert sorted(hdalang.__all__) == PUBLIC_API
        missing = [name for name in PUBLIC_API if not hasattr(hdalang, name)]
        assert not missing, f"names in __all__ that do not resolve: {missing}"

    def test_language_function_does_not_hide_the_module(self):
        # ``hdalang.language`` is the automaton function; the submodule of
        # the same name stays importable under its own key.
        module = sys.modules["hdalang.language"]
        assert isinstance(module, types.ModuleType)
        assert module.normalize is hdalang.normalize
        assert hdalang.language is sys.modules["hdalang.hda"].language
