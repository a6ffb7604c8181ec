"""The visible surface of the package's immutable value types.

One instance of each of the twelve value types is built through its public
constructor.  The tests pin what a caller can see of it: the ``repr``, the
field names and their order, equality with a rebuild, ``hash`` as the hash
of the field tuple (and ``TypeError`` for the types that hold a dict),
positional ``match`` patterns, refusal of assignment and deletion, and
round trips through ``pickle``, ``copy.copy`` and ``copy.deepcopy``.  The
last test keeps ``import hdalang.cli`` free of ``dataclasses`` and
``inspect``, which the command line never needs.
"""

from __future__ import annotations

import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from hdalang import (
    CofaceMap,
    DownStep,
    Hda,
    HdaMap,
    IntervalRepresentation,
    Ipomset,
    Language,
    Path,
    PrecubicalMap,
    PrecubicalSet,
    TwoPlusTwoWitness,
    UpStep,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def instances() -> dict[str, object]:
    """One value of each type, with one-element sets so that reprs do not vary."""
    p = Ipomset(("a", "b", "c"), frozenset({(0, 1)}), frozenset({0}), frozenset({2}))
    carrier = PrecubicalSet(
        {"v0": (), "v1": (), "e": ("a",)}, {("e", 0, 1): "v0", ("e", 1, 1): "v1"}
    )
    same = {"v0": "v0", "v1": "v1", "e": "e"}
    automaton = Hda(carrier, {"v0"}, {"v1"})
    return {
        "Ipomset": p,
        "IntervalRepresentation": IntervalRepresentation((0, 2, 1), (1, 2, 3)),
        "TwoPlusTwoWitness": TwoPlusTwoWitness(0, 1, 2, 3),
        "Language": Language(frozenset({p}), 3),
        "CofaceMap": CofaceMap(("a",), ("a", "b"), (1,), frozenset({2}), frozenset()),
        "PrecubicalSet": carrier,
        "PrecubicalMap": PrecubicalMap(carrier, carrier, same),
        "Hda": automaton,
        "HdaMap": HdaMap(automaton, automaton, same),
        "UpStep": UpStep({1}),
        "DownStep": DownStep({1}),
        "Path": Path(("v0", "e", "v1"), (UpStep({1}), DownStep({1}))),
    }


FIELDS = {
    "Ipomset": ("labels", "precedence", "sources", "targets"),
    "IntervalRepresentation": ("begin", "end"),
    "TwoPlusTwoWitness": ("first_low", "first_high", "second_low", "second_high"),
    "Language": ("generators", "event_bound"),
    "CofaceMap": ("source", "target", "image", "part_a", "part_b"),
    "PrecubicalSet": ("cells", "rows"),
    "PrecubicalMap": ("source", "target", "mapping"),
    "Hda": ("carrier", "start", "accept"),
    "HdaMap": ("source", "target", "mapping"),
    "UpStep": ("positions",),
    "DownStep": ("positions",),
    "Path": ("cells", "steps"),
}

# Hashing these raises TypeError: they hold a dict, or a value that does.
UNHASHABLE = {"PrecubicalSet", "PrecubicalMap", "Hda", "HdaMap"}

_CARRIER = (
    "PrecubicalSet(cells={'v0': (), 'v1': (), 'e': ('a',)}, "
    "rows={'v0': (), 'v1': (), 'e': ('v0', 'v1')})"
)
_AUTOMATON = f"Hda(carrier={_CARRIER}, start=frozenset({{'v0'}}), accept=frozenset({{'v1'}}))"
_SAME = "{'v0': 'v0', 'v1': 'v1', 'e': 'e'}"
REPRS = {
    "Ipomset": "Ipomset([*a b c*]; 0<1)",
    "IntervalRepresentation": "IntervalRepresentation(begin=(0, 2, 1), end=(1, 2, 3))",
    "TwoPlusTwoWitness": (
        "TwoPlusTwoWitness(first_low=0, first_high=1, second_low=2, second_high=3)"
    ),
    "Language": "Language(generators=frozenset({Ipomset([*a b c*]; 0<1)}), event_bound=3)",
    "CofaceMap": (
        "CofaceMap(source=('a',), target=('a', 'b'), image=(1,), "
        "part_a=frozenset({2}), part_b=frozenset())"
    ),
    "PrecubicalSet": _CARRIER,
    "PrecubicalMap": f"PrecubicalMap(source={_CARRIER}, target={_CARRIER}, mapping={_SAME})",
    "Hda": _AUTOMATON,
    "HdaMap": f"HdaMap(source={_AUTOMATON}, target={_AUTOMATON}, mapping={_SAME})",
    "UpStep": "UpStep(positions=frozenset({1}))",
    "DownStep": "DownStep(positions=frozenset({1}))",
    "Path": (
        "Path(cells=('v0', 'e', 'v1'), steps=(UpStep(positions=frozenset({1})), "
        "DownStep(positions=frozenset({1}))))"
    ),
}


def rebuilt(name: str, value) -> object:
    """``value`` built again from its fields through the public constructor."""
    if name == "PrecubicalSet":
        return PrecubicalSet(value.cells, value.faces)
    return type(value)(*(getattr(value, field) for field in FIELDS[name]))


@pytest.mark.parametrize("name", sorted(FIELDS))
class TestValueTypes:
    def test_repr_fields_equality_and_hash(self, name):
        value = instances()[name]
        assert type(value).__name__ == name
        assert repr(value) == REPRS[name]
        assert type(value).__match_args__ == FIELDS[name]
        fields = tuple(getattr(value, field) for field in FIELDS[name])
        again = rebuilt(name, value)
        assert again == value and again is not value
        assert not again != value
        assert value != fields and value != object()
        if name != "PrecubicalSet":
            assert type(value)(**dict(zip(FIELDS[name], fields))) == value
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(fields) == hash(again)

    def test_positional_match(self, name):
        value = instances()[name]
        cls = type(value)
        match value:
            case cls(first):
                pass
            case _:
                pytest.fail(f"{name} does not match its class pattern")
        assert first is getattr(value, FIELDS[name][0])

    def test_assignment_and_deletion_are_refused(self, name):
        value = instances()[name]
        field = FIELDS[name][0]
        kept = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, kept)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, field) is kept

    def test_pickle_and_copy_give_equal_values(self, name):
        value = instances()[name]
        for copied in (
            pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)
        ):
            assert type(copied) is type(value)
            assert copied == value
            assert repr(copied) == repr(value)


def test_copies_keep_working_caches():
    # An ipomset's masks and a carrier's faces are derived on first use; a
    # copied value must derive them too, whether or not the original had.
    values = instances()
    p, carrier = values["Ipomset"], values["PrecubicalSet"]
    for _ in range(2):
        for copied in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert copied.predecessors(1) == frozenset({0})
        for copied in (pickle.loads(pickle.dumps(carrier)), copy.deepcopy(carrier)):
            assert copied.faces == carrier.faces
        # The second round copies values whose caches are filled.
        assert p.predecessors(1) and carrier.faces


def test_match_binds_every_field():
    values = instances()
    match values["Ipomset"]:
        case Ipomset(labels, precedence, sources, targets):
            assert (labels, precedence, sources, targets) == (
                ("a", "b", "c"), frozenset({(0, 1)}), frozenset({0}), frozenset({2})
            )
        case _:
            pytest.fail("Ipomset does not match four positional fields")
    match values["Language"]:
        case Language(generators, event_bound=3):
            assert generators == frozenset({values["Ipomset"]})
        case _:
            pytest.fail("Language does not match a positional and a keyword field")
    assert Language(frozenset()).event_bound is None


def test_constructors_refuse_missing_unknown_and_repeated_fields():
    step = frozenset({1})
    for build in (
        lambda: UpStep(),
        lambda: UpStep(step, step),
        lambda: UpStep(step, positions=step),
        lambda: UpStep(place=step),
        lambda: Language(event_bound=2),
        lambda: TwoPlusTwoWitness(0, 1, 2),
    ):
        with pytest.raises(TypeError):
            build()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys, hdalang.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect'} & set(sys.modules))))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
