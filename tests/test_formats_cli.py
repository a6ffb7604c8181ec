"""Tests for the JSON document formats and the command-line interface.

Core claims exercised here:

* Every document type round-trips: serialize then parse is the identity
  on the underlying value, and serialization is byte-deterministic and
  byte-identical to ``json.dumps(doc, indent=2, sort_keys=True)``.
* Malformed documents raise ``DocumentError`` with a pinned text (CLI exit
  code 2), domain errors produce a machine-readable record on stdout
  (exit code 1), and successful runs write the result document (exit
  code 0).
* ``hdalang language`` writes the same bytes under two hash seeds.
* The Graphviz rendering marks start/accept vertices, labels edges, and
  draws filled squares linked to their four corners; start markers never
  share an id with a cell.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from hdalang import (
    EMPTY,
    Hda,
    Language,
    PrecubicalInvariant,
    PrecubicalSet,
    expand,
    from_chain,
    from_concurrent,
    glue,
    language,
    normalize,
    point,
    tensor_hda,
    tensor_power,
    validate,
)
from hdalang import cli
from hdalang.cli import main
from hdalang.formats import (
    DocumentError,
    _cell_form,
    hda_from_doc,
    hda_to_doc,
    ipomset_from_doc,
    ipomset_list_to_doc,
    ipomset_to_doc,
    language_from_doc,
    language_to_doc,
    parse_document,
    precubical_from_doc,
    precubical_to_doc,
    serialize,
    span_from_doc,
    span_to_doc,
    to_dot,
)
from hdalang.samples import (
    edge_automaton,
    grid_automaton,
    pushout_span,
    two_plus_two_ipomset,
)
from oracles import random_hda


# --- document round trips -----------------------------------------------------


class TestRoundTrips:
    def test_ipomset(self):
        p = validate(
            {"x": "a", "y": "b", "z": "a"},
            [("x", "y")],
            [("x", "z"), ("z", "y")],
            ["z"],
            ["y", "z"],
        )
        assert ipomset_from_doc(ipomset_to_doc(p)) == p
        assert parse_document(serialize(ipomset_to_doc(p))) == p

    def test_empty_ipomset(self):
        assert ipomset_from_doc(ipomset_to_doc(EMPTY)) == EMPTY

    def test_language(self):
        lang = normalize(
            [from_concurrent(["a", "b"]), from_chain(["a", "a", "b"])],
            event_bound=4,
        )
        got = language_from_doc(language_to_doc(lang))
        assert got.generators == lang.generators
        assert got.event_bound == 4

    def test_precubical(self):
        carrier = grid_automaton().carrier
        got = precubical_from_doc(precubical_to_doc(carrier))
        assert got.cells == carrier.cells
        assert got.faces == carrier.faces

    def test_hda(self):
        x = grid_automaton()
        got = hda_from_doc(hda_to_doc(x))
        assert got.carrier.cells == x.carrier.cells
        assert got.start == x.start
        assert got.accept == x.accept

    def test_span(self):
        span = pushout_span()
        doc = span_to_doc(*span)
        apex, left, right, into_left, into_right = span_from_doc(doc)
        assert apex.carrier.cells == span[0].carrier.cells
        assert into_left == span[3]
        assert into_right == span[4]

    def test_serialization_is_deterministic(self):
        x = grid_automaton()
        assert serialize(hda_to_doc(x)) == serialize(hda_to_doc(x))
        lang = language(x, 4)
        assert serialize(language_to_doc(lang)) == serialize(language_to_doc(lang))

    def test_serialized_form_ends_with_newline(self):
        assert serialize(ipomset_to_doc(EMPTY)).endswith("\n")

    def test_serialize_is_json_dumps_on_every_document_kind(self):
        # Each kind's document, and every document that differs from one in
        # a single place, the last cell and the last generator included.
        # Pairs that are lists of integers but not pairs, as many as two pairs hold.
        odd = {**ipomset_to_doc(from_concurrent(["a", "b"])), "eventOrder": [[0, 1, 0], [1]]}
        for doc in [*every_document_kind(), odd]:
            for value in (doc, *one_change(doc)):
                assert rendered(serialize, value) == rendered(reference, value), value
        # Nested deeper than the writers' own recursion goes, not json.dumps's.
        deep = {"type": "span"}
        for _ in range(400):
            deep = {"apex": deep}
        assert serialize(deep) == reference(deep)

    def test_every_document_kind_is_written_by_template(self, monkeypatch):
        docs = every_document_kind()
        want = [reference(doc) for doc in docs]
        monkeypatch.setattr(json, "dumps", None)  # a call to it would raise
        assert [serialize(doc) for doc in docs] == want

    def test_records_and_renamed_fields_are_written_by_template(self, monkeypatch):
        # The CLI's records, and an ipomset document whose keys it never uses.
        p = validate({"x": "a", "y": "b", "z": "a"}, [("x", "y")], [("x", "z"), ("z", "y")], ["z"], ["y"])
        broken = {"type": "precubical", "cells": [{"id": "e", "word": ["a"], "faces": {}}]}
        records = [cli._interval(None, p)]
        with pytest.raises(cli._DomainFailure) as failed:
            cli._interval(None, two_plus_two_ipomset())
        records.append(failed.value.record)
        with pytest.raises(PrecubicalInvariant) as invalid:
            precubical_from_doc(broken)
        records.append(cli._domain_record(invalid.value))
        records.append({key.upper(): value for key, value in ipomset_to_doc(p).items()})
        assert [set(r) for r in records[1:3]] == [{"error", "witness"}, {"error", "detail", "violations"}]
        want = [reference(record) for record in records]
        monkeypatch.setattr(json, "dumps", None)  # a call to it would raise
        assert [serialize(record) for record in records] == want

    def test_serialize_hands_other_values_to_json_dumps(self):
        # Values ``serialize`` does not write itself, nested at several depths.
        values = [
            {"a": [{1: "x", 2: [None, True]}], "b": (1.5, float("inf"))},
            [[{"k": {False: {}}}], -0.0, 10**30, {}, [], ""],
            {"\u2028\"\\\x00": {"z": [{"y": None}]}, "": -(10**20)},
        ]
        for value in values:
            assert serialize(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    def test_malformed_cells_build_no_template(self):
        # A string word, and a list word with no faces: both go to
        # json.dumps, and no template of their length is cached.
        docs = [
            {"type": "precubical", "cells": [{"id": "e", "word": "a" * 3000, "faces": {}}]},
            {"type": "precubical", "cells": [{"id": "e", "word": ["a"] * 2000, "faces": {}}]},
        ]
        before = _cell_form.cache_info().currsize
        for doc in docs:
            assert serialize(doc) == reference(doc)
        assert _cell_form.cache_info().currsize == before


def every_document_kind() -> list[dict]:
    p = validate({"x": "a", "y": "b"}, [("x", "y")], [("x", "y")], ["x"], ["y"])
    lang = normalize([from_concurrent(["a", "b"]), from_chain(["a", "a", "b"])], 4)
    bare = edge_automaton("a", with_start=False, with_accept=False)
    same = {cell: cell for cell in bare.carrier.cells}
    return [
        ipomset_to_doc(p),
        ipomset_to_doc(EMPTY),
        language_to_doc(lang),
        language_to_doc(language(grid_automaton(), 4)),
        ipomset_list_to_doc(expand(lang, 3)),
        precubical_to_doc(grid_automaton().carrier),
        hda_to_doc(grid_automaton()),
        hda_to_doc(tensor_power(edge_automaton("\u00e9"), 3)),
        span_to_doc(*pushout_span()),
        span_to_doc(bare, edge_automaton("a"), edge_automaton("a"), same, same),
    ]


class Table(dict):
    """A ``dict`` subclass whose items, which json.dumps writes, are not its values."""

    def items(self):
        return [(key, "?") for key in self]


class Text(str):
    """A ``str`` subclass that sorts backwards; json.dumps writes it as its text."""

    def __lt__(self, other):
        return str.__gt__(self, other)


def one_change(value):
    """Every value that differs from the JSON ``value`` in one place.

    An object becomes a :class:`Table` or the list of its items, gains a key
    or an ``int`` key, loses a key, or has one as a :class:`Text`.  A list
    becomes a tuple, an iterator, an object by index, its text, or the
    concatenation of its strings.  An integer becomes ``True`` or ``1.5``;
    ``None`` becomes ``True``; a string becomes a :class:`Text`, a list
    holding it, or an integer.  Every nested value is changed in turn.
    """
    if type(value) is dict:
        yield from (Table(value), [list(item) for item in value.items()])
        yield {**value, "extra": 0}
        yield {**value, 1: "v"}
        for key in value:
            yield {k: v for k, v in value.items() if k != key}
            yield {Text(k) if k == key else k: v for k, v in value.items()}
            yield from ({**value, key: new} for new in one_change(value[key]))
    elif type(value) is list:
        yield from (tuple(value), iter(value), dict(enumerate(value)), str(value))
        if all(type(item) is str for item in value):
            yield "".join(value)
        for i, item in enumerate(value):
            yield from (value[:i] + [new] + value[i + 1:] for new in one_change(item))
    elif type(value) is int:
        yield from (True, 1.5)
    elif value is None:
        yield True
    else:
        yield from (Text(value), [value], 1)


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def rendered(write, value):
    """What ``write(value)`` returns, or the type of the ``TypeError`` it raises."""
    try:
        return write(value)
    except TypeError as exc:
        return type(exc)


class TestDocumentErrors:
    def test_not_json(self):
        with pytest.raises(DocumentError):
            parse_document("not json at all {")

    def test_unknown_type(self):
        with pytest.raises(DocumentError):
            parse_document(json.dumps({"type": "mystery"}))

    def test_missing_type(self):
        with pytest.raises(DocumentError):
            parse_document(json.dumps({"events": []}))

    def test_event_index_out_of_range(self):
        with pytest.raises(DocumentError):
            ipomset_from_doc(
                {
                    "type": "ipomset",
                    "events": ["a"],
                    "precedence": [[0, 5]],
                    "eventOrder": [],
                    "sources": [],
                    "targets": [],
                }
            )

    def test_taxonomy_errors_pass_through(self):
        # Structurally fine but semantically cyclic: the domain error is
        # not converted into a DocumentError.
        from hdalang import CycleInPrecedence

        with pytest.raises(CycleInPrecedence):
            ipomset_from_doc(
                {
                    "type": "ipomset",
                    "events": ["a", "b"],
                    "precedence": [[0, 1], [1, 0]],
                    "eventOrder": [],
                    "sources": [],
                    "targets": [],
                }
            )

    def test_negative_event_bound(self):
        for bound in (-1, -3):
            doc = {"type": "language", "eventBound": bound, "generators": []}
            with pytest.raises(DocumentError):
                language_from_doc(doc)

    def test_non_interval_language_generator_is_intervalized(self):
        # A language document may carry any valid ipomset as a generator;
        # the denoted down-closure only keeps interval refinements.
        doc = {
            "type": "language",
            "eventBound": None,
            "generators": [ipomset_to_doc(two_plus_two_ipomset())],
        }
        lang = language_from_doc(doc)
        assert all(g.size == 4 for g in lang.generators)
        assert two_plus_two_ipomset() not in lang.generators

    def test_generator_that_is_not_an_object(self):
        for entry in (1, "a", [], None):
            text = json.dumps({"type": "language", "generators": [entry]})
            with pytest.raises(DocumentError, match="each generator must be an object"):
                parse_document(text)

    def test_error_texts(self):
        # One malformed document per raise site of the readers.
        def hda(*cells, **fields):
            return {"type": "hda", "cells": list(cells), **fields}

        def edge(key, target="v"):
            return {"id": "e", "word": ["a"], "faces": {key: target}}

        def ipomset(**fields):
            return {"type": "ipomset", "events": ["a", "b"], **fields}

        shape = "must look like '<nu>,<position>'"
        cases = [
            ({"type": "hda", "cells": {}}, "cells must be a list"),
            (hda(1), "each cell must be an object"),
            (hda({"id": ""}), "cell id must be a non-empty string"),
            (hda({"id": "v"}, {"id": "v"}), "duplicate cell id 'v'"),
            (hda({"id": "v", "word": ["a", 1]}), "cell 'v' word must be a list of strings"),
            (hda({"id": "v", "faces": ["0,1"]}), "cell 'v' faces must be an object"),
            (hda(edge("2,1")), f"cell 'e' face key '2,1' {shape}"),
            (hda(edge("1,01")), f"cell 'e' face key '1,01' {shape}"),
            (hda(edge("0,\u00b9")), f"cell 'e' face key '0,\u00b9' {shape}"),
            (hda(edge("1")), f"cell 'e' face key '1' {shape}"),
            (hda(edge("0,1", 3)), "cell 'e' face '0,1' must name a cell"),
            (hda(start="v"), "start must be a list of cell ids"),
            (hda(accept=[1]), "accept must be a list of cell ids"),
            ({"type": "ipomset"}, "events must be a list of strings"),
            (ipomset(precedence={}), "precedence must be a list of pairs"),
            (
                ipomset(eventOrder=[[0]]),
                "eventOrder entries must be two-integer lists, got [0]",
            ),
            (
                ipomset(precedence=[[0, True]]),
                "precedence entries must be two-integer lists, got [0, True]",
            ),
            (ipomset(precedence=[[0, 2]]), "event index pair (0, 2) outside 0..1"),
            (ipomset(eventOrder=[[-1, 0]]), "event index pair (-1, 0) outside 0..1"),
            (ipomset(sources=[0.0]), "sources must be a list of integers"),
            (ipomset(targets=[1, 2]), "targets index 2 outside 0..1"),
            ({"type": [1]}, "unknown document type [1]"),
            ({"type": "span", "apex": {}, "left": {}}, "span needs an right automaton"),
            (
                {"type": "span", "apex": {}, "left": {}, "right": {}, "leftMap": {"p": 1}},
                "leftMap must map cell ids to cell ids",
            ),
        ]
        for doc, text in cases:
            with pytest.raises(DocumentError) as raised:
                parse_document(json.dumps(doc))
            assert str(raised.value) == text, doc
        # A mapping passed in directly may have keys JSON cannot.
        with pytest.raises(DocumentError) as raised:
            hda_from_doc(hda(edge((0, 1))))
        assert str(raised.value) == f"cell 'e' face key (0, 1) {shape}"

    def test_face_position_must_be_ascii_digits(self):
        # "\u00b9" (superscript one) passes str.isdigit() but not int().
        for position in ("\u00b9", "\u0663", "1a", "", "01"):
            cell = {"id": "v", "word": [], "faces": {f"0,{position}": "v"}}
            text = json.dumps({"type": "hda", "cells": [cell]})
            with pytest.raises(DocumentError, match="face key"):
                parse_document(text)


# --- CLI ------------------------------------------------------------------------


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(serialize(doc) if isinstance(doc, dict) else doc)
    return str(path)


def read_json(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.out)


class TestCliHappyPaths:
    def test_validate_ipomset(self, tmp_path, capsys):
        p = from_chain(["a", "b"])
        path = write_doc(tmp_path, "p.json", ipomset_to_doc(p))
        assert main(["validate", path]) == 0
        assert read_json(capsys)["type"] == "ipomset"

    def test_language_and_expand(self, tmp_path, capsys):
        sqpath = write_doc(
            tmp_path,
            "sq.json",
            hda_to_doc(grid_automaton()),
        )
        assert main(["language", sqpath, "--max-events", "4"]) == 0
        lang_doc = read_json(capsys)
        assert lang_doc["type"] == "language"
        assert lang_doc["eventBound"] == 4
        assert len(lang_doc["generators"]) == 3

        langpath = write_doc(tmp_path, "lang.json", lang_doc)
        assert main(["expand", langpath, "--max-events", "4"]) == 0
        members = read_json(capsys)
        assert members["type"] == "ipomsets"
        assert len(members["members"]) == 10

    def test_out_writes_file(self, tmp_path, capsys):
        p = point("a")
        path = write_doc(tmp_path, "p.json", ipomset_to_doc(p))
        target = tmp_path / "result.json"
        assert main(["validate", path, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["events"] == ["a"]

    def test_glue_and_par(self, tmp_path, capsys):
        first = write_doc(tmp_path, "a.json", ipomset_to_doc(point("a")))
        second = write_doc(tmp_path, "c.json", ipomset_to_doc(point("c")))
        assert main(["glue", first, second]) == 0
        doc = read_json(capsys)
        assert doc["events"] == ["a", "c"]
        assert doc["precedence"] == [[0, 1]]

        assert main(["par", first, second]) == 0
        doc = read_json(capsys)
        assert doc["events"] == ["a", "c"]
        assert doc["precedence"] == []

    def test_subsume(self, tmp_path, capsys):
        chain = write_doc(
            tmp_path, "chain.json", ipomset_to_doc(from_chain(["a", "b"]))
        )
        conc = write_doc(
            tmp_path, "conc.json", ipomset_to_doc(from_concurrent(["a", "b"]))
        )
        assert main(["subsume", chain, conc]) == 0
        record = read_json(capsys)
        assert record == {
            "type": "subsumption",
            "subsumes": True,
            "witness": [0, 1],
        }
        assert main(["subsume", conc, chain]) == 0
        assert read_json(capsys) == {"type": "subsumption", "subsumes": False}

    def test_interval(self, tmp_path, capsys):
        chain = write_doc(
            tmp_path, "chain.json", ipomset_to_doc(from_chain(["a", "b"]))
        )
        assert main(["interval", chain]) == 0
        record = read_json(capsys)
        assert record["type"] == "intervalRepresentation"
        assert record["begin"] == [0, 1]

    def test_tensor_and_coproduct(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.json", hda_to_doc(edge_automaton("a")))
        b = write_doc(tmp_path, "b.json", hda_to_doc(edge_automaton("b")))
        assert main(["tensor", a, b]) == 0
        doc = read_json(capsys)
        assert doc["type"] == "hda"
        assert len(doc["cells"]) == 9

        assert main(["coproduct", a, b]) == 0
        doc = read_json(capsys)
        assert len(doc["cells"]) == 6
        assert len(doc["start"]) == 2

    def test_pushout(self, tmp_path, capsys):
        span = pushout_span()
        path = write_doc(tmp_path, "span.json", span_to_doc(*span))
        assert main(["pushout", path]) == 0
        doc = read_json(capsys)
        assert doc["type"] == "hda"
        assert len(doc["cells"]) == 5

    def test_replicate_and_chain(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.json", hda_to_doc(edge_automaton("a")))
        assert main(["replicate", a, "--n", "2"]) == 0
        doc = read_json(capsys)
        assert len(doc["start"]) == 3

        seed = write_doc(
            tmp_path,
            "seed.json",
            hda_to_doc(edge_automaton("a", with_start=False, with_accept=True)),
        )
        assert (
            main(["chain", seed, "--n", "2", "--base", "v0", "--far", "v1"]) == 0
        )
        doc = read_json(capsys)
        assert len(doc["cells"]) == 9
        assert len(doc["accept"]) == 2

    def test_closure(self, tmp_path, capsys):
        lang = normalize([point("a")])
        path = write_doc(tmp_path, "lang.json", language_to_doc(lang))
        assert main(["closure", path, "--n", "2"]) == 0
        doc = read_json(capsys)
        assert len(doc["generators"]) == 3

    def test_closure_of_a_chain_is_pinned(self, tmp_path, capsys):
        lang = normalize([from_chain(["a", "b"])])
        path = write_doc(tmp_path, "lang.json", language_to_doc(lang))
        assert main(["closure", path, "--n", "3"]) == 0
        out = capsys.readouterr().out.encode()
        assert len(json.loads(out)["generators"]) == 10
        assert (len(out), hashlib.sha256(out).hexdigest()) == (
            7031,
            "04a58e6e0cb6539483b75492b697e75f258fa3734b31ffaa00e5583fc2437fd5",
        )

    def test_validate_span(self, tmp_path, capsys):
        span = pushout_span()
        path = write_doc(tmp_path, "span.json", span_to_doc(*span))
        assert main(["validate", path]) == 0
        assert read_json(capsys)["type"] == "span"


class TestCliFailures:
    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    def test_bad_document_is_exit_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, "bad.json", "{\"type\": \"mystery\"}")
        assert main(["validate", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_wrong_document_kind_is_exit_2(self, tmp_path, capsys):
        p = write_doc(tmp_path, "p.json", ipomset_to_doc(point("a")))
        assert main(["language", p, "--max-events", "2"]) == 2

    def test_expand_of_an_ipomset_is_exit_2(self, tmp_path, capsys):
        p = write_doc(tmp_path, "p.json", ipomset_to_doc(point("a")))
        assert main(["expand", p, "--max-events", "2"]) == 2
        assert f"{p}: expected a language document" in capsys.readouterr().err

    def test_glue_of_an_automaton_is_exit_2(self, tmp_path, capsys):
        p = write_doc(tmp_path, "p.json", ipomset_to_doc(point("a")))
        x = write_doc(tmp_path, "x.json", hda_to_doc(edge_automaton("a")))
        assert main(["glue", p, x]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{x}: expected an ipomset document" in captured.err

    def test_oversized_integer_is_exit_2(self, tmp_path, capsys):
        # Longer than the integer-to-text conversion limit json.loads enforces.
        path = write_doc(tmp_path, "big.json", '{"type": "ipomset", "events": %s}' % ("9" * 5000))
        assert main(["validate", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    def test_domain_error_is_exit_1_with_record(self, tmp_path, capsys):
        doc = {
            "type": "ipomset",
            "events": ["a", "b"],
            "precedence": [[0, 1], [1, 0]],
            "eventOrder": [],
            "sources": [],
            "targets": [],
        }
        path = write_doc(tmp_path, "cyclic.json", doc)
        assert main(["validate", path]) == 1
        record = read_json(capsys)
        assert record["error"] == "CycleInPrecedence"
        assert "detail" in record

    def test_non_interval_is_exit_1_with_witness(self, tmp_path, capsys):
        path = write_doc(
            tmp_path, "tpt.json", ipomset_to_doc(two_plus_two_ipomset())
        )
        assert main(["interval", path]) == 1
        record = read_json(capsys)
        assert record["error"] == "NotInterval"
        witness = record["witness"]
        assert set(witness) == {"firstLow", "firstHigh", "secondLow", "secondHigh"}

    def test_glue_mismatch_is_exit_1(self, tmp_path, capsys):
        first = write_doc(
            tmp_path, "a.json", ipomset_to_doc(point("a", target=True))
        )
        second = write_doc(
            tmp_path, "b.json", ipomset_to_doc(point("b", source=True))
        )
        assert main(["glue", first, second]) == 1
        assert read_json(capsys)["error"] == "SequentialMismatch"

    def test_chain_bad_base_is_exit_1(self, tmp_path, capsys):
        seed = write_doc(
            tmp_path, "seed.json", hda_to_doc(edge_automaton("a"))
        )
        assert (
            main(["chain", seed, "--n", "2", "--base", "e", "--far", "v1"]) == 1
        )
        assert read_json(capsys)["error"] == "ValueError"

    def test_tensor_id_collision_is_exit_1(self, tmp_path, capsys):
        def automaton(*cells):
            carrier = PrecubicalSet({c: () for c in cells}, {})
            return hda_to_doc(Hda(carrier, frozenset(), frozenset()))

        left = write_doc(tmp_path, "l.json", automaton("a|b", "a"))
        right = write_doc(tmp_path, "r.json", automaton("c", "b|c"))
        assert main(["tensor", left, right]) == 1
        assert read_json(capsys)["error"] == "PrecubicalInvariant"

    def test_negative_counts_are_exit_2(self, tmp_path, capsys):
        hda = write_doc(tmp_path, "hda.json", hda_to_doc(edge_automaton("a")))
        lang = write_doc(
            tmp_path, "lang.json", language_to_doc(normalize([point("a")]))
        )
        for argv in (
            ["language", hda, "--max-events", "-1"],
            ["expand", lang, "--max-events", "-1"],
            ["replicate", hda, "--n", "-2"],
            ["closure", lang, "--n", "-1"],
            ["chain", hda, "--n", "-1", "--base", "v0", "--far", "v1"],
        ):
            with pytest.raises(SystemExit) as exited:
                main(argv)
            assert exited.value.code == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert "non-negative" in captured.err, argv

    def test_negative_event_bound_is_exit_2(self, tmp_path, capsys):
        path = write_doc(
            tmp_path,
            "lang.json",
            '{"type":"language","eventBound":-3,"generators":[]}',
        )
        assert main(["validate", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "eventBound" in captured.err

    def test_span_legs_that_are_not_maps_are_exit_1(self, tmp_path, capsys):
        empty = {"type": "hda", "cells": [], "start": [], "accept": []}
        doc = {"type": "span", "apex": empty, "left": empty, "right": empty}
        for left_map, right_map, leg in (({"p": "q"}, {}, "left"), ({}, {"p": "q"}, "right")):
            path = write_doc(
                tmp_path, "span.json", {**doc, "leftMap": left_map, "rightMap": right_map}
            )
            for verb in ("validate", "pushout"):
                assert main([verb, path]) == 1, (verb, leg)
                record = read_json(capsys)
                assert record["error"] == "PrecubicalInvariant"
                assert record["violations"] == [f"{leg} leg: mapping defined on unknown cell 'p'"]

    def test_malformed_documents_are_exit_2(self, tmp_path, capsys):
        generator = write_doc(tmp_path, "g.json", '{"type": "language", "generators": [1]}')
        face = write_doc(
            tmp_path,
            "f.json",
            '{"type": "hda", "cells": [{"id": "v", "faces": {"0,\\u00b9": "v"}}]}',
        )
        listed = write_doc(tmp_path, "l.json", '{"type": [1]}')
        mapped = write_doc(tmp_path, "m.json", '{"type": {}}')
        for path, message in (
            (generator, "each generator must be an object"),
            (face, "face key"),
            (listed, "unknown document type [1]"),
            (mapped, "unknown document type {}"),
        ):
            assert main(["validate", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and message in captured.err

    def test_non_utf8_file_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"type": "ipomset", "events": ["\xe9"]}')
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: not UTF-8 text")

    def test_too_deeply_nested_json_is_exit_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, "deep.json", "[" * 100000)
        assert main(["validate", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: not valid JSON: nested too deeply\n"

    def test_unwritable_out_is_exit_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, "p.json", ipomset_to_doc(point("a")))
        for target in (tmp_path / "absent" / "out.json", tmp_path):
            assert main(["validate", path, "--out", str(target)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and str(target) in captured.err

    def test_chain_of_zero_stages_is_exit_1(self, tmp_path, capsys):
        seed = write_doc(
            tmp_path, "seed.json", hda_to_doc(edge_automaton("a"))
        )
        assert (
            main(["chain", seed, "--n", "0", "--base", "v0", "--far", "v1"]) == 1
        )
        assert read_json(capsys)["error"] == "ValueError"

    def test_carrier_violations_are_pinned_in_order(self, tmp_path, capsys):
        # Faults are listed face by face in document order, then the
        # missing faces; interchange is judged only when no other fault is.
        faults = {"type": "hda", "start": ["v"], "accept": ["v"], "cells": [
            {"id": "v", "word": []},
            {"id": "w", "word": []},
            {"id": "e", "word": ["a"], "faces": {"0,1": "v", "0,2": "w"}},
            {"id": "f", "word": ["b"], "faces": {"0,1": "ghost", "1,1": "e"}},
        ]}
        square = {"type": "hda", "start": [], "accept": [], "cells": [
            {"id": "u", "word": []},
            {"id": "v", "word": []},
            {"id": "w", "word": []},
            {"id": "a1", "word": ["a"], "faces": {"0,1": "u", "1,1": "v"}},
            {"id": "a2", "word": ["a"], "faces": {"0,1": "u", "1,1": "w"}},
            {"id": "b1", "word": ["b"], "faces": {"0,1": "u", "1,1": "u"}},
            {"id": "sq", "word": ["a", "b"],
             "faces": {"0,1": "b1", "1,1": "b1", "0,2": "a1", "1,2": "a2"}},
        ]}
        expected = {
            "faults": (
                '{\n  "detail": "face (\'e\', 0, 2) position outside 1..1; '
                "face ('f', 0, 1) points at unknown cell 'ghost'; "
                "face ('f', 1, 1) should have word () but 'e' has ('a',); "
                "cell 'e' is missing face (1, 1)\",\n"
                '  "error": "PrecubicalInvariant",\n'
                '  "violations": [\n'
                "    \"face ('e', 0, 2) position outside 1..1\",\n"
                "    \"face ('f', 0, 1) points at unknown cell 'ghost'\",\n"
                "    \"face ('f', 1, 1) should have word () but 'e' has ('a',)\",\n"
                "    \"cell 'e' is missing face (1, 1)\"\n"
                "  ]\n}\n"
            ),
            "square": (
                "{\n  \"detail\": \"faces of 'sq' at positions (1,1) and (0,2) "
                "do not commute: 'v' != 'u'; faces of 'sq' at positions (1,1) "
                "and (1,2) do not commute: 'w' != 'u'\",\n"
                '  "error": "PrecubicalInvariant",\n'
                '  "violations": [\n'
                "    \"faces of 'sq' at positions (1,1) and (0,2) do not commute: 'v' != 'u'\",\n"
                "    \"faces of 'sq' at positions (1,1) and (1,2) do not commute: 'w' != 'u'\"\n"
                "  ]\n}\n"
            ),
        }
        for name, doc in (("faults", faults), ("square", square)):
            path = write_doc(tmp_path, f"{name}.json", doc)
            assert main(["validate", path]) == 1
            assert capsys.readouterr().out == expected[name], name


class TestHashSeed:
    def test_language_output_does_not_depend_on_hashing(self, tmp_path):
        # The maxima pass takes labels in set order; the generators it keeps
        # and the bytes written must not follow the hash seed.
        automaton = random_hda(random.Random(14), allow_empty_marks=False)
        path = write_doc(tmp_path, "a.json", hda_to_doc(automaton))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        outputs = [
            subprocess.run(
                [sys.executable, "-m", "hdalang.cli", "language", path, "--max-events", "4"],
                capture_output=True, check=True,
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            ).stdout
            for seed in ("0", "1")
        ]
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0])["generators"]) == 42


class TestCachedParser:
    def test_parser_is_built_on_first_call_only(self, tmp_path, capsys):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        probe = "import hdalang.cli as cli; print(cli._parser.cache_info().currsize)"
        imported = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert imported.stdout == "0\n"
        path = write_doc(tmp_path, "p.json", ipomset_to_doc(point("a")))
        cli._parser.cache_clear()
        for _ in range(3):
            assert main(["validate", path]) == 0
        assert cli._parser.cache_info()[:2] == (2, 1)  # hits, misses

    def test_calls_in_one_process_do_not_share_state(self, tmp_path, capsys):
        seed = write_doc(
            tmp_path,
            "seed.json",
            hda_to_doc(edge_automaton("a", with_start=False, with_accept=True)),
        )
        a = write_doc(tmp_path, "a.json", hda_to_doc(edge_automaton("a")))
        b = write_doc(tmp_path, "b.json", hda_to_doc(edge_automaton("b")))
        calls = [
            ["chain", seed, "--n", "2", "--base", "v0", "--far", "v1"],
            ["replicate", a, "--n", "2"],
            ["tensor", a, b],
            ["chain", seed, "--n", "2", "--base", "v0", "--far", "v1"],
        ]
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            assert main(argv) == 0
            fresh.append(capsys.readouterr().out)
        for argv, expected in zip(calls, fresh):
            assert main(argv) == 0
            assert capsys.readouterr().out == expected, argv


class TestDot:
    def test_marks_and_edges(self):
        text = to_dot(grid_automaton())
        assert "digraph" in text
        assert "doublecircle" in text or "peripheries=2" in text
        assert 'label="b"' in text
        assert "sq_ba" in text

    def test_cube_mentions_higher_cells(self, tmp_path, capsys):
        from hdalang import tensor_hda

        cube = tensor_hda(
            tensor_hda(edge_automaton("a"), edge_automaton("a")),
            edge_automaton("a"),
        )
        text = to_dot(cube)
        assert "dimension 3" in text or "dim 3" in text

    def test_quotes_backslashes_and_line_breaks_are_escaped(self):
        f = "f\\\n"
        cells = {'v"0': (), "v\\1": (), 'e"': ('a"b',), f: ("c\\",)}
        faces = {
            ('e"', 0, 1): 'v"0',
            ('e"', 1, 1): "v\\1",
            (f, 0, 1): "v\\1",
            (f, 1, 1): 'v"0',
        }
        automaton = Hda(PrecubicalSet(cells, faces), {'v"0'}, {"v\\1"})
        lines = to_dot(automaton).splitlines()
        assert r'  "v\"0" [shape=circle];' in lines
        assert r'  "v\\1" [shape=circle, peripheries=2];' in lines
        assert r'  "__start0" -> "v\"0";' in lines
        assert r'  "v\"0" -> "v\\1" [label="a\"b"];' in lines
        assert r'  "v\\1" -> "v\"0" [label="c\\"];' in lines
        # A line break would end a comment and leave the rest of it as code.
        cube = tensor_hda(tensor_hda(automaton, automaton), automaton)
        comments = [line for line in to_dot(cube).splitlines() if "//" in line]
        assert len(comments) == 8
        assert r'  // cell "((f\\\n|f\\\n)|f\\\n)" of dimension 3: [c\,c\,c\]' in comments

    def test_start_markers_are_never_cell_ids(self):
        cells = {"__start0": (), "v": (), "___start": (), "w": ()}
        automaton = Hda(PrecubicalSet(cells, {}), {"v", "__start0"}, set())
        lines = to_dot(automaton).splitlines()
        assert '  "__start0" [shape=circle];' in lines
        markers = [line.split(" [")[0].strip() for line in lines if "shape=point" in line]
        assert len(markers) == 2
        assert not {marker.strip('"') for marker in markers} & set(cells)
        starts = tuple(f"  {marker} ->" for marker in markers)
        arrows = [line for line in lines if line.startswith(starts)]
        assert sorted(arrow.split(" -> ")[1] for arrow in arrows) == ['"__start0";', '"v";']
        # A single clashing vertex is never drawn as a marker either.
        text = to_dot(Hda(PrecubicalSet({"__start0": (), "v": ()}, {}), {"v"}, set()))
        assert '"__start0" [shape=point' not in text and '"__start0" ->' not in text

    def test_square_corners_are_its_vertex_faces(self):
        rnd = random.Random(1301)
        automata = [grid_automaton(), tensor_power(edge_automaton("a"), 3)]
        automata += [
            tensor_hda(random_hda(rnd, max_vertices=3), random_hda(rnd, max_vertices=3))
            for _ in range(10)
        ]
        squares = 0
        for automaton in automata:
            carrier = automaton.carrier
            expected = []
            for sid in carrier.cells_of_dim(2):
                corners = {
                    carrier.apply_face(sid, lower=lows, upper={1, 2} - set(lows))
                    for lows in ([], [1], [2], [1, 2])
                }
                expected += [
                    f'  "{sid}" -> "{corner}" [style=dashed, arrowhead=none];'
                    for corner in sorted(corners)
                ]
                squares += 1
            lines = to_dot(automaton).splitlines()
            assert [line for line in lines if "style=dashed" in line] == expected
        assert squares > 40

    def test_sample_rendering_is_pinned(self):
        automaton = tensor_hda(edge_automaton("a"), edge_automaton("b"))
        assert to_dot(automaton) == (
            "digraph hda {\n"
            "  rankdir=LR;\n"
            '  "(v0|v0)" [shape=circle];\n'
            '  "(v0|v1)" [shape=circle];\n'
            '  "(v1|v0)" [shape=circle];\n'
            '  "(v1|v1)" [shape=circle, peripheries=2];\n'
            '  "__start0" [shape=point, style=invis];\n'
            '  "__start0" -> "(v0|v0)";\n'
            '  "(v0|v0)" -> "(v1|v0)" [label="a"];\n'
            '  "(v0|v1)" -> "(v1|v1)" [label="a"];\n'
            '  "(v0|v0)" -> "(v0|v1)" [label="b"];\n'
            '  "(v1|v0)" -> "(v1|v1)" [label="b"];\n'
            '  "(e|e)" [shape=box, style=filled, fillcolor=lightgray, '
            'label="(e|e): [a,b]"];\n'
            '  "(e|e)" -> "(v0|v0)" [style=dashed, arrowhead=none];\n'
            '  "(e|e)" -> "(v0|v1)" [style=dashed, arrowhead=none];\n'
            '  "(e|e)" -> "(v1|v0)" [style=dashed, arrowhead=none];\n'
            '  "(e|e)" -> "(v1|v1)" [style=dashed, arrowhead=none];\n'
            "}\n"
        )

    def test_cli_dot(self, tmp_path, capsys):
        path = write_doc(tmp_path, "x.json", hda_to_doc(edge_automaton("a")))
        assert main(["dot", path]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_format_dot_on_automaton_verbs(self, tmp_path, capsys):
        a = write_doc(tmp_path, "a.json", hda_to_doc(edge_automaton("a")))
        b = write_doc(tmp_path, "b.json", hda_to_doc(edge_automaton("b")))
        assert main(["tensor", a, b, "--format", "dot"]) == 0
        assert "digraph" in capsys.readouterr().out
        assert main(["validate", a, "--format", "dot"]) == 0
        assert "digraph" in capsys.readouterr().out
        assert main(["validate", a, "--format", "text"]) == 0
        assert json.loads(capsys.readouterr().out)["type"] == "hda"

    def test_format_dot_rejected_off_automata(self, tmp_path, capsys):
        p = write_doc(tmp_path, "p.json", ipomset_to_doc(point("a")))
        assert main(["glue", p, p, "--format", "dot"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["validate", p, "--format", "dot"]) == 2
        assert "error" in capsys.readouterr().err
