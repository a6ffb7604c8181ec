"""Tests for the JSON document formats and the command-line interface.

Core claims exercised here:

* Every document type round-trips: serialize then parse is the identity
  on the underlying value, and serialization is byte-deterministic.
* Malformed documents raise ``DocumentError`` (CLI exit code 2), domain
  errors produce a machine-readable record on stdout (exit code 1), and
  successful runs write the result document (exit code 0).
* The Graphviz rendering marks start/accept vertices, labels edges, and
  draws filled squares.
"""

from __future__ import annotations

import json

import pytest

from hdalang import (
    EMPTY,
    Hda,
    Language,
    from_chain,
    from_concurrent,
    glue,
    language,
    normalize,
    point,
    validate,
)
from hdalang.cli import main
from hdalang.formats import (
    DocumentError,
    hda_from_doc,
    hda_to_doc,
    ipomset_from_doc,
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

    def test_chain_of_zero_stages_is_exit_1(self, tmp_path, capsys):
        seed = write_doc(
            tmp_path, "seed.json", hda_to_doc(edge_automaton("a"))
        )
        assert (
            main(["chain", seed, "--n", "0", "--base", "v0", "--far", "v1"]) == 1
        )
        assert read_json(capsys)["error"] == "ValueError"


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
