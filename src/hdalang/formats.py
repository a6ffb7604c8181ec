"""JSON document formats and DOT rendering.

Every value the command-line tool reads or writes is a JSON document with
a ``"type"`` field:

``ipomset``
    ``events`` lists labels by event index; ``precedence`` and
    ``eventOrder`` are lists of index pairs (the event order stored is the
    essential part -- pairs precedence leaves unordered); ``sources`` and
    ``targets`` are index lists.
``language``
    ``generators`` is a list of ipomset documents, ``eventBound`` a
    non-negative integer or null.
``ipomsets``
    a plain list of ipomset documents under ``members`` (used for
    expansion results).
``precubical``
    ``cells`` is a list of ``{"id", "word", "faces"}`` objects; ``faces``
    maps ``"<nu>,<position>"`` to a cell id.
``hda``
    a precubical document plus ``start`` and ``accept`` id lists.
``span``
    two gluing legs: ``apex``, ``left``, ``right`` (HDA documents) and
    ``leftMap`` / ``rightMap`` (cell-to-cell objects).

Serialisation is deterministic: keys sorted, lists in canonical order,
two-space indentation and a trailing newline, so identical values produce
byte-identical files.  Parsing checks document structure and raises
:class:`DocumentError`; the domain invariants of the parsed value are then
checked by the package's constructors, whose errors propagate unchanged.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from hdalang.hda import Hda
from hdalang.ipomset import Ipomset, validate
from hdalang.language import Language, normalize
from hdalang.precubical import PrecubicalSet

Doc = dict[str, Any]


class DocumentError(ValueError):
    """A document is structurally malformed (not a domain violation)."""


# --- helpers -------------------------------------------------------------------


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise DocumentError(message)


def _int_pairs(value: Any, what: str) -> list[tuple[int, int]]:
    _expect(isinstance(value, list), f"{what} must be a list of pairs")
    out: list[tuple[int, int]] = []
    for item in value:
        _expect(
            isinstance(item, list)
            and len(item) == 2
            and all(isinstance(x, int) and not isinstance(x, bool) for x in item),
            f"{what} entries must be two-integer lists, got {item!r}",
        )
        out.append((item[0], item[1]))
    return out


def _int_list(value: Any, what: str, upper: int) -> list[int]:
    _expect(
        isinstance(value, list)
        and all(isinstance(x, int) and not isinstance(x, bool) for x in value),
        f"{what} must be a list of integers",
    )
    for x in value:
        _expect(0 <= x < upper, f"{what} index {x} outside 0..{upper - 1}")
    return list(value)


# --- ipomsets -------------------------------------------------------------------


def ipomset_to_doc(p: Ipomset) -> Doc:
    return {
        "type": "ipomset",
        "events": list(p.labels),
        "precedence": [list(pair) for pair in sorted(p.precedence)],
        "eventOrder": [list(pair) for pair in sorted(p.event_order)],
        "sources": sorted(p.sources),
        "targets": sorted(p.targets),
    }


def ipomset_from_doc(doc: Mapping[str, Any]) -> Ipomset:
    _expect(doc.get("type") == "ipomset", "expected an ipomset document")
    events = doc.get("events")
    _expect(
        isinstance(events, list) and all(isinstance(e, str) for e in events),
        "events must be a list of strings",
    )
    n = len(events)
    prec = _int_pairs(doc.get("precedence", []), "precedence")
    order = _int_pairs(doc.get("eventOrder", []), "eventOrder")
    for a, b in prec + order:
        _expect(0 <= a < n and 0 <= b < n, f"event index pair ({a}, {b}) outside 0..{n - 1}")
    sources = _int_list(doc.get("sources", []), "sources", n)
    targets = _int_list(doc.get("targets", []), "targets", n)
    return validate(
        labels={i: events[i] for i in range(n)},
        precedence=prec,
        event_order=order,
        sources=sources,
        targets=targets,
    )


# --- languages -------------------------------------------------------------------


def language_to_doc(lang: Language) -> Doc:
    return {
        "type": "language",
        "eventBound": lang.event_bound,
        "generators": [
            ipomset_to_doc(g)
            for g in sorted(lang.generators, key=_ipomset_sort_key)
        ],
    }


def language_from_doc(doc: Mapping[str, Any]) -> Language:
    _expect(doc.get("type") == "language", "expected a language document")
    bound = doc.get("eventBound")
    _expect(
        bound is None
        or (isinstance(bound, int) and not isinstance(bound, bool) and bound >= 0),
        "eventBound must be a non-negative integer or null",
    )
    gens = doc.get("generators")
    _expect(isinstance(gens, list), "generators must be a list")
    return normalize([ipomset_from_doc(g) for g in gens], bound)


def ipomset_list_to_doc(members: list[Ipomset]) -> Doc:
    return {
        "type": "ipomsets",
        "members": [
            ipomset_to_doc(p) for p in sorted(members, key=_ipomset_sort_key)
        ],
    }


def _ipomset_sort_key(p: Ipomset) -> tuple:
    return (p.size, p.labels, sorted(p.precedence), sorted(p.sources), sorted(p.targets))


# --- precubical sets and automata ---------------------------------------------------


def _cells_to_doc(carrier: PrecubicalSet) -> list[Doc]:
    out = []
    for cid in carrier.sorted_cells():
        word = carrier.cells[cid]
        faces = {
            f"{nu},{pos}": carrier.faces[(cid, nu, pos)]
            for nu in (0, 1)
            for pos in range(1, len(word) + 1)
        }
        out.append({"id": cid, "word": list(word), "faces": faces})
    return out


def _cells_from_doc(doc: Mapping[str, Any]) -> tuple[dict, dict]:
    raw = doc.get("cells")
    _expect(isinstance(raw, list), "cells must be a list")
    cells: dict[str, tuple[str, ...]] = {}
    faces: dict[tuple[str, int, int], str] = {}
    for entry in raw:
        _expect(isinstance(entry, dict), "each cell must be an object")
        cid = entry.get("id")
        _expect(isinstance(cid, str) and bool(cid), "cell id must be a non-empty string")
        _expect(cid not in cells, f"duplicate cell id {cid!r}")
        word = entry.get("word", [])
        _expect(
            isinstance(word, list) and all(isinstance(w, str) for w in word),
            f"cell {cid!r} word must be a list of strings",
        )
        cells[cid] = tuple(word)
        table = entry.get("faces", {})
        _expect(isinstance(table, dict), f"cell {cid!r} faces must be an object")
        for key, tgt in table.items():
            parts = str(key).split(",")
            _expect(
                len(parts) == 2 and parts[0] in ("0", "1") and parts[1].isdigit(),
                f"cell {cid!r} face key {key!r} must look like '<nu>,<position>'",
            )
            _expect(isinstance(tgt, str), f"cell {cid!r} face {key!r} must name a cell")
            faces[(cid, int(parts[0]), int(parts[1]))] = tgt
    return cells, faces


def precubical_to_doc(carrier: PrecubicalSet) -> Doc:
    return {"type": "precubical", "cells": _cells_to_doc(carrier)}


def precubical_from_doc(doc: Mapping[str, Any]) -> PrecubicalSet:
    _expect(doc.get("type") == "precubical", "expected a precubical document")
    cells, faces = _cells_from_doc(doc)
    return PrecubicalSet(cells, faces)


def hda_to_doc(automaton: Hda) -> Doc:
    doc = {"type": "hda", "cells": _cells_to_doc(automaton.carrier)}
    doc["start"] = sorted(automaton.start)
    doc["accept"] = sorted(automaton.accept)
    return doc


def hda_from_doc(doc: Mapping[str, Any]) -> Hda:
    _expect(doc.get("type") == "hda", "expected an hda document")
    cells, faces = _cells_from_doc(doc)
    for field in ("start", "accept"):
        value = doc.get(field, [])
        _expect(
            isinstance(value, list) and all(isinstance(c, str) for c in value),
            f"{field} must be a list of cell ids",
        )
    carrier = PrecubicalSet(cells, faces)
    return Hda(carrier, frozenset(doc.get("start", [])), frozenset(doc.get("accept", [])))


# --- spans ----------------------------------------------------------------------


def span_to_doc(
    apex: Hda, left: Hda, right: Hda,
    into_left: Mapping[str, str], into_right: Mapping[str, str],
) -> Doc:
    return {
        "type": "span",
        "apex": hda_to_doc(apex),
        "left": hda_to_doc(left),
        "right": hda_to_doc(right),
        "leftMap": dict(sorted(into_left.items())),
        "rightMap": dict(sorted(into_right.items())),
    }


def span_from_doc(doc: Mapping[str, Any]) -> tuple[Hda, Hda, Hda, dict, dict]:
    _expect(doc.get("type") == "span", "expected a span document")
    for field in ("apex", "left", "right"):
        _expect(isinstance(doc.get(field), dict), f"span needs an {field} automaton")
    legs = []
    for field in ("leftMap", "rightMap"):
        raw = doc.get(field)
        _expect(
            isinstance(raw, dict)
            and all(isinstance(k, str) and isinstance(v, str) for k, v in raw.items()),
            f"{field} must map cell ids to cell ids",
        )
        legs.append(dict(raw))
    return (
        hda_from_doc(doc["apex"]),
        hda_from_doc(doc["left"]),
        hda_from_doc(doc["right"]),
        legs[0],
        legs[1],
    )


# --- top-level dispatch -------------------------------------------------------------


def parse_document(text: str) -> Any:
    """Parse any supported document; returns the corresponding value.

    Raises:
        DocumentError: the text is not JSON or not a known document shape.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    _expect(isinstance(doc, dict), "a document must be a JSON object")
    kind = doc.get("type")
    parsers = {
        "ipomset": ipomset_from_doc,
        "language": language_from_doc,
        "precubical": precubical_from_doc,
        "hda": hda_from_doc,
        "span": span_from_doc,
    }
    _expect(kind in parsers, f"unknown document type {kind!r}")
    return parsers[kind](doc)


def serialize(doc: Doc) -> str:
    """Render a document deterministically (sorted keys, trailing newline)."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --- DOT rendering -------------------------------------------------------------------


def to_dot(automaton: Hda) -> str:
    """Render an automaton for Graphviz.

    Vertices become nodes (accepting ones doubly circled), edges become
    labelled arrows from their unstarted to their finished endpoint, and
    squares become shaded boxes linked to their four corner vertices.
    Start cells receive an arrow from an invisible marker.  Cells of
    dimension three or more cannot be drawn and are listed in comments.
    """
    carrier = automaton.carrier
    lines = ["digraph hda {", "  rankdir=LR;"]
    for vid in carrier.cells_of_dim(0):
        shape = ", peripheries=2" if vid in automaton.accept else ""
        lines.append(f'  "{vid}" [shape=circle{shape}];')
    for k, vid in enumerate(sorted(automaton.start & set(carrier.cells_of_dim(0)))):
        lines.append(f'  "__start{k}" [shape=point, style=invis];')
        lines.append(f'  "__start{k}" -> "{vid}";')
    for eid in carrier.cells_of_dim(1):
        label = carrier.cells[eid][0]
        mark = " (accept)" if eid in automaton.accept else ""
        tail = carrier.faces[(eid, 0, 1)]
        head = carrier.faces[(eid, 1, 1)]
        lines.append(f'  "{tail}" -> "{head}" [label="{label}{mark}"];')
    for sid in carrier.cells_of_dim(2):
        word = ",".join(carrier.cells[sid])
        lines.append(
            f'  "{sid}" [shape=box, style=filled, fillcolor=lightgray, '
            f'label="{sid}: [{word}]"];'
        )
        corners = sorted(
            {
                carrier.apply_face(sid, lower=lows, upper=set((1, 2)) - set(lows))
                for lows in ([], [1], [2], [1, 2])
            }
        )
        for corner in corners:
            lines.append(f'  "{sid}" -> "{corner}" [style=dashed, arrowhead=none];')
    for d in range(3, carrier.dimension + 1):
        for cid in carrier.cells_of_dim(d):
            word = ",".join(carrier.cells[cid])
            lines.append(f'  // cell "{cid}" of dimension {d}: [{word}]')
    lines.append("}")
    return "\n".join(lines) + "\n"
