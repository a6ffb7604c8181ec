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
byte-identical files: :func:`serialize` equals ``json.dumps(doc, indent=2,
sort_keys=True) + "\n"`` byte for byte.  One writer handles str, int,
null, list and object values, and writes a ``cells`` field by one template
per cell dimension; a document holding a value of any other type goes to
json.dumps.
Parsing checks document structure and raises :class:`DocumentError`,
formatting its message only on failure; the domain invariants of the
parsed value are then checked by the package's constructors, whose errors
propagate unchanged.
"""

from __future__ import annotations

import functools
import json
from itertools import chain, combinations
from json.encoder import encode_basestring_ascii as _string
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from hdalang.hda import Hda, _check_legs
from hdalang.ipomset import Ipomset, _unchecked, validate
from hdalang.language import Language, normalize
from hdalang.precubical import PrecubicalInvariant, PrecubicalSet, _slots, _walk

Doc = dict[str, Any]


class DocumentError(ValueError):
    """A document is structurally malformed (not a domain violation)."""


# --- helpers -------------------------------------------------------------------


def _expect(condition: bool, message: str = "not a shape the package writes") -> None:
    # Only for constant messages: a formatted one is built inline, on failure.
    # The default is the writers' refusal, which serialize never lets out.
    if not condition:
        raise DocumentError(message)


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _strings(values: Iterable[Any]) -> bool:
    """Whether every value is a string: ``str.join`` refuses any other."""
    try:
        "".join(values)
    except TypeError:
        return False
    return True


def _int_pairs(value: Any, what: str) -> list[tuple[int, int]]:
    if not isinstance(value, list):
        raise DocumentError(f"{what} must be a list of pairs")
    out: list[tuple[int, int]] = []
    for item in value:
        if not (isinstance(item, list) and len(item) == 2 and all(map(_is_int, item))):
            raise DocumentError(f"{what} entries must be two-integer lists, got {item!r}")
        out.append((item[0], item[1]))
    return out


def _int_list(value: Any, what: str, upper: int) -> list[int]:
    if not (isinstance(value, list) and all(map(_is_int, value))):
        raise DocumentError(f"{what} must be a list of integers")
    for x in value:
        if not 0 <= x < upper:
            raise DocumentError(f"{what} index {x} outside 0..{upper - 1}")
    return list(value)


# --- ipomsets -------------------------------------------------------------------


def ipomset_to_doc(p: Ipomset) -> Doc:
    return {
        "type": "ipomset",
        "events": list(p.labels),
        "precedence": [list(pair) for pair in sorted(p.precedence)],
        "eventOrder": [list(e) for e in combinations(range(p.size), 2) if e not in p.precedence],
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
        if not (0 <= a < n and 0 <= b < n):
            raise DocumentError(f"event index pair ({a}, {b}) outside 0..{n - 1}")
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
        "generators": _ipomset_docs(lang.generators),
    }


def language_from_doc(doc: Mapping[str, Any]) -> Language:
    _expect(doc.get("type") == "language", "expected a language document")
    bound = doc.get("eventBound")
    _expect(
        bound is None or (_is_int(bound) and bound >= 0),
        "eventBound must be a non-negative integer or null",
    )
    gens = doc.get("generators")
    _expect(isinstance(gens, list), "generators must be a list")
    _expect(all(isinstance(g, dict) for g in gens), "each generator must be an object")
    return normalize([ipomset_from_doc(g) for g in gens], bound)


def ipomset_list_to_doc(members: Iterable[Ipomset]) -> Doc:
    return {"type": "ipomsets", "members": _ipomset_docs(members)}


def _ipomset_docs(members: Iterable[Ipomset]) -> list[Doc]:
    """The ipomset documents of ``members``, sorted by size, events, precedence and interfaces."""
    return sorted(
        map(ipomset_to_doc, members),
        key=lambda d: (len(d["events"]), d["events"], d["precedence"], d["sources"], d["targets"]),
    )


# --- precubical sets and automata ---------------------------------------------------


@functools.lru_cache(maxsize=1 << 6)  # bounded, as dimensions are caller data
def _key_slots(dim: int) -> dict[str, int]:
    """The slot of each face key ``"<nu>,<position>"`` of a ``dim``-cell, lower faces first."""
    return {f"{nu},{pos}": slot for (nu, pos), slot in _slots(dim).items()}


@functools.lru_cache(maxsize=1 << 6)
def _cell_form(dim: int) -> tuple[tuple[str, ...], str]:
    """A ``dim``-cell's face keys, sorted, and its template.

    The template writes the cell two levels deep from the face targets in
    sorted key order, the id and the letters, each already written.
    """
    keys = tuple(sorted(_key_slots(dim)))
    table = _block([f'"{key}": %s' for key in keys], "      ", "{}")
    form = ['"faces": ' + table, '"id": %s', '"word": ' + _block(["%s"] * dim, "      ")]
    return keys, _block(form, "    ", "{}")


def _cells_to_doc(carrier: PrecubicalSet) -> list[Doc]:
    cells, rows = carrier.cells, carrier.rows
    out = []
    for cid in carrier.sorted_cells():
        word, row = cells[cid], rows[cid]
        table = {key: row[slot] for key, slot in _key_slots(len(word)).items()}
        out.append({"id": cid, "word": list(word), "faces": table})
    return out


def _cells_text(cells: Any) -> str:
    """A list of cell documents, written as a field of a top-level object."""
    _expect(type(cells) is list and {*map(type, cells)} <= {dict})
    texts, tables = [], []
    for cell in cells:
        faces, word = cell["faces"], cell["word"]
        _expect(len(cell) == 3 and type(faces) is dict and type(word) is list
                and len(faces) == 2 * len(word))
        keys, form = _cell_form(len(word))
        targets = map(faces.__getitem__, keys)
        texts.append(form % (*map(_string, targets), _string(cell["id"]), *map(_string, word)))
        tables.append(faces)
    _expect({*map(type, chain.from_iterable(cells + tables))} <= {str})
    return _block(texts)


def _carrier_from_doc(doc: Mapping[str, Any], marks: tuple[str, ...] = ()) -> PrecubicalSet:
    """The carrier of a cell document whose ``marks`` are lists of ids, checked once.

    The walk files each face key straight into its slot by :func:`_key_slots`.
    """
    raw = doc.get("cells")
    _expect(isinstance(raw, list), "cells must be a list")
    cells: dict[str, tuple[str, ...]] = {}
    runs = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise DocumentError("each cell must be an object")
        cid = entry.get("id")
        if not (isinstance(cid, str) and cid):
            raise DocumentError("cell id must be a non-empty string")
        if cid in cells:
            raise DocumentError(f"duplicate cell id {cid!r}")
        word = entry.get("word", [])
        if not (isinstance(word, list) and _strings(word)):
            raise DocumentError(f"cell {cid!r} word must be a list of strings")
        cells[cid] = tuple(word)
        table = entry.get("faces", {})
        if not isinstance(table, dict):
            raise DocumentError(f"cell {cid!r} faces must be an object")
        faces, slots = table.items(), _key_slots(len(word))
        if not (slots.keys() >= table.keys() and _strings(table.values())):
            faces = [(_face_key(cid, key, tgt, slots), tgt) for key, tgt in faces]
        runs.append((cid, faces))
    for field in marks:
        value = doc.get(field, [])
        if not (isinstance(value, list) and all(isinstance(c, str) for c in value)):
            raise DocumentError(f"{field} must be a list of cell ids")
    problems: list[str] = []
    rows = _walk(cells, runs, _key_slots, problems)
    if problems:
        raise PrecubicalInvariant(problems)
    return _unchecked(PrecubicalSet, cells, rows)


def _face_key(cid: str, key: Any, tgt: Any, slots: Mapping[str, int]) -> Any:
    """``key`` if it has a slot, else its ``(nu, position)``; a bad key or target is refused."""
    # Positions are ASCII digits without a leading zero; "0,1,2" and "1" fail isdigit.
    nu, _, pos = str(key).partition(",")
    digits = pos.isascii() and pos.isdigit() and (pos[0] != "0" or pos == "0")
    if not (nu in ("0", "1") and digits):
        raise DocumentError(f"cell {cid!r} face key {key!r} must look like '<nu>,<position>'")
    if not isinstance(tgt, str):
        raise DocumentError(f"cell {cid!r} face {key!r} must name a cell")
    return key if key in slots else (int(nu), int(pos))


def precubical_to_doc(carrier: PrecubicalSet) -> Doc:
    return {"type": "precubical", "cells": _cells_to_doc(carrier)}


def precubical_from_doc(doc: Mapping[str, Any]) -> PrecubicalSet:
    _expect(doc.get("type") == "precubical", "expected a precubical document")
    return _carrier_from_doc(doc)


def hda_to_doc(automaton: Hda) -> Doc:
    doc = {"type": "hda", "cells": _cells_to_doc(automaton.carrier)}
    doc["start"] = sorted(automaton.start)
    doc["accept"] = sorted(automaton.accept)
    return doc


def hda_from_doc(doc: Mapping[str, Any]) -> Hda:
    _expect(doc.get("type") == "hda", "expected an hda document")
    carrier = _carrier_from_doc(doc, ("start", "accept"))
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
        if not isinstance(doc.get(field), dict):
            raise DocumentError(f"span needs an {field} automaton")
    legs = []
    for field in ("leftMap", "rightMap"):
        raw = doc.get(field)
        if not (
            isinstance(raw, dict)
            and all(isinstance(k, str) and isinstance(v, str) for k, v in raw.items())
        ):
            raise DocumentError(f"{field} must map cell ids to cell ids")
        legs.append(dict(raw))
    apex, left, right = (hda_from_doc(doc[field]) for field in ("apex", "left", "right"))
    _check_legs(apex, left, right, *legs)
    return apex, left, right, *legs


# --- top-level dispatch -------------------------------------------------------------


class _Kind(NamedTuple):
    """One document kind: the type of value it holds, its reader and its writer."""

    type: type
    read: Callable[[Mapping[str, Any]], Any]
    write: Callable[[Any], Doc]


# Every document kind by its ``"type"`` field.
_KINDS: dict[str, _Kind] = {
    "ipomset": _Kind(Ipomset, ipomset_from_doc, ipomset_to_doc),
    "language": _Kind(Language, language_from_doc, language_to_doc),
    "precubical": _Kind(PrecubicalSet, precubical_from_doc, precubical_to_doc),
    "hda": _Kind(Hda, hda_from_doc, hda_to_doc),
    "span": _Kind(tuple, span_from_doc, lambda span: span_to_doc(*span)),
}


def parse_document(text: str) -> Any:
    """Parse any supported document; returns the corresponding value.

    Raises:
        DocumentError: the text is not JSON or not a known document shape.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # malformed, or an integer too long to convert
        raise DocumentError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError("not valid JSON: nested too deeply") from exc
    _expect(isinstance(doc, dict), "a document must be a JSON object")
    kind = doc.get("type")
    if not (isinstance(kind, str) and kind in _KINDS):
        raise DocumentError(f"unknown document type {kind!r}")
    return _KINDS[kind].read(doc)


def _to_doc(value: Any) -> Doc:
    """The document of any value :func:`parse_document` returns."""
    return next(kind.write(value) for kind in _KINDS.values() if isinstance(value, kind.type))


def serialize(doc: Any) -> str:
    """Render ``doc`` exactly as ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``.

    One writer handles str, int, null, list and object values, and writes
    ``cells`` fields by template; a document holding a value of any other
    type, an object key that is not a string included, goes to json.dumps.
    """
    try:
        return _emit(doc, "") + "\n"
    except (LookupError, TypeError, DocumentError, RecursionError):
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --- writing by template -----------------------------------------------------------


def _block(items: Iterable[str], pad: str = "  ", brackets: str = "[]") -> str:
    """Written ``items`` as json.dumps writes a list, or an object, ``pad`` deep."""
    text = (",\n  " + pad).join(items)
    return f"{brackets[0]}\n  {pad}{text}\n{pad}{brackets[1]}" if text else brackets


def _emit(value: Any, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it ``pad`` deep.

    Strings are written inline, a ``cells`` field by :func:`_cells_text`, and
    a value of any other type raises.
    """
    kind = type(value)
    if kind is str:
        return _string(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    inner = pad + "  "
    if kind is list:
        return _block([_string(x) if type(x) is str else _emit(x, inner) for x in value], pad)
    _expect(kind is dict and {*map(type, value)} <= {str})
    items = []
    for key, item in sorted(value.items()):
        if key == "cells":
            text = _cells_text(item).replace("\n", "\n" + pad)
        else:
            text = _string(item) if type(item) is str else _emit(item, inner)
        items.append(f"{_string(key)}: {text}")
    return _block(items, pad, "{}")


# --- DOT rendering -------------------------------------------------------------------


def _quoted(text: str) -> str:
    """``text`` as a DOT string: in double quotes, with ``\\`` and ``"`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(automaton: Hda) -> str:
    """Render an automaton for Graphviz.

    Vertices become nodes (accepting ones doubly circled), edges become
    labelled arrows from their unstarted to their finished endpoint, and
    squares become shaded boxes linked to their four corner vertices.
    Start cells receive an arrow from an invisible marker.  Cells of
    dimension three or more cannot be drawn and are listed in comments.
    """
    carrier = automaton.carrier
    cells, rows = carrier.cells, carrier.rows
    ids = {cid: _quoted(cid) for cid in cells}
    by_dim: dict[int, list[str]] = {}
    for cid in sorted(cells):
        by_dim.setdefault(len(cells[cid]), []).append(cid)
    lines = ["digraph hda {", "  rankdir=LR;"]
    for vid in by_dim.get(0, ()):
        shape = ", peripheries=2" if vid in automaton.accept else ""
        lines.append(f"  {ids[vid]} [shape=circle{shape}];")
    # Markers are named by a prefix that starts no cell id, so none is a cell.
    marker = "__start"
    while any(cid.startswith(marker) for cid in cells):
        marker = "_" + marker
    for k, vid in enumerate(v for v in by_dim.get(0, ()) if v in automaton.start):
        lines.append(f'  "{marker}{k}" [shape=point, style=invis];')
        lines.append(f'  "{marker}{k}" -> {ids[vid]};')
    edge, square = _slots(1), _slots(2)
    for eid in by_dim.get(1, ()):
        label = cells[eid][0]
        mark = " (accept)" if eid in automaton.accept else ""
        tail, head = ids[rows[eid][edge[0, 1]]], ids[rows[eid][edge[1, 1]]]
        lines.append(f"  {tail} -> {head} [label={_quoted(label + mark)}];")
    for sid in by_dim.get(2, ()):
        word = ",".join(cells[sid])
        lines.append(
            f"  {ids[sid]} [shape=box, style=filled, fillcolor=lightgray, "
            f"label={_quoted(f'{sid}: [{word}]')}];"
        )
        # The corners are the ends of the sides at position 2.
        sides = rows[sid][square[0, 2]], rows[sid][square[1, 2]]
        for corner in sorted({end for side in sides for end in rows[side]}):
            lines.append(f"  {ids[sid]} -> {ids[corner]} [style=dashed, arrowhead=none];")
    for d in sorted(d for d in by_dim if d >= 3):
        for cid in by_dim[d]:
            word = ",".join(cells[cid])
            comment = f"  // cell {ids[cid]} of dimension {d}: [{word}]"
            lines.append(comment.replace("\r", "\\r").replace("\n", "\\n"))
    lines.append("}")
    return "\n".join(lines) + "\n"
