"""Command-line interface.

Reads and writes the JSON documents described in :mod:`hdalang.formats`.
Every verb prints one document (or DOT text) to stdout or ``--out``.

Exit codes:
    0  success;
    1  a domain invariant failed -- a machine-readable JSON record naming
       the violated invariant is printed instead of a result;
    2  unusable input: unknown flags, unreadable files, or documents that
       do not parse.

Examples::

    hdalang validate behaviour.json
    hdalang language automaton.json --max-events 4
    hdalang expand language.json --max-events 4
    hdalang glue first.json second.json
    hdalang subsume refined.json coarse.json
    hdalang interval behaviour.json
    hdalang dot automaton.json --out automaton.dot
    hdalang tensor left.json right.json --format dot

Verbs that output an automaton accept ``--format dot`` to render the
result for Graphviz instead of printing the JSON document; ``--format
text`` (the default) always prints the document.  The ``dot`` verb is the
shorthand for ``validate --format dot``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Sequence

from hdalang.formats import (
    DocumentError,
    hda_from_doc,
    hda_to_doc,
    ipomset_from_doc,
    ipomset_list_to_doc,
    ipomset_to_doc,
    language_from_doc,
    language_to_doc,
    parse_document,
    precubical_to_doc,
    serialize,
    span_from_doc,
    span_to_doc,
    to_dot,
)
from hdalang.hda import (
    Hda,
    coproduct_hda,
    language as hda_language,
    pushout_hda,
    replicate,
    replication_chain_prefix,
    tensor_hda,
)
from hdalang.ipomset import (
    IntervalRepresentation,
    Ipomset,
    IpomsetError,
    glue,
    interval_representation,
    parallel,
    subsumes,
)
from hdalang.language import Language, NotInterval, expand, par_closure_bounded
from hdalang.precubical import PrecubicalError, PrecubicalInvariant, PrecubicalSet


class _DomainFailure(Exception):
    """Internal: a verb failed a domain check with a prepared record."""

    def __init__(self, record: dict[str, Any]):
        super().__init__(record.get("error", "domain failure"))
        self.record = record


def _count(text: str) -> int:
    """Argparse type of the count flags: a non-negative integer."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdalang",
        description="Languages of higher-dimensional automata.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name: str, help_text: str, files: int = 1) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if files == 1:
            p.add_argument("file", help="input document")
        elif files == 2:
            p.add_argument("file", help="first input document")
            p.add_argument("other", help="second input document")
        else:
            p.add_argument("file", nargs="+", help="input documents")
        p.add_argument("--out", help="write output here instead of stdout")
        p.add_argument(
            "--format",
            choices=("text", "dot"),
            default="text",
            help="output format; dot requires a verb that yields an automaton",
        )
        return p

    add("validate", "check any document and print its canonical form")
    p = add("language", "bounded language of an automaton")
    p.add_argument("--max-events", type=_count, required=True)
    p = add("expand", "materialise a language up to an event budget")
    p.add_argument("--max-events", type=_count, required=True)
    add("tensor", "parallel product of two automata", files=2)
    add("coproduct", "disjoint union of automata", files=-1)
    add("pushout", "glue the two sides of a span document")
    p = add("replicate", "zero to n parallel copies of an automaton")
    p.add_argument("--n", type=_count, required=True)
    p = add("chain", "n-th stage of the iterated-pushout replication chain")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--base", required=True, help="vertex acting as the idle state")
    p.add_argument("--far", required=True, help="vertex whose powers mark acceptance")
    add("glue", "sequential composition of two ipomsets", files=2)
    add("par", "parallel composition of two ipomsets", files=2)
    p = add("closure", "bounded parallel closure of a language")
    p.add_argument("--n", type=_count, required=True)
    add("subsume", "does the first ipomset refine the second?", files=2)
    add("interval", "interval representation of an ipomset's precedence")
    add("dot", "render an automaton document for Graphviz")
    return parser


# --- input helpers -----------------------------------------------------------------


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load(path: str, kind: type, name: str) -> Any:
    value = parse_document(_read(path))
    if not isinstance(value, kind):
        raise DocumentError(f"{path}: expected {name} document")
    return value


# --- verb implementations -------------------------------------------------------------


def _emit_hda(automaton: Hda, args: argparse.Namespace) -> str:
    if args.format == "dot":
        return to_dot(automaton)
    return serialize(hda_to_doc(automaton))


def _run_validate(args: argparse.Namespace) -> str:
    value = parse_document(_read(args.file))
    if isinstance(value, Hda):
        return _emit_hda(value, args)
    if args.format == "dot":
        raise DocumentError(f"{args.file}: --format dot needs an hda document")
    if isinstance(value, Ipomset):
        return serialize(ipomset_to_doc(value))
    if isinstance(value, Language):
        return serialize(language_to_doc(value))
    if isinstance(value, PrecubicalSet):
        return serialize(precubical_to_doc(value))
    return serialize(span_to_doc(*value))


_AUTOMATON_VERBS = frozenset(
    {"validate", "tensor", "coproduct", "pushout", "replicate", "chain", "dot"}
)


def _run(args: argparse.Namespace) -> str:
    verb = args.verb
    if args.format == "dot" and verb not in _AUTOMATON_VERBS:
        raise DocumentError(
            f"{verb}: --format dot applies only to verbs that output an automaton"
        )
    if verb == "validate":
        return _run_validate(args)
    if verb == "language":
        lang = hda_language(_load(args.file, Hda, "an hda"), args.max_events)
        return serialize(language_to_doc(lang))
    if verb == "expand":
        members = expand(_load(args.file, Language, "a language"), args.max_events)
        return serialize(ipomset_list_to_doc(sorted(members, key=repr)))
    if verb == "tensor":
        left = _load(args.file, Hda, "an hda")
        return _emit_hda(tensor_hda(left, _load(args.other, Hda, "an hda")), args)
    if verb == "coproduct":
        total = coproduct_hda([_load(f, Hda, "an hda") for f in args.file])
        return _emit_hda(total, args)
    if verb == "pushout":
        apex, left, right, into_left, into_right = _load(args.file, tuple, "a span")
        return _emit_hda(pushout_hda(apex, left, right, into_left, into_right), args)
    if verb == "replicate":
        return _emit_hda(replicate(_load(args.file, Hda, "an hda"), args.n), args)
    if verb == "chain":
        stages, _ = replication_chain_prefix(
            _load(args.file, Hda, "an hda"), args.n, base=args.base, far=args.far
        )
        return _emit_hda(stages[-1], args)
    if verb == "glue":
        first = _load(args.file, Ipomset, "an ipomset")
        second = _load(args.other, Ipomset, "an ipomset")
        return serialize(ipomset_to_doc(glue(first, second)))
    if verb == "par":
        first = _load(args.file, Ipomset, "an ipomset")
        second = _load(args.other, Ipomset, "an ipomset")
        return serialize(ipomset_to_doc(parallel(first, second)))
    if verb == "closure":
        lang = par_closure_bounded(_load(args.file, Language, "a language"), args.n)
        return serialize(language_to_doc(lang))
    if verb == "subsume":
        first = _load(args.file, Ipomset, "an ipomset")
        witness = subsumes(first, _load(args.other, Ipomset, "an ipomset"))
        record: dict[str, Any] = {
            "type": "subsumption",
            "subsumes": witness is not None,
        }
        if witness is not None:
            record["witness"] = list(witness)
        return serialize(record)
    if verb == "interval":
        rep = interval_representation(_load(args.file, Ipomset, "an ipomset"))
        if isinstance(rep, IntervalRepresentation):
            return serialize(
                {
                    "type": "intervalRepresentation",
                    "begin": list(rep.begin),
                    "end": list(rep.end),
                }
            )
        raise _DomainFailure(
            {
                "error": "NotInterval",
                "witness": {
                    "firstLow": rep.first_low,
                    "firstHigh": rep.first_high,
                    "secondLow": rep.second_low,
                    "secondHigh": rep.second_high,
                },
            }
        )
    if verb == "dot":
        return to_dot(_load(args.file, Hda, "an hda"))
    raise AssertionError(f"unhandled verb {verb!r}")


def _domain_record(exc: Exception) -> str:
    record: dict[str, Any] = {
        "error": type(exc).__name__,
        "detail": str(exc),
    }
    if isinstance(exc, PrecubicalInvariant):
        record["violations"] = list(exc.violations)
    return serialize(record)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        output = _run(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DomainFailure as exc:
        sys.stdout.write(serialize(exc.record))
        return 1
    except (IpomsetError, PrecubicalError, NotInterval, ValueError) as exc:
        sys.stdout.write(_domain_record(exc))
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(output)
    else:
        sys.stdout.write(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
