"""Command-line interface.

Reads and writes the JSON documents described in :mod:`hdalang.formats`.
Every verb prints one document (or DOT text) to stdout or ``--out``.

Exit codes:
    0  success;
    1  a domain invariant failed -- a machine-readable JSON record naming
       the violated invariant is printed instead of a result;
    2  unusable input: unknown flags, unreadable or non-UTF-8 files,
       documents that do not parse, or an ``--out`` path that cannot be
       written.

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
shorthand for ``validate --format dot``, except on a document that is not
an hda: both exit 2, but ``dot`` says ``<file>: expected an hda document``
and ``validate --format dot`` says ``<file>: --format dot needs an hda
document``.

Each verb is one row of ``_VERBS``; the parser is built from that table on
the first call of :func:`main` and reused after.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Any, Callable, NamedTuple, Sequence

from hdalang.formats import (
    _KINDS,
    Doc,
    DocumentError,
    _to_doc,
    ipomset_list_to_doc,
    parse_document,
    serialize,
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
    glue,
    interval_representation,
    parallel,
    subsumes,
)
from hdalang.language import expand, par_closure_bounded
from hdalang.precubical import PrecubicalInvariant


class _DomainFailure(Exception):
    """Internal: a verb failed a domain check with a prepared record."""

    def __init__(self, record: Doc):
        super().__init__(record.get("error", "domain failure"))
        self.record = record


def _count(text: str) -> int:
    """Argparse type of the count flags: a non-negative integer."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


# --- the verbs -----------------------------------------------------------------------


def _subsume(args: argparse.Namespace, first: Ipomset, second: Ipomset) -> Doc:
    witness = subsumes(first, second)
    record: Doc = {"type": "subsumption", "subsumes": witness is not None}
    if witness is not None:
        record["witness"] = list(witness)
    return record


def _interval(args: argparse.Namespace, p: Ipomset) -> Doc:
    rep = interval_representation(p)
    if isinstance(rep, IntervalRepresentation):
        begin, end = list(rep.begin), list(rep.end)
        return {"type": "intervalRepresentation", "begin": begin, "end": end}
    witness = {
        "firstLow": rep.first_low,
        "firstHigh": rep.first_high,
        "secondLow": rep.second_low,
        "secondHigh": rep.second_high,
    }
    raise _DomainFailure({"error": "NotInterval", "witness": witness})


class _Verb(NamedTuple):
    """One verb of the command line.

    ``run`` takes the parsed arguments and one loaded value per input file,
    and returns an :class:`Hda`, any other value or document to serialize,
    or finished DOT text.
    """

    help: str
    kind: str | None  # the kind of every input document; None takes any kind
    files: int | str  # 1, 2 or "+"
    run: Callable[..., Any]
    flags: tuple[str, ...] = ()  # names in _FLAGS
    automaton: bool = False  # outputs an automaton, so --format dot applies


_FLAGS: dict[str, dict[str, Any]] = {
    "--max-events": {"type": _count, "required": True},
    "--n": {"type": _count, "required": True},
    "--base": {"required": True, "help": "vertex acting as the idle state"},
    "--far": {"required": True, "help": "vertex whose powers mark acceptance"},
}

_VERBS: dict[str, _Verb] = {
    "validate": _Verb("check any document and print its canonical form", None, 1,
                      lambda args, value: value, automaton=True),
    "language": _Verb("bounded language of an automaton", "hda", 1,
                      lambda args, a: hda_language(a, args.max_events), ("--max-events",)),
    "expand": _Verb("materialise a language up to an event budget", "language", 1,
                    lambda args, lang: ipomset_list_to_doc(expand(lang, args.max_events)),
                    ("--max-events",)),
    "tensor": _Verb("parallel product of two automata", "hda", 2,
                    lambda args, a, b: tensor_hda(a, b), automaton=True),
    "coproduct": _Verb("disjoint union of automata", "hda", "+",
                       lambda args, *parts: coproduct_hda(parts), automaton=True),
    "pushout": _Verb("glue the two sides of a span document", "span", 1,
                     lambda args, span: pushout_hda(*span), automaton=True),
    "replicate": _Verb("zero to n parallel copies of an automaton", "hda", 1,
                       lambda args, a: replicate(a, args.n), ("--n",), automaton=True),
    "chain": _Verb("n-th stage of the iterated-pushout replication chain", "hda", 1,
                   lambda args, a: replication_chain_prefix(
                       a, args.n, base=args.base, far=args.far)[0][-1],
                   ("--n", "--base", "--far"), automaton=True),
    "glue": _Verb("sequential composition of two ipomsets", "ipomset", 2,
                  lambda args, p, q: glue(p, q)),
    "par": _Verb("parallel composition of two ipomsets", "ipomset", 2,
                 lambda args, p, q: parallel(p, q)),
    "closure": _Verb("bounded parallel closure of a language", "language", 1,
                     lambda args, lang: par_closure_bounded(lang, args.n), ("--n",)),
    "subsume": _Verb("does the first ipomset refine the second?", "ipomset", 2, _subsume),
    "interval": _Verb("interval representation of an ipomset's precedence", "ipomset", 1,
                      _interval),
    "dot": _Verb("render an automaton document for Graphviz", "hda", 1,
                 lambda args, a: to_dot(a), automaton=True),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse parser of every verb in :data:`_VERBS`, built on first use."""
    parser = argparse.ArgumentParser(
        prog="hdalang",
        description="Languages of higher-dimensional automata.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, verb in _VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        if verb.files == 1:
            p.add_argument("file", help="input document")
        elif verb.files == 2:
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
        for flag in verb.flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


# --- load, run, emit -------------------------------------------------------------------


def _load(path: str, kind: str | None) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: not UTF-8 text: {exc}") from exc
    value = parse_document(text)
    if kind is not None and not isinstance(value, _KINDS[kind].type):
        article = "an" if kind in ("hda", "ipomset") else "a"
        raise DocumentError(f"{path}: expected {article} {kind} document")
    return value


def _run(args: argparse.Namespace) -> str:
    verb = _VERBS[args.verb]
    if args.format == "dot" and not verb.automaton:
        raise DocumentError(
            f"{args.verb}: --format dot applies only to verbs that output an automaton"
        )
    if verb.files == "+":
        paths = args.file
    else:
        paths = [args.file, args.other] if verb.files == 2 else [args.file]
    result = verb.run(args, *(_load(path, verb.kind) for path in paths))
    if isinstance(result, str):
        return result
    if args.format == "dot":
        if not isinstance(result, Hda):
            raise DocumentError(f"{args.file}: --format dot needs an hda document")
        return to_dot(result)
    return serialize(result if isinstance(result, dict) else _to_doc(result))


def _domain_record(exc: Exception) -> Doc:
    if isinstance(exc, _DomainFailure):
        return exc.record
    record: Doc = {"error": type(exc).__name__, "detail": str(exc)}
    if isinstance(exc, PrecubicalInvariant):
        record["violations"] = list(exc.violations)
    return record


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        output = _run(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(output)
    except (DocumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_DomainFailure, ValueError) as exc:
        sys.stdout.write(serialize(_domain_record(exc)))
        return 1
    if not args.out:
        sys.stdout.write(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
