"""Spans around the benchmark's calls into the library, and what they add up to.

A traced run replaces each library function in the workloads' ``api`` table
by a wrapper that records one span per call.  Spans live in memory as
tuples ``(span id, parent id, op id, name, start, end, info)`` and are
written out when the run ends.  Each operation is itself a span (named
``op.<kind>``, parent 0), so a layer call's parent is the operation, or an
enclosing layer call.  ``info`` is a small measurement of the call's result
(``"raised"`` when it raised), taken after the span's end time.

Spans are recorded only here, around calls the workloads make; nothing
inside the library is instrumented.
"""

from __future__ import annotations

import gzip
from collections import defaultdict
from time import perf_counter
from types import SimpleNamespace

# The public functions each workload may call, by layer (module name).
LAYER_FUNCTIONS = {
    "ipomset": ("validate", "subsumes", "interval_representation", "glue", "parallel"),
    "language": (
        "normalize", "par_compose", "seq_compose", "union",
        "par_closure_bounded", "expand", "is_equal",
    ),
    "hda": (
        "language", "tensor_hda", "coproduct_hda", "pushout_hda",
        "replicate", "replication_chain_prefix",
    ),
    "precubical": ("tensor", "coproduct", "finite_colimit"),
    "formats": (
        "parse_document", "serialize", "to_dot",
        "hda_to_doc", "language_to_doc", "precubical_to_doc",
    ),
    "cli": ("main",),
}
LAYERS = tuple(LAYER_FUNCTIONS)

# What a span records about its call's result.
INFO = {
    "ipomset.subsumes": lambda result, args: result is not None,
    "ipomset.interval_representation": lambda result, args: hasattr(result, "begin"),
    "language.normalize": lambda result, args: (len(set(args[0])), len(result.generators)),
    "language.expand": lambda result, args: len(result),
    "hda.language": lambda result, args: len(result.generators),
    "precubical.tensor": lambda result, args: len(result.cells),
    "precubical.coproduct": lambda result, args: len(result[0].cells),
    "precubical.finite_colimit": lambda result, args: len(result[0].cells),
    "formats.serialize": lambda result, args: len(result),
}

# Every per-layer metric a traced run reports: (name, unit).
PER_LAYER = [
    ("ipomset.subsumes.calls", "count/op"),
    ("ipomset.subsumes.busy_s", "s/op"),
    ("ipomset.subsumes.hit_ratio", "ratio"),
    ("ipomset.interval_representation.calls", "count/op"),
    ("ipomset.interval_representation.busy_s", "s/op"),
    ("ipomset.interval_representation.interval_ratio", "ratio"),
    ("ipomset.glue.calls", "count/op"),
    ("ipomset.glue.busy_s", "s/op"),
    ("ipomset.glue.reject_ratio", "ratio"),
    ("ipomset.validate.busy_s", "s/op"),
    ("language.normalize.busy_s", "s/op"),
    ("language.par_compose.busy_s", "s/op"),
    ("language.seq_compose.busy_s", "s/op"),
    ("language.union.busy_s", "s/op"),
    ("language.par_closure_bounded.busy_s", "s/op"),
    ("language.expand.busy_s", "s/op"),
    ("language.normalize.keep_ratio", "ratio"),
    ("language.expand.members", "count/op"),
    ("hda.language.calls", "count/op"),
    ("hda.language.busy_s", "s/op"),
    ("hda.language.generators", "count/op"),
    ("hda.tensor_hda.busy_s", "s/op"),
    ("hda.coproduct_hda.busy_s", "s/op"),
    ("hda.pushout_hda.busy_s", "s/op"),
    ("hda.replicate.busy_s", "s/op"),
    ("hda.replication_chain_prefix.busy_s", "s/op"),
    ("precubical.tensor.busy_s", "s/op"),
    ("precubical.coproduct.busy_s", "s/op"),
    ("precubical.finite_colimit.busy_s", "s/op"),
    ("precubical.cells_built", "count/op"),
    ("formats.parse_document.busy_s", "s/op"),
    ("formats.serialize.busy_s", "s/op"),
    ("formats.to_dot.busy_s", "s/op"),
    ("formats.serialize.bytes", "B/op"),
    ("cli.main.calls", "count/op"),
    ("cli.main.busy_s", "s/op"),
] + [(f"{layer}.share", "ratio") for layer in LAYERS] + [("trace_overhead", "ratio")]


def plain_api(functions: dict) -> SimpleNamespace:
    """The untraced table: the library's own function objects."""
    return SimpleNamespace(**{name: fn for name, (_, fn) in functions.items()})


class Tracer:
    """Keeps spans in memory for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.next_id = 0
        self.parent = 0
        self.op = 0

    def api(self, functions: dict) -> SimpleNamespace:
        """The traced table: each function wrapped to record a span per call."""
        return SimpleNamespace(
            **{name: self._wrap(f"{layer}.{name}", fn) for name, (layer, fn) in functions.items()}
        )

    def _wrap(self, span_name: str, fn):
        spans, measure = self.spans, INFO.get(span_name)

        def traced(*args):
            parent = self.parent
            self.next_id += 1
            sid = self.parent = self.next_id
            start = perf_counter()
            try:
                result = fn(*args)
            except Exception:
                end = perf_counter()
                self.parent = parent
                spans.append((sid, parent, self.op, span_name, start, end, "raised"))
                raise
            end = perf_counter()
            self.parent = parent
            info = measure(result, args) if measure else None
            spans.append((sid, parent, self.op, span_name, start, end, info))
            return result

        return traced

    def begin_op(self) -> None:
        self.op += 1
        self.next_id += 1
        self.parent = self.next_id

    def end_op(self, kind: str, start: float, end: float) -> None:
        self.spans.append((self.parent, 0, self.op, f"op.{kind}", start, end, None))
        self.parent = 0

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("span\tparent\top\tname\tstart\tend\tinfo\n")
            for span in self.spans:
                handle.write("\t".join(map(str, span)) + "\n")


def layer_metrics(spans: list[tuple], traced_s: float, untraced_s: float) -> dict:
    """Every ``PER_LAYER`` metric, from the spans of one traced run.

    Busy time is self time: a span's duration minus the time of its child
    spans.  Counts and times are per operation; a ratio whose base is zero
    is reported as 0.
    """
    child = defaultdict(float)
    for sid, parent, _, _, start, end, _ in spans:
        if parent:
            child[parent] += end - start
    ops = sum(1 for span in spans if span[1] == 0)
    op_wall = sum(end - start for _, parent, _, _, start, end, _ in spans if parent == 0)
    calls, busy, infos = defaultdict(int), defaultdict(float), defaultdict(list)
    for sid, parent, _, name, start, end, info in spans:
        if parent:
            calls[name] += 1
            busy[name] += end - start - child[sid]
            infos[name].append(info)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_op(value: float) -> float:
        return ratio(value, ops)

    values: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        base, _, stat = metric.rpartition(".")
        if stat == "calls":
            values[metric] = per_op(calls[base])
        elif stat == "busy_s":
            values[metric] = per_op(busy[base])
    def total(name: str) -> float:
        return sum(i for i in infos[name] if isinstance(i, (int, float)))

    values["ipomset.subsumes.hit_ratio"] = ratio(total("ipomset.subsumes"), calls["ipomset.subsumes"])
    values["ipomset.interval_representation.interval_ratio"] = ratio(
        total("ipomset.interval_representation"), calls["ipomset.interval_representation"]
    )
    values["ipomset.glue.reject_ratio"] = ratio(infos["ipomset.glue"].count("raised"), calls["ipomset.glue"])
    normalized = [i for i in infos["language.normalize"] if isinstance(i, tuple)]
    values["language.normalize.keep_ratio"] = ratio(sum(k for _, k in normalized), sum(n for n, _ in normalized))
    values["language.expand.members"] = per_op(total("language.expand"))
    values["hda.language.generators"] = per_op(total("hda.language"))
    values["precubical.cells_built"] = per_op(
        sum(total(f"precubical.{fn}") for fn in LAYER_FUNCTIONS["precubical"])
    )
    values["formats.serialize.bytes"] = per_op(total("formats.serialize"))
    for layer in LAYERS:
        layer_busy = sum(t for name, t in busy.items() if name.split(".")[0] == layer)
        values[f"{layer}.share"] = ratio(layer_busy, op_wall)
    values["trace_overhead"] = ratio(traced_s, untraced_s)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
