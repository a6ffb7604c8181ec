"""Self-test of the benchmark.

    python3 -m pytest perfbench -q

A tiny run of every workload must emit every metric named in
``BENCHMARK.json``, and each independent checker must reject a deliberately
corrupted output.
"""

from __future__ import annotations

import json
import os
import random
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LIB, FUNCTIONS = run.load_library()
API = spans.plain_api(FUNCTIONS)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


@pytest.fixture
def tiny(monkeypatch):
    """Two cycles, both made in set-up: the smallest complete run."""
    monkeypatch.setattr(run, "MIN_OPS", 1)
    for workload in WORKLOADS.values():
        monkeypatch.setattr(workload, "setup_cycles", 2)


def _names(metrics: dict) -> dict:
    return {name: entry["unit"] for name, entry in metrics.items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_metric(tiny, name):
    plain = run.run_workload(name, seed=7, seconds=0, trace=False)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert _names(plain["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(entry["value"] > 0 for entry in plain["metrics"].values())
    traced = run.run_workload(name, seed=7, seconds=0, trace=True)
    assert traced["correct"]
    assert _names(traced["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert traced["metrics"]["trace_overhead"]["value"] > 0
    assert traced["digest"] == plain["digest"]


def test_workload_names_match_the_benchmark_file():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


# --- each checker rejects a corrupted output ------------------------------------------


def _first(workload, kind: str, seed: int = 3):
    ops = workload.make_cycle(random.Random(seed))
    return next(op for op in ops if op.kind == kind)


def _corrupt_language(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc["generators"])
    return json.dumps(doc)


def test_witness_checks_reject_a_permuted_witness():
    chain = checks.plain(LIB.from_chain(["a", "a", "b"]))
    witness = LIB.subsumes(LIB.from_chain(["a", "a", "b"]), LIB.from_chain(["a", "a", "b"]))
    assert checks.check_subsumption(chain, chain, witness, witness) == []
    permuted = (witness[1], witness[0], witness[2])
    assert checks.check_subsumption(chain, chain, permuted, witness)
    assert checks.check_subsumption(chain, chain, None, None)  # not reflexive


def test_interval_checks_reject_a_shifted_interval_and_a_false_two_plus_two():
    p = LIB.from_chain(["a", "b"])
    rep = LIB.interval_representation(p)
    assert checks.check_interval_result(checks.plain(p), rep) == []
    shifted = SimpleNamespace(begin=rep.begin, end=(rep.end[0] + 1,) + rep.end[1:])
    assert checks.check_interval_result(checks.plain(p), shifted)
    q = LIB.two_plus_two_ipomset()
    quad = LIB.interval_representation(q)
    assert checks.check_interval_result(checks.plain(q), quad) == []
    swapped = SimpleNamespace(
        first_low=quad.first_high, first_high=quad.first_low,
        second_low=quad.second_low, second_high=quad.second_high,
    )
    assert checks.check_interval_result(checks.plain(q), swapped)


def test_closed_form_checks_reject_wrong_languages(tmp_path):
    workload = WORKLOADS["hda-extract"](LIB, str(tmp_path))
    power = _first(workload, "tensor-power")
    out = workload.run(API, power)
    assert workload.check(power, out)[0] == []
    ordered = _corrupt_language(out, lambda gens: gens[0]["precedence"].append([0, 1]))
    assert workload.check(power, ordered)[0]

    grid = _first(workload, "grid")
    out = workload.run(API, grid)
    assert workload.check(grid, out)[0] == []
    assert workload.check(grid, _corrupt_language(out, lambda gens: gens.pop()))[0]

    for kind in ("random", "random-tensor"):
        op = _first(workload, kind)
        out = workload.run(API, op)
        assert workload.check(op, out)[0] == [], kind
        assert workload.check(op, _corrupt_language(out, lambda gens: gens.pop(0)))[0], kind

    rep = _first(workload, "replicate")
    out = workload.run(API, rep)
    assert workload.check(rep, out)[0] == []
    assert workload.check(rep, _corrupt_language(out, lambda gens: gens.pop()))[0]


def test_language_checks_reject_a_dropped_or_foreign_generator(tmp_path):
    workload = WORKLOADS["ideal-algebra"](LIB, str(tmp_path))
    for kind in ("normalize", "par_compose", "union", "expand"):
        op = _first(workload, kind)
        out = workload.run(API, op)
        assert workload.check(op, out)[0] == [], kind
        if kind == "expand":
            assert workload.check(op, frozenset(list(out)[1:]))[0], kind
            continue
        gens = sorted(out.generators, key=repr)
        smaller = LIB.Language(frozenset(gens[1:]), out.event_bound)
        assert workload.check(op, smaller)[0], kind
        foreign = LIB.Language(frozenset({LIB.from_chain(["c"])}), out.event_bound)
        assert workload.check(op, foreign)[0], kind


def test_refine_checks_reject_a_wrong_canonical_form_and_a_wrong_glue(tmp_path):
    workload = WORKLOADS["refine-query"](LIB, str(tmp_path))
    op = workload.make_cycle(random.Random(5))[0]
    members, pairs, reps, composed = workload.run(API, op)
    assert workload.check(op, (members, pairs, reps, composed))[0] == []
    first = members[0]
    relabelled = [LIB.Ipomset(("c",) + first.labels[1:], first.precedence, first.sources,
                              first.targets)] + members[1:]
    assert workload.check(op, (relabelled, pairs, reps, composed))[0]
    swapped = composed[1:] + composed[:1]
    assert workload.check(op, (members, pairs, reps, swapped))[0]


def test_build_checks_reject_a_broken_automaton_and_a_cli_mismatch(tmp_path):
    workload = WORKLOADS["build"](LIB, str(tmp_path))
    ops = workload.make_cycle(random.Random(11))
    tensor = next(op for op in ops if op.kind == "tensor")
    text, back, built, dot = workload.run(API, tensor)
    assert workload.check(tensor, (text, back, built, dot))[0] == []
    doc = json.loads(text)
    doc["cells"][-1]["faces"]["0,1"] = doc["cells"][0]["id"]
    assert workload.check(tensor, (json.dumps(doc), back, built, dot))[0]
    assert workload.check(tensor, (text, back, built, dot.replace("shape=circle", "shape=box")))[0]

    cli = ops[-1]
    direct = next(op for op in ops[:-1] if op.expect == cli.expect)
    direct_out = workload.run(API, direct)
    assert workload.check(direct, direct_out)[0] == []
    code, cli_text = workload.run(API, cli)
    assert workload.check(cli, (code, cli_text))[0] == []
    workload.check(direct, direct_out)
    assert workload.check(cli, (code, cli_text + " "))[0]


def test_replay_with_a_different_output_is_a_failure():
    class Flaky:
        name = "flaky"

        def __init__(self):
            self.calls = 0

        def run(self, api, op):
            self.calls += 1
            return self.calls

        def check(self, op, out):
            return [], str(out)

    Flaky.setup_cycles = 1
    Flaky.make_cycle = lambda self, rng: [SimpleNamespace(kind="x")]
    runner = run.Runner(Flaky(), seed=1, keep=True)
    runner.cycle(API, 0)
    runner.cycle(API, 0)
    assert runner.attempted == 2 and runner.failed == 1


def test_times_are_scaled_by_the_reference_samples_around_them():
    ref = run.REFERENCE_S
    assert run.at_reference_speed([1.0, 2.0], [ref, ref]) == [1.0, 2.0]
    # A machine at half speed takes twice as long for both.
    assert run.at_reference_speed([2.0, 4.0], [2 * ref, 2 * ref]) == [1.0, 2.0]
    # One slow reference sample among nine does not move the scale.
    refs = [ref] * 4 + [10 * ref] + [ref] * 4
    assert run.at_reference_speed([1.0] * 9, refs) == [1.0] * 9
    clock = run.ReferenceClock()
    clock.lap()
    clock.lap()
    assert len(clock.laps) == len(clock.refs) == 2 and clock.seconds() > 0
