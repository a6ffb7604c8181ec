"""The hdalang benchmark: set-up, the measuring loop and the result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> [--trace 1]

Run from the root of a source tree: the library is imported from ``src/``
next to this directory, never from an installed copy, and the run fails
(exit 2, no result) when that tree is missing.  One client runs operations
in a closed loop on one thread: the next operation starts when the previous
one has returned.  The outputs of a cycle are checked after its last
operation; the checks and the loop bookkeeping are outside each
operation's timing.

Each operation is timed by the CPU time of the driver's thread, and every
time metric is reported *at reference speed*: the host's speed drifts by
20-40 % within minutes, so the driver times a fixed loop of plain Python
(``reference_loop``) after every operation and scales each time by
``REFERENCE_S`` over the median reference time measured next to it.  The
plain wall-clock figures are printed as comment lines and recorded too.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it measures the same operations untraced and then traced,
and reports the per-layer metrics derived from the spans.  The last line
of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record (the
machine, the commit, the seed, operation counts, the output digest and the
first problems found) is written to ``.perfbench_out/`` at the root, with
the spans of a traced run.  ``--workload all`` runs every workload in its
own process, one after another, and prints one table.

The workloads and metrics are described in ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter, thread_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 5   # set-ups per run; setup_s is their median
MIN_OPS = 100       # so that at least ten latency samples lie beyond p90
DIGEST_CYCLES = 2   # the digest covers the outputs of the first cycles
REFERENCE_S = 125e-6    # what one reference loop takes at reference speed
REFERENCE_WINDOW = 9    # reference samples whose median scales one time


def reference_loop() -> int:
    """A fixed piece of plain Python of the library's kind: tuples, sets, dicts, sorting.

    It never calls ``hdalang``, so a change to the library cannot change its
    time; only the machine's speed can.
    """
    acc = 0
    for k in range(12):
        items = [(i, (i * k) % 7, i ^ k) for i in range(24)]
        acc += len(frozenset(items))
        table = {item[0]: item for item in items}
        acc += sum(table[i][1] for i in range(0, 24, 3))
        acc += len(sorted(items, key=lambda item: item[2]))
    return acc


def time_reference() -> float:
    """CPU seconds of one reference loop, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    start = thread_time()
    reference_loop()
    elapsed = thread_time() - start
    if enabled:
        gc.enable()
    return elapsed


class ReferenceClock:
    """CPU time at reference speed, lap by lap.

    ``lap()`` ends a lap and times one reference loop; each lap is scaled
    like an operation, by the reference samples around it.  The reference
    loops themselves are outside every lap.
    """

    def __init__(self) -> None:
        self.laps: list[float] = []
        self.walls: list[float] = []
        self.refs: list[float] = []
        self.cpu, self.wall = thread_time(), perf_counter()

    def lap(self) -> None:
        self.laps.append(thread_time() - self.cpu)
        self.walls.append(perf_counter() - self.wall)
        self.refs.append(time_reference())
        self.cpu, self.wall = thread_time(), perf_counter()

    def seconds(self) -> float:
        return sum(at_reference_speed(self.laps, self.refs))


def at_reference_speed(times: list[float], refs: list[float]) -> list[float]:
    """Scale ``times[i]`` by ``REFERENCE_S`` over the median of the reference
    samples around ``refs[i]``, the sample taken right after time ``i``."""
    half, width = REFERENCE_WINDOW // 2, min(REFERENCE_WINDOW, len(refs))
    scaled = []
    for i, elapsed in enumerate(times):
        low = max(0, min(i - half, len(refs) - width))
        scaled.append(elapsed * REFERENCE_S / statistics.median(refs[low:low + width]))
    return scaled


def load_library():
    """Import hdalang from ``src/`` beside the benchmark; exit 2 if it is not there.

    Returns the set-up namespace (every public name, untraced) and the
    function table ``{name: (layer, function)}`` that workloads call.
    """
    from spans import LAYER_FUNCTIONS

    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        package = importlib.import_module("hdalang")
        # ``hdalang.language`` the attribute is the re-exported function, so
        # layer modules are looked up by module name.
        modules = {
            layer: importlib.import_module(f"hdalang.{layer}")
            for layer in LAYER_FUNCTIONS
        }
        samples = importlib.import_module("hdalang.samples")
    except ImportError as exc:
        print(f"perfbench: cannot import hdalang from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    if not os.path.abspath(package.__file__).startswith(src + os.sep):
        print(f"perfbench: hdalang was imported from {package.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    lib = argparse.Namespace()
    for module in (package, modules["formats"], samples):
        for name in dir(module):
            if not name.startswith("_"):
                setattr(lib, name, getattr(module, name))
    functions = {
        name: (layer, getattr(modules[layer], name))
        for layer, names in LAYER_FUNCTIONS.items()
        for name in names
    }
    return lib, functions


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Runs, times and checks whole cycles of one workload's operations.

    Cycle ``c`` is generated from the seed and ``c`` alone.  Set-up makes
    the first ``workload.setup_cycles``; later cycles are made when the
    loop reaches them, outside any operation's timing, and are kept only
    when ``keep`` is set (a traced run replays them).
    """

    def __init__(self, workload, seed: int, keep: bool, tick=lambda: None):
        self.workload = workload
        self.seed = seed
        self.keep = keep
        self.pool = []
        for number in range(workload.setup_cycles):
            self.pool.append(self._make(number))
            tick()
        self.latencies: list[float] = []   # CPU seconds per operation
        self.walls: list[float] = []       # wall seconds per operation
        self.refs: list[float] = []        # the reference sample after each operation
        self.cycle_ends: list[int] = []    # how many operations had run at each cycle's end
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.op_kinds: list[str] = []      # the kind of each operation
        self.outputs: dict[tuple, str] = {}

    def _make(self, number: int) -> list:
        return self.workload.make_cycle(random.Random(f"{self.seed}:{self.workload.name}:{number}"))

    def ops(self, number: int) -> list:
        if number < len(self.pool):
            return self.pool[number]
        ops = self._make(number)
        if self.keep and number == len(self.pool):
            self.pool.append(ops)
        return ops

    def cycle(self, api, number: int, tracer=None) -> float:
        """Run cycle ``number``, then check its outputs; return its busy wall seconds.

        The operations of a cycle run back to back, each followed by one
        timed reference loop, and are checked after the last one returns,
        so the checker's code and data do not sit between two operations.
        """
        busy, results = 0.0, []
        for op in self.ops(number):
            if tracer is not None:
                tracer.begin_op()
            start, cpu = perf_counter(), thread_time()
            try:
                out, error = self.workload.run(api, op), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, error = None, exc
            cpu, end = thread_time() - cpu, perf_counter()
            if tracer is not None:
                tracer.end_op(op.kind, start, end)
            busy += end - start
            self.latencies.append(cpu)
            self.walls.append(end - start)
            self.refs.append(time_reference())
            self.op_kinds.append(op.kind)
            results.append((op, out, error))
        self.cycle_ends.append(len(self.latencies))
        for position, (op, out, error) in enumerate(results):
            self.attempted += 1
            problems = self._check(op, out, error, (number, position))
            if problems:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"{op.kind}: {problems[0]}")
        return busy

    def _check(self, op, out, error, key) -> list[str]:
        if error is not None:
            return [f"raised {error!r}"]
        try:
            problems, fingerprint = self.workload.check(op, out)
        except Exception as exc:  # a malformed output can break a checker
            return [f"check raised {exc!r}"]
        digest = hashlib.sha256(fingerprint.encode()).hexdigest()
        # Outputs are kept for the digest and for replays, not for every cycle.
        if key[0] < DIGEST_CYCLES or self.keep:
            if self.outputs.setdefault(key, digest) != digest:
                problems = problems + ["output differs from an earlier run of the same input"]
        return problems

    def warm_up(self, api, tick=lambda: None) -> None:
        """Run the first operation of each kind once, unrecorded."""
        done = set()
        for op in self.pool[0]:
            if op.kind not in done:
                done.add(op.kind)
                try:
                    self.workload.check(op, self.workload.run(api, op))
                except Exception:
                    pass  # the measured run counts the failure
                tick()

    def digest(self) -> str:
        keys = sorted(k for k in self.outputs if k[0] < DIGEST_CYCLES)
        return hashlib.sha256("".join(self.outputs[k] for k in keys).encode()).hexdigest()


def set_up(name: str, seed: int, workdir: str, keep: bool, clock: ReferenceClock):
    """Import the package, generate the first cycles and warm up.

    This is the part ``setup_s`` times, on ``clock``: a lap for the import,
    one per cycle made and one per warm-up operation.  Each call imports
    ``hdalang`` afresh, so every repetition pays the import.
    """
    for module in [m for m in sys.modules if m == "hdalang" or m.startswith("hdalang.")]:
        del sys.modules[module]
    lib, functions = load_library()
    from spans import plain_api
    from workloads import WORKLOADS

    api = plain_api(functions)
    clock.lap()
    runner = Runner(WORKLOADS[name](lib, workdir), seed, keep, clock.lap)
    runner.warm_up(api, clock.lap)
    return runner, functions


def measure(runner: Runner, api, seconds: float, min_ops: int) -> tuple[int, float]:
    """Run whole cycles until ``seconds`` have passed and ``min_ops`` ran."""
    cycles, busy, start = 0, 0.0, perf_counter()
    while perf_counter() - start < seconds or runner.attempted < min_ops or cycles < DIGEST_CYCLES:
        busy += runner.cycle(api, cycles)
        cycles += 1
    return cycles, busy


def latency_metrics(lat: list[float], cycle_ends: list[int], setup_s: float) -> dict:
    """Throughput, latency percentiles and set-up time from per-operation seconds.

    Every cycle has the same mix of operations, so throughput is the
    operations of a cycle over the median cycle time: one slow spell of
    the machine moves a few cycles, not the figure.
    """
    starts = [0] + cycle_ends[:-1]
    cycle_s = statistics.median(sum(lat[a:b]) for a, b in zip(starts, cycle_ends))
    return {
        "throughput_ops_s": {"value": (len(lat) / len(cycle_ends)) / cycle_s, "unit": "ops/s"},
        "latency_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
        "latency_p90_ms": {"value": 1000 * statistics.quantiles(lat, n=10)[8], "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans as tracing

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        for _ in range(3):
            time_reference()  # warm the reference loop itself
        setups, setup_walls = [], []
        for _ in range(SETUP_REPEATS):
            clock = ReferenceClock()
            runner, functions = set_up(name, seed, workdir, trace, clock)
            setups.append(clock.seconds())
            setup_walls.append(sum(clock.walls))
        setup_s = statistics.median(setups)
        api = tracing.plain_api(functions)
        # The set-up's data stays alive for the whole run; frozen, it is not
        # scanned again by every collection an operation triggers.
        gc.collect()
        gc.freeze()

        wall_metrics = None
        if not trace:
            cycles, _ = measure(runner, api, seconds, MIN_OPS)
            lat = at_reference_speed(runner.latencies, runner.refs)
            metrics = latency_metrics(lat, runner.cycle_ends, setup_s)
            metrics["peak_rss_mb"] = {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            }
            wall_metrics = {
                metric: entry["value"]
                for metric, entry in latency_metrics(
                    runner.walls, runner.cycle_ends, statistics.median(setup_walls)
                ).items()
            }
        else:
            # Both measured passes replay the cycles the first pass made,
            # interleaved cycle by cycle (alternating which goes first) so
            # that the machine's slow and fast spells fall on both sides.
            cycles, _ = measure(runner, api, seconds / 3, 1)
            tracer = tracing.Tracer()
            traced_api = tracer.api(functions)
            untraced = traced = 0.0
            for c in range(cycles):
                if c % 2:
                    traced += runner.cycle(traced_api, c, tracer)
                untraced += runner.cycle(api, c)
                if not c % 2:
                    traced += runner.cycle(traced_api, c, tracer)
            metrics = tracing.layer_metrics(tracer.spans, traced, untraced)
            tracer.write(os.path.join(OUT_DIR, f"spans-{name}.tsv.gz"))
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    per_kind: dict[str, list[float]] = {}
    for kind, elapsed in zip(runner.op_kinds, at_reference_speed(runner.latencies, runner.refs)):
        per_kind.setdefault(kind, []).append(elapsed)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": git_commit(),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "cycles": cycles,
        "reference": {
            "REFERENCE_S": REFERENCE_S,
            "median_s": statistics.median(runner.refs) if runner.refs else None,
        },
        "wall_metrics": wall_metrics,
        "ops_per_kind": {kind: len(times) for kind, times in per_kind.items()},
        "median_ms_per_kind": {
            kind: 1000 * statistics.median(times) for kind, times in per_kind.items()
        },
        "error_rate": runner.failed / runner.attempted,
        "digest": runner.digest(),
        "digest_cycles": DIGEST_CYCLES,
        "problems": runner.problems,
        **result,
    }
    path = os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    return record


def print_record(record: dict) -> None:
    print(
        f"# workload {record['workload']} seed {record['seed']} commit {record['commit']} "
        f"machine {record['machine']}"
    )
    print(
        f"# ops {record['attempted']} in {record['cycles']} cycles, failed {record['failed']}, "
        f"error_rate {record['error_rate']:.4f}, digest {record['digest'][:16]}"
    )
    for problem in record["problems"]:
        print(f"# problem: {problem}")
    for metric, entry in record["metrics"].items():
        print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    reference = record["reference"]["median_s"]
    if reference:
        print(f"# reference loop {1e6 * reference:.1f} us, against {1e6 * REFERENCE_S:.0f} us at reference speed")
    for metric, value in (record["wall_metrics"] or {}).items():
        print(f"# wall clock, not scaled: {metric} {value:.6g}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, then one table of all metrics."""
    from workloads import WORKLOADS

    rows, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900, check=False,
        )
        if proc.returncode != 0:
            print(f"# {name} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            status = 1
            continue
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    if not rows:
        return 1
    names = list(rows)
    metrics = list(next(iter(rows.values()))["metrics"])
    print(f"{'metric':48} {'unit':9} " + " ".join(f"{n:>14}" for n in names))
    print(f"{'error_rate':48} {'ratio':9} " + " ".join(
        f"{rows[n]['failed'] / rows[n]['attempted']:14.4g}" for n in names))
    for metric in metrics:
        unit = rows[names[0]]["metrics"][metric]["unit"]
        print(f"{metric:48} {unit:9} " + " ".join(
            f"{rows[n]['metrics'][metric]['value']:14.6g}" for n in names))
    return status


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="hdalang benchmark")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_record(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
