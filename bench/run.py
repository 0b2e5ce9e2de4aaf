"""Run one workload of the fracseq benchmark and print its result.

    python3 bench/run.py --workload windows_float --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

One process, one closed loop: a single caller runs the workload's cycle
of operations, each started only after the previous one finished and was
checked.  Whole cycles run until the timed operations add up to
``--seconds`` and at least ``MIN_OPS`` operations completed.

``--trace 0`` reports the end-to-end metrics, with every time scaled to
the host's full speed (see ``host_calibration``).  ``--trace 1`` alternates
untraced and traced cycles for ``--seconds`` and reports the per-layer
metrics (the median over traced cycles of each per-cycle value) plus
the tracing overhead.  The last line of standard output is the result
object; the line before it is the run record (metadata, input digest,
per-operation medians, known defects, failures).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np

import program
import workloads as W
from tracer import COUNT_METRICS, SPAN_METRICS, Tracer, median_metrics

MIN_OPS = 100  # the 90th percentile needs at least ten samples beyond it
SETUP_REPEATS = 5
PROBE_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


UNCERTIFIED = "transforms.space_norm.uncertified"


def _per_layer_units() -> dict:
    units = {}
    for metric in SPAN_METRICS:
        units[metric + "_s"] = "s"
        units[metric + ".self_s"] = "s"
    for name in COUNT_METRICS:
        units[name] = "bytes" if name.endswith("bytes_out") or name.endswith("_bytes") else "count"
    units["matrix_domain.subsets_per_s"] = "1/s"
    units[UNCERTIFIED] = "count"
    units["cli.interp_s"] = "s"
    units["cli.import_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


PER_LAYER = _per_layer_units()

# The host this benchmark was sized on switches, for seconds at a time, between
# full speed and a mode about 1.8 times slower (other tenants of the machine);
# a whole run can fall in either.  Every timed interval is therefore
# bracketed by a fixed pure-Python loop, and the end-to-end times are scaled by
# CALIBRATION_REF_S over the loop's mean duration around the interval: they
# read as wall times at the host's full speed.  Raw wall times stay in the record.
CALIBRATION_LOOP = 7000
CALIBRATION_REF_S = 0.00041  # the loop at full speed on the 2-core Xeon VM this was sized on


def host_calibration() -> float:
    """Seconds the calibration loop takes right now (fastest of three, to skip blips)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOP):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def host_factor(before: float) -> float:
    """How much slower than full speed the host ran over an interval that
    started with a calibration reading ``before`` and ends now."""
    return (before + host_calibration()) / (2 * CALIBRATION_REF_S)


class Runner:
    """Runs cases, checks every result outside the timed region, counts failures."""

    def __init__(self, cases):
        self.cases = cases
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.defects = Counter()
        self.op_lists = []
        self._refs = {}

    def _fail(self, case, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{case.name}: {message}")

    def run_op(self, case, tracer=None):
        """Run and check one operation.

        Returns ``(seconds, host_factor, ok, defect notes)``: the raw wall time
        and the calibration loop's mean duration around it over its reference.
        """
        self.attempted += 1
        before = host_calibration()
        t0 = time.perf_counter()
        error = None
        try:
            if tracer is None:
                result = case.call(None)
            else:
                with tracer.op(case.name):
                    result = case.call(tracer)
        except Exception as exc:  # a failing operation is counted, the run goes on
            error = exc
        elapsed = time.perf_counter() - t0
        factor = host_factor(before)
        if error is not None:
            self._fail(case, f"raised {type(error).__name__}: {error}")
            return elapsed, factor, False, []
        try:
            if case.cache_ref:
                if case.name not in self._refs:
                    self._refs[case.name] = case.reference()
                ref = self._refs[case.name]
            else:
                ref = case.reference()
            notes = case.compare(result, ref) or []
        except Exception as exc:  # oracle mismatch, or a result of an unexpected shape
            self._fail(case, f"{type(exc).__name__}: {exc}")
            return elapsed, factor, False, []
        self.defects.update(notes)
        return elapsed, factor, True, notes

    def cycle(self, tracer=None) -> list:
        self.op_lists.append([case.name for case in self.cases])
        return [(case,) + self.run_op(case, tracer) for case in self.cases]


def digest_of(inputs) -> str:
    text = json.dumps(inputs, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def build(name: str, seed: int, tiny: bool, work):
    if name == "cli_oneshot":
        program.require_sources()
        return W.cli_oneshot(seed, tiny, work)
    return W.IN_PROCESS[name](program.import_program(), seed, tiny)


def new_work_dir(name: str):
    work = W.BENCH / "_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    return work


def remove_work_dir(work) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:  # another run is still using it
        pass


def setup_probe(name: str, seed: int, tiny: bool) -> int:
    """Child side of the set-up measurement: build the inputs, then say so."""
    work = new_work_dir(name) if name == "cli_oneshot" else None
    try:
        built = build(name, seed, tiny, work)
        print("ready", flush=True)
        print(digest_of(built.inputs), flush=True)
    finally:
        if work is not None:
            remove_work_dir(work)
    return 0


def measure_setup(name: str, seed: int, tiny: bool, repeats: int):
    """Time fresh processes from spawn to their first possible timed operation."""
    cmd = [sys.executable, str(W.BENCH / "run.py"), "--workload", name, "--seed", str(seed),
           "--setup-probe"] + (["--tiny"] if tiny else [])
    times, digests = [], []
    for _ in range(repeats):
        before = host_calibration()
        t0 = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=program.child_env())
        ready = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest = child.stdout.read()
        child.stdout.close()
        if child.wait() != 0 or ready.strip() != "ready":
            raise SystemExit(f"benchmark: set-up probe for {name} failed")
        times.append((elapsed, host_factor(before)))
        digests.append(rest.strip())
    return times, digests


def interpreter_probes(repeats: int):
    """Median start-up of a bare interpreter, and of one that imports fracseq."""
    def median_run(code):
        ts = []
        for _ in range(repeats):
            before = host_calibration()
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=program.child_env(), check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            ts.append((time.perf_counter() - t0) / host_factor(before))
        return statistics.median(ts)
    interp = median_run("pass")
    return interp, median_run("import fracseq") - interp


def untraced_run(runner: Runner, workload, seconds: float, min_ops: int, setup_times) -> tuple:
    latencies, raw, by_case, raw_by_case = [], [], defaultdict(list), defaultdict(list)
    timed = 0.0
    ok_ops = cycles = 0
    while cycles == 0 or timed < seconds or len(latencies) < min_ops:
        for case, dt, factor, ok, _ in runner.cycle():
            latencies.append(dt / factor)
            raw.append(dt)
            by_case[case.name].append(dt / factor)
            raw_by_case[case.name].append(dt)
            timed += dt
            ok_ops += ok
        cycles += 1
    p90 = _p90(latencies)
    if workload.child_rss_kb is not None:
        rss_kb = max(workload.child_rss_kb)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(t / f for t, f in setup_times),
        "throughput_ops_s": ok_ops / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    factors = [r / s for r, s in zip(raw, latencies)]
    record = {
        "cycles": cycles,
        "ops_total": len(latencies),
        "ops_failed_frac": runner.failed / runner.attempted,
        "samples_beyond_p90": sum(1 for v in latencies if v > p90),
        "timed_s": timed,
        "host_factor": [min(factors), statistics.median(factors), max(factors)],
        "raw": {
            "setup_s": statistics.median(t for t, _ in setup_times),
            "throughput_ops_s": ok_ops / timed,
            "latency_p50_ms": statistics.median(raw) * 1e3,
            "latency_p90_ms": _p90(raw) * 1e3,
        },
        "case_ms": {k: [min(v) * 1e3, statistics.median(v) * 1e3, max(v) * 1e3,
                        statistics.median(raw_by_case[k]) * 1e3]
                    for k, v in by_case.items()},
    }
    return metrics, record


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def traced_run(runner: Runner, workload, seconds: float, name: str, probe_repeats: int) -> tuple:
    tracer = Tracer()
    untraced = traced = 0.0
    cycles = []
    while not cycles or untraced + traced < seconds:
        untraced += sum(dt / factor for _, dt, factor, _, _ in runner.cycle())
        tracer.reset()
        tracer.install()
        try:
            ops = runner.cycle(tracer)
        finally:
            tracer.uninstall()
        raw = sum(dt for _, dt, _, _, _ in ops)
        scaled = sum(dt / factor for _, dt, factor, _, _ in ops)
        traced += scaled
        metrics = tracer.cycle()
        for key in metrics:
            if key == "matrix_domain.subsets_per_s":
                metrics[key] *= raw / scaled
            elif key.endswith("_s"):
                metrics[key] *= scaled / raw
        metrics[UNCERTIFIED] = sum(len(notes) for _, _, _, _, notes in ops)
        cycles.append(metrics)
    per_layer = median_metrics(cycles)
    per_layer["cli.interp_s"], per_layer["cli.import_s"] = (
        interpreter_probes(probe_repeats) if name == "cli_oneshot" else (0.0, 0.0))
    per_layer["trace.overhead_frac"] = traced / untraced - 1.0
    record = {
        "traced_cycles": len(cycles),
        "untraced_s": untraced,
        "traced_s": traced,
        "spans_last_cycle": len(tracer.spans),
        "per_case_last_cycle": tracer.by_case(),
    }
    return per_layer, record


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    wall0 = time.perf_counter()
    program.require_sources()
    work = new_work_dir(name)
    try:
        setup_times, probe_digests = measure_setup(name, seed, False, SETUP_REPEATS)
        t0 = time.perf_counter()
        workload = build(name, seed, False, work)
        main_setup = time.perf_counter() - t0
        digest = digest_of(workload.inputs)
        if any(d != digest for d in probe_digests):
            raise SystemExit("benchmark: set-up processes generated different inputs")
        runner = Runner(workload.cases)
        if trace:
            metrics, detail = traced_run(runner, workload, seconds, name, PROBE_REPEATS)
            units = PER_LAYER
        else:
            metrics, detail = untraced_run(runner, workload, seconds, MIN_OPS, setup_times)
            units = END_TO_END
    finally:
        remove_work_dir(work)
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "metadata": program.metadata(),
        "input_sha256": digest,
        "op_list_sha256": digest_of(runner.op_lists[0]),
        "cycle_length": len(workload.cases),
        "setup_probe_s": [t for t, _ in setup_times],
        "main_setup_s": main_setup,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "known_defects": dict(runner.defects),
        "wall_s": time.perf_counter() - wall0,
        **detail,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


# -- smoke mode ----------------------------------------------------------------


def perturb(obj):
    """A copy of a reference with every float and Fraction moved off its value."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return obj * 1.001 + 1e-3
    if isinstance(obj, Fraction):
        return obj + 1
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        return obj * 1.001 + 1e-3
    if isinstance(obj, dict):
        return {k: perturb(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(perturb(v) for v in obj)
    return obj


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def smoke() -> int:
    """Tiny sizes: metric names and units, a failing oracle, identical op lists."""
    spec_path = program.ROOT / "BENCHMARK.json"
    declared = {}
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []
    for name, unit in declared.items():
        ours = END_TO_END.get(name) or PER_LAYER.get(name)
        if ours != unit:
            problems.append(f"BENCHMARK.json names {name} in {unit!r}; the benchmark emits {ours!r}")
    for name in W.NAMES:
        work = new_work_dir(name)
        try:
            setup_times, digests = measure_setup(name, 0, True, 1)
            workload = build(name, 0, True, work)
            if digests != [digest_of(workload.inputs)]:
                problems.append(f"{name}: set-up digest differs between processes")
            runner = Runner(workload.cases)
            e2e, _ = untraced_run(runner, workload, 0.0, 1, setup_times)
            layers, _ = traced_run(runner, workload, 0.0, name, 1)
            for got, units in ((e2e, END_TO_END), (layers, PER_LAYER)):
                missing = sorted(set(units) - set(got))
                if missing:
                    problems.append(f"{name}: metrics not emitted: {missing}")
            if runner.failed:
                problems.append(f"{name}: {runner.failed} operations failed: {runner.failures}")
            if any(ops != runner.op_lists[0] for ops in runner.op_lists):
                problems.append(f"{name}: traced and untraced cycles ran different operations")
            caught = injected = 0
            for case in workload.cases:
                ref = case.reference()
                wrong = perturb(ref)
                if _same(wrong, ref):
                    continue
                injected += 1
                before = (runner.failed, sum(runner.defects.values()))
                runner.run_op(W.Case(case.name, case.call, lambda w=wrong: w, case.compare, False))
                if runner.failed == before[0] + 1:
                    caught += 1
                elif sum(runner.defects.values()) == before[1]:
                    problems.append(f"{name}: a wrong reference for {case.name} went unnoticed")
            if not caught:
                problems.append(f"{name}: no wrong reference was counted as a failure")
            print(f"smoke {name}: {len(workload.cases)} ops per cycle, {len(runner.op_lists)} "
                  f"cycles; wrong references failed {caught} of {injected} ops")
        finally:
            remove_work_dir(work)
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=W.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny-size self-test of the benchmark")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.tiny)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
