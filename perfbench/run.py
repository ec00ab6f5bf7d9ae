#!/usr/bin/env python3
"""Repository benchmark: drives one workload through the program's
public entry points and prints its metrics.

    python3 perfbench/run.py --workload synth64 --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` makes an
untraced pass and then a traced pass on the same inputs, requires
their design digests to be equal, and prints the per-layer metrics.
The last line of standard output is one JSON object: ``{"correct",
"attempted", "failed", "metrics"}``.  The run exits non-zero, after
printing that line with ``"correct": false``, on any invalid design or
digest mismatch.  Metric names, units and bounds are in
``BENCHMARK.json``; their definitions are in ``perfbench/metrics.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in BENCH["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _time_setups(args, module) -> tuple[list[float], object]:
    """Time ``SETUP_REPEATS`` set-ups from process start to ready.

    The service's set-up is a server start to ``/readyz``; the others
    are a fresh interpreter importing the program, generating the
    inputs and warming up.  Returns the times and, for the service,
    the last server, left running for the measurement."""
    if args.workload == "service_mix":
        times, server = [], None
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server, elapsed = module.start_timed()
            times.append(elapsed)
        return times, server
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as probe:
            ready = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
        if probe.returncode != 0 or ready.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {probe.returncode}")
        times.append(elapsed)
    return times, None


def names_of(kind: str) -> dict[str, str]:
    """Metric name -> unit, in ``BENCHMARK.json`` order."""
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def _emit(correct: bool, outcome, metrics: dict, kind: str) -> None:
    from stats import finite

    names = names_of(kind)
    missing = set(names) - set(metrics)
    extra = set(metrics) - set(names)
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": finite(float(metrics[name])), "unit": unit}
            for name, unit in names.items()
        },
    }))


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported {repro.__file__}, not this checkout's src", file=sys.stderr)
        return 2
    import common
    import importlib

    module = importlib.import_module(args.workload)
    if args.setup_probe:
        module.setup(args.seed, args.seconds)
        print("ready", flush=True)
        return 0

    from spans import SpanRecorder

    inputs = module.setup(args.seed, args.seconds)
    if args.trace:
        # An untraced pass and a traced pass back to back on the same
        # inputs: their digests must agree, and their timings give the
        # tracing overhead.
        plain = module.measure(inputs, args.seed, args.seconds)
        rec = SpanRecorder()
        outcome = module.measure(inputs, args.seed, args.seconds, rec=rec)
        problems = plain.problems + outcome.problems
        if plain.digest != outcome.digest:
            problems.append("design digest of the traced pass differs from the untraced pass")
    else:
        setup_times, server = _time_setups(args, module)
        extra = {} if server is None else {"server": server}  # measure() stops it
        outcome = module.measure(inputs, args.seed, args.seconds, **extra)
        problems = list(outcome.problems)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for line in outcome.lines:
        print(line)
    for problem in problems:
        print(f"  INCORRECT: {problem}")

    if args.trace:
        metrics = dict(outcome.layer)
        metrics["trace_overhead_frac"] = (
            outcome.primary / plain.primary - 1.0 if module.TRACE_IN_WINDOW else 0.0
        )
        rec.write(common.STATE / "traces" / f"{args.workload}-s{args.seed}.jsonl")
        for name, value in sorted(rec.self_totals().items()):
            print(f"  self {name:<30} {value:12.6f} s")
        for name in names_of("per_layer"):
            metrics.setdefault(name, 0)
        _emit(not problems, outcome, metrics, "per_layer")
    else:
        metrics = {"setup_s": statistics.median(setup_times), "peak_rss_mb": common.peak_rss_mb()}
        samples = {"setup_s": len(setup_times), "peak_rss_mb": 1, **outcome.samples}
        for name in names_of("end_to_end"):
            metrics.setdefault(name, outcome.e2e.get(name, 0.0))
        print("end-to-end:")
        for name, value in metrics.items():
            unit = names_of("end_to_end")[name]
            print(f"  {name:<34} {value:12.6g} {unit:<6} n={samples.get(name, 0)}")
        _emit(not problems, outcome, metrics, "end_to_end")
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
