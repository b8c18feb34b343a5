"""bcq benchmark: run one workload (or all four) and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a checkout.  Every pass of the workload's fixed
operation list runs in a fresh interpreter (``passrun.py``), so no pass
reuses caches filled by another.  A run makes at least two passes and
repeats them while the next one is expected to end within S seconds, then
times eleven set-up-only interpreters.  Every time is scaled to the
reference speed of ``calibrate.py``, measured next to it, and each
operation's time is its median over the run's passes.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).  Per-operation records and span trees go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import REFERENCE_S, speed_now  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

WORKLOADS = ("exact_koornwinder", "measure_quadrature", "limit_sweeps", "grassmann_algebra")
SETUP_SAMPLES = 11
MIN_PASSES = 2
PASS_TIMEOUT_S = 150
OUT_DIR = ".bench_out"
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("max_op_s", "s"),
    ("peak_rss_mb", "MB"),
    ("min_digits", "digits"),
]


class BenchError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, trace_file=None, setup_only=False) -> dict:
    """Spawn one pass and return its record plus ``wall_s``; with
    ``setup_only``, return ``setup_s`` at reference speed instead."""
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace_file:
        cmd += ["--trace", trace_file]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    speed_before = speed_now() if setup_only else None
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    killer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        killer.cancel()
    wall_s = time.perf_counter() - start
    if proc.returncode != 0 or first.strip() != "READY":
        raise BenchError(f"pass of {workload} exited with code {proc.returncode}")
    if setup_only:
        # the child reports the speed right after its set-up
        return {"setup_s": setup_s * REFERENCE_S * 2 / (speed_before + float(rest))}
    record = json.loads(rest.strip().splitlines()[-1])
    record["wall_s"] = wall_s
    return record


def summarize(record: dict) -> dict:
    """Per-pass outcome from the per-operation record."""
    ops = record["ops"]
    failed = [op for op in ops if not op["passed"]]
    digits = [op["digits"] for op in ops if op.get("digits") is not None and not op["fault"]]
    controls = record["controls"]
    return {
        "attempted": len(ops),
        "failed": len(failed),
        # only operations of a known fault may fail; a negative control
        # that passes means a check is vacuous
        "correct": all(op["fault"] for op in failed)
        and "error" not in controls and not any(controls.values()),
        "peak_rss_mb": record["peak_rss_mb"],
        "min_digits": min(digits),
    }


def op_times(passes) -> list:
    """Each operation's median time over the passes, at reference speed."""
    return [
        statistics.median(p["ops"][i]["seconds"] * REFERENCE_S / p["ops"][i]["kernel_s"] for p in passes)
        for i in range(len(passes[0]["ops"]))
    ]


def layer_metrics(record: dict) -> dict:
    """A traced pass's layer figures, self times at reference speed."""
    scale = REFERENCE_S / statistics.fmean(op["kernel_s"] for op in record["ops"])
    return {name: value * scale if name.endswith("self_s") else value
            for name, value in record["layers"].items()}


def run_passes(workload, seed, budget_s, traced=False) -> list:
    """At least MIN_PASSES passes, more while the next fits in budget_s."""
    start = time.perf_counter()
    passes = []
    while True:
        trace_file = None
        if traced:
            trace_file = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}-pass{len(passes)}.json")
        passes.append(run_pass(workload, seed, trace_file))
        expected = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + expected > budget_s:
            return passes


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    # a traced run splits its time between untraced and traced passes
    untraced = run_passes(workload, seed, seconds / 2 if trace else seconds)
    traced = run_passes(workload, seed, seconds / 2, traced=True) if trace else []
    everything = untraced + traced
    setups = [run_pass(workload, seed, setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES)]
    with open(os.path.join(OUT_DIR, f"records-{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "setup_s": setups, "passes": everything},
                  fh, indent=1)
    summaries = [summarize(p) for p in everything]
    times = op_times(untraced)
    if trace:
        metrics = {name: statistics.median_low(layer_metrics(p)[name] for p in traced)
                   for name, _u, _b in PER_LAYER if not name.startswith("trace.")}
        metrics["trace.ops_per_s_traced"] = len(times) / sum(op_times(traced))
        metrics["trace.ops_per_s_untraced"] = len(times) / sum(times)
        metrics["trace.overhead_ratio"] = (
            metrics["trace.ops_per_s_untraced"] / metrics["trace.ops_per_s_traced"])
        units = {name: unit for name, unit, _b in PER_LAYER}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(times) / sum(times),
            "max_op_s": max(times),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in summaries),
            "min_digits": min(s["min_digits"] for s in summaries),
        }
        units = dict(END_TO_END)
    return {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "bcq", "__init__.py")):
        print("perfbench: run from the root of a bcq checkout (no src/bcq here)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
