"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/passrun.py --workload NAME --seed N [--trace FILE] [--setup-only]

Run from the root of a checkout.  Imports ``bcq`` from ``./src``, builds
the workload's inputs and prints ``READY`` (the parent times set-up up to
that line; with ``--setup-only`` the pass then prints the machine speed
and stops).  It runs every operation with only the library call timed
and the machine speed (``calibrate.py``) sampled between and during the
calls, then checks every output and the workload's negative controls, and
prints one JSON object with the per-operation record.  With ``--trace``
the calls run under ``tracing.Tracer`` and the span tree goes to FILE.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)


def _finite(x):
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads
    from calibrate import SpeedMeter, speed_now

    build, control = workloads.WORKLOADS[args.workload]
    ops = build(args.seed)
    print("READY", flush=True)
    if args.setup_only:
        # the speed right after set-up, on the CPU that ran it
        print(speed_now(), flush=True)
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    results = {}
    records = []
    before = speed_now()
    for op in ops:
        with SpeedMeter() as meter:
            start = time.perf_counter()
            try:
                results[op.name] = op.run(results)
                error = None
            except Exception:  # an operation that raises is a failed operation
                error = traceback.format_exc(limit=3)
            seconds = time.perf_counter() - start
        after = speed_now()
        records.append({
            "name": op.name,
            "seconds": seconds - sum(meter.samples),
            "kernel_s": statistics.fmean(meter.samples + [before, after]),
            "fault": op.fault,
            "error": error,
            **op.info,
        })
        before = after
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for op, rec in zip(ops, records):
        if rec["error"]:
            rec.update(passed=False, digits=None, residual=None)
            continue
        try:
            outcome = op.check(results[op.name], results)
        except Exception:  # a check that cannot read the output fails it
            outcome = {"passed": False, "digits": None, "residual": None,
                       "check_error": traceback.format_exc(limit=3)}
        rec.update({k: _finite(v) if not isinstance(v, list) else [_finite(x) for x in v]
                    for k, v in outcome.items()})
    try:
        controls = control(ops, results)
    except Exception:
        controls = {"error": traceback.format_exc(limit=3)}
    out = {
        "ops": records,
        "controls": controls,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        out["layers"] = tracer.layer_metrics()
        with open(args.trace, "w") as fh:
            json.dump(tracer.tree(), fh)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
