"""Every callable the benchmark's per-layer tracer wraps must exist.

``perfbench/tracing.py`` names public ``bcq`` functions by (module,
attribute); removing or renaming one of them breaks ``--trace 1`` of the
benchmark, so the names are pinned here, and so are the argument names its hooks read.
"""

import importlib.util
import sys
from fractions import Fraction as F
from pathlib import Path

import bcq

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bcq_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracing = _tracing_module()
    for layer, targets in tracing.LAYERS.items():
        for module_name, attr in targets:
            target = importlib.import_module(module_name)
            for part in attr.split("."):
                target = getattr(target, part)
            assert callable(target), (layer, module_name, attr)


def test_tracer_installs_and_restores():
    tracing = _tracing_module()
    before = {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "bcq" or name.startswith("bcq.")
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bcq.qgrass.r_matrix is not before["bcq.qgrass"]["r_matrix"]
    finally:
        tracer.uninstall()
    for name, namespace in before.items():
        assert all(vars(sys.modules[name])[k] is v for k, v in namespace.items()), name


def test_hooks_read_the_arguments_of_each_layer():
    # the hooks read mode, params, trunc, P, l, lam and sweep by name: a
    # renamed argument raises in the wrapper (or in the call, for the l
    # passed by keyword) or moves a counter
    tracing = _tracing_module()
    koornwinder = bcq.KoornwinderParams(F(1, 5), F(-1, 7), F(1, 3), F(-2, 7), F(1, 4), 1)
    little = bcq.LittleJacobiParams(F(1, 2), F(1, 3), F(1, 4), 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        poly = bcq.koornwinder_poly((1,), koornwinder)
        bcq.koornwinder_poly((1,), koornwinder, mode="gram")
        bcq.dk_apply(poly, koornwinder)
        one = bcq.LaurentPoly.const(1, 1)
        bcq.little_inner(one, one, little)
        bcq.norm_little((1,), little)
        bcq.little_jacobi_poly((1,), little, l=1)
        bcq.limit_check_little((1,), little, bcq.EpsilonSweep((F(1, 10),)))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["koornwinder.gram_fallbacks"] == 1
    assert metrics["koornwinder.params_reuse"] > 0
    assert metrics["koornwinder.dk_apply.calls"] == 1
    # one axis of Jackson nodes for each of the four outermost q-Jacobi calls
    nodes = bcq.SumTruncation().effective_n(0.25) + 1
    assert metrics["qjacobi.jackson_nodes"] == 4 * nodes
    assert metrics["limits.sweep.points"] == 1
