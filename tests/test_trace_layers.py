"""Every callable the benchmark's per-layer tracer wraps must exist.

``perfbench/tracing.py`` names public ``bcq`` functions by (module,
attribute); removing or renaming one of them breaks ``--trace 1`` of the
benchmark, so the names are pinned here.
"""

import importlib.util
import sys
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
