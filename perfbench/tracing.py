"""Per-layer tracing from outside the library.

``Tracer.install`` wraps public functions of the ``bcq`` modules in every
loaded namespace that binds them (and the two ``LaurentPoly`` methods on the
class).  Each call becomes a span; spans are aggregated in memory into a
call tree keyed by the path of span names, and each layer's self time is
its span time minus the time of the traced spans it called.  Nothing in
``bcq`` is edited; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import inspect
import sys
import time

# layer metric prefix -> (module, attribute) of each public callable timed
LAYERS = {
    "polyring.evaluate": [("bcq.polyring", "LaurentPoly.evaluate")],
    "polyring.orbit_sum": [("bcq.polyring", "orbit_sum_W")],
    "polyring.basis": [
        ("bcq.polyring", n)
        for n in ("expand_in_basis", "rebuild_from_basis", "to_generator_coords", "from_generator_coords")
    ],
    "polyring.mul": [("bcq.polyring", "LaurentPoly.__mul__"), ("bcq.polyring", "schur")],
    "weights.downset": [("bcq.weights", "dominant_downset")],
    "weights.orbit": [("bcq.weights", "weyl_orbit_tuples"), ("bcq.weights", "weyl_orbit")],
    "linalg.solve": [("bcq.linalg", "solve_linear")],
    "linalg.matrix": [
        ("bcq.linalg", n) for n in ("mat_mul", "mat_inverse", "mat_kron", "partial_transpose_first")
    ],
    "koornwinder.poly": [("bcq.koornwinder", "koornwinder_poly")],
    "koornwinder.dk_apply": [("bcq.koornwinder", "dk_apply")],
    "koornwinder.dk_evaluate": [("bcq.koornwinder", "dk_evaluate")],
    "qseries.qpochhammer": [("bcq.qseries", "qpochhammer")],
    "qseries.qgamma": [("bcq.qseries", "log_qgamma"), ("bcq.qseries", "qgamma")],
    "awmeasure.full_inner": [
        ("bcq.awmeasure", n) for n in ("full_inner", "continuous_gram", "normalization_check")
    ],
    "awmeasure.w2": [("bcq.awmeasure", "w2_value")],
    "awmeasure.residue": [("bcq.awmeasure", "residue_weight")],
    "awmeasure.norm_K": [("bcq.awmeasure", "norm_K")],
    "qjacobi.inner": [
        ("bcq.qjacobi", n)
        for n in ("big_inner", "little_inner", "normalization_check", "norm_big", "norm_little")
    ],
    "qjacobi.poly": [("bcq.qjacobi", "big_jacobi_poly"), ("bcq.qjacobi", "little_jacobi_poly")],
    "limits.sweep": [
        ("bcq.limits", n) for n in ("limit_check_big", "limit_check_little", "norm_limit_check")
    ],
    "limits.rescaled": [("bcq.limits", "rescaled_generator_coeffs")],
    "qgrass.matrix_checks": [
        ("bcq.qgrass", n)
        for n in (
            "qybe_check", "reflection_check", "refalt_check", "r_matrix", "r_minus",
            "r_plus", "r21_minus", "j_sigma", "j_tilde_sigma", "j_infty",
        )
    ],
    "qgrass.intertwiner": [
        ("bcq.qgrass", n)
        for n in ("psi_hat_r", "theta_hat_r", "principal_term", "intertwiner_check", "theta_constant_check")
    ],
    "qgrass.branching": [
        ("bcq.qgrass", n) for n in ("gelfand_check", "spherical_multiplicity", "branching_coeffs")
    ],
}

# (metric name, unit, better); every name is reported on every workload
PER_LAYER = [
    ("polyring.evaluate.calls", "count", "lower"),
    ("polyring.evaluate.self_s", "s", "lower"),
    ("polyring.orbit_sum.calls", "count", "lower"),
    ("polyring.basis.self_s", "s", "lower"),
    ("polyring.mul.calls", "count", "lower"),
    ("polyring.mul.self_s", "s", "lower"),
    ("weights.downset.calls", "count", "lower"),
    ("weights.downset.self_s", "s", "lower"),
    ("weights.orbit.calls", "count", "lower"),
    ("linalg.solve.calls", "count", "lower"),
    ("linalg.solve.self_s", "s", "lower"),
    ("linalg.matrix.self_s", "s", "lower"),
    ("koornwinder.poly.calls", "count", "lower"),
    ("koornwinder.poly.self_s", "s", "lower"),
    ("koornwinder.dk_apply.calls", "count", "lower"),
    ("koornwinder.dk_apply.self_s", "s", "lower"),
    ("koornwinder.dk_evaluate.calls", "count", "lower"),
    ("koornwinder.solves_per_dk_apply", "ratio", "lower"),
    ("koornwinder.gram_fallbacks", "count", "lower"),
    ("koornwinder.params_reuse", "ratio", "higher"),
    ("qseries.qpochhammer.calls", "count", "lower"),
    ("qseries.qpochhammer.self_s", "s", "lower"),
    ("qseries.qgamma.self_s", "s", "lower"),
    ("awmeasure.full_inner.calls", "count", "lower"),
    ("awmeasure.full_inner.self_s", "s", "lower"),
    ("awmeasure.w2.calls", "count", "lower"),
    ("awmeasure.residue.calls", "count", "lower"),
    ("awmeasure.residue.self_s", "s", "lower"),
    ("awmeasure.norm_K.calls", "count", "lower"),
    ("qjacobi.inner.calls", "count", "lower"),
    ("qjacobi.inner.self_s", "s", "lower"),
    ("qjacobi.poly.calls", "count", "lower"),
    ("qjacobi.poly.self_s", "s", "lower"),
    ("qjacobi.jackson_nodes", "count", "lower"),
    ("limits.sweep.points", "count", "lower"),
    ("limits.rescaled.self_s", "s", "lower"),
    ("qgrass.matrix_checks.self_s", "s", "lower"),
    ("qgrass.intertwiner.self_s", "s", "lower"),
    ("qgrass.branching.calls", "count", "lower"),
    ("qgrass.branching.self_s", "s", "lower"),
    ("trace.ops_per_s_traced", "1/s", "higher"),
    ("trace.ops_per_s_untraced", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class _Node:
    __slots__ = ("calls", "total", "self_time", "children")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.children = {}

    def to_dict(self, name):
        return {
            "name": name,
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "children": [c.to_dict(k) for k, c in sorted(self.children.items())],
        }


class Tracer:
    """Span tree plus the layer counters of one pass."""

    def __init__(self):
        self.root = _Node()
        # frames: [node, layer, start, child_time]
        self._stack = [[self.root, None, 0.0, 0.0]]
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = {"solves_in_dk_apply": 0, "gram_fallbacks": 0, "params_reused": 0,
                       "jackson_nodes": 0, "sweep_points": 0}
        self._dk_depth = 0
        self._jacobi_depth = 0
        self._params_seen = set()
        self._restore = []

    # -- spans ---------------------------------------------------------------
    def _wrap(self, layer, label, fn):
        tracer = self
        stack = self._stack
        hook = self._hooks().get(layer)
        signature = inspect.signature(fn) if hook else None

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            node = parent[0].children.get(label)
            if node is None:
                node = parent[0].children[label] = _Node()
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments)
            frame = [node, layer, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame[2]
                stack.pop()
                own = elapsed - frame[3]
                node.calls += 1
                node.total += elapsed
                node.self_time += own
                parent[3] += elapsed
                tracer.calls[layer] += 1
                tracer.self_s[layer] += own
                if layer == "koornwinder.dk_apply":
                    tracer._dk_depth -= 1
                elif layer in ("qjacobi.inner", "qjacobi.poly"):
                    tracer._jacobi_depth -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self):
        return {
            "koornwinder.poly": self._on_koornwinder_poly,
            "koornwinder.dk_apply": self._on_dk_apply,
            "linalg.solve": self._on_solve,
            "qjacobi.inner": self._on_jacobi,
            "qjacobi.poly": self._on_jacobi,
            "limits.sweep": self._on_sweep,
        }

    # -- counters, computed from the arguments of public calls ---------------
    def _on_koornwinder_poly(self, args):
        p = args["params"]
        key = (p.t0, p.t1, p.t2, p.t3, p.q, p.k)
        if key in self._params_seen:
            self.counts["params_reused"] += 1
        self._params_seen.add(key)
        if args["mode"] == "gram":
            self.counts["gram_fallbacks"] += 1

    def _on_dk_apply(self, args):
        self._dk_depth += 1

    def _on_solve(self, args):
        if self._dk_depth:
            self.counts["solves_in_dk_apply"] += 1

    def _on_jacobi(self, args):
        self._jacobi_depth += 1
        if self._jacobi_depth > 1:
            return
        params = args["params"]
        if "P" in args:
            l = args["P"].nvars
        elif args.get("l") is not None:
            l = args["l"]
        else:
            l = len(args["lam"])
        per_axis = args["trunc"].effective_n(float(params.q)) + 1
        if hasattr(params, "c"):
            per_axis *= 2
        self.counts["jackson_nodes"] += per_axis**l

    def _on_sweep(self, args):
        self.counts["sweep_points"] += len(args["sweep"].values)

    # -- installation --------------------------------------------------------
    def install(self):
        namespaces = [m.__dict__ for name, m in list(sys.modules.items())
                      if name == "bcq" or name.startswith("bcq.")]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(layer, attr, original))
                    self._restore.append((cls, meth, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(layer, f"{module_name[4:]}.{attr}", original)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is original:
                            ns[key] = wrapper
                            self._restore.append((ns, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------
    def layer_metrics(self) -> dict:
        out = {}
        for name, _unit, _better in PER_LAYER:
            layer, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.calls[layer]
            elif kind == "self_s":
                out[name] = self.self_s[layer]
        dk_calls = self.calls["koornwinder.dk_apply"]
        poly_calls = self.calls["koornwinder.poly"]
        out["koornwinder.solves_per_dk_apply"] = (
            self.counts["solves_in_dk_apply"] / dk_calls if dk_calls else 0.0
        )
        out["koornwinder.gram_fallbacks"] = self.counts["gram_fallbacks"]
        out["koornwinder.params_reuse"] = (
            self.counts["params_reused"] / poly_calls if poly_calls else 0.0
        )
        out["qjacobi.jackson_nodes"] = self.counts["jackson_nodes"]
        out["limits.sweep.points"] = self.counts["sweep_points"]
        return out

    def tree(self) -> dict:
        return self.root.to_dict("pass")
