"""Structured verification results shared by library checks and the CLI.

``timed_report`` is the one way a check builds its ``VerificationReport``:
it times the check's body, which returns the verdict (passed, residual,
detail).  ``difference_report`` and ``relative_report`` are the two
verdicts several checks share: lhs - rhs entries that must vanish, and a
measured value against a closed form.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    """Outcome of one identity check.

    ``exact`` is True when the comparison was performed in exact arithmetic
    and matched identically; ``residual`` carries the max error otherwise
    (None for exact checks).  ``passed`` is the overall verdict.
    """

    identity: str
    params: dict
    exact: bool
    residual: object = None
    runtime_ms: int = 0
    passed: bool = True
    detail: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        residual = None if self.residual is None else float(self.residual)
        return {
            "identity": self.identity,
            "params": self.params,
            "exact": self.exact,
            "residual": residual,
            "runtime_ms": int(self.runtime_ms),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def timed_report(identity: str, params: dict, exact: bool, body) -> VerificationReport:
    """Run ``body() -> (passed, residual, detail)`` and report it with its
    wall-clock time in milliseconds."""
    t0 = time.perf_counter()
    passed, residual, detail = body()
    runtime_ms = int(round((time.perf_counter() - t0) * 1000))
    return VerificationReport(identity, params, exact, residual, runtime_ms, passed, detail)


def difference_report(identity: str, params: dict, exact: bool, differences):
    """Report ``differences()``, an iterable of lhs - rhs entries: exact mode
    passes iff every difference is zero, float mode iff the largest
    |difference| (the residual, reported as a float) is below 1e-10; the
    Grassmann checks form their differences at float inputs' binary values."""

    def body():
        diffs = differences()
        if exact:
            return all(d == 0 for d in diffs), None, {}
        residual = max((abs(d) for d in diffs), default=0.0)
        return residual < 1e-10, float(residual), {}

    return timed_report(identity, params, exact, body)


def relative_report(identity: str, params: dict, measure, rel_tol: float):
    """Report ``measure() -> (measured, target)``, a float value against its
    closed form: the residual |measured - target| / |target| must be below
    ``rel_tol``."""

    def body():
        measured, target = measure()
        residual = abs(measured - target) / abs(target)
        return residual < rel_tol, residual, {"measured": measured, "target": target}

    return timed_report(identity, params, False, body)
