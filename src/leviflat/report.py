"""Residual bookkeeping and per-identity check reports.

Artifact-wide residual convention: for an identity LHS = RHS the residual is
max over the sample set of |LHS - RHS| / (1 + max(|LHS|, |RHS|)), taken
componentwise for vector and form values.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def relative_residual(lhs, rhs):
    """Componentwise normalized deviation of two floats or float sequences."""
    if not hasattr(lhs, "__len__"):
        lhs, rhs = [lhs], [rhs]
    worst = 0.0
    for a, b in zip(lhs, rhs):
        a, b = float(a), float(b)
        r = abs(a - b) / (1.0 + max(abs(a), abs(b)))
        if r > worst:
            worst = r
    return worst


def absolute_deviation(lhs, rhs):
    if not hasattr(lhs, "__len__"):
        lhs, rhs = [lhs], [rhs]
    return max((abs(float(a) - float(b)) for a, b in zip(lhs, rhs)), default=0.0)


class ResidualAccumulator:
    """Collects the per-sample residuals of LHS/RHS pairs."""

    def __init__(self):
        self.samples = []
        self.max_abs = 0.0

    def add(self, lhs, rhs=0.0):
        """Record one sample; a scalar rhs is compared with every component
        of a sequence lhs."""
        if hasattr(lhs, "__len__") and not hasattr(rhs, "__len__"):
            rhs = [rhs] * len(lhs)
        rel = relative_residual(lhs, rhs)
        self.samples.append(rel)
        dev = absolute_deviation(lhs, rhs)
        if dev > self.max_abs:
            self.max_abs = dev
        return rel

    def merge(self, other):
        """Append another accumulator's samples in order."""
        self.samples += other.samples
        self.max_abs = max(self.max_abs, other.max_abs)

    @property
    def max_rel(self):
        return max(self.samples, default=0.0)


@dataclass
class CheckReport:
    """Residual statistics for one identity on one scenario."""

    suite: str
    identity: str
    anchor: str
    samples: list = field(default_factory=list)
    max_abs: float = 0.0
    max_rel: float = 0.0
    tolerance: float = 0.0
    passed: bool = False
    seed: int = 0
    error: str = ""

    def to_dict(self):
        out = {
            "suite": self.suite,
            "identity": self.identity,
            "anchor": self.anchor,
            "samples": self.samples,
            "max_abs": self.max_abs,
            "max_rel": self.max_rel,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "seed": self.seed,
        }
        if self.error:
            out["error"] = self.error
        return out
