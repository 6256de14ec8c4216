"""Residual bookkeeping and per-identity check reports.

Artifact-wide residual convention: for an identity LHS = RHS the residual is
max over the sample set of |LHS - RHS| / (1 + max(|LHS|, |RHS|)), taken
componentwise for vector and form values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ResidualAccumulator:
    """Collects the per-sample residuals of LHS/RHS pairs."""

    def __init__(self):
        self.samples = []
        self.max_abs = 0.0

    def add(self, lhs, rhs=0.0):
        """Record samples of lhs = rhs; returns the accumulator.

        A number or a 1-d sequence is one sample (a sequence's entries are
        its components); a 2-d array of shape (components, N) is N samples,
        one per column.  rhs broadcasts against lhs, so a scalar rhs is
        compared with every component.
        """
        lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
        if lhs.ndim < 2:
            lhs, rhs = lhs.reshape(-1, 1), rhs.reshape(-1, 1)
        dev = np.abs(lhs - rhs)
        rel = dev / (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))
        self.samples += np.fmax.reduce(rel, axis=0, initial=0.0).tolist()
        self.max_abs = max(self.max_abs, float(np.fmax.reduce(dev, axis=None, initial=0.0)))
        return self

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
        out = dict(vars(self))
        if not self.error:
            del out["error"]
        return out
