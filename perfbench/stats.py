"""Arithmetic the benchmark reports with: percentiles, the tail percentile
choice, the geometric mean and failure counting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

# candidate tail percentiles, highest first
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)
# a tail percentile needs at least this many samples beyond it
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """p-th percentile with linear interpolation between order statistics
    (rank p/100 * (n - 1), the numpy default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    rank = p / 100.0 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least ten of n samples beyond it.

    With fewer than forty samples no candidate qualifies as a tail and the
    median is returned instead.
    """
    for p in TAIL_CANDIDATES:
        if n * (100 - Fraction(str(p))) >= 100 * TAIL_MIN_BEYOND:
            return p
    return 50.0


def geometric_mean(values) -> float:
    """Geometric mean of positive values, computed in log space so that
    widths spanning hundreds of orders of magnitude neither overflow nor
    underflow."""
    logs = []
    for v in values:
        if not v > 0:
            raise ValueError(f"geometric mean needs positive values, got {v!r}")
        logs.append(math.log(v))
    if not logs:
        raise ValueError("geometric mean of an empty sample")
    return math.exp(math.fsum(logs) / len(logs))


@dataclass
class Tally:
    """Attempted and failed operations.

    An operation fails when it raises or its output check finds a problem.
    Failures of operations marked as known faults are expected; any other
    failure makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    expected: dict[str, int] = field(default_factory=dict)
    fault_gone: set[str] = field(default_factory=set)

    def record(self, label: str, problems: list[str], fault: str | None) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if fault is None:
                self.unexpected.append(f"{label}: {'; '.join(problems)}")
            else:
                self.expected[fault] = self.expected.get(fault, 0) + 1
        elif fault is not None:
            self.fault_gone.add(fault)

    @property
    def correct(self) -> bool:
        return not self.unexpected
