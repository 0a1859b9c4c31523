"""Confidence-bound arithmetic and the split/no-split decision.

A leaf splits once the running mean of second-best/best merit ratios, plus the
concentration bound computed from the examples the leaf has seen, drops below
1 - or once the bound itself shrinks below the tie-break threshold, meaning
the top candidates are effectively interchangeable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .observers import SplitSuggestion


@dataclass(frozen=True)
class HoeffdingParams:
    """delta: confidence level for the bound; tau: tie-break threshold;
    grace_period: examples a leaf accumulates between split attempts."""

    delta: float = 1e-7
    tau: float = 0.05
    grace_period: int = 200

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not self.tau >= 0.0:  # also rejects NaN
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if self.grace_period < 1:
            raise ValueError(f"grace_period must be >= 1, got {self.grace_period}")


def hoeffding_bound(n: int, delta: float) -> float:
    """Deviation bound sqrt(ln(2/delta) / (2n)) for a mean of n observations
    of a [0, 1] variable."""
    if n < 1:
        raise ValueError("the bound needs at least one observation")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


class MeritRatio:
    """Running mean of second-best/best merit ratios observed at one leaf."""

    __slots__ = ("total", "n_ratio")

    def __init__(self):
        self.total = 0.0
        self.n_ratio = 0

    def observe(self, ratio: float) -> None:
        self.total += ratio
        self.n_ratio += 1

    @property
    def mean(self) -> float:
        return self.total / self.n_ratio if self.n_ratio else 0.0

    def state(self) -> tuple:
        return (self.total, self.n_ratio)


def decide_split(
    best: SplitSuggestion | None,
    second: SplitSuggestion | None,
    ratio: MeritRatio,
    params: HoeffdingParams,
    n_seen: int,
) -> SplitSuggestion | None:
    """Record one merit-ratio observation and decide whether to split.

    Returns the winning suggestion, or None to keep waiting. A missing or
    negative second-best merit counts as 0 (a lone informative feature can
    still win); a best merit of 0 means there is no variance left to reduce,
    so the attempt is skipped without recording a ratio. The bound is
    evaluated at the leaf's seen-example count.
    """
    if best is None or best.merit <= 0.0:
        return None
    h_sb = 0.0
    if second is not None:
        h_sb = max(second.merit, 0.0)
    ratio.observe(h_sb / best.merit)
    xi = hoeffding_bound(n_seen, params.delta)
    if ratio.mean + xi < 1.0 or xi < params.tau:
        return best
    return None
