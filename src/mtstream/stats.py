"""Incremental sufficient statistics: variance, mean, and z-score scaling.

A leaf's VectorStats keeps one RunningStats record (count, sum, centered
second moment) per numeric feature and per target. `VectorStats.learn` is the
one Welford update, so variance stays accurate under large constant offsets;
`standardize_features`, `learn` and `target_scales` read the records as
z-scores and scales, and only `VectorStats.moments` and `seed_targets`
convert the targets' records to and from raw moments.
"""

from __future__ import annotations

import math

SD_EPSILON = 1e-12  # below this the standard deviation is treated as zero

# Guards for the leaf-model input pipeline: standard deviations estimated from
# fewer than MIN_STANDARDIZE_N examples are unreliable enough to blow up the
# delta rule (a fresh leaf's first few values can make sd ~ 1e-3 and z-scores
# in the hundreds), so model inputs stay at 0 until then and are clamped to
# +/- Z_CLAMP afterwards. Every z-score read here is such a model input.
MIN_STANDARDIZE_N = 4
Z_CLAMP = 10.0


class RunningStats:
    """One variable's record: count, sum, and the centered second moment
    sum((v - mean)^2); `VectorStats` updates and reads it."""

    __slots__ = ("n", "sum", "_m2")

    def __init__(self, n: int = 0, total: float = 0.0, m2: float = 0.0):
        self.n = n
        self.sum = total
        self._m2 = m2

    def state(self) -> tuple:
        return (self.n, self.sum, self._m2)


def unstandardize(z_values, means, sds) -> list[float]:
    """Map standardized predictions back with `VectorStats.target_scales`:
    z * sd + mean per target, or the mean where the deviation is
    degenerate."""
    return [m if s is None else z * s + m for z, m, s in zip(z_values, means, sds)]


class VectorStats:
    """Per-variable RunningStats for a leaf: numeric features and all targets.

    Nominal feature slots stay None (standardization applies to numeric input
    only); every instance contributes to every target, so target counts agree.
    The z-scores of `learn` and `standardize_features` feed the leaf models
    and therefore gate and clamp (see MIN_STANDARDIZE_N / Z_CLAMP).
    """

    __slots__ = ("features", "targets")

    def __init__(self, n_features: int, numeric_indices, n_targets: int):
        numeric = set(numeric_indices)
        self.features = [RunningStats() if i in numeric else None for i in range(n_features)]
        self.targets = [RunningStats() for _ in range(n_targets)]

    @property
    def n_seen(self) -> int:
        return self.targets[0].n

    def learn(self, features, targets, standardize: bool = True):
        """Fold one instance into the statistics in one pass: a Welford step
        (n, sum and m2 += (v - old mean)(v - new mean)) for every target and
        every present numeric feature. With `standardize`, return the
        leaf-model inputs read from the updated state:
        `standardize_features(features)` and the targets' z-scores, 0 where
        the deviation is degenerate and clamped to +/- Z_CLAMP. Otherwise
        return None."""
        sqrt = math.sqrt
        x_std = []
        y_std = []
        # a target's z-score needs n >= 2, which every non-first update meets
        for slots, values, min_n, out in ((self.features, features, MIN_STANDARDIZE_N, x_std),
                                          (self.targets, targets, 2, y_std)):
            for rs, v in zip(slots, values):
                if rs is None or v is None:
                    out.append(0.0)
                    continue
                n = rs.n
                if n == 0:
                    rs.n = 1
                    rs.sum += v  # 0.0 + v: a first -0.0 sums to 0.0
                    out.append(0.0)
                    continue
                total = rs.sum
                mean_old = total / n
                n += 1
                total += v
                rs.n = n
                rs.sum = total
                m2 = rs._m2 + (v - mean_old) * (v - total / n)
                rs._m2 = m2
                if not standardize or n < min_n or m2 <= 0.0:
                    out.append(0.0)
                    continue
                s = sqrt(m2 / (n - 1))
                if s < SD_EPSILON:
                    out.append(0.0)
                    continue
                z = (v - total / n) / s
                out.append(Z_CLAMP if z > Z_CLAMP else (-Z_CLAMP if z < -Z_CLAMP else z))
        return (x_std, y_std) if standardize else None

    def standardize_features(self, values) -> list[float]:
        """Clamped z-scores for one instance; missing and nominal slots map
        to 0, as do features seen fewer than MIN_STANDARDIZE_N times."""
        out = []
        sqrt = math.sqrt
        for rs, v in zip(self.features, values):
            if rs is None or v is None or rs.n < MIN_STANDARDIZE_N:
                out.append(0.0)
                continue
            m2 = rs._m2
            if m2 <= 0.0:
                out.append(0.0)
                continue
            n = rs.n
            s = sqrt(m2 / (n - 1))
            if s < SD_EPSILON:
                out.append(0.0)
                continue
            z = (v - rs.sum / n) / s
            out.append(Z_CLAMP if z > Z_CLAMP else (-Z_CLAMP if z < -Z_CLAMP else z))
        return out

    def target_scales(self) -> tuple[list[float], list]:
        """Per-target (means, sample standard deviations) for mapping
        standardized predictions back: the mean is 0.0 before any data, and
        the deviation is None where it is degenerate (fewer than two values,
        m2 <= 0, or below SD_EPSILON), so the inverse is the mean (see
        `unstandardize`)."""
        sqrt = math.sqrt
        means = []
        sds = []
        for rs in self.targets:
            n = rs.n
            if n == 0:
                means.append(0.0)
                sds.append(None)
                continue
            means.append(rs.sum / n)
            m2 = rs._m2
            if n < 2 or m2 <= 0.0:
                sds.append(None)
                continue
            s = sqrt(m2 / (n - 1))
            sds.append(None if s < SD_EPSILON else s)
        return means, sds

    def moments(self) -> list[float]:
        """The targets' (1 + 2d) moment column [n, sums, sums of squares]:
        the one form in which split statistics move, from a leaf to the
        observers' scans and from a winning split to its children."""
        targets = self.targets
        n = targets[0].n
        return [float(n), *(rs.sum for rs in targets),
                *(rs._m2 + rs.sum * rs.sum / n if n else 0.0 for rs in targets)]

    def seed_targets(self, column) -> None:
        """Start the target statistics from a moment column, as a split seeds
        a child; an empty column leaves them empty."""
        n = column[0]
        if n > 0:
            d = len(self.targets)
            self.targets = [RunningStats(int(n), total, max(sq - total * total / n, 0.0))
                            for total, sq in zip(column[1:1 + d], column[1 + d:])]

    def state(self) -> tuple:
        return (
            tuple(rs.state() if rs is not None else None for rs in self.features),
            tuple(rs.state() for rs in self.targets),
        )
