"""Incremental sufficient statistics: variance, mean, and z-score scaling.

RunningStats accumulates one variable; VectorStats bundles the per-feature and
per-target statistics a leaf keeps. Updates are Welford-style so that variance
stays accurate under large constant offsets; the raw second moment is exposed
as a derived property.
"""

from __future__ import annotations

import math

SD_EPSILON = 1e-12  # below this the standard deviation is treated as zero

# Guards for the leaf-model input pipeline: standard deviations estimated from
# fewer than MIN_STANDARDIZE_N examples are unreliable enough to blow up the
# delta rule (a fresh leaf's first few values can make sd ~ 1e-3 and z-scores
# in the hundreds), so model inputs stay at 0 until then and are clamped to
# +/- Z_CLAMP afterwards. RunningStats.zscore itself is exact and unclamped.
MIN_STANDARDIZE_N = 4
Z_CLAMP = 10.0


class RunningStats:
    __slots__ = ("n", "sum", "_m2")

    def __init__(self, n: int = 0, total: float = 0.0, m2: float = 0.0):
        self.n = n
        self.sum = total
        self._m2 = m2

    def update(self, v: float) -> None:
        """Fold one finite value into the statistics."""
        if self.n == 0:
            self.n = 1
            self.sum += v
            return
        mean_old = self.sum / self.n
        self.n += 1
        self.sum += v
        # m2 accumulates sum((v - mean)^2) via (v - old mean)(v - new mean)
        self._m2 += (v - mean_old) * (v - self.sum / self.n)

    @property
    def mean(self) -> float:
        return self.sum / self.n if self.n else 0.0

    @property
    def sum_sq(self) -> float:
        """Raw second moment, reconstructed from the centered accumulator."""
        if self.n == 0:
            return 0.0
        return self._m2 + self.sum * self.sum / self.n

    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0 for n < 2; never negative."""
        if self.n < 2:
            return 0.0
        return max(self._m2 / (self.n - 1), 0.0)

    def sd(self) -> float:
        return math.sqrt(self.variance())

    def zscore(self, v: float) -> float:
        """(v - mean)/sd; 0 when the deviation is degenerate (n < 2 or sd ~ 0)."""
        n = self.n
        if n < 2 or self._m2 <= 0.0:
            return 0.0
        s = math.sqrt(self._m2 / (n - 1))
        if s < SD_EPSILON:
            return 0.0
        return (v - self.sum / n) / s

    def inverse_zscore(self, z: float) -> float:
        """Map a standardized value back to the original scale.

        Degenerate deviation collapses to the mean; with no data at all the
        result is 0 (the cold-start prediction)."""
        n = self.n
        if n == 0:
            return 0.0
        if n < 2 or self._m2 <= 0.0:
            return self.sum / n
        s = math.sqrt(self._m2 / (n - 1))
        if s < SD_EPSILON:
            return self.sum / n
        return z * s + self.sum / n

    def copy(self) -> "RunningStats":
        return RunningStats(self.n, self.sum, self._m2)

    @classmethod
    def from_moments(cls, n: float, total: float, sum_sq: float) -> "RunningStats":
        """Build from raw (n, sum, sum of squares), e.g. observer aggregates."""
        m2 = max(sum_sq - total * total / n, 0.0) if n > 0 else 0.0
        return cls(int(n), total, m2)

    def state(self) -> tuple:
        return (self.n, self.sum, self._m2)

    def __repr__(self):
        return f"RunningStats(n={self.n}, mean={self.mean:.6g}, var={self.variance():.6g})"


def unstandardize(z_values, means, sds) -> list[float]:
    """Map standardized predictions back with `VectorStats.target_scales`;
    equal to `RunningStats.inverse_zscore` target by target."""
    return [m if s is None else z * s + m for z, m, s in zip(z_values, means, sds)]


class VectorStats:
    """Per-variable RunningStats for a leaf: numeric features and all targets.

    Nominal feature slots stay None (standardization applies to numeric input
    only); every instance contributes to every target, so target counts agree.
    The z-scores of `learn` and `standardize_features` feed the leaf models
    and therefore gate and clamp (see MIN_STANDARDIZE_N / Z_CLAMP); raw
    z-scores are available on the component RunningStats.
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
        """Fold one instance into the statistics in one pass: the Welford step
        of `RunningStats.update` for every target and every present numeric
        feature. With `standardize`, return the leaf-model inputs read from
        the updated state: `standardize_features(features)` and the targets'
        z-scores clamped to +/- Z_CLAMP. Otherwise return None."""
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
                    rs.sum += v  # 0.0 + v, as update does: a first -0.0 sums to 0.0
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
        """Per-target (means, standard deviations) for mapping standardized
        predictions back, by the branches of `RunningStats.inverse_zscore`:
        the mean is 0.0 before any data, and the deviation is None where it
        is degenerate, so the inverse is the mean (see `unstandardize`)."""
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

    def state(self) -> tuple:
        return (
            tuple(rs.state() if rs is not None else None for rs in self.features),
            tuple(rs.state() for rs in self.targets),
        )
