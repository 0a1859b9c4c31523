import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtstream.stats import (MIN_STANDARDIZE_N, SD_EPSILON, Z_CLAMP, RunningStats, VectorStats,
                            unstandardize)


class Welford:
    """Reference statistics of one variable, one value at a time: the
    Welford update, the sample variance, and the exact (ungated, unclamped)
    z-score and its inverse. `VectorStats` must match it bit for bit."""

    def __init__(self):
        self.n = 0
        self.sum = 0.0
        self.m2 = 0.0

    def update(self, v: float) -> None:
        if self.n == 0:
            self.n = 1
            self.sum += v
            return
        mean_old = self.sum / self.n
        self.n += 1
        self.sum += v
        # m2 accumulates sum((v - mean)^2) via (v - old mean)(v - new mean)
        self.m2 += (v - mean_old) * (v - self.sum / self.n)

    @property
    def mean(self) -> float:
        return self.sum / self.n if self.n else 0.0

    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0 for n < 2; never negative."""
        if self.n < 2:
            return 0.0
        return max(self.m2 / (self.n - 1), 0.0)

    def sd(self) -> float:
        return math.sqrt(self.variance())

    def zscore(self, v: float) -> float:
        """(v - mean)/sd; 0 when the deviation is degenerate (n < 2 or sd ~ 0)."""
        n = self.n
        if n < 2 or self.m2 <= 0.0:
            return 0.0
        s = math.sqrt(self.m2 / (n - 1))
        if s < SD_EPSILON:
            return 0.0
        return (v - self.sum / n) / s

    def inverse_zscore(self, z: float) -> float:
        """The value whose z-score is `z`: the mean where the deviation is
        degenerate, and 0 with no data at all."""
        n = self.n
        if n == 0:
            return 0.0
        if n < 2 or self.m2 <= 0.0:
            return self.sum / n
        s = math.sqrt(self.m2 / (n - 1))
        if s < SD_EPSILON:
            return self.sum / n
        return z * s + self.sum / n

    def state(self) -> tuple:
        return (self.n, self.sum, self.m2)


def filled(values):
    rs = Welford()
    for v in values:
        rs.update(v)
    return rs


class TestUpdate:
    def test_single_value(self):
        rs = filled([3.0])
        assert rs.state() == (1, 3.0, 0.0)

    def test_two_values(self):
        rs = filled([0.0, 2.0])
        assert rs.state() == (2, 2.0, 2.0)

    def test_large_normal_sample_mean(self):
        rng = np.random.default_rng(42)
        rs = Welford()
        for v in rng.standard_normal(1_000_000).tolist():
            rs.update(v)
        assert abs(rs.mean) < 0.01


class TestVariance:
    def test_pair(self):
        assert filled([0.0, 2.0]).variance() == pytest.approx(2.0)

    def test_degenerate_single(self):
        assert filled([5.0]).variance() == 0.0
        assert Welford().variance() == 0.0

    def test_four_values(self):
        assert filled([0.0, 0.0, 2.0, 2.0]).variance() == pytest.approx(4.0 / 3.0)

    def test_never_negative(self):
        rs = filled([1e8] * 1000)
        assert rs.variance() >= 0.0


class TestZScore:
    def test_pair_upper_point(self):
        rs = filled([0.0, 2.0])
        assert rs.zscore(2.0) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)

    def test_constant_stream_degenerates_to_zero(self):
        rs = filled([7.0] * 50)
        assert rs.zscore(123.0) == 0.0

    def test_mean_maps_to_zero(self):
        rs = filled([1.0, 2.0, 3.0, 10.0])
        assert rs.zscore(rs.mean) == pytest.approx(0.0, abs=1e-12)


class TestInverseZScore:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        rs = filled(rng.uniform(-10, 10, size=100).tolist())
        for v in (-3.0, 0.0, 4.25):
            assert rs.inverse_zscore(rs.zscore(v)) == pytest.approx(v, abs=1e-9)

    def test_zero_maps_to_mean(self):
        rs = filled([1.0, 5.0])
        assert rs.inverse_zscore(0.0) == pytest.approx(3.0)

    def test_pair_inverse(self):
        rs = filled([0.0, 2.0])
        assert rs.inverse_zscore(0.70711) == pytest.approx(2.0, abs=1e-4)

    def test_degenerate_cases(self):
        assert Welford().inverse_zscore(1.5) == 0.0
        assert filled([4.0]).inverse_zscore(1.5) == 4.0
        assert filled([4.0, 4.0, 4.0]).inverse_zscore(1.5) == 4.0


class TestIncrementalEqualsBatch:
    def test_random_sequences(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            length = int(rng.integers(2, 500))
            data = rng.uniform(-100, 100, size=length)
            rs = filled(data.tolist())
            assert rs.mean == pytest.approx(float(np.mean(data)), rel=1e-9)
            assert rs.variance() == pytest.approx(float(np.var(data, ddof=1)), rel=1e-9)

    def test_second_moment_invariant(self):
        rng = np.random.default_rng(13)
        vs = VectorStats(0, [], 1)
        for v in rng.uniform(-5, 5, size=500).tolist():
            vs.learn((), (v,), standardize=False)
        n, total, sum_sq = vs.moments()
        assert sum_sq >= total * total / n - 1e-9 * abs(sum_sq)


class TestShiftStability:
    def test_large_offset_leaves_variance_alone(self):
        # naive sum-of-squares accumulation would lose ~3 digits here
        rng = np.random.default_rng(17)
        data = rng.uniform(-1, 1, size=1000)
        shift = 1e5
        base = filled(data.tolist())
        moved = filled((data + shift).tolist())
        assert moved.mean - base.mean == pytest.approx(shift, rel=1e-9)
        assert moved.variance() == pytest.approx(base.variance(), rel=1e-6)


class TestVectorStats:
    def test_target_counts_stay_equal(self):
        vs = VectorStats(3, [0, 2], 2)
        vs.learn((0.5, 1, None), (1.0, 2.0))
        vs.learn((None, 0, 0.5), (3.0, 4.0))
        assert [rs.n for rs in vs.targets] == [2, 2]
        assert [vs.features[0].n, vs.features[2].n] == [1, 1]
        assert vs.n_seen == 2

    def test_nominal_slots_and_missing_standardize_to_zero(self):
        vs = VectorStats(3, [0, 2], 1)
        for v in (1.0, 2.0, 3.0):
            vs.learn((v, 1, 2 * v), (0.0,))
        std = vs.standardize_features([2.0, None, None])
        assert std[0] == pytest.approx(0.0)
        assert std[1] == 0.0  # nominal slot
        assert std[2] == 0.0  # missing value


class TestMomentColumn:
    """A leaf's targets leave as a (1 + 2d) moment column and a child's
    targets start from one."""

    def test_seed_targets_restores_moments(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            data = rng.normal(3.0, 2.0, size=(int(rng.integers(2, 300)), 3))
            source = VectorStats(1, [0], 3)
            for row in data.tolist():
                source.learn((None,), row, standardize=False)
            column = source.moments()
            assert column[0] == float(len(data))
            seeded = VectorStats(1, [0], 3)
            seeded.seed_targets(column)
            assert seeded.moments()[:4] == column[:4]  # n and the three sums, exactly
            for rs, original in zip(seeded.targets, source.targets):
                assert rs.state()[2] == pytest.approx(original.state()[2], rel=1e-9)
            assert seeded.features[0].state() == (0, 0.0, 0.0)

    def test_empty_column_leaves_the_statistics_empty(self):
        empty = VectorStats(2, [0, 1], 2)
        column = empty.moments()
        assert column == [0.0, 0.0, 0.0, 0.0, 0.0]
        seeded = VectorStats(2, [0, 1], 2)
        seeded.seed_targets(column)
        assert seeded.state() == empty.state()
        assert seeded.n_seen == 0


def _clamped(z):
    return Z_CLAMP if z > Z_CLAMP else (-Z_CLAMP if z < -Z_CLAMP else z)


# offsets up to 1e8, zero spread (repeats), signed zeros, tiny spreads
_BASES = st.sampled_from([0.0, -0.0, 1.0, -3.5, 1e3, 1e8, -1e8])
_STEPS = st.sampled_from([0.0, -0.0, 1e-9, 0.25, -1.0, 7.0, 1e4])


@st.composite
def _rows(draw):
    """(features, targets) rows over 3 features (slot 1 nominal) and 2
    targets; numeric values may be missing."""
    n = draw(st.integers(1, 40))
    bases = [draw(_BASES) for _ in range(4)]
    rows = []
    for _ in range(n):
        f0 = draw(st.one_of(st.none(), _STEPS.map(lambda v, b=bases[0]: b + v)))
        f2 = draw(st.one_of(st.none(), _STEPS.map(lambda v, b=bases[1]: b + v)))
        nominal = draw(st.one_of(st.none(), st.integers(0, 2)))
        y = (bases[2] + draw(_STEPS), bases[3] + draw(_STEPS))
        rows.append(((f0, nominal, f2), y))
    return rows


def reference_state(features, targets):
    """`VectorStats.state()` spelled from Welford oracles (None for a
    nominal slot)."""
    return (tuple(None if w is None else w.state() for w in features),
            tuple(w.state() for w in targets))


class TestFusedLearn:
    """`VectorStats.learn` is the `Welford` update per variable followed by
    the gated, clamped z-scores of the updated state, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(rows=_rows())
    def test_learn_equals_update_then_zscore(self, rows):
        fused = VectorStats(3, [0, 2], 2)
        features_ref = [Welford(), None, Welford()]
        targets_ref = [Welford(), Welford()]
        for features, targets in rows:
            x_std, y_std = fused.learn(features, targets)
            expect_x = []
            for rs, v in zip(features_ref, features):
                if rs is None or v is None:
                    expect_x.append(0.0)
                    continue
                rs.update(v)
                expect_x.append(_clamped(rs.zscore(v)) if rs.n >= MIN_STANDARDIZE_N else 0.0)
            expect_y = []
            for rs, v in zip(targets_ref, targets):
                rs.update(v)
                expect_y.append(_clamped(rs.zscore(v)))
            assert repr((x_std, y_std)) == repr((expect_x, expect_y))
            assert repr(x_std) == repr(fused.standardize_features(features))
            assert repr(fused.state()) == repr(reference_state(features_ref, targets_ref))

    @settings(max_examples=50, deadline=None)
    @given(rows=_rows())
    def test_unstandardized_learn_updates_the_same_state(self, rows):
        fused = VectorStats(3, [0, 2], 2)
        plain = VectorStats(3, [0, 2], 2)
        for features, targets in rows:
            fused.learn(features, targets)
            assert plain.learn(features, targets, standardize=False) is None
        assert repr(plain.state()) == repr(fused.state())

    def test_first_negative_zero_sums_like_update(self):
        vs = VectorStats(1, [0], 1)
        vs.learn((-0.0,), (-0.0,))
        rs = filled([-0.0])
        assert repr(vs.features[0].state()) == repr(vs.targets[0].state()) == repr(rs.state())


class TestTargetScales:
    """`unstandardize` over `VectorStats.target_scales` is
    `Welford.inverse_zscore` on every branch: no data, one value, zero
    spread, spread below SD_EPSILON, and the regular case."""

    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.tuples(_STEPS, _STEPS), max_size=12), base=_BASES,
           zs=st.tuples(st.sampled_from([0.0, -0.0, 1.5, -10.0, 1e300, math.inf]),
                        st.floats(allow_nan=False, allow_infinity=False)))
    def test_scales_invert_like_inverse_zscore(self, values, base, zs):
        vs = VectorStats(0, [], 2)
        reference = [Welford(), Welford()]
        for a, b in values:
            row = (base + a, base + a + b * 1e-20)  # spreads below SD_EPSILON
            vs.learn((), row, standardize=False)
            for rs, v in zip(reference, row):
                rs.update(v)
        assert repr(vs.state()) == repr(reference_state([], reference))
        means, sds = vs.target_scales()
        expect = [rs.inverse_zscore(z) for rs, z in zip(reference, zs)]
        assert repr(unstandardize(zs, means, sds)) == repr(expect)
        assert repr(means) == repr([rs.mean for rs in reference])

    def test_every_branch_is_reached(self):
        reference = [filled(values) for values in
                     ((), (4.0,), (2.0, 2.0, 2.0), (1.0, 1.0 + 2e-16), (1.0, 3.0))]
        tiny, spread = reference[3:]
        vs = VectorStats(0, [], 5)
        vs.targets = [RunningStats(*rs.state()) for rs in reference]
        means, sds = vs.target_scales()
        assert sds[:4] == [None] * 4 and sds[4] == spread.sd()
        assert tiny.m2 > 0.0  # the SD_EPSILON branch, not the m2 <= 0 one
        zs = [1.5] * 5
        assert unstandardize(zs, means, sds) == [rs.inverse_zscore(1.5) for rs in reference]
