import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtstream.stats import (MIN_STANDARDIZE_N, Z_CLAMP, RunningStats, VectorStats,
                            unstandardize)


def filled(values):
    rs = RunningStats()
    for v in values:
        rs.update(v)
    return rs


class TestUpdate:
    def test_single_value(self):
        rs = filled([3.0])
        assert (rs.n, rs.sum, rs.sum_sq) == (1, 3.0, 9.0)

    def test_two_values(self):
        rs = filled([0.0, 2.0])
        assert (rs.n, rs.sum, rs.sum_sq) == (2, 2.0, 4.0)

    def test_large_normal_sample_mean(self):
        rng = np.random.default_rng(42)
        rs = RunningStats()
        for v in rng.standard_normal(1_000_000).tolist():
            rs.update(v)
        assert abs(rs.mean) < 0.01


class TestVariance:
    def test_pair(self):
        assert filled([0.0, 2.0]).variance() == pytest.approx(2.0)

    def test_degenerate_single(self):
        assert filled([5.0]).variance() == 0.0
        assert RunningStats().variance() == 0.0

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
        assert RunningStats().inverse_zscore(1.5) == 0.0
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
        rs = filled(rng.uniform(-5, 5, size=500).tolist())
        assert rs.sum_sq >= rs.sum * rs.sum / rs.n - 1e-9 * abs(rs.sum_sq)


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


class TestFusedLearn:
    """`VectorStats.learn` is `RunningStats.update` per variable followed by
    the gated, clamped z-scores of the updated state, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(rows=_rows())
    def test_learn_equals_update_then_zscore(self, rows):
        fused = VectorStats(3, [0, 2], 2)
        reference = VectorStats(3, [0, 2], 2)
        for features, targets in rows:
            x_std, y_std = fused.learn(features, targets)
            expect_x = []
            for rs, v in zip(reference.features, features):
                if rs is None or v is None:
                    expect_x.append(0.0)
                    continue
                rs.update(v)
                expect_x.append(_clamped(rs.zscore(v)) if rs.n >= MIN_STANDARDIZE_N else 0.0)
            expect_y = []
            for rs, v in zip(reference.targets, targets):
                rs.update(v)
                expect_y.append(_clamped(rs.zscore(v)))
            assert repr((x_std, y_std)) == repr((expect_x, expect_y))
            assert repr(x_std) == repr(fused.standardize_features(features))
            assert repr(fused.state()) == repr(reference.state())

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
        rs = RunningStats()
        rs.update(-0.0)
        assert repr(vs.features[0].state()) == repr(vs.targets[0].state()) == repr(rs.state())


class TestTargetScales:
    """`unstandardize` over `VectorStats.target_scales` is
    `RunningStats.inverse_zscore` on every branch: no data, one value, zero
    spread, spread below SD_EPSILON, and the regular case."""

    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.tuples(_STEPS, _STEPS), max_size=12), base=_BASES,
           zs=st.tuples(st.sampled_from([0.0, -0.0, 1.5, -10.0, 1e300, math.inf]),
                        st.floats(allow_nan=False, allow_infinity=False)))
    def test_scales_invert_like_inverse_zscore(self, values, base, zs):
        vs = VectorStats(0, [], 2)
        for a, b in values:
            vs.targets[0].update(base + a)
            vs.targets[1].update(base + a + b * 1e-20)  # spreads below SD_EPSILON
        means, sds = vs.target_scales()
        expect = [rs.inverse_zscore(z) for rs, z in zip(vs.targets, zs)]
        assert repr(unstandardize(zs, means, sds)) == repr(expect)
        assert repr(means) == repr([rs.mean for rs in vs.targets])

    def test_every_branch_is_reached(self):
        empty, single, flat, tiny, spread = (RunningStats() for _ in range(5))
        single.update(4.0)
        for v in (2.0, 2.0, 2.0):
            flat.update(v)
        for v in (1.0, 1.0 + 2e-16):
            tiny.update(v)
        for v in (1.0, 3.0):
            spread.update(v)
        vs = VectorStats(0, [], 5)
        vs.targets = [empty, single, flat, tiny, spread]
        means, sds = vs.target_scales()
        assert sds[:4] == [None] * 4 and sds[4] == spread.sd()
        assert tiny._m2 > 0.0  # the SD_EPSILON branch, not the m2 <= 0 one
        zs = [1.5] * 5
        assert unstandardize(zs, means, sds) == [rs.inverse_zscore(1.5) for rs in vs.targets]
