import math

import numpy as np
import pytest

from mtstream.leaf_models import FADE_DECAY, LeafPredictorSet
from mtstream.schema import Variant
from mtstream.stats import VectorStats
from mtstream.streams import GeneratorSpec, make_stream
from mtstream.tree import MultiTargetHoeffdingTree, TreeConfig


def make_stats(d, means, sds):
    """Target stats with chosen mean and sample sd: two points at
    mean +/- sd/sqrt(2) have exactly that mean and (n-1)-variance sd^2."""
    vs = VectorStats(1, [0], d)
    half = [s / np.sqrt(2.0) for s in sds]
    vs.learn((None,), [m - h for m, h in zip(means, half)], standardize=False)
    vs.learn((None,), [m + h for m, h in zip(means, half)], standardize=False)
    return vs


def make_set(variant, m=2, d=2, seed=0, learning_rate=0.01):
    rng = np.random.default_rng(seed)
    return LeafPredictorSet(variant, m, d, learning_rate=learning_rate, rng=rng)


def perceptron(weights, learning_rate=0.01):
    """Perceptron leaf whose base layer holds the given (d, m + 1) weights."""
    weights = np.array(weights, dtype=float)
    d, m = weights.shape[0], weights.shape[1] - 1
    ps = make_set(Variant.PERCEPTRON, m=m, d=d, learning_rate=learning_rate)
    ps.base = weights
    return ps


def score(ps, **errors):
    """One `score_candidates` step in which each named predictor misses every
    target by the given absolute error."""
    d = ps.n_targets
    ps.score_candidates({name: [-err] * d for name, err in errors.items()}, (0.0,) * d)


def faded(ps, name, t=0):
    return ps.fmae[name][t] / ps.den


class TestAffinePredict:
    """The base and stacked layers as `_candidates` evaluates them: an affine
    map of the standardized inputs, mapped back to the target scales."""

    def test_zero_weights_annihilate(self):
        ps = perceptron(np.zeros((3, 5)))
        stats = make_stats(3, [3.0, -1.0, 0.5], [2.0, 1.0, 4.0])
        means, _ = stats.target_scales()
        assert ps._candidates(np.ones(4), stats)["perceptron"] == means

    def test_direct_affine_evaluation(self):
        ps = perceptron([[1.0, 2.0]])
        stats = make_stats(1, [10.0], [2.0])
        # 1 + 2 * 3 = 7 standard deviations above the mean
        assert ps._candidates([3.0], stats)["perceptron"][0] == pytest.approx(24.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        w = rng.normal(size=(8, 6))
        x = rng.normal(size=5)
        means, sds = rng.normal(size=8), rng.uniform(0.5, 2.0, size=8)
        stats = make_stats(8, means, sds)
        expected = (w @ np.concatenate([[1.0], x])) * sds + means
        got = perceptron(w)._candidates(x, stats)["perceptron"]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_stacked_layer_reads_the_base_outputs(self):
        ps = make_set(Variant.STACKED_ADAPTIVE, m=3, d=2, seed=5)
        x = np.array([0.3, -1.2, 0.8])
        stats = make_stats(2, [1.0, -2.0], [0.5, 3.0])
        means, sds = stats.target_scales()
        base_std = ps.base @ np.concatenate([[1.0], x])
        meta_std = ps.meta @ np.concatenate([[1.0], base_std])
        got = ps._candidates(x, stats)
        np.testing.assert_allclose(got["perceptron"], base_std * sds + means, atol=1e-12)
        np.testing.assert_allclose(got["stacked"], meta_std * sds + means, atol=1e-12)


class TestAffineUpdate:
    """The delta rule as `train` applies it to both layers."""

    def test_single_step_on_bias(self):
        ps = perceptron(np.zeros((1, 1)), learning_rate=0.1)
        ps.train([], [1.0])
        assert ps.base[0, 0] == pytest.approx(0.1)

    def test_zero_error_is_a_no_op(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(2, 4))
        ps = perceptron(w.copy(), learning_rate=0.5)
        x = rng.normal(size=3)
        ps.train(x, w @ np.concatenate([[1.0], x]))
        np.testing.assert_allclose(ps.base, w, atol=1e-15)

    def test_converges_to_least_squares_line(self):
        rng = np.random.default_rng(42)
        ps = LeafPredictorSet(Variant.PERCEPTRON, 1, 1, learning_rate=0.01, rng=rng)
        xs = rng.uniform(-1, 1, size=10_000)
        for x in xs:
            ps.train([x], [2.0 * x + 1.0])
        design = np.column_stack([np.ones_like(xs), xs])
        oracle, *_ = np.linalg.lstsq(design, 2.0 * xs + 1.0, rcond=None)
        np.testing.assert_allclose(ps.base[0], oracle, atol=0.05)

    def test_stacked_dimensions_converge_too(self):
        # a stacked layer's shape: d inputs, d targets that are an affine mix
        rng = np.random.default_rng(3)
        d = 3
        ps = LeafPredictorSet(Variant.PERCEPTRON, d, d, learning_rate=0.01, rng=rng)
        truth = np.array([[0.5, 1.0, 0.0, 0.0],
                          [-1.0, 0.0, 1.0, 0.0],
                          [0.25, 0.5, 0.5, 0.0]])
        for _ in range(20_000):
            u = rng.uniform(-1, 1, size=d)
            ps.train(u, truth @ np.concatenate([[1.0], u]))
        np.testing.assert_allclose(ps.base, truth, atol=0.05)

    def test_both_layers_step_from_the_pre_update_base_outputs(self):
        ps = make_set(Variant.STACKED, m=3, d=2, seed=9, learning_rate=0.05)
        base, meta = ps.base.copy(), ps.meta.copy()
        x, y = np.array([0.4, -0.7, 1.1]), np.array([0.9, -0.3])
        x_aug = np.concatenate([[1.0], x])
        base_aug = np.concatenate([[1.0], base @ x_aug])
        ps.train(x, y)
        np.testing.assert_allclose(
            ps.meta, meta + 0.05 * np.outer(y - meta @ base_aug, base_aug), atol=1e-15)
        np.testing.assert_allclose(
            ps.base, base + 0.05 * np.outer(y - base_aug[1:], x_aug), atol=1e-15)

    def test_meta_layer_has_fewer_parameters_when_targets_are_few(self):
        d, m = 3, 10
        ps = make_set(Variant.STACKED, m=m, d=d)
        assert ps.base.shape == (d, m + 1)
        assert ps.meta.shape == (d, d + 1)
        assert ps.meta.size < ps.base.size
        assert ps.weight_slots() == d * (m + 1) + d * (d + 1)


class TestFadedError:
    """Faded errors as `score_candidates` folds them into an adaptive leaf."""

    def test_first_error_passes_through(self):
        ps = make_set(Variant.ADAPTIVE, d=1)
        score(ps, mean=1.0)
        assert faded(ps, "mean") == 1.0

    def test_two_step_sequence(self):
        ps = make_set(Variant.ADAPTIVE, d=1)
        score(ps, mean=1.0)
        score(ps, mean=0.0)
        assert faded(ps, "mean") == 0.95 / 1.95

    def test_constant_error_is_a_fixed_point(self):
        ps = make_set(Variant.ADAPTIVE, d=1)
        for _ in range(500):
            score(ps, mean=0.7)
        assert faded(ps, "mean") == pytest.approx(0.7, abs=1e-12)

    def test_denominator_bounded_by_twenty(self):
        ps = make_set(Variant.ADAPTIVE, d=2)
        for _ in range(10_000):
            ps.score_candidates({"mean": [0.0, 0.0]}, (1.0, 2.0))
        assert ps.den < 1.0 / (1.0 - FADE_DECAY)

    def test_unobserved_is_infinite(self):
        """Before its first example a leaf reads every error as +inf, a tie
        the cheapest predictor takes; after it, even a 1e300 error is finite
        and ranks."""
        ps = make_set(Variant.ADAPTIVE, d=1)
        stats = make_stats(1, [0.0], [1.0])
        assert ps.select_from(ps._candidates([0.0, 0.0], stats)).per_target_source == ("mean",)
        score(ps, mean=math.inf, perceptron=1e300)
        pred = ps.select_from(ps._candidates([0.0, 0.0], stats))
        assert pred.per_target_source == ("perceptron",)
        state = make_set(Variant.ADAPTIVE).state()
        assert (state["fmae"], state["den"]) == ({"mean": [0.0, 0.0], "perceptron": [0.0, 0.0]},
                                                 0.0)


class TestSelection:
    def test_argmin_picks_smallest_faded_error(self):
        ps = make_set(Variant.STACKED_ADAPTIVE)
        stats = make_stats(2, [0.0, 0.0], [1.0, 1.0])
        score(ps, mean=0.5, perceptron=0.3, stacked=0.2)
        pred = ps.select_from(ps._candidates([0.0, 0.0], stats))
        assert pred.per_target_source == ("stacked", "stacked")

    def test_ties_break_toward_the_cheaper_model(self):
        ps = make_set(Variant.STACKED_ADAPTIVE)
        stats = make_stats(2, [0.0, 0.0], [1.0, 1.0])
        score(ps, mean=0.4, perceptron=0.4, stacked=0.4)
        pred = ps.select_from(ps._candidates([0.0, 0.0], stats))
        assert pred.per_target_source == ("mean", "mean")

    def test_fresh_leaf_ties_at_infinity_toward_mean(self):
        ps = make_set(Variant.STACKED_ADAPTIVE)
        stats = make_stats(2, [1.0, 2.0], [1.0, 1.0])
        pred = ps.select_from(ps._candidates([0.0, 0.0], stats))
        assert pred.per_target_source == ("mean", "mean")

    def test_fixed_stacked_variant_ignores_errors(self):
        ps = make_set(Variant.STACKED)
        stats = make_stats(2, [0.0, 0.0], [1.0, 1.0])
        score(ps, perceptron=0.0, stacked=9.9)  # perceptron better, but not selectable
        pred = ps.select_from(ps._candidates([0.5, -0.5], stats))
        assert pred.per_target_source == ("stacked", "stacked")

    def test_selection_invariant_under_positive_rescaling(self):
        ps = make_set(Variant.STACKED_ADAPTIVE)
        stats = make_stats(2, [0.0, 0.0], [1.0, 1.0])
        score(ps, mean=0.5, perceptron=0.2, stacked=0.3)
        before = ps.select_from(ps._candidates([0.1, 0.1], stats)).per_target_source
        for name in ps.fmae:
            ps.fmae[name] = [37.5 * v for v in ps.fmae[name]]  # common positive factor
        after = ps.select_from(ps._candidates([0.1, 0.1], stats)).per_target_source
        assert before == after == ("perceptron", "perceptron")

    def test_mean_variant_predicts_running_means(self):
        ps = make_set(Variant.MEAN)
        stats = make_stats(2, [3.0, -1.0], [1.0, 2.0])
        pred = ps.select_from(ps._candidates([0.0, 0.0], stats))
        assert pred.values == pytest.approx((3.0, -1.0))
        assert pred.per_target_source == ("mean", "mean")


class TestScoredSets:
    """Only a leaf that chooses per target keeps faded errors: one numerator
    list per selectable predictor and one shared denominator."""

    @pytest.mark.parametrize("variant,expected", [
        (Variant.MEAN, set()),
        (Variant.PERCEPTRON, set()),
        (Variant.ADAPTIVE, {"mean", "perceptron"}),
        (Variant.STACKED, set()),
        (Variant.STACKED_ADAPTIVE, {"mean", "perceptron", "stacked"}),
    ])
    def test_faded_tables_cover_computed_predictors(self, variant, expected):
        ps = make_set(variant)
        assert set(ps.fmae) == expected
        assert ps.fade_slots() == (ps.n_targets * len(expected) + 1 if expected else 0)

    def test_score_touches_every_table(self):
        ps = make_set(Variant.STACKED_ADAPTIVE)
        stats = make_stats(2, [0.0, 0.0], [1.0, 1.0])
        ps.score_candidates(ps._candidates([0.5, 0.5], stats), (1.0, 2.0))
        assert ps.den > 0
        for num in ps.fmae.values():
            assert all(v > 0 for v in num)

    @pytest.mark.parametrize("variant", [Variant.MEAN, Variant.PERCEPTRON, Variant.STACKED],
                             ids=lambda v: v.value)
    def test_fixed_leaf_computes_its_one_predictor_and_scores_nothing(self, variant):
        ps = make_set(variant)
        stats = make_stats(2, [0.0, 0.0], [1.0, 1.0])
        candidates = ps._candidates([0.5, -0.5], stats)
        assert tuple(candidates) == variant.selectable
        before = ps.state()
        ps.score_candidates(candidates, (1.0, 2.0))
        assert ps.state() == before
        assert (ps.fmae, ps.den, ps.fade_slots()) == ({}, 0.0, 0)


class TestHotPathTypes:
    def test_candidates_and_faded_errors_hold_python_floats(self):
        """numpy scalars must not leak into the per-example leaf path: every
        candidate value and every faded-error entry is a plain float."""
        source = make_stream(GeneratorSpec(family="friedman_mt", n_examples=400,
                                           n_targets=3, noise_sd=0.5, seed=2))
        tree = MultiTargetHoeffdingTree(
            source.schema, TreeConfig(variant=Variant.STACKED_ADAPTIVE, seed=1))
        instances = list(source)
        for instance in instances[:-1]:
            tree.predict_then_learn(instance)
        probe = instances[-1]
        leaf = tree.route(probe)
        ps = leaf.predictors
        candidates = ps._candidates(leaf.stats.standardize_features(probe.features),
                                    leaf.stats)
        assert set(candidates) == {"mean", "perceptron", "stacked"}
        for values in candidates.values():
            assert all(type(v) is float for v in values)
        reference = {
            name: [0.95 * e + abs(y - p) for e, y, p in zip(ps.fmae[name], probe.targets, pred)]
            for name, pred in candidates.items()
        }
        den = 0.95 * ps.den + 1.0
        ps.score_candidates(candidates, probe.targets)
        assert type(ps.den) is float
        state = ps.state()
        assert (state["fmae"], state["den"]) == (reference, den)
        for name in state["fmae"]:
            assert all(type(v) is float for v in ps.fmae[name])


class TestInheritance:
    def test_child_copies_weights_and_resets_errors(self):
        ps = make_set(Variant.STACKED_ADAPTIVE)
        score(ps, mean=1.0)
        child = ps.spawn_child()
        np.testing.assert_array_equal(child.base, ps.base)
        np.testing.assert_array_equal(child.meta, ps.meta)
        assert child.base is not ps.base
        assert child.den == 0

    def test_child_training_leaves_parent_alone(self):
        ps = make_set(Variant.PERCEPTRON)
        child = ps.spawn_child()
        before = ps.base.copy()
        child.train([1.0, -1.0], [0.5, 0.5])
        np.testing.assert_array_equal(ps.base, before)
