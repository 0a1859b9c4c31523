import numpy as np
import pytest

from mtstream.leaf_models import FADE_DECAY, AffineLayer, FadedError, LeafPredictorSet
from mtstream.schema import Variant
from mtstream.stats import VectorStats
from mtstream.streams import GeneratorSpec, make_stream
from mtstream.tree import MultiTargetHoeffdingTree, TreeConfig


class TestAffinePredict:
    def test_zero_weights_annihilate(self):
        layer = AffineLayer(np.zeros((3, 5)))
        np.testing.assert_array_equal(layer.predict(np.ones(4)), np.zeros(3))

    def test_direct_affine_evaluation(self):
        layer = AffineLayer(np.array([[1.0, 2.0]]))
        assert layer.predict(np.array([3.0]))[0] == pytest.approx(7.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        w = rng.normal(size=(8, 6))
        x = rng.normal(size=5)
        expected = w @ np.concatenate([[1.0], x])
        np.testing.assert_allclose(AffineLayer(w).predict(x), expected, atol=1e-12)


class TestAffineUpdate:
    def test_single_step_on_bias(self):
        layer = AffineLayer(np.zeros((1, 1)))
        layer.update(np.empty(0), np.array([1.0]), learning_rate=0.1)
        assert layer.weights[0, 0] == pytest.approx(0.1)

    def test_zero_error_is_a_no_op(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(2, 4))
        layer = AffineLayer(w.copy())
        x = rng.normal(size=3)
        layer.update(x, layer.predict(x), learning_rate=0.5)
        np.testing.assert_allclose(layer.weights, w, atol=1e-15)

    def test_converges_to_least_squares_line(self):
        rng = np.random.default_rng(42)
        layer = AffineLayer(rng.uniform(-1, 1, size=(1, 2)))
        xs = rng.uniform(-1, 1, size=10_000)
        for x in xs:
            layer.update(np.array([x]), np.array([2.0 * x + 1.0]), learning_rate=0.01)
        design = np.column_stack([np.ones_like(xs), xs])
        oracle, *_ = np.linalg.lstsq(design, 2.0 * xs + 1.0, rcond=None)
        np.testing.assert_allclose(layer.weights[0], oracle, atol=0.05)

    def test_stacked_dimensions_converge_too(self):
        # meta-shaped layer: inputs are d base outputs, targets an affine mix
        rng = np.random.default_rng(3)
        d = 3
        layer = AffineLayer(rng.uniform(-1, 1, size=(d, d + 1)))
        truth = np.array([[0.5, 1.0, 0.0, 0.0],
                          [-1.0, 0.0, 1.0, 0.0],
                          [0.25, 0.5, 0.5, 0.0]])
        for _ in range(20_000):
            u = rng.uniform(-1, 1, size=d)
            target = truth @ np.concatenate([[1.0], u])
            layer.update(u, target, learning_rate=0.01)
        np.testing.assert_allclose(layer.weights, truth, atol=0.05)

    def test_meta_layer_has_fewer_parameters_when_targets_are_few(self):
        d, m = 3, 10
        base = AffineLayer(np.zeros((d, m + 1)))
        meta = AffineLayer(np.zeros((d, d + 1)))
        assert meta.n_parameters == d * (d + 1)
        assert base.n_parameters == d * (m + 1)
        assert meta.n_parameters < base.n_parameters


class TestFadedError:
    def test_first_error_passes_through(self):
        fe = FadedError(1)
        fe.update_one(0, 1.0)
        assert fe.value(0) == pytest.approx(1.0)

    def test_two_step_sequence(self):
        fe = FadedError(1)
        fe.update_one(0, 1.0)
        fe.update_one(0, 0.0)
        assert fe.value(0) == 0.95 / 1.95

    def test_constant_error_is_a_fixed_point(self):
        fe = FadedError(1)
        for _ in range(500):
            fe.update_one(0, 0.7)
        assert fe.value(0) == pytest.approx(0.7, abs=1e-12)

    def test_denominator_bounded_by_twenty(self):
        fe = FadedError(2)
        for _ in range(10_000):
            fe.update([1.0, 2.0])
        assert all(v < 1.0 / (1.0 - FADE_DECAY) for v in fe.den)

    def test_unobserved_is_infinite(self):
        assert FadedError(1).value(0) == np.inf


def make_stats(d, means, sds):
    """Target stats with chosen mean and sample sd: two points at
    mean +/- sd/sqrt(2) have exactly that mean and (n-1)-variance sd^2."""
    vs = VectorStats(1, [0], d)
    half = [s / np.sqrt(2.0) for s in sds]
    for t in range(d):
        vs.targets[t].update(means[t] - half[t])
        vs.targets[t].update(means[t] + half[t])
    return vs


def make_set(variant, m=2, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return LeafPredictorSet(variant, m, d, learning_rate=0.01, rng=rng)


class TestSelection:
    def test_argmin_picks_smallest_faded_error(self):
        ps = make_set(Variant.STACKED_ADAPTIVE)
        stats = make_stats(2, [0.0, 0.0], [1.0, 1.0])
        for name, err in (("mean", 0.5), ("perceptron", 0.3), ("stacked", 0.2)):
            ps.fmae[name].update(np.array([err, err]))
        pred = ps.select_from(ps._candidates([0.0, 0.0], stats))
        assert pred.per_target_source == ("stacked", "stacked")

    def test_ties_break_toward_the_cheaper_model(self):
        ps = make_set(Variant.STACKED_ADAPTIVE)
        stats = make_stats(2, [0.0, 0.0], [1.0, 1.0])
        for name in ("mean", "perceptron", "stacked"):
            ps.fmae[name].update(np.array([0.4, 0.4]))
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
        ps.fmae["perceptron"].update(np.array([0.0, 0.0]))  # better, but not selectable
        ps.fmae["stacked"].update(np.array([9.9, 9.9]))
        pred = ps.select_from(ps._candidates([0.5, -0.5], stats))
        assert pred.per_target_source == ("stacked", "stacked")

    def test_selection_invariant_under_positive_rescaling(self):
        ps = make_set(Variant.STACKED_ADAPTIVE)
        stats = make_stats(2, [0.0, 0.0], [1.0, 1.0])
        for name, err in (("mean", 0.5), ("perceptron", 0.2), ("stacked", 0.3)):
            ps.fmae[name].update(np.array([err, err]))
        before = ps.select_from(ps._candidates([0.1, 0.1], stats)).per_target_source
        for name in ps.fmae:
            fe = ps.fmae[name]
            fe.num = [37.5 * v for v in fe.num]  # common positive factor
        after = ps.select_from(ps._candidates([0.1, 0.1], stats)).per_target_source
        assert before == after == ("perceptron", "perceptron")

    def test_mean_variant_predicts_running_means(self):
        ps = make_set(Variant.MEAN)
        stats = make_stats(2, [3.0, -1.0], [1.0, 2.0])
        pred = ps.select_from(ps._candidates([0.0, 0.0], stats))
        assert pred.values == pytest.approx((3.0, -1.0))
        assert pred.per_target_source == ("mean", "mean")


class TestScoredSets:
    @pytest.mark.parametrize("variant,expected", [
        (Variant.MEAN, {"mean"}),
        (Variant.PERCEPTRON, {"perceptron"}),
        (Variant.ADAPTIVE, {"mean", "perceptron"}),
        (Variant.STACKED, {"perceptron", "stacked"}),
        (Variant.STACKED_ADAPTIVE, {"mean", "perceptron", "stacked"}),
    ])
    def test_faded_tables_cover_computed_predictors(self, variant, expected):
        ps = make_set(variant)
        assert set(ps.fmae) == expected

    def test_score_touches_every_table(self):
        ps = make_set(Variant.STACKED_ADAPTIVE)
        stats = make_stats(2, [0.0, 0.0], [1.0, 1.0])
        ps.score_candidates(ps._candidates([0.5, 0.5], stats), (1.0, 2.0))
        for fe in ps.fmae.values():
            assert all(v > 0 for v in fe.den)


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
        reference = {}
        for name, pred in candidates.items():
            fe = FadedError(3)
            fe.num, fe.den = list(ps.fmae[name].num), list(ps.fmae[name].den)
            fe.update([abs(y - p) for y, p in zip(probe.targets, pred)])
            reference[name] = fe.state()
        ps.score_candidates(candidates, probe.targets)
        for name, fe in ps.fmae.items():
            assert all(type(v) is float for v in fe.num + fe.den)
            assert fe.state() == reference[name]  # the FadedError.update rule

class TestInheritance:
    def test_child_copies_weights_and_resets_errors(self):
        ps = make_set(Variant.STACKED_ADAPTIVE)
        ps.fmae["mean"].update(np.array([1.0, 1.0]))
        child = ps.spawn_child()
        np.testing.assert_array_equal(child.base.weights, ps.base.weights)
        np.testing.assert_array_equal(child.meta.weights, ps.meta.weights)
        assert child.base is not ps.base
        assert all(v == 0 for v in child.fmae["mean"].den)

    def test_child_training_leaves_parent_alone(self):
        ps = make_set(Variant.PERCEPTRON)
        child = ps.spawn_child()
        before = ps.base.weights.copy()
        child.train([1.0, -1.0], [0.5, 0.5])
        np.testing.assert_array_equal(ps.base.weights, before)
