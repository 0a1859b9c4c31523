import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtstream import evaluation
from mtstream.evaluation import (
    ALPHA,
    ComparisonResult,
    EvaluationError,
    PrequentialConfig,
    armse,
    average_ranks,
    friedman_nemenyi,
    read_report_csv,
    run_prequential,
    _f_upper_tail,
    write_report_csv,
)
from mtstream.schema import Instance, Variant
from mtstream.streams import ConfigError, GeneratorSpec, make_stream
from mtstream.tree import MultiTargetHoeffdingTree, TreeConfig


class TestArmse:
    def test_perfect_predictions(self):
        assert armse([0.0, 0.0], 10) == 0.0

    def test_single_target_two_errors(self):
        # residuals 3 and 4 -> sqrt((9 + 16)/2)
        assert armse([25.0], 2) == pytest.approx(3.5355339059, abs=1e-9)

    def test_mean_of_per_target_rmse(self):
        # rmse 1 and 3 across two targets -> 2
        assert armse([4.0 * 1.0, 4.0 * 9.0], 4) == pytest.approx(2.0)

    def test_zero_count_rejected(self):
        with pytest.raises(EvaluationError):
            armse([1.0], 0)


class TestIntegerSettings:
    """Every config dataclass holds its integer settings to one rule: a
    `numbers.Integral` that is not a bool."""

    @pytest.mark.parametrize("make, error, message", [
        (lambda: TreeConfig(grace_period=2.5), ValueError, "grace_period"),
        (lambda: TreeConfig(seed=1.5), ValueError, "seed"),
        (lambda: PrequentialConfig(window=2.5), EvaluationError, "window"),
        (lambda: PrequentialConfig(warm_start=100.5), EvaluationError, "warm_start"),
        (lambda: PrequentialConfig(seeds=(0, 1.5)), EvaluationError, r"seeds\[1\]"),
        (lambda: GeneratorSpec("friedman_mt", n_examples=100.5), ConfigError, "n_examples"),
        (lambda: GeneratorSpec("friedman_mt", n_targets=2.0), ConfigError, "n_targets"),
        (lambda: GeneratorSpec("friedman_mt", seed=True), ConfigError, "seed"),
    ], ids=["tree_grace_period", "tree_seed", "window", "warm_start", "seeds",
            "generator_n_examples", "generator_n_targets", "generator_seed"])
    def test_non_integers_are_refused(self, make, error, message):
        with pytest.raises(error, match=f"^{message} must be an integer, got "):
            make()

    def test_numpy_integers_pass(self):
        assert TreeConfig(grace_period=np.int64(50)).grace_period == 50
        assert PrequentialConfig(window=np.int32(5), seeds=(np.int64(3),)).window == 5


class TestNumberSettings:
    """A number setting is a finite real that is not a bool, at every depth
    of the setting; a Variant setting holds a Variant."""

    @pytest.mark.parametrize("make, error, message", [
        (lambda: TreeConfig(tau=True), ValueError, "tau must be a finite number, got True"),
        (lambda: TreeConfig(tau=math.inf), ValueError, "tau must be a finite number, got inf"),
        (lambda: TreeConfig(learning_rate=True), ValueError,
         "learning_rate must be a finite number, got True"),
        (lambda: TreeConfig(variant="mean"), ValueError, "variant must be a Variant, got 'mean'"),
        (lambda: GeneratorSpec("friedman_mt", noise_sd=True), ConfigError,
         "noise_sd must be a finite number, got True"),
        (lambda: GeneratorSpec("friedman_mt", noise_sd=math.nan), ConfigError,
         "noise_sd must be a finite number, got nan"),
        (lambda: GeneratorSpec("friedman_mt", noise_sd=math.inf), ConfigError,
         "noise_sd must be a finite number, got inf"),
        (lambda: GeneratorSpec("friedman_mt", n_targets=1, target_affine=((math.nan, 0.0),)),
         ConfigError, r"target_affine\[0\]\[0\] must be a finite number, got nan"),
        (lambda: GeneratorSpec("friedman_mt", n_targets=1, target_affine=((True, 0.0),)),
         ConfigError, r"target_affine\[0\]\[0\] must be a finite number, got True"),
        (lambda: GeneratorSpec("friedman_mt", n_targets=1, target_affine=(("1", 0.0),)),
         ConfigError, r"target_affine\[0\]\[0\] must be a finite number, got '1'"),
        (lambda: GeneratorSpec("friedman_mt", n_targets=1, target_affine=((1.0,),)),
         ConfigError, r"target_affine needs one \(a, b\) pair per target"),
    ], ids=["tau_bool", "tau_inf", "learning_rate_bool", "variant_string", "noise_sd_bool",
            "noise_sd_nan", "noise_sd_inf", "affine_nan", "affine_bool", "affine_string",
            "affine_short_pair"])
    def test_refused(self, make, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            make()

    def test_integers_and_exact_values_pass(self):
        spec = GeneratorSpec("friedman_mt", n_targets=1, noise_sd=0, target_affine=((2, -1.5),))
        assert (spec.noise_sd, spec.target_affine) == (0, ((2, -1.5),))
        assert TreeConfig(tau=0, learning_rate=np.float64(0.5)).tau == 0


class TestPrequentialConfig:
    def test_defaults(self):
        cfg = PrequentialConfig()
        assert (cfg.window, cfg.warm_start) == (200, 200)

    def test_seed_list_defines_repetitions(self):
        cfg = PrequentialConfig(seeds=(10, 11, 12, 13, 14))
        assert cfg.repetitions == 5

    def test_validation(self):
        with pytest.raises(EvaluationError):
            PrequentialConfig(window=0)
        with pytest.raises(EvaluationError):
            PrequentialConfig(seeds=())
        with pytest.raises(EvaluationError):
            PrequentialConfig(seeds=(3, -1))


def fried(n, seed=0, d=2, noise=1.0):
    return make_stream(GeneratorSpec(family="friedman_mt", n_examples=n,
                                     n_targets=d, noise_sd=noise, seed=seed))


class ListSource:
    """A replayable in-memory stream."""

    def __init__(self, schema, instances):
        self.schema = schema
        self.instances = instances

    def __iter__(self):
        return iter(self.instances)


def with_target(source, index, value):
    """The stream's first 400 examples, with example `index` carrying `value`
    as its first target."""
    instances = list(source)[:400]
    inst = instances[index]
    instances[index] = Instance(features=inst.features,
                                targets=(value, *inst.targets[1:]))
    return ListSource(source.schema, instances)


class TestRunPrequential:
    def test_stream_ending_at_warm_start_yields_zero_windows(self):
        report = run_prequential(fried(200), TreeConfig(variant=Variant.MEAN),
                                 PrequentialConfig(window=200, warm_start=200, seeds=(0,)))
        assert report.rows == []
        assert report.examples_evaluated == 0

    def test_window_count(self):
        report = run_prequential(fried(200 + 400), TreeConfig(variant=Variant.MEAN),
                                 PrequentialConfig(window=200, warm_start=200, seeds=(0,)))
        assert len(report.rows) == 2
        assert [r.window_index for r in report.rows] == [0, 1]

    def test_trailing_partial_window_is_flushed(self):
        report = run_prequential(fried(200 + 450), TreeConfig(variant=Variant.MEAN),
                                 PrequentialConfig(window=200, warm_start=200, seeds=(0,)))
        assert len(report.rows) == 3  # ceil(450/200)

    def test_stream_shorter_than_warm_start_is_still_valid(self):
        report = run_prequential(fried(1, seed=1), TreeConfig(),
                                 PrequentialConfig(seeds=(0,)))
        assert report.rows == [] and report.examples_evaluated == 0

    def test_truly_empty_stream_raises(self):
        class Empty:
            schema = fried(1).schema

            def __iter__(self):
                return iter(())

        with pytest.raises(EvaluationError, match="^dataset 'e', variant stacked_adaptive, "
                                                  "seed 0: stream was empty$"):
            run_prequential(Empty(), TreeConfig(), PrequentialConfig(seeds=(0,)), dataset="e")

    def test_cumulative_matches_independent_batch_recompute(self):
        """Replay the same prequential protocol by hand, store residuals, and
        recompute the final error with one numpy pass."""
        n, d = 1200, 2
        tree_config = TreeConfig(variant=Variant.STACKED_ADAPTIVE, seed=3)
        config = PrequentialConfig(window=150, warm_start=200, seeds=(3,))
        report = run_prequential(fried(n, seed=4, d=d), tree_config, config, seed=3)

        tree = MultiTargetHoeffdingTree(fried(n, seed=4, d=d).schema,
                                        TreeConfig(variant=Variant.STACKED_ADAPTIVE, seed=3))
        residuals = []
        for i, inst in enumerate(fried(n, seed=4, d=d)):
            if i >= 200:
                pred = tree.predict(inst)
                residuals.append([y - v for y, v in zip(inst.targets, pred.values)])
            tree.learn(inst)
        residuals = np.asarray(residuals)
        expected = float(np.mean(np.sqrt(np.mean(residuals ** 2, axis=0))))
        assert report.cum_armse == pytest.approx(expected, rel=1e-12)
        assert report.examples_evaluated == n - 200

    def test_windowed_errors_recombine_into_the_cumulative_value(self):
        # single target: window aRMSE^2 * count sums back to the total
        n = 200 + 1000
        report = run_prequential(fried(n, seed=7, d=1), TreeConfig(variant=Variant.MEAN),
                                 PrequentialConfig(window=250, warm_start=200, seeds=(0,)))
        total_sq = sum((r.armse ** 2) * 250 for r in report.rows)
        assert math.sqrt(total_sq / 1000) == pytest.approx(report.cum_armse, rel=1e-12)

    def test_metric_determinism_across_reruns(self):
        kwargs = dict(tree_config=TreeConfig(variant=Variant.STACKED, seed=5),
                      config=PrequentialConfig(window=100, warm_start=200, seeds=(5,)))
        a = run_prequential(fried(900, seed=6), **kwargs)
        b = run_prequential(fried(900, seed=6), **kwargs)
        assert [(r.window_index, r.armse, r.cum_armse, r.model_bytes) for r in a.rows] \
            == [(r.window_index, r.armse, r.cum_armse, r.model_bytes) for r in b.rows]

    def test_timing_is_recorded(self):
        report = run_prequential(fried(600), TreeConfig(variant=Variant.MEAN),
                                 PrequentialConfig(window=200, warm_start=200, seeds=(0,)))
        assert report.elapsed_s > 0
        assert all(r.elapsed_s <= report.elapsed_s for r in report.rows)

    @pytest.mark.parametrize("bad", [
        math.nan, math.inf, -math.inf,
        pytest.param(10**400, id="int_beyond_float"),
        pytest.param(-10**400, id="negative_int_beyond_float")])
    def test_non_finite_target_is_skipped(self, bad):
        config = PrequentialConfig(window=50, warm_start=100, seeds=(0,))
        report = run_prequential(with_target(fried(400), 300, bad),
                                 TreeConfig(variant=Variant.STACKED), config)
        assert report.examples_evaluated == 299
        assert report.rejected == 1
        assert math.isfinite(report.cum_armse)
        assert all(math.isfinite(r.armse) for r in report.rows)

    @pytest.mark.parametrize("learning_rate", [10.0, 1e300], ids=["overflow", "nan"])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_prediction_for_a_finite_target_raises(self, learning_rate):
        """The diverging perceptron's predictions grow until squaring one
        overflows (learning rate 10) or are NaN at once (1e300)."""
        config = PrequentialConfig(window=50, warm_start=100, seeds=(4,))
        tree_config = TreeConfig(variant=Variant.PERCEPTRON, learning_rate=learning_rate)
        with pytest.raises(EvaluationError,
                           match=r"dataset 'f', variant perceptron, seed 4: example \d+"):
            run_prequential(fried(400), tree_config, config, seed=4, dataset="f")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_squared_errors_summing_beyond_float_range_raise(self):
        """Noise of 1e153 keeps every squared error finite, near 1e306, but
        their running sum overflows; no report row may hold inf."""
        config = PrequentialConfig(window=50, warm_start=50, seeds=(0,))
        with pytest.raises(EvaluationError,
                           match=r"^dataset 'f', variant mean, seed 0: the squared errors "
                                 r"up to example \d+ sum beyond the float range$"):
            run_prequential(fried(400, noise=1e153), TreeConfig(variant=Variant.MEAN),
                            config, dataset="f")

    def test_report_csv_round_trip(self, tmp_path):
        report = run_prequential(fried(800, seed=2), TreeConfig(variant=Variant.MEAN),
                                 PrequentialConfig(window=200, warm_start=200, seeds=(0,)))
        path = tmp_path / "r.csv"
        write_report_csv(report, path)
        rows = read_report_csv(path)
        assert rows == report.rows


class TestAverageRanks:
    def test_ranks_are_permutations_with_ties(self):
        ranks = average_ranks(np.array([[1.0, 2.0, 3.0], [2.0, 2.0, 5.0]]))
        np.testing.assert_array_equal(ranks[0], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(ranks[1], [1.5, 1.5, 3.0])
        assert ranks.sum(axis=1).tolist() == [6.0, 6.0]

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(1, 6).flatmap(lambda k: st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, math.inf, math.nan]),
                 min_size=k, max_size=k), min_size=1, max_size=5)))
    def test_ranks_equal_scipy_rankdata(self, rows):
        from scipy.stats import rankdata

        ranks = average_ranks(np.array(rows))
        expected = np.vstack([rankdata(row, method="average") for row in rows])
        np.testing.assert_array_equal(ranks, expected)


class TestFUpperTail:
    """The Friedman test's p-value: the F upper tail against scipy's, which
    the package itself does not import."""

    @pytest.mark.parametrize("k", range(2, 11))
    def test_matches_scipy_fdtrc(self, k):
        from scipy.special import fdtrc, fdtri

        for n in [*range(2, 61), 100, 250, 1000, 5000]:
            dfn, dfd = k - 1, (k - 1) * (n - 1)
            # a log grid, plus the two sides of the critical value at ALPHA
            critical = float(fdtri(dfn, dfd, 1.0 - ALPHA))
            grid = [*np.logspace(-6, 4, 21).tolist(), critical * (1 - 1e-7),
                    critical * (1 + 1e-7)]
            for f in grid:
                ref = float(fdtrc(dfn, dfd, f))
                p = _f_upper_tail(dfn, dfd, f)
                assert abs(p - ref) <= 1e-9 * ref + 1e-15, (k, n, f, p, ref)
                if abs(ref - ALPHA) > 1e-9:
                    assert (p < ALPHA) == (ref < ALPHA), (k, n, f, p, ref)

    def test_no_evidence_gives_one(self):
        assert _f_upper_tail(2, 8, 0.0) == 1.0
        assert _f_upper_tail(2, 8, -1.0) == 1.0

    def test_a_fraction_that_does_not_converge_raises(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_MAX_TERMS", 1)
        with pytest.raises(EvaluationError, match="did not converge in 1 terms"):
            _f_upper_tail(4, 400, 2.3)


def containment_groups(result: ComparisonResult) -> tuple:
    """Reference grouping: the run of rank-sorted algorithms within the CD
    that starts at each algorithm, kept when no other run contains it."""
    k = len(result.algorithms)
    order = np.argsort(result.average_ranks, kind="stable")
    names = [result.algorithms[i] for i in order]
    sorted_ranks = [result.average_ranks[i] for i in order]
    intervals = []
    for i in range(k):
        j = i
        while j + 1 < k and sorted_ranks[j + 1] - sorted_ranks[i] < result.critical_difference:
            j += 1
        intervals.append((i, j))
    maximal = [(i, j) for (i, j) in intervals
               if not any(a <= i and j <= b and (a, b) != (i, j) for a, b in intervals)]
    return tuple(tuple(names[i:j + 1]) for i, j in dict.fromkeys(maximal))


class TestFriedmanNemenyi:
    def test_identical_ranks_never_reject(self):
        result = friedman_nemenyi(["a", "b", "c"], [[1.0, 1.0, 1.0]] * 10)
        assert result.chi2 == pytest.approx(0.0)
        assert not result.reject
        assert len(result.groups) == 1

    def test_reference_critical_difference(self):
        rng = np.random.default_rng(0)
        result = friedman_nemenyi([f"a{i}" for i in range(5)], rng.random((16, 5)))
        assert 1.51 <= result.critical_difference <= 1.53

    def test_hand_built_table_matches_direct_formula(self):
        # 4 blocks x 3 algorithms with fixed ranks, which ranking leaves as they are
        ranks = np.array([
            [1.0, 2.0, 3.0],
            [1.0, 3.0, 2.0],
            [1.0, 2.0, 3.0],
            [2.0, 1.0, 3.0],
        ])
        n, k = 4, 3
        avg = ranks.mean(axis=0)
        chi2 = 12 * n / (k * (k + 1)) * (float(np.sum(avg ** 2)) - k * (k + 1) ** 2 / 4)
        result = friedman_nemenyi(("a", "b", "c"), ranks)
        assert result.chi2 == pytest.approx(chi2)
        assert result.f_stat == pytest.approx((n - 1) * chi2 / (n * (k - 1) - chi2))
        assert result.average_ranks == pytest.approx(tuple(avg))

    def test_exact_fraction_oracle(self):
        # frozen via exact rational arithmetic:
        # avg ranks (1.25, 2.0, 2.75); chi2 = 12*4/12 * (sum sq - 12) = 4.5
        avg = (Fraction(5, 4), Fraction(2, 1), Fraction(11, 4))
        sum_sq = sum(r * r for r in avg)
        chi2 = Fraction(12 * 4, 3 * 4) * (sum_sq - Fraction(3 * 16, 4))
        assert chi2 == Fraction(9, 2)
        ranks = np.array([
            [1.0, 2.0, 3.0],
            [1.0, 3.0, 2.0],
            [1.0, 2.0, 3.0],
            [2.0, 1.0, 3.0],
        ])
        result = friedman_nemenyi(("a", "b", "c"), ranks)
        assert result.chi2 == pytest.approx(float(chi2), abs=1e-12)

    def test_total_agreement_rejects(self):
        result = friedman_nemenyi(["a", "b", "c"], [[1.0, 2.0, 3.0]] * 12)
        assert result.reject
        assert result.f_stat == math.inf

    def test_groups_follow_the_critical_difference(self):
        ranks = np.tile(np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]), (16, 1))
        jitter = np.random.default_rng(1).normal(0, 0.01, size=(16, 5))
        algorithms = ("v1", "v2", "v3", "v4", "v5")
        result = friedman_nemenyi(algorithms, ranks + jitter)
        cd = result.critical_difference
        for group in result.groups:
            idx = [algorithms.index(g) for g in group]
            spread = max(result.average_ranks[i] for i in idx) \
                - min(result.average_ranks[i] for i in idx)
            assert spread < cd

    @settings(max_examples=200, deadline=None)
    @given(scores=st.integers(2, 10).flatmap(lambda k: st.lists(
        st.lists(st.integers(0, 3).map(float), min_size=k, max_size=k),
        min_size=2, max_size=12)))
    def test_groups_are_the_maximal_runs_within_the_cd(self, scores):
        """Few distinct scores, so ties within blocks and equal average ranks
        are common; the one-pass groups equal the containment search's."""
        result = friedman_nemenyi([f"a{i}" for i in range(len(scores[0]))], scores)
        assert result.groups == containment_groups(result)

    def test_too_few_blocks_or_algorithms(self):
        with pytest.raises(EvaluationError):
            friedman_nemenyi(("a",), np.ones((3, 1)))
        with pytest.raises(EvaluationError):
            friedman_nemenyi(("a", "b"), np.ones((1, 2)))

    @pytest.mark.parametrize("scores, where", [
        ([[math.nan, 1.0], [1.0, 2.0]], "algorithm 'a' in block 0"),
        ([[1.0, 2.0], [3.0, 4.0], [2.0, math.nan], [math.nan, 1.0]], "algorithm 'b' in block 2"),
    ])
    def test_nan_score_names_its_block_and_algorithm(self, scores, where):
        """Refused before ranking, not after a thousand NaN terms of the
        p-value's continued fraction."""
        with pytest.raises(EvaluationError, match=f"^score of {where} is NaN$"):
            friedman_nemenyi(("a", "b"), scores)
