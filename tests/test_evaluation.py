import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtstream.evaluation import (
    EvaluationError,
    PrequentialConfig,
    RankTable,
    armse,
    friedman_nemenyi,
    read_report_csv,
    run_prequential,
    write_report_csv,
)
from mtstream.schema import Variant
from mtstream.streams import GeneratorSpec, make_stream
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


class TestPrequentialConfig:
    def test_defaults(self):
        cfg = PrequentialConfig()
        assert (cfg.window, cfg.warm_start) == (200, 200)

    def test_seed_list_defines_repetitions(self):
        cfg = PrequentialConfig.with_repetitions(5, base_seed=10)
        assert cfg.seeds == (10, 11, 12, 13, 14)
        assert cfg.repetitions == 5

    def test_validation(self):
        with pytest.raises(EvaluationError):
            PrequentialConfig(window=0)
        with pytest.raises(EvaluationError):
            PrequentialConfig(seeds=())


def fried(n, seed=0, d=2, noise=1.0):
    return make_stream(GeneratorSpec(family="friedman_mt", n_examples=n,
                                     n_targets=d, noise_sd=noise, seed=seed))


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

        with pytest.raises(EvaluationError):
            run_prequential(Empty(), TreeConfig(), PrequentialConfig(seeds=(0,)))

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

    def test_report_csv_round_trip(self, tmp_path):
        report = run_prequential(fried(800, seed=2), TreeConfig(variant=Variant.MEAN),
                                 PrequentialConfig(window=200, warm_start=200, seeds=(0,)))
        path = tmp_path / "r.csv"
        write_report_csv(report, path)
        rows = read_report_csv(path)
        assert rows == report.rows


class TestRankTable:
    def test_ranks_are_permutations_with_ties(self):
        table = RankTable.from_scores(["a", "b", "c"],
                                      [[1.0, 2.0, 3.0], [2.0, 2.0, 5.0]])
        np.testing.assert_array_equal(table.ranks[0], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(table.ranks[1], [1.5, 1.5, 3.0])
        assert table.ranks.sum(axis=1).tolist() == [6.0, 6.0]

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(1, 6).flatmap(lambda k: st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, math.inf, math.nan]),
                 min_size=k, max_size=k), min_size=1, max_size=5)))
    def test_ranks_equal_scipy_rankdata(self, rows):
        from scipy.stats import rankdata

        table = RankTable.from_scores([f"a{i}" for i in range(len(rows[0]))], rows)
        expected = np.vstack([rankdata(row, method="average") for row in rows])
        np.testing.assert_array_equal(table.ranks, expected)

    def test_higher_is_better_flips_order(self):
        table = RankTable.from_scores(["a", "b"], [[0.9, 0.1]], lower_is_better=False)
        np.testing.assert_array_equal(table.ranks[0], [1.0, 2.0])


class TestFriedmanNemenyi:
    def test_identical_ranks_never_reject(self):
        table = RankTable.from_scores(["a", "b", "c"], [[1.0, 1.0, 1.0]] * 10)
        result = friedman_nemenyi(table)
        assert result.chi2 == pytest.approx(0.0)
        assert not result.reject
        assert len(result.groups) == 1

    def test_reference_critical_difference(self):
        rng = np.random.default_rng(0)
        table = RankTable.from_scores([f"a{i}" for i in range(5)],
                                      rng.random((16, 5)))
        result = friedman_nemenyi(table)
        assert 1.51 <= result.critical_difference <= 1.53

    def test_hand_built_table_matches_direct_formula(self):
        # 4 blocks x 3 algorithms with fixed ranks
        ranks = np.array([
            [1.0, 2.0, 3.0],
            [1.0, 3.0, 2.0],
            [1.0, 2.0, 3.0],
            [2.0, 1.0, 3.0],
        ])
        table = RankTable(algorithms=("a", "b", "c"), ranks=ranks)
        n, k = 4, 3
        avg = ranks.mean(axis=0)
        chi2 = 12 * n / (k * (k + 1)) * (float(np.sum(avg ** 2)) - k * (k + 1) ** 2 / 4)
        result = friedman_nemenyi(table)
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
        result = friedman_nemenyi(RankTable(algorithms=("a", "b", "c"), ranks=ranks))
        assert result.chi2 == pytest.approx(float(chi2), abs=1e-12)

    def test_total_agreement_rejects(self):
        table = RankTable.from_scores(["a", "b", "c"],
                                      [[1.0, 2.0, 3.0]] * 12)
        result = friedman_nemenyi(table)
        assert result.reject
        assert result.f_stat == math.inf

    def test_groups_follow_the_critical_difference(self):
        ranks = np.tile(np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]), (16, 1))
        jitter = np.random.default_rng(1).normal(0, 0.01, size=(16, 5))
        table = RankTable.from_scores(["v1", "v2", "v3", "v4", "v5"], ranks + jitter)
        result = friedman_nemenyi(table)
        cd = result.critical_difference
        for group in result.groups:
            idx = [table.algorithms.index(g) for g in group]
            spread = max(result.average_ranks[i] for i in idx) \
                - min(result.average_ranks[i] for i in idx)
            assert spread < cd

    def test_unsupported_alpha_rejected(self):
        table = RankTable.from_scores(["a", "b"], [[1.0, 2.0]] * 3)
        with pytest.raises(EvaluationError):
            friedman_nemenyi(table, alpha=0.10)

    def test_too_few_blocks_or_algorithms(self):
        with pytest.raises(EvaluationError):
            friedman_nemenyi(RankTable(algorithms=("a",), ranks=np.ones((3, 1))))
        with pytest.raises(EvaluationError):
            friedman_nemenyi(RankTable(algorithms=("a", "b"), ranks=np.ones((1, 2))))
