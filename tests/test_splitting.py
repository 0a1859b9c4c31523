import math

import pytest

from mtstream.observers import SplitSuggestion
from mtstream.splitting import MeritRatio, decide_split, hoeffding_bound
from mtstream.tree import TreeConfig


def suggestion(merit, feature=0, threshold=0.5):
    return SplitSuggestion(feature=feature, merit=merit, threshold=threshold,
                           child_stats=[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


class TestHoeffdingBound:
    def test_reference_value(self):
        # frozen from 50-digit evaluation of sqrt(ln(2/1e-7)/400)
        assert hoeffding_bound(200, 1e-7) == pytest.approx(0.20500757810089767, abs=1e-12)

    def test_log_of_one_gives_zero(self):
        assert hoeffding_bound(1, 2.0) == 0.0

    def test_strictly_decreasing_in_n(self):
        values = [hoeffding_bound(n, 1e-7) for n in (1, 2, 5, 50, 1000, 100000)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert hoeffding_bound(2, 1e-7) < hoeffding_bound(1, 1e-7)

    def test_grows_as_delta_shrinks(self):
        assert hoeffding_bound(100, 1e-9) > hoeffding_bound(100, 1e-3)

    def test_rejects_zero_observations(self):
        with pytest.raises(ValueError):
            hoeffding_bound(0, 1e-7)


class TestDecideSplit:
    def test_confident_gap_splits(self):
        # ratio observation 0.5; n chosen so that xi ~ 0.3 and 0.8 < 1
        config = TreeConfig()
        n = math.ceil(math.log(2 / config.delta) / (2 * 0.3 ** 2))
        ratio = MeritRatio()
        winner = decide_split(suggestion(1.0), suggestion(0.5, feature=1), ratio, config, n)
        assert winner is not None and winner.feature == 0
        assert ratio.mean == pytest.approx(0.5)

    def test_tie_break_forces_split(self):
        # near-equal merits keep the ratio at ~1, but xi < tau unlocks the split
        config = TreeConfig()
        n = math.ceil(math.log(2 / config.delta) / (2 * config.tau ** 2))
        assert hoeffding_bound(n, config.delta) < config.tau
        ratio = MeritRatio()
        winner = decide_split(suggestion(1.0), suggestion(0.999, feature=1), ratio, config, n)
        assert winner is not None

    def test_zero_merit_keeps_waiting_without_ratio_update(self):
        ratio = MeritRatio()
        assert decide_split(suggestion(0.0), suggestion(0.0, feature=1), ratio,
                            TreeConfig(), 10_000) is None
        assert ratio.n_ratio == 0

    def test_missing_second_counts_as_zero_ratio(self):
        config = TreeConfig()
        ratio = MeritRatio()
        n = math.ceil(math.log(2 / config.delta) / 2) + 1  # xi < 1
        winner = decide_split(suggestion(2.0), None, ratio, config, n)
        assert winner is not None
        assert ratio.mean == 0.0

    def test_negative_second_merit_clamps_to_zero(self):
        ratio = MeritRatio()
        decide_split(suggestion(1.0), suggestion(-0.5, feature=1), ratio,
                     TreeConfig(), 5)
        assert ratio.mean == 0.0

    def test_uncertain_leaf_keeps_waiting(self):
        # two equally good features, few examples: no split either way
        ratio = MeritRatio()
        winner = decide_split(suggestion(1.0), suggestion(0.98, feature=1), ratio,
                              TreeConfig(), 5)
        assert winner is None

    def test_running_mean_accumulates(self):
        config = TreeConfig()
        ratio = MeritRatio()
        decide_split(suggestion(1.0), suggestion(0.8, feature=1), ratio, config, 5)
        decide_split(suggestion(1.0), suggestion(0.4, feature=1), ratio, config, 5)
        assert ratio.n_ratio == 2
        assert ratio.mean == pytest.approx(0.6)


class TestDominantFeatureProperty:
    def test_split_arrives_within_ratio_bound(self):
        """One perfectly informative feature against a useless one: the split
        must arrive within ceil(ln(2/delta)/(2*0.25)) observations."""
        from mtstream.schema import Instance, numeric_schema
        from mtstream.tree import MultiTargetHoeffdingTree, TreeConfig
        from mtstream.schema import Variant

        params_bound = math.ceil(math.log(2 / 1e-7) / (2 * 0.25))
        schema = numeric_schema(2, 1)
        config = TreeConfig(variant=Variant.MEAN, grace_period=1, seed=0)
        tree = MultiTargetHoeffdingTree(schema, config)
        pattern = [(0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 0.0, 1.0), (1.0, 1.0, 1.0)]
        examples_to_split = None
        for i in range(200):
            x1, x2, y = pattern[i % 4]
            tree.learn(Instance(features=(x1, x2), targets=(y,)))
            if tree.split_count > 0:
                examples_to_split = i + 1
                break
        assert examples_to_split is not None
        assert examples_to_split <= params_bound
        assert tree.root.feature == 0
