import gc
import json
import math
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtstream.schema import (
    FeatureSpec,
    Instance,
    NOMINAL,
    SchemaError,
    StreamSchema,
    Variant,
    numeric_schema,
)
from mtstream.tree import MultiTargetHoeffdingTree, SplitNode, TreeConfig


def linear_instances(n, m=3, d=2, seed=0, noise=0.0):
    """y_t = (t+1)*x1 + t with optional noise; plain deterministic fodder."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        x = rng.random(m)
        y = tuple(float((t + 1) * x[0] + t + (rng.normal(0, noise) if noise else 0.0))
                  for t in range(d))
        out.append(Instance(features=tuple(x.tolist()), targets=y))
    return out


def step_instances(n, m=4, d=2, seed=0):
    """Targets jump at x1 > 0.5 and are constant on each side."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        x = rng.random(m)
        level = 1.0 if x[0] > 0.5 else 0.0
        out.append(Instance(features=tuple(x.tolist()),
                            targets=tuple(10.0 * (t + 1) * level for t in range(d))))
    return out


def grown_tree(instances, schema, variant=Variant.MEAN, **kwargs):
    tree = MultiTargetHoeffdingTree(schema, TreeConfig(variant=variant, **kwargs))
    for inst in instances:
        tree.learn(inst)
    return tree


class TestTreeConfig:
    def test_defaults_are_benchmark_settings(self):
        p = TreeConfig()
        assert (p.delta, p.tau, p.grace_period) == (1e-7, 0.05, 200)

    @pytest.mark.parametrize("kwargs", [
        {"delta": 0.0}, {"delta": 1.0}, {"tau": -0.1}, {"grace_period": 0},
        {"tau": float("nan")}, {"seed": 2**63},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TreeConfig(**kwargs)

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError,
                           match="seed must be >= 0 and <= 9223372036854775807, got -1"):
            TreeConfig(seed=-1)


class TestRouting:
    def test_single_leaf_tree(self):
        tree = MultiTargetHoeffdingTree(numeric_schema(2, 1), TreeConfig())
        inst = Instance(features=(0.1, 0.2), targets=(1.0,))
        assert tree.route(inst) is tree.root

    def test_numeric_split_routes_by_threshold(self):
        tree = MultiTargetHoeffdingTree(numeric_schema(1, 1), TreeConfig())
        left, right = tree._new_leaf(), tree._new_leaf()
        tree.root = SplitNode(0, 1.0, [left, right])
        assert tree.route(Instance(features=(0.0,), targets=(0.0,))) is left
        assert tree.route(Instance(features=(1.0,), targets=(0.0,))) is left
        assert tree.route(Instance(features=(1.5,), targets=(0.0,))) is right

    def test_missing_value_routes_right(self):
        tree = MultiTargetHoeffdingTree(numeric_schema(1, 1), TreeConfig())
        left, right = tree._new_leaf(), tree._new_leaf()
        tree.root = SplitNode(0, 1.0, [left, right])
        assert tree.route(Instance(features=(None,), targets=(0.0,))) is right

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(
        st.tuples(st.one_of(st.none(), st.integers(0, 5)),
                  st.one_of(st.none(), st.integers(0, 5)),
                  st.integers(-5, 5)),
        min_size=20, max_size=80))
    def test_routing_agrees_with_seeding_on_missing_values(self, rows):
        # each child of the root's first split starts with the target count
        # of exactly the learned examples that route() sends to it
        instances = [
            Instance(features=tuple(None if v is None else float(v) for v in (a, b)),
                     targets=(float(y),))
            for a, b, y in rows]
        tree = MultiTargetHoeffdingTree(numeric_schema(2, 1),
                                        TreeConfig(variant=Variant.MEAN, grace_period=20))
        learned = []
        for inst in instances:
            tree.learn(inst)
            learned.append(inst)
            if not tree.root.is_leaf:
                break
        if tree.root.is_leaf:
            return
        children = tree.root.children
        routed = [0] * len(children)
        for inst in learned:
            routed[children.index(tree.route(inst))] += 1
        assert [child.stats.targets[0].n for child in children] == routed

    def test_nominal_routes_by_category(self):
        schema = StreamSchema(
            features=(FeatureSpec("c", kind=NOMINAL, categories=("a", "b", "c")),),
            targets=("y",))
        tree = MultiTargetHoeffdingTree(schema, TreeConfig())
        leaves = [tree._new_leaf() for _ in range(3)]
        tree.root = SplitNode(0, None, leaves)
        assert tree.route(Instance(features=(2,), targets=(0.0,))) is leaves[2]
        assert tree.route(Instance(features=(None,), targets=(0.0,))) is leaves[0]


class TestLearnContract:
    def test_no_attempt_below_grace_period(self):
        tree = grown_tree(linear_instances(199), numeric_schema(3, 2))
        assert tree.split_attempt_count == 0

    def test_attempt_exactly_at_grace_period(self):
        tree = grown_tree(linear_instances(200), numeric_schema(3, 2))
        assert tree.split_attempt_count == 1

    def test_nonfinite_target_rejected_and_counted(self):
        tree = MultiTargetHoeffdingTree(numeric_schema(2, 1), TreeConfig())
        tree.learn(Instance(features=(0.1, 0.2), targets=(math.nan,)))
        tree.learn(Instance(features=(0.1, 0.2), targets=(math.inf,)))
        assert tree.rejected_count == 2
        assert tree.examples_learned == 0
        assert tree.root.examples_seen == 0

    def test_nonfinite_feature_does_not_poison_the_leaf(self):
        instances = linear_instances(300, m=2, d=1, seed=4)
        x = instances[150]
        instances[150] = Instance(features=(math.nan, x.features[1]), targets=x.targets)
        tree = MultiTargetHoeffdingTree(numeric_schema(2, 1),
                                        TreeConfig(variant=Variant.PERCEPTRON))
        predictions = [tree.predict_then_learn(inst) for inst in instances]
        assert all(math.isfinite(v) for p in predictions for v in p.values)
        assert tree.rejected_count == 1
        assert tree.examples_learned == 299

    def test_nonfinite_numerics_predict_as_missing(self):
        tree = grown_tree(step_instances(1000), numeric_schema(4, 2))
        for bad in (math.nan, math.inf, -math.inf):
            assert tree.predict(Instance(features=(bad, 0.3, 0.2, 0.1), targets=(0.0, 0.0))) \
                == tree.predict(Instance(features=(None, 0.3, 0.2, 0.1), targets=(0.0, 0.0)))
        tree.learn(Instance(features=(0.2, math.inf, 0.2, 0.1), targets=(1.0, 1.0)))
        assert tree.rejected_count == 1

    def test_missing_feature_values_skip_stats_and_observers(self):
        tree = MultiTargetHoeffdingTree(numeric_schema(2, 1), TreeConfig())
        tree.learn(Instance(features=(1.0, None), targets=(2.0,)))
        tree.learn(Instance(features=(None, 0.5), targets=(3.0,)))
        leaf = tree.root
        assert leaf.stats.features[0].n == 1
        assert leaf.stats.features[1].n == 1
        leaf.fold_pending()
        assert leaf.observers[0].distinct_keys == 1
        assert leaf.observers[1].distinct_keys == 1
        assert leaf.stats.targets[0].n == 2  # targets always update

    def test_schema_mismatch_is_a_configuration_error(self):
        tree = MultiTargetHoeffdingTree(numeric_schema(2, 1), TreeConfig())
        with pytest.raises(SchemaError):
            tree.learn(Instance(features=(0.1,), targets=(1.0,)))
        with pytest.raises(SchemaError):
            tree.predict(Instance(features=(0.1, 0.2, 0.3), targets=(1.0,)))

    def test_fused_step_matches_predict_then_learn(self):
        instances = linear_instances(800, seed=12, noise=0.3)
        schema = numeric_schema(3, 2)
        fused = MultiTargetHoeffdingTree(schema, TreeConfig(variant=Variant.STACKED_ADAPTIVE, seed=4))
        split = MultiTargetHoeffdingTree(schema, TreeConfig(variant=Variant.STACKED_ADAPTIVE, seed=4))
        for inst in instances:
            a = fused.predict_then_learn(inst)
            b = split.predict(inst)
            split.learn(inst)
            assert a == b
        assert fused.serialize() == split.serialize()

    def test_predict_is_pure(self):
        instances = linear_instances(450, seed=3)
        probe = linear_instances(1, seed=99)[0]
        a = MultiTargetHoeffdingTree(numeric_schema(3, 2),
                                     TreeConfig(variant=Variant.STACKED_ADAPTIVE, seed=5))
        b = MultiTargetHoeffdingTree(numeric_schema(3, 2),
                                     TreeConfig(variant=Variant.STACKED_ADAPTIVE, seed=5))
        for inst in instances:
            a.predict(inst)
            a.predict(probe)
            a.learn(inst)
            b.learn(inst)
        assert a.serialize() == b.serialize()

    @pytest.mark.parametrize("variant", list(Variant))
    def test_predict_on_another_leaf_between_steps_changes_nothing(self, variant):
        instances = step_instances(1500, seed=8)
        schema = numeric_schema(4, 2)
        config = TreeConfig(variant=variant, grace_period=100, seed=2)
        plain = MultiTargetHoeffdingTree(schema, config)
        probed = MultiTargetHoeffdingTree(schema, config)
        elsewhere = 0
        for inst in instances:
            a = plain.predict_then_learn(inst)
            # the mirror image on the split feature lands in the other half
            probe = Instance(features=(1.0 - inst.features[0],) + inst.features[1:],
                             targets=inst.targets)
            elsewhere += probed.route(probe) is not probed.route(inst)
            probed.predict(probe)
            assert probed.predict_then_learn(inst) == a
        assert elsewhere > 500
        assert probed.serialize() == plain.serialize()

    def test_concurrent_predicts_match_serial(self):
        instances = step_instances(1200, seed=6)
        tree = grown_tree(instances, numeric_schema(4, 2),
                          variant=Variant.STACKED_ADAPTIVE, grace_period=100)
        assert tree.leaf_count > 1
        probes = step_instances(300, seed=7)
        serial = [tree.predict(p) for p in probes]
        start = threading.Barrier(4)
        results = [None] * 4

        def worker(k):
            start.wait()
            results[k] = [tree.predict(p) for p in probes]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert all(r == serial for r in results)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_prediction_values_are_python_floats(self, variant):
        schema = StreamSchema(
            features=(FeatureSpec("c", kind=NOMINAL, categories=("a", "b")),
                      FeatureSpec("x"), FeatureSpec("w")),
            targets=("y0", "y1"))
        rng = np.random.default_rng(9)
        tree = MultiTargetHoeffdingTree(schema, TreeConfig(variant=variant, grace_period=50))
        for k in range(400):
            c = int(rng.integers(0, 2))
            x = None if k % 7 == 0 else float(rng.random())
            inst = Instance(features=(c, x, float(rng.random())),
                            targets=(float(c) + (x or 0.0), float(rng.normal())))
            for prediction in (tree.predict(inst), tree.predict_then_learn(inst)):
                assert all(type(v) is float for v in prediction.values)

    def test_empty_tree_mean_prediction_is_zero(self):
        tree = MultiTargetHoeffdingTree(numeric_schema(2, 3),
                                        TreeConfig(variant=Variant.MEAN))
        pred = tree.predict(Instance(features=(0.5, 0.5), targets=(0.0, 0.0, 0.0)))
        assert pred.values == (0.0, 0.0, 0.0)

    def test_root_mean_after_two_examples(self):
        tree = MultiTargetHoeffdingTree(numeric_schema(1, 2),
                                        TreeConfig(variant=Variant.MEAN))
        tree.learn(Instance(features=(0.0,), targets=(1.0, 3.0)))
        tree.learn(Instance(features=(1.0,), targets=(3.0, 5.0)))
        pred = tree.predict(Instance(features=(0.5,), targets=(0.0, 0.0)))
        assert pred.values == pytest.approx((2.0, 4.0))

    @pytest.mark.parametrize("variant", list(Variant))
    def test_constant_stream_converges_to_the_constant(self, variant):
        tree = MultiTargetHoeffdingTree(numeric_schema(2, 2),
                                        TreeConfig(variant=variant, seed=1))
        rng = np.random.default_rng(8)
        inst = None
        for _ in range(1000):
            inst = Instance(features=tuple(rng.random(2).tolist()), targets=(7.0, 7.0))
            tree.learn(inst)
        pred = tree.predict(inst)
        assert pred.values == pytest.approx((7.0, 7.0), abs=1e-6)

    def test_learn_then_predict_reduces_perceptron_error(self):
        schema = numeric_schema(1, 1)
        tree = MultiTargetHoeffdingTree(
            schema, TreeConfig(variant=Variant.PERCEPTRON, learning_rate=0.001,
                               grace_period=10 ** 9, seed=2))
        for inst in linear_instances(2000, m=1, d=1, seed=4):
            tree.learn(inst)
        probe = Instance(features=(0.35,), targets=(1.35,))
        before = abs(tree.predict(probe).values[0] - probe.targets[0])
        tree.learn(probe)
        after = abs(tree.predict(probe).values[0] - probe.targets[0])
        assert after < before


class TestSplitting:
    def test_constant_targets_never_split(self):
        rng = np.random.default_rng(1)
        tree = MultiTargetHoeffdingTree(numeric_schema(3, 2), TreeConfig())
        for _ in range(10_000):
            tree.learn(Instance(features=tuple(rng.random(3).tolist()),
                                targets=(4.0, 4.0)))
        assert tree.split_count == 0
        assert tree.leaf_count == 1

    def test_step_stream_splits_once_on_the_informative_feature(self):
        tree = grown_tree(step_instances(10_000), numeric_schema(4, 2),
                          variant=Variant.MEAN, seed=0)
        assert tree.split_count == 1
        assert isinstance(tree.root, SplitNode)
        assert tree.root.feature == 0
        assert abs(tree.root.threshold - 0.5) < 0.05
        assert all(child.is_leaf for child in tree.root.children)

    def test_children_inherit_parent_weights_exactly(self):
        captured = {}

        class Spy(MultiTargetHoeffdingTree):
            def _execute_split(self, leaf, winner, parent, child_index):
                captured["base"] = leaf.predictors.base.copy()
                captured["meta"] = leaf.predictors.meta.copy()
                super()._execute_split(leaf, winner, parent, child_index)

        tree = Spy(numeric_schema(4, 2), TreeConfig(variant=Variant.STACKED_ADAPTIVE, seed=0))
        for inst in step_instances(5000, seed=1):
            tree.learn(inst)
            if tree.split_count == 1:
                break
        assert tree.split_count == 1
        for child in tree.root.children:
            np.testing.assert_array_equal(child.predictors.base, captured["base"])
            np.testing.assert_array_equal(child.predictors.meta, captured["meta"])
            assert child.predictors.den == 0

    def test_children_seeded_with_branch_target_stats(self):
        tree = grown_tree(step_instances(5000, d=1), numeric_schema(4, 1),
                          variant=Variant.MEAN)
        assert tree.split_count == 1
        left, right = tree.root.children
        # sides were constant 0 and 10; seeded means reflect that immediately
        assert left.stats.targets[0].mean == pytest.approx(0.0, abs=1e-9)
        assert right.stats.targets[0].mean == pytest.approx(10.0, abs=1e-9)
        assert left.stats.targets[0].n > 0

    def test_nominal_split_covers_every_declared_category(self):
        schema = StreamSchema(
            features=(FeatureSpec("c", kind=NOMINAL, categories=("a", "b", "z")),
                      FeatureSpec("x"),),
            targets=("y",))
        tree = MultiTargetHoeffdingTree(schema, TreeConfig(variant=Variant.MEAN))
        rng = np.random.default_rng(0)
        # only categories 0 and 1 ever arrive; targets differ by category
        for _ in range(3000):
            c = int(rng.integers(0, 2))
            tree.learn(Instance(features=(c, float(rng.random())),
                                targets=(float(c * 5.0),)))
        assert tree.split_count == 1
        assert tree.root.threshold is None
        assert len(tree.root.children) == 3  # declared categories, observed or not

    @pytest.mark.parametrize("nominal", [False, True], ids=["numeric", "nominal"])
    def test_moments_beyond_float_range_make_no_candidate(self, nominal):
        """Targets of +-1e153 square beyond float range, so every merit is inf
        or NaN. Such a candidate is no candidate: no numpy warning, and no NaN
        merit ratio that would keep the leaf from ever splitting."""
        if nominal:
            schema = StreamSchema(features=(FeatureSpec("c", kind=NOMINAL, categories=("a", "b")),
                                            FeatureSpec("x")),
                                  targets=("y",))
        else:
            schema = numeric_schema(2, 1)
        tree = MultiTargetHoeffdingTree(schema, TreeConfig(variant=Variant.MEAN,
                                                           grace_period=50))
        rng = np.random.default_rng(0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2000):
                x0, x1, u = rng.random(3).tolist()
                sign = 1.0 if x0 > 0.5 else -1.0
                features = (int(x0 > 0.5), x1) if nominal else (x0, x1)
                tree.learn(Instance(features=features, targets=(sign * 1e153 * (1.0 + u),)))
        assert tree.split_attempt_count == 40
        assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []
        for leaf in _leaves(tree):
            assert all(math.isfinite(v) for v in leaf.ratio.state())


class TestDeterminismAndStructure:
    def test_same_seed_same_bytes(self):
        instances = linear_instances(3000, m=4, d=2, seed=6, noise=0.5)
        schema = numeric_schema(4, 2)
        a = grown_tree(instances, schema, variant=Variant.STACKED_ADAPTIVE, seed=9)
        b = grown_tree(instances, schema, variant=Variant.STACKED_ADAPTIVE, seed=9)
        assert a.serialize() == b.serialize()

    def test_different_seed_different_weights(self):
        instances = linear_instances(300, m=4, d=2, seed=6)
        schema = numeric_schema(4, 2)
        a = grown_tree(instances, schema, variant=Variant.PERCEPTRON, seed=1)
        b = grown_tree(instances, schema, variant=Variant.PERCEPTRON, seed=2)
        assert a.serialize() != b.serialize()

    def test_all_variants_grow_the_same_skeleton(self):
        instances = step_instances(4000, m=4, d=2, seed=2)
        schema = numeric_schema(4, 2)
        skeletons = {
            grown_tree(instances, schema, variant=v, seed=3).serialize_skeleton()
            for v in Variant
        }
        assert len(skeletons) == 1


class TestModelSize:
    def test_empty_tree_baseline_formula(self):
        for m, d in ((2, 1), (5, 3), (10, 4)):
            tree = MultiTargetHoeffdingTree(numeric_schema(m, d),
                                            TreeConfig(variant=Variant.MEAN))
            # node overhead 4 + counters 3 + 3 slots per target stat and
            # numeric feature stat, 8 bytes each; a mean leaf keeps no faded
            # errors
            assert tree.model_size_bytes() == 8 * (4 + 3 + 3 * d + 3 * m)

    def test_stacked_minus_perceptron_is_meta_layer_plus_its_faded_table(self):
        instances = step_instances(5000, m=4, d=3, seed=5)
        schema = numeric_schema(4, 3)
        # the adaptive forms: their faded tables share one denominator, so
        # the stacked predictor adds one numerator per target
        stacked = grown_tree(instances, schema, variant=Variant.STACKED_ADAPTIVE, seed=1)
        perceptron = grown_tree(instances, schema, variant=Variant.ADAPTIVE, seed=1)
        assert stacked.leaf_count == perceptron.leaf_count
        d = 3
        per_leaf = 8 * (d * (d + 1) + d)
        assert stacked.model_size_bytes() - perceptron.model_size_bytes() \
            == stacked.leaf_count * per_leaf

    def test_doubling_leaves_doubles_leaf_bytes(self):
        schema = numeric_schema(3, 2)
        single = MultiTargetHoeffdingTree(schema, TreeConfig(variant=Variant.MEAN))
        leaf_bytes = single.model_size_bytes()
        double = MultiTargetHoeffdingTree(schema, TreeConfig(variant=Variant.MEAN))
        double.root = SplitNode(0, 0.5, [double._new_leaf(), double._new_leaf()])
        split_overhead = 8 * (4 + 2)  # node slots + two child links
        assert double.model_size_bytes() == 2 * leaf_bytes + split_overhead


def _leaves(tree):
    stack, leaves = [tree.root], []
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaves.append(node)
        else:
            stack.extend(node.children)
    return leaves


def _distinct_by_eq(values):
    """Number of distinct values under ==, without hashing."""
    kept = []
    for v in values:
        if all(v != w for w in kept):
            kept.append(v)
    return len(kept)


_MIXED_SCHEMA = StreamSchema(
    features=(FeatureSpec("x"), FeatureSpec("c", kind=NOMINAL, categories=("a", "b", "z")),
              FeatureSpec("w")),
    targets=("y0", "y1"))


class TestMemoryLayout:
    """What a tree keeps of the examples it has learned."""

    def test_no_learned_instance_stays_alive(self):
        tree = MultiTargetHoeffdingTree(
            _MIXED_SCHEMA, TreeConfig(variant=Variant.STACKED_ADAPTIVE, grace_period=100))
        rng = np.random.default_rng(11)

        def learn_one():
            c = None if rng.random() < 0.1 else int(rng.integers(0, 3))
            x = None if rng.random() < 0.2 else float(rng.integers(0, 12)) / 4.0
            w = float(rng.random())
            inst = Instance(features=(x, c, w),
                            targets=(float(c or 0) + w + float(rng.normal(0, 0.1)), 2.0 * w))
            tree.predict_then_learn(inst)
            return weakref.ref(inst)

        refs = [learn_one() for _ in range(450)]  # 450 % 100: some remain pending
        gc.collect()
        assert tree.split_attempt_count >= 4
        assert [r for r in refs if r() is not None] == []

    def test_model_size_accounts_for_what_a_leaf_keeps(self):
        # constant targets: the one mean leaf never splits, and each example's
        # feature values are fresh floats, as a stream's are
        n, m = 19_900, 10
        xs = np.random.default_rng(5).random((n, m))
        targets = (1.0, -2.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tree = MultiTargetHoeffdingTree(numeric_schema(m, 2),
                                            TreeConfig(variant=Variant.MEAN))
            for row in xs:
                tree.learn(Instance(features=tuple(row.tolist()), targets=targets))
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert tree.leaf_count == 1
        assert grown <= 1.05 * tree.model_size_bytes()

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(
        st.tuples(st.one_of(st.none(), st.sampled_from([0.0, -0.0, 0, 1, 1.0, 2, 2.5, -3.0])),
                  st.one_of(st.none(), st.integers(0, 2)),
                  st.one_of(st.none(), st.integers(-2, 2), st.floats(-4, 4, width=16)),
                  st.integers(-5, 5)),
        min_size=1, max_size=120))
    def test_distinct_keys_count_values_routed_since_leaf_creation(self, rows):
        d, n_numeric, n_categories = 2, 2, 3
        tree = MultiTargetHoeffdingTree(
            _MIXED_SCHEMA,
            TreeConfig(variant=Variant.MEAN, grace_period=8, delta=0.9, tau=0.5))
        routed = {}  # leaf -> the (x, w) values of every example routed to it
        folded = {}  # leaf -> how many of them its last split attempt folded
        for x, c, w, y in rows:
            inst = Instance(features=(x, c, w), targets=(float(y), float(y * y)))
            home = tree.route(inst)
            routed.setdefault(home, []).append((x, w))
            tree.learn(inst)
            if home.examples_seen % tree.config.grace_period == 0:
                folded[home] = len(routed[home])  # an attempt folded the pending block

            nodes = tree.leaf_count + tree.split_count
            slots = 4 * nodes + (nodes - 1)  # node overhead, child links
            for leaf in _leaves(tree):
                done = routed.get(leaf, [])[:folded.get(leaf, 0)]
                expected = [_distinct_by_eq([row[k] for row in done if row[k] is not None])
                            for k in (0, 1)]
                assert [leaf.observers[0].distinct_keys, leaf.observers[2].distinct_keys] \
                    == expected
                # counters, target and numeric feature stats, and observers;
                # a mean leaf keeps no faded errors
                slots += 3 + 3 * d + 3 * n_numeric
                slots += (2 + 2 * d) * sum(expected) + (1 + 2 * d) * n_categories
            assert tree.model_size_bytes() == 8 * slots


class TestSerialization:
    def test_format_is_versioned_and_round_trips_as_json(self):
        tree = grown_tree(linear_instances(500), numeric_schema(3, 2),
                          variant=Variant.STACKED_ADAPTIVE)
        doc = json.loads(tree.serialize())
        assert doc["format"] == "mtstream-tree/2"
        assert doc["root"]["kind"] in ("leaf", "split")

    def test_skeleton_hides_leaf_state(self):
        tree = grown_tree(step_instances(3000), numeric_schema(4, 2))
        skeleton = tree.serialize_skeleton()
        assert "observers" not in skeleton
        assert "weights" not in skeleton

    def test_serialize_with_pending_examples_changes_nothing(self):
        # a nominal, a numeric with repeats and missing values, a continuous
        schema = StreamSchema(
            features=(FeatureSpec("c", kind=NOMINAL, categories=("a", "b", "z")),
                      FeatureSpec("x"), FeatureSpec("w")),
            targets=("y0", "y1"))
        rng = np.random.default_rng(4)
        instances = []
        for _ in range(1500):
            c = int(rng.integers(0, 3))
            x = None if rng.random() < 0.2 else float(rng.integers(0, 12)) / 4.0
            w = float(rng.random())
            instances.append(Instance(
                features=(c, x, w),
                targets=(float(c) + w + float(rng.normal(0, 0.1)), 2.0 * w)))
        config = TreeConfig(variant=Variant.STACKED_ADAPTIVE, grace_period=100)
        plain = MultiTargetHoeffdingTree(schema, config)
        probed = MultiTargetHoeffdingTree(schema, config)
        plain_predictions = [plain.predict_then_learn(inst) for inst in instances]
        probed_predictions = []
        missing_seen = False
        for k, inst in enumerate(instances):
            probed_predictions.append(probed.predict_then_learn(inst))
            if k % 37 == 5:  # mid grace period: the leaves hold pending examples
                size = probed.model_size_bytes()
                text = probed.serialize()
                assert probed.model_size_bytes() == size
                assert probed.serialize() == text
                for leaf in _doc_leaves(json.loads(text)["root"]):
                    # 3 features and 2 targets per pending example
                    assert 2 * len(leaf["pending_x"]) == 3 * len(leaf["pending_y"])
                    missing_seen = missing_seen or None in leaf["pending_x"]
        assert missing_seen  # a missing value is written as null
        assert plain.split_count >= 1
        assert probed_predictions == plain_predictions
        assert probed.serialize() == plain.serialize()


def _doc_leaves(node):
    if node["kind"] == "leaf":
        return [node]
    return [leaf for child in node["children"] for leaf in _doc_leaves(child)]
