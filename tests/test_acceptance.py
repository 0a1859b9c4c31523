"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with `pytest tests/test_acceptance.py -s` to see
them). Expected values come from independent oracles computed in-line:
high-precision arithmetic, exhaustive brute force, batch recomputation, or
closed-form hand results.
"""

import math
import time
from fractions import Fraction

import numpy as np

from mtstream import (
    GeneratorSpec,
    Instance,
    PrequentialConfig,
    RankTable,
    TreeConfig,
    Variant,
    friedman_nemenyi,
    hoeffding_bound,
    make_stream,
    numeric_schema,
    run_prequential,
)
from mtstream.leaf_models import AffineLayer, FadedError
from mtstream.observers import EBSTObserver
from mtstream.stats import RunningStats
from mtstream.tree import MultiTargetHoeffdingTree


def report(n, message):
    print(f"\nACCEPTANCE CRITERION {n}: PASS - {message}")


# -- 1: bound arithmetic ------------------------------------------------------

def test_criterion_01_bound_value_and_monotonicity():
    started = time.perf_counter()
    # frozen oracle: sqrt(ln(2/1e-7)/400) evaluated at 50-digit precision
    expected = 0.20500757810089767
    assert abs(hoeffding_bound(200, 1e-7) - expected) <= 1e-6

    values = [hoeffding_bound(n, 1e-7) for n in range(1, 100_001)]
    diffs = np.diff(np.asarray(values))
    assert np.all(diffs < 0.0)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"bound(200, 1e-7) = {values[199]:.9f}, strictly decreasing over "
              f"n in 1..1e5 ({elapsed:.2f}s < 1s)")


# -- 2: split merits against exhaustive brute force ---------------------------

def _batch_icvar(ys, masks):
    """Per mask row: the mean over targets of the sample variance of the rows
    it selects, by two passes (the mean, then squared deviations from it);
    0 when it selects fewer than 2 rows."""
    w = masks.astype(float)
    counts = w.sum(axis=1)
    means = (w @ ys) / np.maximum(counts, 1.0)[:, None]
    sq_dev = np.einsum("ti,tid->td", w, (ys[None, :, :] - means[:, None, :]) ** 2)
    icvar = (sq_dev / np.maximum(counts - 1.0, 1.0)[:, None]).mean(axis=1)
    return np.where(counts >= 2, icvar, 0.0)


def _brute_force_best(xs, ys):
    """Exhaustive (feature, threshold, merit) search, every threshold of a
    feature at once; ties break toward the lower feature index, then the
    lower threshold."""
    n, m = xs.shape
    parent = float(_batch_icvar(ys, np.ones((1, n), dtype=bool))[0])
    best = None
    for f in range(m):
        thresholds = np.unique(xs[:, f])
        left = xs[:, f][None, :] <= thresholds[:, None]
        n_left = left.sum(axis=1)
        merits = parent \
            - (n_left / n) * _batch_icvar(ys, left) \
            - ((n - n_left) / n) * _batch_icvar(ys, ~left)
        for threshold, k, merit in zip(thresholds.tolist(), n_left.tolist(),
                                       merits.tolist()):
            if k < 1 or n - k < 1:
                continue
            if best is None or merit > best[2] + 1e-15:
                best = (f, threshold, merit)
    return best


def test_criterion_02_scan_matches_brute_force():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    m, d, n = 5, 3, 200
    for trial in range(50):
        xs = rng.random((n, m))
        ys = rng.normal(size=(n, d)) + 3.0 * xs[:, [trial % m]]
        parent = (float(n), tuple(ys.sum(axis=0)), tuple((ys ** 2).sum(axis=0)))
        best = None
        for f in range(m):
            obs = EBSTObserver(d)
            for i in range(n):
                obs.insert(float(xs[i, f]), ys[i])
            cand, _ = obs.best_splits(f, parent)
            if cand is not None and (best is None or cand.merit > best.merit):
                best = cand
        oracle = _brute_force_best(xs, ys)
        assert best.feature == oracle[0]
        assert best.threshold == oracle[1]
        assert abs(best.merit - oracle[2]) <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(2, f"50 random streams: best (feature, threshold, merit) equals "
              f"brute force within 1e-9 ({elapsed:.2f}s < 10s)")


# -- 3: incremental statistics equal batch recomputation ----------------------

def test_criterion_03_incremental_equals_batch():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(10_000):
        length = int(rng.integers(2, 1001))
        data = rng.uniform(10.0, 100.0, size=length)
        rs = RunningStats()
        for v in data.tolist():
            rs.update(v)
        mean = float(np.mean(data))
        var = float(np.var(data, ddof=1))
        sd = math.sqrt(var) if var > 0 else 0.0
        assert abs(rs.mean - mean) <= 1e-9 * abs(mean)
        assert abs(rs.variance() - var) <= 1e-9 * max(abs(var), 1e-12)
        probe = float(data.max()) + 1.0
        expected_z = (probe - mean) / sd if sd >= 1e-12 else 0.0
        assert abs(rs.zscore(probe) - expected_z) <= 1e-9 * max(abs(expected_z), 1e-12)
        checked += 1
    report(3, f"{checked} random sequences: mean/variance/z-score match "
              "two-pass batch values within 1e-9 relative")


# -- 4: structural determinism and variant independence -----------------------

def test_criterion_04_skeleton_identity_and_rerun_determinism():
    started = time.perf_counter()
    spec = GeneratorSpec(family="friedman_mt", n_examples=20_000, n_targets=3,
                         noise_sd=1.0, seed=42)

    def grow(variant):
        tree = MultiTargetHoeffdingTree(make_stream(spec).schema,
                                        TreeConfig(variant=variant, seed=7))
        for inst in make_stream(spec):
            tree.learn(inst)
        return tree

    trees = {v: grow(v) for v in Variant}
    skeletons = {t.serialize_skeleton() for t in trees.values()}
    assert len(skeletons) == 1
    assert trees[Variant.MEAN].split_count > 0  # non-trivial structure

    rerun = grow(Variant.STACKED_ADAPTIVE)
    assert rerun.serialize() == trees[Variant.STACKED_ADAPTIVE].serialize()

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(4, f"5 variants share one skeleton ({trees[Variant.MEAN].leaf_count} "
              f"leaves); rerun byte-identical ({elapsed:.1f}s < 30s)")


# -- 5: constant stacked overhead ---------------------------------------------

def _step_stream(n, m, d, seed):
    rng = np.random.default_rng(seed)
    xs = rng.random((n, m))
    for i in range(n):
        level = 1.0 if xs[i, 0] > 0.5 else 0.0
        yield Instance(features=tuple(xs[i].tolist()),
                       targets=tuple(10.0 * (t + 1) * level + t for t in range(d)))


def test_criterion_05_stacked_overhead_is_per_leaf_constant():
    for d, m in ((2, 4), (3, 6), (5, 3)):
        schema = numeric_schema(m, d)
        trees = {}
        for variant in (Variant.STACKED, Variant.PERCEPTRON):
            tree = MultiTargetHoeffdingTree(schema, TreeConfig(variant=variant, seed=1))
            for inst in _step_stream(3000, m, d, seed=11):
                tree.learn(inst)
            trees[variant] = tree
        stacked, perceptron = trees[Variant.STACKED], trees[Variant.PERCEPTRON]
        assert stacked.leaf_count == perceptron.leaf_count
        assert stacked.leaf_count >= 2  # at least one split happened
        # meta weights d(d+1) plus the stacked predictor's faded table (2d),
        # 8 bytes per slot
        per_leaf = 8 * (d * (d + 1) + 2 * d)
        diff = stacked.model_size_bytes() - perceptron.model_size_bytes()
        assert diff == stacked.leaf_count * per_leaf
    report(5, "size(stacked) - size(perceptron) = leaves x 8(d^2 + 3d) bytes, "
              "exactly, for (d,m) in {(2,4), (3,6), (5,3)}")


# -- 6: adaptive variant tracks the best fixed predictor ----------------------

def test_criterion_06_adaptive_dominance_at_desk_scale():
    started = time.perf_counter()
    seeds = (1, 2, 3, 4, 5)
    fixed = (Variant.MEAN, Variant.PERCEPTRON, Variant.STACKED)
    config = PrequentialConfig(window=200, warm_start=200, seeds=(0,))
    means = {}
    for variant in fixed + (Variant.STACKED_ADAPTIVE,):
        scores = []
        for seed in seeds:
            spec = GeneratorSpec(family="friedman_mt", n_examples=50_000,
                                 n_targets=4, noise_sd=0.0, seed=seed)
            r = run_prequential(make_stream(spec), TreeConfig(variant=variant),
                                config, seed=seed)
            scores.append(r.cum_armse)
        means[variant] = sum(scores) / len(scores)
    best_fixed = min(means[v] for v in fixed)
    adaptive = means[Variant.STACKED_ADAPTIVE]
    elapsed = time.perf_counter() - started
    assert adaptive <= 1.05 * best_fixed
    assert elapsed < 180.0
    detail = ", ".join(f"{v.value}={means[v]:.4f}" for v in means)
    report(6, f"{detail}; adaptive/best_fixed = {adaptive / best_fixed:.4f} "
              f"<= 1.05 ({elapsed:.0f}s < 180s)")


# -- 7: selection always takes the current faded-error argmin ------------------

def test_criterion_07_selection_matches_faded_error_argmin():
    spec = GeneratorSpec(family="friedman_mt", n_examples=10_000, n_targets=3,
                         noise_sd=1.0, seed=17)
    source = make_stream(spec)
    tree = MultiTargetHoeffdingTree(source.schema,
                                    TreeConfig(variant=Variant.STACKED_ADAPTIVE, seed=6))
    order = Variant.STACKED_ADAPTIVE.selectable
    checked = 0
    for inst in source:
        leaf = tree.route(inst)
        snapshot = {name: leaf.predictors.fmae[name].values() for name in order}
        prediction = tree.predict_then_learn(inst)
        for t, chosen in enumerate(prediction.per_target_source):
            best = min(order, key=lambda name: (snapshot[name][t],
                                                order.index(name)))
            assert chosen == best
            assert snapshot[chosen][t] <= min(snapshot[name][t] for name in order)
            checked += 1
    report(7, f"{checked} per-target selections all matched the fMAE argmin "
              "at selection time")


# -- 8: critical-difference reproduction ---------------------------------------

def test_criterion_08_nemenyi_critical_difference():
    table = RankTable.from_scores(
        [f"algo{i}" for i in range(5)],
        np.random.default_rng(8).random((16, 5)))
    result = friedman_nemenyi(table, alpha=0.05)
    assert 1.51 <= result.critical_difference <= 1.53
    report(8, f"k=5, N=16, alpha=0.05 -> CD = {result.critical_difference:.4f} "
              "in [1.51, 1.53]")


# -- 9: faded-error fixed point -------------------------------------------------

def test_criterion_09_faded_error_fixed_point():
    fe = FadedError(1)
    for _ in range(500):
        fe.update_one(0, 0.7)
    assert abs(fe.value(0) - 0.7) < 1e-6

    fe2 = FadedError(1)
    fe2.update_one(0, 1.0)
    fe2.update_one(0, 0.0)
    assert fe2.value(0) == 0.95 / 1.95
    assert Fraction(19, 20) / Fraction(39, 20) == Fraction(19, 39)  # exact form
    report(9, f"constant 0.7 stream -> fMAE {fe.value(0):.9f}; "
              f"(1, 0) sequence -> exactly 0.95/1.95 = {0.95 / 1.95:.9f}")


# -- 10: delta-rule convergence to the least-squares line ------------------------

def test_criterion_10_delta_rule_recovers_the_line():
    rng = np.random.default_rng(10)
    layer = AffineLayer(rng.uniform(-1.0, 1.0, size=(1, 2)))
    xs = rng.uniform(-1.0, 1.0, size=10_000)
    targets = 1.0 + 2.0 * xs
    for x, y in zip(xs, targets):
        layer.update(np.array([x]), np.array([y]), learning_rate=0.01)
    design = np.column_stack([np.ones_like(xs), xs])
    oracle, *_ = np.linalg.lstsq(design, targets, rcond=None)
    assert abs(layer.weights[0, 0] - oracle[0]) <= 0.05
    assert abs(layer.weights[0, 1] - oracle[1]) <= 0.05
    report(10, f"recovered (bias, slope) = ({layer.weights[0, 0]:.4f}, "
               f"{layer.weights[0, 1]:.4f}) vs least squares ({oracle[0]:.4f}, "
               f"{oracle[1]:.4f}) within 0.05")
