import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtstream.observers import (
    EBSTObserver,
    NominalObserver,
    intra_cluster_variance,
    variance_reduction,
)
from mtstream.schema import Instance
from mtstream.tree import LeafNode


def triple(ys):
    """Raw (count, per-target sums, per-target sums of squares) for a batch."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    return (float(len(ys)), tuple(ys.sum(axis=0)), tuple((ys ** 2).sum(axis=0)))


def batch_icvar(ys):
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if len(ys) < 2:
        return 0.0
    return float(np.mean(np.var(ys, axis=0, ddof=1)))


def brute_force_merits(pairs):
    """Every distinct observed value as a threshold, evaluated from scratch."""
    values = sorted({v for v, _ in pairs})
    all_y = [y for _, y in pairs]
    parent_icvar = batch_icvar(all_y)
    n = len(pairs)
    out = {}
    for threshold in values:
        left = [y for v, y in pairs if v <= threshold]
        right = [y for v, y in pairs if v > threshold]
        if not left or not right:
            continue
        out[threshold] = parent_icvar \
            - (len(left) / n) * batch_icvar(left) \
            - (len(right) / n) * batch_icvar(right)
    return out


def build_observer(pairs, d):
    obs = EBSTObserver(d)
    for v, y in pairs:
        obs.insert(v, y)
    return obs


class TestInsert:
    def test_first_insertion(self):
        obs = EBSTObserver(2)
        obs.insert(1.0, (3.0, 4.0))
        assert obs.node_count == 1
        key, cnt, sums, sumsqs = obs.key_ordered_dump()[0]
        assert (key, cnt) == (1.0, 1.0)
        assert sums == [3.0, 4.0]
        assert sumsqs == [9.0, 16.0]

    def test_first_seen_order_and_key_ordered_dump(self):
        obs = build_observer([(2.0, (1.0,)), (1.0, (2.0,)), (3.0, (3.0,)),
                              (1.0, (4.0,))], 1)
        # keys are kept sorted whatever order they arrive in
        assert obs.keys.tolist() == [1.0, 2.0, 3.0]
        assert obs.rows[:2].T.tolist() == [[2.0, 6.0], [1.0, 1.0], [1.0, 3.0]]
        assert obs.key_ordered_dump() == [[1.0, 2.0, [6.0], [20.0]],
                                          [2.0, 1.0, [1.0], [1.0]],
                                          [3.0, 1.0, [3.0], [9.0]]]

    def test_equal_numbers_share_the_first_seen_key(self):
        obs = build_observer([(0.0, (1.0,)), (-0.0, (1.0,)), (1, (2.0,)),
                              (1.0, (2.0,))], 1)
        assert obs.node_count == 2
        dump = obs.key_ordered_dump()
        assert [repr(row[0]) for row in dump] == ["0.0", "1"]
        assert [row[1] for row in dump] == [2.0, 2.0]

    def test_equal_keys_fold_into_one_node(self):
        obs = build_observer([(1.5, (1.0,)), (1.5, (2.0,))], 1)
        assert obs.node_count == 1
        key, cnt, sums, _ = obs.key_ordered_dump()[0]
        assert cnt == 2.0
        assert sums == [3.0]

    def test_partition_counts_match_brute_force(self):
        rng = np.random.default_rng(42)
        values = rng.choice(np.linspace(0, 1, 80), size=1000)  # repeats on purpose
        pairs = [(float(v), (float(rng.normal()),)) for v in values]
        obs = build_observer(pairs, 1)
        parent = triple([y for _, y in pairs])
        by_threshold = {key: left[0] for key, _, left, _ in obs.candidate_merits(parent)}
        for threshold, left_count in by_threshold.items():
            expected = sum(1 for v, _ in pairs if v <= threshold)
            assert left_count == expected
            assert left_count + (len(pairs) - expected) == len(pairs)

    def test_sorted_inserts_do_not_hit_recursion_limits(self):
        pairs = [(float(i), (float(i),)) for i in range(5000)]
        obs = build_observer(pairs, 1)
        parent = triple([y for _, y in pairs])
        assert len(obs.candidate_merits(parent)) == 4999


class TestScanSplits:
    def test_two_cluster_example(self):
        pairs = [(1.0, (0.0,)), (1.0, (0.0,)), (5.0, (2.0,)), (5.0, (2.0,))]
        obs = build_observer(pairs, 1)
        parent = triple([y for _, y in pairs])
        assert intra_cluster_variance(*parent) == pytest.approx(4.0 / 3.0)
        best, second = obs.best_splits(0, parent)
        assert best.threshold == 1.0
        assert best.merit == pytest.approx(4.0 / 3.0)
        assert second is None  # only one usable threshold (largest key excluded)

    def test_constant_targets_give_zero_merit(self):
        pairs = [(float(i), (3.0, 3.0)) for i in range(20)]
        obs = build_observer(pairs, 2)
        parent = triple([y for _, y in pairs])
        for _, merit, _, _ in obs.candidate_merits(parent):
            assert merit == pytest.approx(0.0, abs=1e-12)

    def test_single_distinct_key_yields_no_suggestion(self):
        obs = build_observer([(1.0, (1.0,)), (1.0, (2.0,))], 1)
        parent = triple([(1.0,), (2.0,)])
        assert obs.best_splits(0, parent) == (None, None)

    def test_merits_match_brute_force(self):
        rng = np.random.default_rng(7)
        pairs = [
            (float(rng.random()), tuple(rng.normal(size=3).tolist()))
            for _ in range(200)
        ]
        obs = build_observer(pairs, 3)
        parent = triple([y for _, y in pairs])
        scanned = {key: merit for key, merit, _, _ in obs.candidate_merits(parent)}
        expected = brute_force_merits(pairs)
        assert scanned.keys() == expected.keys()
        for threshold, merit in expected.items():
            assert scanned[threshold] == pytest.approx(merit, abs=1e-9)

    def test_insertion_order_does_not_change_merits(self):
        rng = np.random.default_rng(3)
        pairs = [
            (float(rng.integers(0, 30)), (float(rng.normal()), float(rng.normal())))
            for _ in range(300)
        ]
        parent = triple([y for _, y in pairs])
        reference = {
            key: merit
            for key, merit, _, _ in build_observer(pairs, 2).candidate_merits(parent)
        }
        for _ in range(5):
            perm = [pairs[i] for i in rng.permutation(len(pairs))]
            shuffled = {
                key: merit
                for key, merit, _, _ in build_observer(perm, 2).candidate_merits(parent)
            }
            assert shuffled.keys() == reference.keys()
            for key in reference:
                assert shuffled[key] == pytest.approx(reference[key], abs=1e-9)


# values that collide in a hash index but not in identity: signed zeros and
# ints equal to floats, next to plain repeats
_VALUES = st.sampled_from([0.0, -0.0, 0, 1, 1.0, -1, -1.0, 2.5, 3, 3.0, -7.25, 1e6])
# small integer targets keep every sum exact, so any insertion order gives
# bit-identical rows
_TARGETS = st.tuples(st.integers(-50, 50), st.integers(-50, 50)).map(
    lambda ys: tuple(float(y) for y in ys))


class TestHashIndexProperties:
    @settings(max_examples=60, deadline=None)
    @given(pairs=st.lists(st.tuples(_VALUES, _TARGETS), min_size=1, max_size=60),
           data=st.data())
    def test_any_insertion_order_matches_the_oracle(self, pairs, data):
        perm = data.draw(st.permutations(pairs))
        obs = build_observer(pairs, 2)
        shuffled = build_observer(perm, 2)
        assert shuffled.key_ordered_dump() == obs.key_ordered_dump()
        assert obs.node_count == len({v for v, _ in pairs})

        parent = triple([y for _, y in pairs])
        scanned = {key: merit for key, merit, _, _ in shuffled.candidate_merits(parent)}
        expected = brute_force_merits(pairs)
        assert scanned.keys() == expected.keys()
        for threshold, merit in expected.items():
            assert scanned[threshold] == pytest.approx(merit, rel=1e-9, abs=1e-9)


def one_at_a_time_dump(pairs, d):
    """key_ordered_dump() of pairs folded in plain Python floats: a value's
    first example sets its row, later ones add to it in arrival order."""
    rows = {}
    for v, y in pairs:
        row = [1.0, *y, *[t * t for t in y]]
        rows[v] = [a + b for a, b in zip(rows[v], row)] if v in rows else row
    return [[key, row[0], row[1:1 + d], row[1 + d:]]
            for key, row in sorted(rows.items())]


# targets whose sums depend on the order of addition, and a signed zero
_ORDERED_TARGETS = st.tuples(*[st.sampled_from([-0.0, 0.0, 0.1, -2.5, 1e16, 3.0, 1e-3])] * 2)


class TestBlockFold:
    """A leaf folds its pending examples in blocks; any block boundaries give
    the bits of one-at-a-time inserts."""

    @settings(max_examples=80, deadline=None)
    @given(rows=st.lists(st.tuples(st.one_of(st.none(), _VALUES),
                                   st.one_of(st.none(), st.integers(0, 2)),
                                   _ORDERED_TARGETS), min_size=1, max_size=60),
           cuts=st.sets(st.integers(0, 59)))
    def test_blocks_equal_one_at_a_time(self, rows, cuts):
        numeric, nominal = EBSTObserver(2), NominalObserver(3, 2)
        for v, c, y in rows:
            if v is not None:
                numeric.insert(v, y)
            if c is not None:
                nominal.insert(c, y)

        leaf = LeafNode(None, [EBSTObserver(2), NominalObserver(3, 2)], None)
        for k, (v, c, y) in enumerate(rows):
            if v is not None:
                leaf.observers[0].seen.add(v)
            leaf.pending.append(Instance(features=(v, c), targets=y))
            if k in cuts:
                leaf.fold_pending()
        leaf.fold_pending()
        folded, folded_nominal = leaf.observers

        assert repr(folded.key_ordered_dump()) == repr(numeric.key_ordered_dump())
        assert repr(numeric.key_ordered_dump()) == repr(one_at_a_time_dump(
            [(v, y) for v, _, y in rows if v is not None], 2))
        assert folded.node_count == numeric.node_count
        assert folded.memory_slots() == numeric.memory_slots()
        assert repr(folded.keys.tolist()) == repr(numeric.keys.tolist())
        assert repr(folded_nominal.table.tolist()) == repr(nominal.table.tolist())


class TestNominalObserver:
    def test_constant_but_different_categories(self):
        obs = NominalObserver(2, 1)
        for y in (0.0, 0.0):
            obs.insert(0, (y,))
        for y in (2.0, 2.0):
            obs.insert(1, (y,))
        parent = triple([(0.0,), (0.0,), (2.0,), (2.0,)])
        suggestion = obs.suggest(0, parent)
        assert suggestion.merit == pytest.approx(intra_cluster_variance(*parent))
        assert suggestion.is_nominal
        assert len(suggestion.child_stats) == 2

    def test_single_observed_category(self):
        obs = NominalObserver(3, 1)
        obs.insert(1, (5.0,))
        obs.insert(1, (6.0,))
        assert obs.suggest(0, triple([(5.0,), (6.0,)])) is None

    def test_uniform_targets_across_categories(self):
        obs = NominalObserver(2, 1)
        rows = [(0, 1.0), (0, 2.0), (1, 1.0), (1, 2.0)]
        for c, y in rows:
            obs.insert(c, (y,))
        parent = triple([(y,) for _, y in rows])
        # children replicate the parent distribution; the n-1 denominators
        # make the weighted child variance slightly exceed the parent's
        assert obs.suggest(0, parent).merit <= 0.0

    def test_count_invariant(self):
        rng = np.random.default_rng(5)
        obs = NominalObserver(4, 2)
        n = 200
        for _ in range(n):
            obs.insert(int(rng.integers(0, 4)), tuple(rng.normal(size=2).tolist()))
        assert sum(obs.cnt) == n

    def test_matches_batch_partition_oracle(self):
        rng = np.random.default_rng(9)
        rows = [(int(rng.integers(0, 3)), tuple(rng.normal(size=2).tolist()))
                for _ in range(150)]
        obs = NominalObserver(3, 2)
        for c, y in rows:
            obs.insert(c, y)
        parent = triple([y for _, y in rows])
        per_cat = [[y for c, y in rows if c == cat] for cat in range(3)]
        expected = batch_icvar([y for _, y in rows]) - sum(
            (len(g) / len(rows)) * batch_icvar(g) for g in per_cat if g
        )
        assert obs.suggest(0, parent).merit == pytest.approx(expected, abs=1e-9)


def test_variance_reduction_ignores_empty_children():
    parent = triple([(0.0,), (1.0,), (2.0,)])
    children = [triple([(0.0,), (1.0,), (2.0,)]), (0.0, (0.0,), (0.0,))]
    assert variance_reduction(parent, children) == pytest.approx(0.0)
