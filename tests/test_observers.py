import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtstream.observers import EBSTObserver, NominalObserver, ParentStats, moment_block
from mtstream.tree import LeafNode


def moments(ys):
    """Moment column [count, per-target sums, per-target sums of squares] of
    a batch."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    return [float(len(ys)), *ys.sum(axis=0), *(ys ** 2).sum(axis=0)]


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
        assert obs.distinct_keys == 1
        # one column: count, sums, sums of squares
        assert obs.dump() == {"kind": "numeric", "keys": [1.0],
                              "rows": [[1.0], [3.0], [4.0], [9.0], [16.0]]}

    def test_first_seen_order_and_dump(self):
        obs = build_observer([(2.0, (1.0,)), (1.0, (2.0,)), (3.0, (3.0,)),
                              (1.0, (4.0,))], 1)
        # keys are kept sorted whatever order they arrive in
        assert obs.keys.tolist() == [1.0, 2.0, 3.0]
        assert obs.rows[:2].T.tolist() == [[2.0, 6.0], [1.0, 1.0], [1.0, 3.0]]
        assert obs.dump() == {"kind": "numeric", "keys": [1.0, 2.0, 3.0],
                              "rows": [[2.0, 1.0, 1.0], [6.0, 1.0, 3.0], [20.0, 1.0, 9.0]]}

    def test_equal_numbers_share_the_first_seen_key(self):
        obs = build_observer([(0.0, (1.0,)), (-0.0, (1.0,)), (1, (2.0,)),
                              (1.0, (2.0,))], 1)
        assert obs.distinct_keys == 2
        dump = obs.dump()
        assert [repr(key) for key in dump["keys"]] == ["0.0", "1.0"]
        assert dump["rows"][0] == [2.0, 2.0]

    def test_equal_keys_fold_into_one_node(self):
        obs = build_observer([(1.5, (1.0,)), (1.5, (2.0,))], 1)
        assert obs.distinct_keys == 1
        cnt, sums, _ = obs.dump()["rows"]
        assert cnt == [2.0]
        assert sums == [3.0]

    def test_partition_counts_match_brute_force(self):
        rng = np.random.default_rng(42)
        values = rng.choice(np.linspace(0, 1, 80), size=1000)  # repeats on purpose
        pairs = [(float(v), (float(rng.normal()),)) for v in values]
        obs = build_observer(pairs, 1)
        parent = moments([y for _, y in pairs])
        by_threshold = {key: left[0] for key, _, left, _ in obs.candidate_merits(parent)}
        for threshold, left_count in by_threshold.items():
            expected = sum(1 for v, _ in pairs if v <= threshold)
            assert left_count == expected
            assert left_count + (len(pairs) - expected) == len(pairs)

    def test_sorted_inserts_do_not_hit_recursion_limits(self):
        pairs = [(float(i), (float(i),)) for i in range(5000)]
        obs = build_observer(pairs, 1)
        parent = moments([y for _, y in pairs])
        assert len(obs.candidate_merits(parent)) == 4999


class TestScanSplits:
    def test_two_cluster_example(self):
        pairs = [(1.0, (0.0,)), (1.0, (0.0,)), (5.0, (2.0,)), (5.0, (2.0,))]
        obs = build_observer(pairs, 1)
        parent = moments([y for _, y in pairs])
        assert batch_icvar([y for _, y in pairs]) == pytest.approx(4.0 / 3.0)
        best = obs.best_splits(0, ParentStats(parent))
        assert best.threshold == 1.0
        assert best.merit == pytest.approx(4.0 / 3.0)

    def test_constant_targets_give_zero_merit(self):
        pairs = [(float(i), (3.0, 3.0)) for i in range(20)]
        obs = build_observer(pairs, 2)
        parent = moments([y for _, y in pairs])
        for _, merit, _, _ in obs.candidate_merits(parent):
            assert merit == pytest.approx(0.0, abs=1e-12)

    def test_single_distinct_key_yields_no_suggestion(self):
        obs = build_observer([(1.0, (1.0,)), (1.0, (2.0,))], 1)
        parent = moments([(1.0,), (2.0,)])
        assert obs.best_splits(0, ParentStats(parent)) is None

    def test_merits_match_brute_force(self):
        rng = np.random.default_rng(7)
        pairs = [
            (float(rng.random()), tuple(rng.normal(size=3).tolist()))
            for _ in range(200)
        ]
        obs = build_observer(pairs, 3)
        parent = moments([y for _, y in pairs])
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
        parent = moments([y for _, y in pairs])
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


class TestDump:
    def test_each_dump_is_the_stored_block(self):
        numeric, nominal = EBSTObserver(2), NominalObserver(3, 2)
        block = moment_block([(1.0, 2.0), (3.0, -0.0), (0.5, 4.0)])
        numeric.fold(np.array([-0.0, 2.5, 0.0]), block)
        nominal.fold(np.array([2.0, 0.0, 2.0]), block)
        assert numeric.dump() == {"kind": "numeric", "keys": numeric.keys.tolist(),
                                  "rows": numeric.rows.tolist()}
        assert nominal.dump() == {"kind": "nominal", "rows": nominal.rows.tolist()}
        # -0.0 arrived first, so it is the stored key, in the dump and its JSON
        assert repr(numeric.dump()["keys"]) == "[-0.0, 2.5]"
        assert json.dumps(numeric.dump()["keys"]) == "[-0.0, 2.5]"
        assert numeric.dump()["rows"][0] == [2.0, 1.0]


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
        assert shuffled.dump() == obs.dump()
        assert obs.distinct_keys == len({v for v, _ in pairs})

        parent = moments([y for _, y in pairs])
        scanned = {key: merit for key, merit, _, _ in shuffled.candidate_merits(parent)}
        expected = brute_force_merits(pairs)
        assert scanned.keys() == expected.keys()
        for threshold, merit in expected.items():
            assert scanned[threshold] == pytest.approx(merit, rel=1e-9, abs=1e-9)


def one_at_a_time_dump(pairs, d):
    """dump() of pairs folded in plain Python floats: a value's first example
    sets its column, later ones add to it in arrival order; the key is the
    float of the value's first-seen form."""
    columns = {}
    for v, y in pairs:
        column = [1.0, *y, *[t * t for t in y]]
        columns[v] = [a + b for a, b in zip(columns[v], column)] if v in columns else column
    ordered = sorted(columns.items())
    rows = np.array([column for _, column in ordered]).reshape(-1, 1 + 2 * d).T
    return {"kind": "numeric", "keys": [float(key) for key, _ in ordered], "rows": rows.tolist()}


# targets whose sums depend on the order of addition, and a signed zero
_ORDERED_TARGETS = st.tuples(*[st.sampled_from([-0.0, 0.0, 0.1, -2.5, 1e16, 3.0, 1e-3])] * 2)


class TestBlockFold:
    """A leaf folds its pending examples in blocks; any block boundaries give
    the bits of one-at-a-time inserts."""

    _SIGNED_ZEROS = [(0.0, 0, (0.1, 1e16)), (-0.0, 1, (-2.5, 0.1)), (1, None, (3.0, -0.0)),
                     (-0.0, 2, (1e-3, 1e16))]

    @settings(max_examples=80, deadline=None)
    @example(rows=_SIGNED_ZEROS, cuts=set())  # 0.0 then -0.0 in one block
    @example(rows=_SIGNED_ZEROS, cuts={0})  # -0.0 arrives after the key 0.0
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
            leaf.add_pending((v, c), y)
            if k in cuts:
                leaf.fold_pending()
        leaf.fold_pending()
        folded, folded_nominal = leaf.observers

        reference = one_at_a_time_dump([(v, y) for v, _, y in rows if v is not None], 2)
        assert repr(folded.dump()) == repr(numeric.dump())
        assert repr(numeric.dump()) == repr(reference)
        assert folded.distinct_keys == numeric.distinct_keys
        assert folded.memory_slots() == numeric.memory_slots()
        assert repr(folded.keys.tolist()) == repr(numeric.keys.tolist())
        # the stored keys are the split thresholds: each is its value's
        # first-seen float (-0.0 stays -0.0 after a later 0.0)
        assert repr(folded.keys.tolist()) == repr(reference["keys"])
        assert repr(folded_nominal.rows.tolist()) == repr(nominal.rows.tolist())


def unique_fold(keys, rows, values, block):
    """`EBSTObserver.fold` as one stable np.unique merge and one np.add.at
    into -0.0 columns: the reference the observer's fold matches bit for
    bit."""
    n = len(keys)
    merged = np.concatenate((keys, values))
    _, first, inverse = np.unique(merged, return_index=True, return_inverse=True)
    out = np.full((len(rows), len(first)), -0.0)
    out[:, inverse[:n]] = rows
    np.add.at(out.T, inverse[n:], block)
    return merged[first], out


# repeats, signed zeros and integer-valued floats, plus continuous values that
# make whole blocks of new distinct keys
_FOLD_VALUES = st.one_of(_VALUES, st.integers(-3, 3).map(float),
                         st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


class TestFoldMatchesUniqueMerge:
    @settings(max_examples=200, deadline=None)
    @example(blocks=[[(1.0, (0.1, 1e16))], [(2.0, (3.0, -0.0))]])  # one-row blocks, all new
    @example(blocks=[[(0.0, (0.1, 1e16)), (0.5, (1e-3, 3.0))],
                     [(-0.0, (-2.5, 0.1)), (0.25, (-0.0, -0.0))]])
    @given(blocks=st.lists(st.lists(st.tuples(_FOLD_VALUES, _ORDERED_TARGETS),
                                    min_size=1, max_size=12), min_size=2, max_size=6))
    def test_keys_and_rows_are_byte_equal(self, blocks):
        obs = EBSTObserver(2)
        keys, rows = obs.keys, obs.rows
        for block in blocks:
            values = np.array([v for v, _ in block], dtype=float)
            moments = moment_block([y for _, y in block])
            keys, rows = unique_fold(keys, rows, values, moments)
            obs.fold(values, moments)
            assert obs.keys.tobytes() == keys.tobytes()
            assert obs.rows.shape == rows.shape
            assert obs.rows.tobytes() == rows.tobytes()

    def test_an_empty_block_changes_nothing(self):
        obs = EBSTObserver(2)
        empty = np.empty(0), np.empty((0, 5))
        obs.fold(*empty)
        assert obs.distinct_keys == 0 and obs.rows.shape == (5, 0)
        obs.insert(1.0, (2.0, 3.0))
        keys, rows = obs.keys, obs.rows
        obs.fold(*empty)
        assert obs.keys.tobytes() == keys.tobytes()
        assert obs.rows.tobytes() == rows.tobytes()


class TestNominalObserver:
    def test_constant_but_different_categories(self):
        obs = NominalObserver(2, 1)
        for y in (0.0, 0.0):
            obs.insert(0, (y,))
        for y in (2.0, 2.0):
            obs.insert(1, (y,))
        parent = moments([(0.0,), (0.0,), (2.0,), (2.0,)])
        suggestion = obs.suggest(0, ParentStats(parent))
        assert suggestion.merit == pytest.approx(batch_icvar([(0.0,), (0.0,), (2.0,), (2.0,)]))
        assert suggestion.threshold is None
        assert len(suggestion.child_stats) == 2

    def test_single_observed_category(self):
        obs = NominalObserver(3, 1)
        obs.insert(1, (5.0,))
        obs.insert(1, (6.0,))
        assert obs.suggest(0, ParentStats(moments([(5.0,), (6.0,)]))) is None

    def test_uniform_targets_across_categories(self):
        obs = NominalObserver(2, 1)
        rows = [(0, 1.0), (0, 2.0), (1, 1.0), (1, 2.0)]
        for c, y in rows:
            obs.insert(c, (y,))
        parent = moments([(y,) for _, y in rows])
        # children replicate the parent distribution; the n-1 denominators
        # make the weighted child variance slightly exceed the parent's
        assert obs.suggest(0, ParentStats(parent)).merit <= 0.0

    def test_count_invariant(self):
        rng = np.random.default_rng(5)
        obs = NominalObserver(4, 2)
        n = 200
        for _ in range(n):
            obs.insert(int(rng.integers(0, 4)), tuple(rng.normal(size=2).tolist()))
        assert sum(obs.dump()["rows"][0]) == n

    def test_matches_batch_partition_oracle(self):
        rng = np.random.default_rng(9)
        rows = [(int(rng.integers(0, 3)), tuple(rng.normal(size=2).tolist()))
                for _ in range(150)]
        obs = NominalObserver(3, 2)
        for c, y in rows:
            obs.insert(c, y)
        parent = moments([y for _, y in rows])
        per_cat = [[y for c, y in rows if c == cat] for cat in range(3)]
        expected = batch_icvar([y for _, y in rows]) - sum(
            (len(g) / len(rows)) * batch_icvar(g) for g in per_cat if g
        )
        assert obs.suggest(0, ParentStats(parent)).merit == pytest.approx(expected, abs=1e-9)

    def test_unobserved_category_contributes_nothing(self):
        # category 1 is declared but never observed: the merit is that of the
        # two observed categories alone
        rows = [(0, 0.0), (0, 1.0), (2, 2.0), (2, 4.0), (2, 3.0)]
        obs = NominalObserver(3, 1)
        for c, y in rows:
            obs.insert(c, (y,))
        parent = moments([(y,) for _, y in rows])
        suggestion = obs.suggest(0, ParentStats(parent))
        expected = batch_icvar([(y,) for _, y in rows]) \
            - (2 / 5) * batch_icvar([(0.0,), (1.0,)]) \
            - (3 / 5) * batch_icvar([(2.0,), (4.0,), (3.0,)])
        assert suggestion.merit == pytest.approx(expected, abs=1e-12)
        assert suggestion.child_stats[1] == [0.0, 0.0, 0.0]
