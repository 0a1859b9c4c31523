"""Per-feature split-candidate observers.

Numeric features are tracked per distinct observed value: one column per
value, accumulating the count, per-target sum, and per-target sum of squares
of the examples carrying that exact value. Examples arrive in blocks: `fold`
merges a block's new values into the sorted key array with `searchsorted`
and `insert`, each new value's column being its first example's (1, y, y^2)
row, then adds every later example's row to its key's column with one
`np.add.at`, in arrival order. The keys stay sorted, so scanning
candidates is one prefix sum over the columns, which reconstructs, for every
observed value as a `v <= key` threshold, the exact left/right partition
statistics in a handful of vectorized passes.

Nominal features keep one aggregate row per declared category, folded the
same way, and propose a single multiway split over the declared category set.

Split merit is the reduction in intra-cluster variance: the mean (across
targets) sample variance of the parent minus the example-weighted mean of the
children's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _variance(cnt: float, s: float, sq: float) -> float:
    """Sample variance from a raw moment triple; 0 below two examples."""
    if cnt < 2:
        return 0.0
    return max((sq - s * s / cnt) / (cnt - 1.0), 0.0)


def intra_cluster_variance(cnt: float, sums, sumsqs) -> float:
    """Mean per-target sample variance of one partition."""
    if cnt < 2:
        return 0.0
    d = len(sums)
    total = 0.0
    for t in range(d):
        total += _variance(cnt, sums[t], sumsqs[t])
    return total / d


def variance_reduction(parent, children) -> float:
    """Merit of a candidate partition.

    `parent` and each entry of `children` are (count, sums, sumsqs) triples.
    Children are weighted by their share of the parent count; empty children
    contribute nothing.
    """
    parent_cnt = parent[0]
    merit = intra_cluster_variance(*parent)
    for cnt, sums, sumsqs in children:
        if cnt > 0:
            merit -= (cnt / parent_cnt) * intra_cluster_variance(cnt, sums, sumsqs)
    return merit


def moment_block(ys) -> np.ndarray:
    """(m, 1 + 2d) block of the (1, y, y^2) rows that m target vectors add to
    an observer's aggregates, in arrival order."""
    y = np.array(ys, dtype=float)
    return np.concatenate((np.ones((len(y), 1)), y, y * y), axis=1)


@dataclass
class SplitSuggestion:
    """One candidate split of a leaf.

    For numeric features the predicate is `value <= threshold` (left branch);
    for nominal features one branch per declared category. `child_stats`
    carries the per-branch (count, sums, sumsqs) triples used to seed children.
    """

    feature: int
    merit: float
    threshold: float | None  # None marks a nominal multiway split
    child_stats: list  # [(count, sums, sumsqs), ...]

    @property
    def is_nominal(self) -> bool:
        return self.threshold is None


class EBSTObserver:
    """Numeric attribute observer: sorted distinct values with one aggregate
    column each, scanned as prefix sums.

    The class keeps the FIMT-DD name (extended binary search tree) because it
    answers the same queries. `seen` holds every distinct value added so far,
    each as its first-seen object; the tree adds to it once per example and
    folds the examples themselves only before it reads the observer. `keys`
    and `rows` cover the folded values. Values must be finite: a NaN never
    equals itself, so each one would take a fresh key.
    """

    __slots__ = ("n_targets", "seen", "keys", "rows")

    def __init__(self, n_targets: int):
        self.n_targets = n_targets
        self.seen: set = set()
        self.keys = np.empty(0)  # sorted; keys[j] is its value as first seen
        # (1 + 2d, n): count, sums, sums of squares; column j is keys[j]
        self.rows = np.empty((1 + 2 * n_targets, 0))

    def insert(self, v: float, y) -> None:
        """Fold one (value, target-vector) pair into the observer."""
        self.seen.add(v)
        self.fold(np.array([v], dtype=float), moment_block([y]))

    def fold(self, values: np.ndarray, block: np.ndarray) -> None:
        """Add the rows of `block` to the columns of `values`, one example per
        row in arrival order. Every value must already be in `seen`.

        A new key's column is its first example's row, inserted as is: bit
        for bit the sum -0.0 + row, since -0.0 is the additive identity.
        The remaining rows add in arrival order, the order of one-at-a-time
        inserts.
        """
        keys = self.keys
        at = np.searchsorted(keys, values)
        found = at < len(keys)
        found[found] = keys[at[found]] == values[found]
        if found.all():
            np.add.at(self.rows.T, at, block)
            return
        if len(values) == 1:
            first = np.zeros(1, dtype=np.intp)
        else:
            unseen = np.flatnonzero(~found)
            _, first = np.unique(values[unseen], return_index=True)  # stable: first seen
            first = unseen[first]
        fresh = values[first]
        where = np.searchsorted(keys, fresh)
        self.keys = keys = np.insert(keys, where, fresh)
        self.rows = np.insert(self.rows, where, block[first].T, axis=1)
        if len(first) < len(values):
            rest = np.ones(len(values), dtype=bool)
            rest[first] = False
            np.add.at(self.rows.T, np.searchsorted(keys, values[rest]), block[rest])

    @property
    def node_count(self) -> int:
        return len(self.seen)

    distinct_keys = node_count

    def _scan(self, parent):
        """Vectorized candidate evaluation.

        Returns (keys, merits, valid, prefix) over thresholds in increasing
        key order, where column prefix[:, i] aggregates every example with
        value <= keys[i], or None below two distinct keys. The right-hand
        side of each candidate is the parent aggregate minus the prefix;
        candidates need at least one example per side.
        """
        keys = self.keys
        if len(keys) < 2:
            return None
        d = self.n_targets
        prefix = np.cumsum(self.rows, axis=1)

        parent_cnt = parent[0]
        parent_sums = np.asarray(parent[1])
        parent_sumsqs = np.asarray(parent[2])

        left_cnt = prefix[0]
        right_cnt = parent_cnt - left_cnt
        valid = (left_cnt >= 1.0) & (right_cnt >= 1.0)

        left_sums = prefix[1:1 + d]
        left_sumsqs = prefix[1 + d:]
        right_sums = parent_sums[:, None] - left_sums
        right_sumsqs = parent_sumsqs[:, None] - left_sumsqs

        merits = (
            intra_cluster_variance(parent_cnt, parent_sums, parent_sumsqs)
            - (left_cnt / parent_cnt) * _icvar_rows(left_cnt, left_sums, left_sumsqs)
            - (right_cnt / parent_cnt) * _icvar_rows(right_cnt, right_sums, right_sumsqs)
        )
        return keys, merits, valid, prefix

    def candidate_merits(self, parent) -> list[tuple[float, float, tuple, tuple]]:
        """All (threshold, merit, left, right) tuples in increasing key order;
        materialized from the vectorized scan, mainly for inspection and
        oracle checks."""
        scan = self._scan(parent)
        if scan is None:
            return []
        keys, merits, valid, prefix = scan
        out = []
        for i in range(len(keys)):
            if valid[i]:
                left, right = self._partition(parent, prefix, i)
                out.append((float(keys[i]), float(merits[i]), left, right))
        return out

    def best_splits(self, feature: int, parent):
        """Highest- and second-highest-merit suggestions over this feature's
        candidate thresholds; (None, None) below two distinct observed keys."""
        scan = self._scan(parent)
        if scan is None:
            return None, None
        keys, merits, valid, prefix = scan
        masked = np.where(valid, merits, -np.inf)
        i1 = int(np.argmax(masked))
        if masked[i1] == -np.inf:
            return None, None
        best = self._suggestion(feature, parent, keys, merits, prefix, i1)
        masked[i1] = -np.inf
        i2 = int(np.argmax(masked))
        second = None
        if masked[i2] != -np.inf:
            second = self._suggestion(feature, parent, keys, merits, prefix, i2)
        return best, second

    def _partition(self, parent, prefix, i):
        """(left, right) aggregate triples of the threshold in column i."""
        d = self.n_targets
        column = prefix[:, i].tolist()
        left = (column[0], tuple(column[1:1 + d]), tuple(column[1 + d:]))
        right = (parent[0] - left[0],
                 tuple(p - l for p, l in zip(parent[1], left[1])),
                 tuple(p - l for p, l in zip(parent[2], left[2])))
        return left, right

    def _suggestion(self, feature, parent, keys, merits, prefix, i) -> SplitSuggestion:
        return SplitSuggestion(feature=feature, merit=float(merits[i]),
                               threshold=float(keys[i]),
                               child_stats=list(self._partition(parent, prefix, i)))

    def key_ordered_dump(self) -> list:
        """(key, count, sums, sumsqs) rows of the folded values in increasing
        key order; each key is the first-seen object of its value."""
        first_seen = {v: v for v in self.seen}
        d = self.n_targets
        return [[first_seen[key], column[0], column[1:1 + d], column[1 + d:]]
                for key, column in zip(self.keys.tolist(), self.rows.T.tolist())]

    def memory_slots(self) -> int:
        # key + count + per-target (sum, sumsq) per distinct value
        return len(self.seen) * (2 + 2 * self.n_targets)


def _icvar_rows(cnt: np.ndarray, sums: np.ndarray, sumsqs: np.ndarray) -> np.ndarray:
    """Per-candidate intra-cluster variance for (n,) counts and (d, n)
    moments. The per-target variances are added in target order, the order
    of `intra_cluster_variance`."""
    denom = np.where(cnt > 1.0, cnt - 1.0, 1.0)
    safe_cnt = np.where(cnt > 0.0, cnt, 1.0)
    var = (sumsqs - sums * sums / safe_cnt) / denom
    np.maximum(var, 0.0, out=var)
    var[:, cnt < 2.0] = 0.0
    return var.sum(axis=0) / len(var)


class NominalObserver:
    """Per-category aggregate rows for one nominal feature."""

    __slots__ = ("n_categories", "n_targets", "table")

    def __init__(self, n_categories: int, n_targets: int):
        self.n_categories = n_categories
        self.n_targets = n_targets
        # (categories, 1 + 2d): count, sums, sums of squares per category
        self.table = np.zeros((n_categories, 1 + 2 * n_targets))

    def insert(self, category: int, y) -> None:
        self.fold(np.array([category]), moment_block([y]))

    def fold(self, categories: np.ndarray, block: np.ndarray) -> None:
        """Add the rows of `block` to their categories in arrival order."""
        np.add.at(self.table, categories.astype(np.intp), block)

    @property
    def cnt(self) -> list[float]:
        return self.table[:, 0].tolist()

    @property
    def sums(self) -> list[list[float]]:
        return self.table[:, 1:1 + self.n_targets].tolist()

    @property
    def sumsqs(self) -> list[list[float]]:
        return self.table[:, 1 + self.n_targets:].tolist()

    @property
    def observed_categories(self) -> int:
        return int(np.count_nonzero(self.table[:, 0]))

    def suggest(self, feature: int, parent) -> SplitSuggestion | None:
        """One multiway suggestion over the declared categories, or None when
        fewer than two categories have been observed."""
        if self.observed_categories < 2:
            return None
        d = self.n_targets
        children = [(row[0], tuple(row[1:1 + d]), tuple(row[1 + d:]))
                    for row in self.table.tolist()]
        merit = variance_reduction(parent, children)
        return SplitSuggestion(feature=feature, merit=float(merit), threshold=None,
                               child_stats=children)

    def memory_slots(self) -> int:
        return self.n_categories * (1 + 2 * self.n_targets)
