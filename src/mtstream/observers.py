"""Per-feature split-candidate observers.

Numeric features are tracked per distinct observed value: one row per value,
accumulating the count, per-target sum, and per-target sum of squares of the
examples carrying that exact value. A hash index from value to row folds
duplicates in O(1) on the per-example path; rows and keys stay in first-seen
order in flat arrays. Scanning candidates sorts the keys and prefix-sums the
rows in key order, which reconstructs, for every observed value as a
`v <= key` threshold, the exact left/right partition statistics in a handful
of vectorized passes.

Nominal features keep one aggregate triple per observed category and propose
a single multiway split over the declared category set.

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


def moment_row(y) -> np.ndarray:
    """The (1, y, y^2) row one example adds to an observer's aggregates;
    fastest when `y` holds Python floats."""
    return np.array([1.0, *y, *[v * v for v in y]])


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
    """Numeric attribute observer: a hash index over distinct values with flat
    per-value aggregate rows, scanned as sorted prefix sums.

    The class keeps the FIMT-DD name (extended binary search tree) because it
    answers the same queries; the sorted order is built at scan time instead
    of being maintained on every insert. Values must be finite: a NaN never
    equals itself, so each one would take a fresh row.
    """

    __slots__ = ("n_targets", "row_width", "index", "keys", "rows", "node_count")

    def __init__(self, n_targets: int):
        self.n_targets = n_targets
        self.row_width = 1 + 2 * n_targets  # count, sums, sums of squares
        self.index: dict[float, int] = {}  # first-seen value -> row
        self.keys = np.empty(16)  # row i holds the examples with value keys[i]
        self.rows = np.zeros((16, self.row_width))
        self.node_count = 0

    def insert(self, v: float, y) -> None:
        """Fold one (value, target-vector) pair into the observer."""
        self.insert_row(v, moment_row(np.asarray(y, dtype=float).tolist()))

    def insert_row(self, v: float, aug: np.ndarray) -> None:
        """Hot-path insert: `aug` is the precomputed (1, y, y^2) row, shared
        across every observer fed by the same example."""
        i = self.index.get(v)
        if i is not None:
            self.rows[i] += aug
            return
        n = self.node_count
        if n == len(self.keys):
            self.keys = np.concatenate((self.keys, np.empty(n)))
            self.rows = np.concatenate((self.rows, np.zeros((n, self.row_width))))
        self.index[v] = n
        self.keys[n] = v
        self.rows[n] = aug
        self.node_count = n + 1

    @property
    def distinct_keys(self) -> int:
        return self.node_count

    def _scan(self, parent):
        """Vectorized candidate evaluation.

        Returns (keys, merits, valid, prefix) over thresholds in increasing
        key order, where column prefix[:, i] aggregates every example with
        value <= keys[i], or None below two distinct keys. The right-hand
        side of each candidate is the parent aggregate minus the prefix;
        candidates need at least one example per side.
        """
        n = self.node_count
        if n < 2:
            return None
        d = self.n_targets
        keys = self.keys[:n]
        order = np.argsort(keys)  # distinct keys: total order
        keys = keys[order]
        # (1 + 2d, n): one contiguous row per moment, columns in key order
        prefix = np.cumsum(np.take(self.rows[:n].T, order, axis=1), axis=1)

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
        if self.node_count < 2:
            return None, None
        keys, merits, valid, prefix = self._scan(parent)
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
        """(key, count, sums, sumsqs) rows in increasing key order; each key
        is the first-seen object of its value."""
        n = self.node_count
        if n == 0:
            return []
        first_seen = list(self.index)
        d = self.n_targets
        out = []
        for i in np.argsort(self.keys[:n]):
            row = self.rows[i]
            out.append([first_seen[i], float(row[0]),
                        row[1:1 + d].tolist(), row[1 + d:].tolist()])
        return out

    def memory_slots(self) -> int:
        # key + count + per-target (sum, sumsq) per distinct value
        return self.node_count * (2 + 2 * self.n_targets)


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
    """Per-category aggregate triples for one nominal feature."""

    __slots__ = ("n_categories", "n_targets", "cnt", "sums", "sumsqs")

    def __init__(self, n_categories: int, n_targets: int):
        self.n_categories = n_categories
        self.n_targets = n_targets
        self.cnt = [0.0] * n_categories
        self.sums = [[0.0] * n_targets for _ in range(n_categories)]
        self.sumsqs = [[0.0] * n_targets for _ in range(n_categories)]

    def insert(self, category: int, y) -> None:
        self.cnt[category] += 1.0
        sums = self.sums[category]
        sumsqs = self.sumsqs[category]
        for t in range(self.n_targets):
            val = y[t]
            sums[t] += val
            sumsqs[t] += val * val

    def insert_row(self, category, aug: np.ndarray) -> None:
        """Hot-path twin of `insert`, sharing the numeric observers' row."""
        c = int(category)
        self.cnt[c] += 1.0
        d = self.n_targets
        sums = self.sums[c]
        sumsqs = self.sumsqs[c]
        for t in range(d):
            sums[t] += aug[1 + t]
            sumsqs[t] += aug[1 + d + t]

    @property
    def observed_categories(self) -> int:
        return sum(1 for c in self.cnt if c > 0)

    def suggest(self, feature: int, parent) -> SplitSuggestion | None:
        """One multiway suggestion over the declared categories, or None when
        fewer than two categories have been observed."""
        if self.observed_categories < 2:
            return None
        children = [
            (self.cnt[c], tuple(self.sums[c]), tuple(self.sumsqs[c]))
            for c in range(self.n_categories)
        ]
        merit = variance_reduction(parent, children)
        return SplitSuggestion(feature=feature, merit=float(merit), threshold=None,
                               child_stats=children)

    def memory_slots(self) -> int:
        return self.n_categories * (1 + 2 * self.n_targets)
