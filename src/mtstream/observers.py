"""Per-feature split-candidate observers.

Numeric features are tracked per distinct observed value: one column per
value, accumulating the count, per-target sum, and per-target sum of squares
of the examples carrying that exact value. Examples arrive in blocks: `fold`
merges the sorted keys with a block's values in one stable sort, moves the old
columns to their new places, and adds every example's (1, y, y^2) row to its
key's column with one `np.add.at`, in arrival order; new keys, repeated keys
and one-example inserts take the same path. The keys stay sorted, so
scanning candidates is one prefix sum over the columns, which reconstructs,
for every observed value as a `v <= key` threshold, the exact left/right
partition statistics in a handful of vectorized passes.

Nominal features keep one aggregate column per declared category, folded the
same way, and propose a single multiway split over the declared category set.

Split merit is the reduction in intra-cluster variance: the mean (across
targets) sample variance of the parent minus the example-weighted mean of the
children's. Split statistics travel as (1 + 2d) moment columns
[n, sums, sums of squares]: the leaf's column is the parent of every scan,
each suggestion carries its children's columns, and the tree seeds the
children from them. Both observers score the parent and every child with one
kernel, `_icvar_rows`, over (1 + 2d, n) blocks of such columns; the parent's
column and its variance are built once per split attempt, as a
`ParentStats`, and shared by every feature's scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    carries the per-branch moment columns used to seed children.
    """

    feature: int
    merit: float
    threshold: float | None  # None marks a nominal multiway split
    child_stats: list  # one [n, sums, sums of squares] list per branch


class EBSTObserver:
    """Numeric attribute observer: sorted distinct values with one aggregate
    column each, scanned as prefix sums.

    The class keeps the FIMT-DD name (extended binary search tree) because it
    answers the same queries. The tree folds a leaf's examples in blocks, and
    only before it reads the observer, so `keys` and `rows` hold the folded
    values and nothing else. Values must be finite.
    """

    __slots__ = ("n_targets", "keys", "rows")

    def __init__(self, n_targets: int):
        self.n_targets = n_targets
        self.keys = np.empty(0)  # sorted; keys[j] is its value as first seen
        # (1 + 2d, n): count, sums, sums of squares; column j is keys[j]
        self.rows = np.empty((1 + 2 * n_targets, 0))

    def insert(self, v: float, y) -> None:
        """Fold one (value, target-vector) pair into the observer."""
        self.fold(np.array([v], dtype=float), moment_block([y]))

    def fold(self, values: np.ndarray, block: np.ndarray) -> None:
        """Add the rows of `block` to the columns of `values`, one example per
        row in arrival order.

        One stable sort of the old keys and the block's values keeps each
        value's first-seen representative, which heads its run of equal
        values: an old key, else the block's first arrival. New columns start
        at -0.0, the additive identity, and every row adds in arrival order,
        so any blocking gives one-at-a-time bits. When every value is new and
        distinct (the continuous case) each new column is one row, and
        -0.0 + x == x, so the rows are copied in without the add.
        """
        n = len(self.keys)
        merged = np.concatenate((self.keys, values))
        order = np.argsort(merged, kind="stable")
        ordered = merged[order]
        first = np.ones(len(merged), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        inverse = np.empty(len(merged), dtype=np.intp)
        inverse[order] = np.cumsum(first) - 1
        keys = ordered[first]
        rows = np.empty((len(self.rows), len(keys)))
        rows[:, inverse[:n]] = self.rows
        if len(keys) == len(merged):
            rows[:, inverse[n:]] = block.T
        else:
            rows[:, order[first] >= n] = -0.0  # runs headed by a block value
            with np.errstate(over="ignore"):  # inf makes no candidate
                np.add.at(rows.T, inverse[n:], block)
        self.keys = keys
        self.rows = rows

    @property
    def distinct_keys(self) -> int:
        return len(self.keys)

    def _scan(self, parent):
        """Vectorized candidate evaluation.

        Returns (merits, valid, left, right) over the thresholds in `keys`,
        where column left[:, i] aggregates every example with value <=
        keys[i] and right[:, i] is the parent aggregate minus it, or None
        below two distinct keys. Examples missing this feature are in the
        parent but in no column, so they count on the right, where the tree
        routes them. Candidates need at least one example per side and a
        finite merit: moments beyond float range make no candidate.
        """
        if len(self.keys) < 2:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            left = np.cumsum(self.rows, axis=1)
            whole = parent.column
            right = whole - left
            parent_cnt = whole[0, 0]
            merits = (
                parent.icvar
                - (left[0] / parent_cnt) * _icvar_rows(left)
                - (right[0] / parent_cnt) * _icvar_rows(right)
            )
        valid = (left[0] >= 1.0) & (right[0] >= 1.0) & np.isfinite(merits)
        return merits, valid, left, right

    def candidate_merits(self, parent) -> list[tuple[float, float, list, list]]:
        """All (threshold, merit, left, right) tuples in increasing key order
        for a parent moment column, left and right as moment columns;
        materialized from the vectorized scan, mainly for inspection and
        oracle checks."""
        scan = self._scan(ParentStats(parent))
        if scan is None:
            return []
        merits, valid, left, right = scan
        return [(float(self.keys[i]), float(merits[i]), left[:, i].tolist(),
                 right[:, i].tolist())
                for i in np.flatnonzero(valid).tolist()]

    def best_splits(self, feature: int, parent: ParentStats) -> SplitSuggestion | None:
        """The highest-merit suggestion over this feature's candidate
        thresholds, or None when there is no candidate (below two distinct
        observed keys, or no threshold with an example on each side)."""
        scan = self._scan(parent)
        if scan is None:
            return None
        merits, valid, left, right = scan
        masked = np.where(valid, merits, -np.inf)
        i = int(np.argmax(masked))
        if masked[i] == -np.inf:
            return None
        return SplitSuggestion(feature=feature, merit=float(merits[i]),
                               threshold=float(self.keys[i]),
                               child_stats=[left[:, i].tolist(), right[:, i].tolist()])

    def dump(self) -> dict:
        """JSON-ready `keys` and `rows` as stored: each key is its value's
        first-seen float (an integer 1 dumps as 1.0, and -0.0 stays -0.0)."""
        return {"kind": "numeric", "keys": self.keys.tolist(), "rows": self.rows.tolist()}

    def memory_slots(self) -> int:
        # key + count + per-target (sum, sumsq) per folded distinct value
        return len(self.keys) * (2 + 2 * self.n_targets)


class ParentStats:
    """A leaf's moment column as every scan of one split attempt reads it:
    as a (1 + 2d, 1) block, with its intra-cluster variance."""

    __slots__ = ("column", "icvar")

    def __init__(self, column):
        self.column = np.array(column, dtype=float)[:, None]
        self.icvar = _icvar_rows(self.column)[0]


def _icvar_rows(block: np.ndarray) -> np.ndarray:
    """Intra-cluster variance, the mean per-target sample variance, of every
    column of a (1 + 2d, n) block of counts, sums and sums of squares; 0 below
    two examples. The one place a variance is computed from moments. The
    per-target variances are added one row at a time in target order, so a
    column's result does not depend on how many columns share the call."""
    cnt = block[0]
    d = (len(block) - 1) // 2
    sums = block[1:1 + d]
    with np.errstate(all="ignore"):  # cnt < 2: zeroed below; inf or NaN: no candidate
        var = block[1 + d:] - sums * sums / cnt
        var /= cnt - 1.0
        np.maximum(var, 0.0, out=var)
    var[:, cnt < 2.0] = 0.0
    total = var[0]
    for row in var[1:]:
        total += row
    return total / d


class NominalObserver:
    """Per-category aggregate columns for one nominal feature."""

    __slots__ = ("n_categories", "n_targets", "rows")

    def __init__(self, n_categories: int, n_targets: int):
        self.n_categories = n_categories
        self.n_targets = n_targets
        # (1 + 2d, categories): count, sums, sums of squares; column c is
        # category c, as in EBSTObserver.rows
        self.rows = np.zeros((1 + 2 * n_targets, n_categories))

    def insert(self, category: int, y) -> None:
        self.fold(np.array([category]), moment_block([y]))

    def fold(self, categories: np.ndarray, block: np.ndarray) -> None:
        """Add the rows of `block` to their categories in arrival order."""
        with np.errstate(over="ignore"):  # inf makes no candidate
            np.add.at(self.rows.T, categories.astype(np.intp), block)

    @property
    def observed_categories(self) -> int:
        return int(np.count_nonzero(self.rows[0]))

    def suggest(self, feature: int, parent: ParentStats) -> SplitSuggestion | None:
        """One multiway suggestion over the declared categories, or None when
        fewer than two categories have been observed. The children's weighted
        variances are subtracted from the parent's in category order;
        categories with no examples contribute nothing."""
        if self.observed_categories < 2:
            return None
        rows = self.rows
        parent_cnt = float(parent.column[0, 0])
        merit = float(parent.icvar)
        for cnt, child_icvar in zip(rows[0].tolist(), _icvar_rows(rows).tolist()):
            if cnt > 0:
                merit -= (cnt / parent_cnt) * child_icvar
        if not np.isfinite(merit):  # moments beyond float range
            return None
        return SplitSuggestion(feature=feature, merit=merit, threshold=None,
                               child_stats=rows.T.tolist())

    def dump(self) -> dict:
        """JSON-ready `rows` as stored."""
        return {"kind": "nominal", "rows": self.rows.tolist()}

    def memory_slots(self) -> int:
        return self.n_categories * (1 + 2 * self.n_targets)
