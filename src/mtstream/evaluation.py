"""Prequential evaluation: test-then-train over a stream with windowed error,
time, and size accounting, plus rank-based cross-algorithm comparison.

The first `warm_start` examples only train the tree; every later example is
predicted first and then learned. Errors are aggregated per non-overlapping
window and cumulatively; the clock (a monotonic counter) runs around predict
and learn calls only, so stream generation and file I/O never pollute the
timing.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .tree import MultiTargetHoeffdingTree, TreeConfig


class EvaluationError(RuntimeError):
    pass


def armse(sq_error_sums, count: int) -> float:
    """Average root mean squared error: mean over targets of
    sqrt(sum of squared errors / count)."""
    if count < 1:
        raise EvaluationError("aRMSE needs at least one evaluated example")
    return sum(math.sqrt(s / count) for s in sq_error_sums) / len(sq_error_sums)


@dataclass(frozen=True)
class PrequentialConfig:
    """window: examples per error window; warm_start: train-only prefix;
    seeds: one RNG seed per repetition."""

    window: int = 200
    warm_start: int = 200
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.window < 1:
            raise EvaluationError("window must be >= 1")
        if self.warm_start < 0:
            raise EvaluationError("warm_start must be >= 0")
        if not self.seeds:
            raise EvaluationError("at least one seed is required")

    @property
    def repetitions(self) -> int:
        return len(self.seeds)


@dataclass(frozen=True)
class WindowRow:
    window_index: int
    armse: float
    cum_armse: float
    elapsed_s: float
    model_bytes: int


@dataclass
class WindowedReport:
    """One run's record: per-window and cumulative error, cumulative model
    time, and size samples at window boundaries."""

    dataset: str
    variant: str
    seed: int
    window: int
    warm_start: int
    rows: list[WindowRow] = field(default_factory=list)
    examples_evaluated: int = 0
    cum_armse: float = math.nan
    elapsed_s: float = 0.0
    final_model_bytes: int = 0
    rejected: int = 0

    @property
    def summed_window_error(self) -> float:
        return sum(r.armse for r in self.rows)


def run_prequential(source, tree_config: TreeConfig,
                    config: PrequentialConfig | None = None,
                    seed: int | None = None,
                    dataset: str = "") -> WindowedReport:
    """Drive one tree over one stream under the prequential protocol.

    `seed` overrides the tree seed for this repetition. Window rows flush
    every `config.window` evaluated examples and once more for a trailing
    partial window, so the row count is ceil(evaluated / window).
    """
    config = config or PrequentialConfig()
    if seed is not None:
        tree_config = TreeConfig(**{**tree_config.__dict__, "seed": seed})
    tree = MultiTargetHoeffdingTree(source.schema, tree_config)
    d = source.schema.n_targets

    report = WindowedReport(dataset=dataset, variant=tree_config.variant.value,
                            seed=tree_config.seed, window=config.window,
                            warm_start=config.warm_start)
    elapsed = 0.0
    cum_sq = [0.0] * d
    win_sq = [0.0] * d
    evaluated = 0
    in_window = 0
    window_index = 0
    clock = time.perf_counter

    def flush():
        nonlocal window_index, in_window, win_sq
        report.rows.append(WindowRow(
            window_index=window_index,
            armse=armse(win_sq, in_window),
            cum_armse=armse(cum_sq, evaluated),
            elapsed_s=elapsed,
            model_bytes=tree.model_size_bytes(),
        ))
        window_index += 1
        in_window = 0
        win_sq = [0.0] * d

    stream = iter(source)
    warmed = 0
    for _ in range(config.warm_start):
        inst = next(stream, None)
        if inst is None:
            break
        t0 = clock()
        tree.learn(inst)
        elapsed += clock() - t0
        warmed += 1

    targets_range = range(d)
    isfinite = math.isfinite
    for index, inst in enumerate(stream, start=warmed):
        t0 = clock()
        prediction = tree.predict_then_learn(inst)
        elapsed += clock() - t0
        y = inst.targets
        p = prediction.values
        try:
            sqs = [(y[t] - p[t]) ** 2 for t in targets_range]
        except OverflowError:  # float ** 2 raises where x * x would give inf
            sqs = None
        if sqs is None or not isfinite(sum(sqs)):
            if not all(map(isfinite, y)):
                continue  # non-finite target: rejected by the tree, not evaluated
            raise EvaluationError(
                f"dataset {dataset!r}, variant {report.variant}, seed {report.seed}: "
                f"example {index} has finite targets but the prediction "
                f"{tuple(p)} has a non-finite squared error")
        for t in targets_range:
            cum_sq[t] += sqs[t]
            win_sq[t] += sqs[t]
        evaluated += 1
        in_window += 1
        if in_window == config.window:
            flush()

    if in_window > 0:
        flush()
    if warmed + evaluated == 0:
        raise EvaluationError("stream was empty")

    report.examples_evaluated = evaluated
    # a stream that ends exactly at the warm start is a valid zero-window run
    report.cum_armse = armse(cum_sq, evaluated) if evaluated else 0.0
    report.elapsed_s = elapsed
    report.final_model_bytes = tree.model_size_bytes()
    report.rejected = tree.rejected_count
    return report


REPORT_COLUMNS = ("window_index", "armse", "cum_armse", "elapsed_s", "model_bytes")


def write_report_csv(report: WindowedReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for row in report.rows:
            writer.writerow([row.window_index, repr(row.armse), repr(row.cum_armse),
                             repr(row.elapsed_s), row.model_bytes])


def read_report_csv(path) -> list[WindowRow]:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != REPORT_COLUMNS:
            raise EvaluationError(f"{path}: unexpected report columns {reader.fieldnames}")
        for rec in reader:
            rows.append(WindowRow(
                window_index=int(rec["window_index"]),
                armse=float(rec["armse"]),
                cum_armse=float(rec["cum_armse"]),
                elapsed_s=float(rec["elapsed_s"]),
                model_bytes=int(rec["model_bytes"]),
            ))
    return rows


# ---------------------------------------------------------------------------
# Friedman test and Nemenyi post-hoc grouping
# ---------------------------------------------------------------------------

# Critical values of the studentized range statistic at alpha = 0.05, already
# divided by sqrt(2), for 2..10 compared algorithms (infinite df).
NEMENYI_Q_05 = {
    2: 1.9600, 3: 2.3434, 4: 2.5690, 5: 2.7282, 6: 2.8498,
    7: 2.9488, 8: 3.0308, 9: 3.1023, 10: 3.1638,
}


def average_ranks(scores: np.ndarray) -> np.ndarray:
    """Ranks 1..k within each row of a 2-D array, ties sharing the average of
    the ranks they span; a row holding a NaN ranks as all NaN. Equals
    `scipy.stats.rankdata(row, method="average")` row by row."""
    ranks = np.full(scores.shape, np.nan)
    for row, out in zip(scores, ranks):
        if np.isnan(row).any():
            continue
        order = np.argsort(row, kind="stable")
        ordered = row[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        ends = np.r_[starts[1:], len(row)]
        out[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


@dataclass
class RankTable:
    """Per-block ranks of k algorithms (rank 1 = best); ties get average
    ranks, so every row sums to k(k+1)/2."""

    algorithms: tuple[str, ...]
    ranks: np.ndarray  # shape (n_blocks, k)

    @classmethod
    def from_scores(cls, algorithms, scores, lower_is_better: bool = True) -> "RankTable":
        """Rank a blocks x algorithms score matrix within each block."""
        scores = np.asarray(scores, dtype=float)
        if scores.ndim != 2 or scores.shape[1] != len(algorithms):
            raise EvaluationError("scores must be a blocks x algorithms matrix")
        signed = scores if lower_is_better else -scores
        return cls(algorithms=tuple(algorithms), ranks=average_ranks(signed))

    @property
    def n_blocks(self) -> int:
        return self.ranks.shape[0]

    @property
    def k(self) -> int:
        return self.ranks.shape[1]

    def average_ranks(self) -> np.ndarray:
        return self.ranks.mean(axis=0)


@dataclass
class ComparisonResult:
    algorithms: tuple[str, ...]
    average_ranks: tuple[float, ...]
    chi2: float
    f_stat: float
    p_value: float
    reject: bool
    critical_difference: float
    groups: tuple[tuple[str, ...], ...]
    indistinguishable_pairs: tuple[tuple[str, str], ...]


def friedman_nemenyi(table: RankTable, alpha: float = 0.05) -> ComparisonResult:
    """Friedman test over average ranks with the F-distribution refinement,
    plus the Nemenyi critical difference q_alpha * sqrt(k(k+1)/(6N)).

    Algorithms whose average ranks differ by less than the CD are grouped as
    statistically indistinguishable. Only alpha = 0.05 is tabulated.
    """
    if alpha != 0.05:
        raise EvaluationError("only alpha = 0.05 critical values are tabulated")
    k = table.k
    n = table.n_blocks
    if k < 2:
        raise EvaluationError("comparison needs at least two algorithms")
    if n < 2:
        raise EvaluationError("comparison needs at least two blocks")
    if k not in NEMENYI_Q_05:
        raise EvaluationError(f"no tabulated critical value for k={k}")

    avg = table.average_ranks()
    chi2 = (12.0 * n / (k * (k + 1))) * (float(np.sum(avg ** 2)) - k * (k + 1) ** 2 / 4.0)
    chi2 = max(chi2, 0.0)
    denom = n * (k - 1) - chi2
    if denom <= 0.0:
        f_stat = math.inf
        p_value = 0.0
    else:
        from scipy.special import fdtrc  # deferred: scipy costs ~0.3 s to import

        f_stat = (n - 1) * chi2 / denom
        p_value = float(fdtrc(k - 1, (k - 1) * (n - 1), f_stat))
    reject = p_value < alpha

    cd = NEMENYI_Q_05[k] * math.sqrt(k * (k + 1) / (6.0 * n))

    # maximal runs of rank-adjacent algorithms whose spread stays inside the CD
    order = np.argsort(avg, kind="stable")
    names = [table.algorithms[i] for i in order]
    sorted_ranks = [float(avg[i]) for i in order]
    intervals = []
    for i in range(k):
        j = i
        while j + 1 < k and sorted_ranks[j + 1] - sorted_ranks[i] < cd:
            j += 1
        intervals.append((i, j))
    maximal = [(i, j) for (i, j) in intervals
               if not any(a <= i and j <= b and (a, b) != (i, j) for a, b in intervals)]
    unique_groups = []
    for i, j in dict.fromkeys(maximal):
        unique_groups.append(tuple(names[i:j + 1]))

    pairs = []
    for a in range(k):
        for b in range(a + 1, k):
            if abs(float(avg[a]) - float(avg[b])) < cd:
                pairs.append((table.algorithms[a], table.algorithms[b]))

    return ComparisonResult(
        algorithms=table.algorithms,
        average_ranks=tuple(float(r) for r in avg),
        chi2=chi2,
        f_stat=f_stat,
        p_value=p_value,
        reject=reject,
        critical_difference=cd,
        groups=tuple(unique_groups),
        indistinguishable_pairs=tuple(pairs),
    )
