"""Prequential evaluation: test-then-train over a stream with windowed error,
time, and size accounting, plus rank-based cross-algorithm comparison.

The first `warm_start` examples only train the tree; every later example is
predicted first and then learned. Errors are aggregated per non-overlapping
window and cumulatively; the clock (a monotonic counter) runs around predict
and learn calls only, so stream generation and file I/O never pollute the
timing. A run's window rows are its only record: its final error, time and
size are those of its last row.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .schema import SEED, Setting, check_settings, finite, setting
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
    seeds: the repetitions `mtstream run` makes, one distinct tree seed each.
    `run_prequential` runs one repetition and does not read `seeds`."""

    window: int = setting(int, 200, low=1)
    warm_start: int = setting(int, 200, low=0)
    seeds: tuple[int, ...] = setting(tuple, (0,), low=1, items=Setting(int, **SEED))

    def __post_init__(self):
        check_settings(self, EvaluationError)
        if len(set(self.seeds)) != len(self.seeds):
            raise EvaluationError(f"seeds must be unique: {self.seeds}")

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
    time, and size samples at window boundaries. The run's final values are
    those of its last row; a run without rows (its stream ended inside the
    warm start) reads 0 for each."""

    dataset: str
    variant: str
    seed: int
    rows: list[WindowRow] = field(default_factory=list)
    examples_evaluated: int = 0
    rejected: int = 0

    @property
    def cum_armse(self) -> float:
        return self.rows[-1].cum_armse if self.rows else 0.0

    @property
    def elapsed_s(self) -> float:
        return self.rows[-1].elapsed_s if self.rows else 0.0

    @property
    def final_model_bytes(self) -> int:
        return self.rows[-1].model_bytes if self.rows else 0

    @property
    def summed_window_error(self) -> float:
        return sum(r.armse for r in self.rows)


def run_prequential(source, tree_config: TreeConfig,
                    config: PrequentialConfig | None = None,
                    seed: int | None = None,
                    dataset: str = "") -> WindowedReport:
    """Drive one tree over one stream under the prequential protocol.

    The tree's seed is `tree_config.seed`, or `seed` when given;
    `config.seeds` lists the CLI's repetitions and is not read. Window rows
    flush every `config.window` evaluated examples and once more for a
    trailing partial window, so the row count is ceil(evaluated / window).
    A stream that ends inside the warm start is a valid run without rows; a
    stream without any example raises `EvaluationError`.
    """
    config = config or PrequentialConfig()
    if seed is not None:
        tree_config = replace(tree_config, seed=seed)
    tree = MultiTargetHoeffdingTree(source.schema, tree_config)
    d = source.schema.n_targets

    report = WindowedReport(dataset=dataset, variant=tree_config.variant.value,
                            seed=tree_config.seed)
    cell = f"dataset {dataset!r}, variant {report.variant}, seed {report.seed}"
    elapsed = 0.0
    cum_sq = [0.0] * d
    win_sq = [0.0] * d
    evaluated = 0
    in_window = 0
    window_index = 0
    clock = time.perf_counter

    def flush():
        nonlocal window_index, in_window, win_sq
        cum_armse = armse(cum_sq, evaluated)
        if not isfinite(cum_armse):  # each squared error is finite, but not their sum
            raise EvaluationError(f"{cell}: the squared errors up to example {index} "
                                  "sum beyond the float range")
        report.rows.append(WindowRow(
            window_index=window_index,
            armse=armse(win_sq, in_window),
            cum_armse=cum_armse,
            elapsed_s=elapsed,
            model_bytes=tree.model_size_bytes(),
        ))
        window_index += 1
        in_window = 0
        win_sq = [0.0] * d

    warm_start = config.warm_start
    targets_range = range(d)
    isfinite = math.isfinite
    index = -1
    for index, inst in enumerate(source):
        t0 = clock()
        if index < warm_start:
            tree.learn(inst)
            elapsed += clock() - t0
            continue
        prediction = tree.predict_then_learn(inst)
        elapsed += clock() - t0
        y = inst.targets
        p = prediction.values
        try:
            sqs = [(y[t] - p[t]) ** 2 for t in targets_range]
        except OverflowError:  # float ** 2 raises where x * x would give inf
            sqs = None
        if sqs is None or not isfinite(sum(sqs)):
            if not all(map(finite, y)):
                continue  # non-finite target: rejected by the tree, not evaluated
            raise EvaluationError(f"{cell}: example {index} has finite targets but the "
                                  f"prediction {tuple(p)} has a non-finite squared error")
        for t in targets_range:
            cum_sq[t] += sqs[t]
            win_sq[t] += sqs[t]
        evaluated += 1
        in_window += 1
        if in_window == config.window:
            flush()

    if index < 0:
        raise EvaluationError(f"{cell}: stream was empty")
    if in_window > 0:
        flush()

    report.examples_evaluated = evaluated
    report.rejected = tree.rejected_count
    return report


REPORT_COLUMNS = tuple(f.name for f in fields(WindowRow))


def write_report_csv(report: WindowedReport, path) -> None:
    """One line per window row; `csv` writes a float as its shortest exact
    repr, so `read_report_csv` gives the rows back bit for bit."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        writer.writerows(map(astuple, report.rows))


def read_report_csv(path) -> list[WindowRow]:
    """The rows of a report CSV. Other columns, a row of another length, a
    cell that does not parse or a non-finite metric raise EvaluationError
    naming the file and line."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != REPORT_COLUMNS:
            raise EvaluationError(f"{path}: unexpected report columns {reader.fieldnames}")
        for rec in reader:
            try:
                # DictReader pads a short row with None and keys a long row's rest by None
                if None in rec or None in rec.values():
                    raise ValueError(f"expected {len(REPORT_COLUMNS)} fields")
                row = WindowRow(
                    window_index=int(rec["window_index"]),
                    armse=float(rec["armse"]),
                    cum_armse=float(rec["cum_armse"]),
                    elapsed_s=float(rec["elapsed_s"]),
                    model_bytes=int(rec["model_bytes"]),
                )
                for name in ("armse", "cum_armse", "elapsed_s"):
                    if not math.isfinite(getattr(row, name)):
                        raise ValueError(f"{name} must be finite, got {rec[name]!r}")
                rows.append(row)
            except ValueError as exc:
                raise EvaluationError(f"{path}, line {reader.line_num}: {exc}") from exc
    return rows


# ---------------------------------------------------------------------------
# Friedman test and Nemenyi post-hoc grouping
# ---------------------------------------------------------------------------

# Significance level of the Friedman test and the Nemenyi critical difference;
# the critical values below are tabulated for this level only.
ALPHA = 0.05

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


# The continued fraction of the incomplete beta function: terms below _TINY
# are nudged off zero (modified Lentz), and it stops once a term changes the
# value by less than a float64 ulp; with the symmetry switch it converges in
# under 30 terms for any k <= 10 and up to a million blocks.
_TINY = 1e-300
_EPS = 2.220446049250313e-16
_MAX_TERMS = 1000


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b), evaluated by the modified Lentz
    method (Press et al., Numerical Recipes, 3rd ed., section 6.4)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) >= _TINY else _TINY)
    h = d
    for m in range(1, _MAX_TERMS + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) >= _TINY else _TINY)
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise EvaluationError(
        f"incomplete beta I_{x}({a}, {b}) did not converge in {_MAX_TERMS} terms")


def _f_upper_tail(dfn: int, dfd: int, f: float) -> float:
    """P(F > f) for an F(dfn, dfd) variable: the regularized incomplete beta
    I_x(dfd/2, dfn/2) at x = dfd / (dfd + dfn f). Below the mean of the
    beta distribution the fraction converges fast for I_x(a, b) itself,
    above it for 1 - I_{1-x}(b, a). Both x and 1 - x are computed directly,
    and the log of whichever is near 1 through log1p."""
    if f <= 0.0:
        return 1.0
    a = 0.5 * dfd
    b = 0.5 * dfn
    total = dfd + dfn * f
    x = dfd / total
    y = dfn * f / total  # 1 - x without the cancellation
    log_x = math.log1p(-y) if y < 0.5 else math.log(x)
    log_y = math.log1p(-x) if x < 0.5 else math.log(y)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * log_x + b * log_y)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


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


def friedman_nemenyi(algorithms, scores) -> ComparisonResult:
    """Rank a blocks x algorithms score matrix within each block (the lowest
    score ranks 1; ties share their average rank), then run the Friedman
    test over the average ranks with the F-distribution refinement, plus the
    Nemenyi critical difference q_alpha * sqrt(k(k+1)/(6N)), both at
    `ALPHA` = 0.05. The p-value is the upper tail of F(k-1, (k-1)(N-1)),
    a regularized incomplete beta function evaluated by its continued
    fraction (`_f_upper_tail`); up to 5000 blocks it agrees with
    `scipy.special.fdtrc` to 1e-9 relative.

    Algorithms whose average ranks differ by less than the CD are grouped as
    statistically indistinguishable.
    """
    algorithms = tuple(algorithms)
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[1] != len(algorithms):
        raise EvaluationError("scores must be a blocks x algorithms matrix")
    n, k = scores.shape
    if k < 2:
        raise EvaluationError("comparison needs at least two algorithms")
    if n < 2:
        raise EvaluationError("comparison needs at least two blocks")
    nan_at = np.argwhere(np.isnan(scores))
    if len(nan_at):
        block, j = nan_at[0].tolist()
        raise EvaluationError(f"score of algorithm {algorithms[j]!r} in block {block} is NaN")
    if k not in NEMENYI_Q_05:
        raise EvaluationError(f"no tabulated critical value for k={k}")

    avg = average_ranks(scores).mean(axis=0)
    chi2 = (12.0 * n / (k * (k + 1))) * (float(np.sum(avg ** 2)) - k * (k + 1) ** 2 / 4.0)
    chi2 = max(chi2, 0.0)
    denom = n * (k - 1) - chi2
    if denom <= 0.0:
        f_stat = math.inf
        p_value = 0.0
    else:
        f_stat = (n - 1) * chi2 / denom
        p_value = _f_upper_tail(k - 1, (k - 1) * (n - 1), f_stat)
    reject = p_value < ALPHA

    cd = NEMENYI_Q_05[k] * math.sqrt(k * (k + 1) / (6.0 * n))

    # maximal runs of rank-adjacent algorithms whose spread stays inside the
    # CD: the sorted ranks never decrease, so neither do the ends of the runs
    # that start at each algorithm, and a run is maximal exactly when it ends
    # later than the run before it
    order = np.argsort(avg, kind="stable")
    names = [algorithms[i] for i in order]
    sorted_ranks = [float(avg[i]) for i in order]
    groups = []
    prev_end = -1
    for i in range(k):
        end = i
        while end + 1 < k and sorted_ranks[end + 1] - sorted_ranks[i] < cd:
            end += 1
        if end > prev_end:
            groups.append(tuple(names[i:end + 1]))
        prev_end = end

    return ComparisonResult(
        algorithms=algorithms,
        average_ranks=tuple(float(r) for r in avg),
        chi2=chi2,
        f_stat=f_stat,
        p_value=p_value,
        reject=reject,
        critical_difference=cd,
        groups=tuple(groups),
    )
