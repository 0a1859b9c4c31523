#!/usr/bin/env python3
"""Incremental sufficient statistics.

Every leaf of a stream tree keeps (count, sum, centered second moment) per
numeric feature and per target in a `VectorStats`. That triple is enough for
the mean, the sample variance, and the z-score scaling the linear leaf models
train in - without storing a single example. This script feeds one variable
through the same calls a leaf makes (`learn`, `target_scales`,
`standardize_features`) and shows the result matching a two-pass batch
computation and staying accurate where a naive sum-of-squares breaks down.
"""

import numpy as np

from mtstream import VectorStats
from mtstream.stats import unstandardize

rng = np.random.default_rng(42)


def learned(values):
    """Statistics of a leaf that saw `values` as its one numeric feature and
    its one target."""
    vs = VectorStats(1, [0], 1)
    for v in values:
        vs.learn((v,), (v,), standardize=False)
    return vs


# --- incremental equals batch -------------------------------------------------
data = rng.normal(loc=3.0, scale=2.0, size=10_000)
vs = learned(data.tolist())
(mean,), (sd,) = vs.target_scales()

print("incremental vs two-pass batch on 10k normal draws")
print(f"  mean:     {mean:.12f}  vs  {np.mean(data):.12f}")
print(f"  variance: {sd * sd:.12f}  vs  {np.var(data, ddof=1):.12f}")

# --- z-score round trip ---------------------------------------------------------
probe = 7.5
(z,) = vs.standardize_features((probe,))
(back,) = unstandardize((z,), (mean,), (sd,))
print(f"\nz-score of {probe}: {z:.6f}; inverse maps back to {back:.6f}")
print(f"  model inputs are clamped: z-score of 1e6 is {vs.standardize_features((1e6,))[0]}")

# --- robustness to a large constant offset --------------------------------------
# A plain (sum, sum of squares) accumulator loses ~3 digits of variance here;
# the centered accumulator does not care.
shift = 1e5
shifted = learned((data[:1000] + shift).tolist())
base = learned(data[:1000].tolist())
n, total = shifted.moments()[:2]

naive_sumsq = float(np.sum((data[:1000] + shift) ** 2))
naive_var = (naive_sumsq - total ** 2 / n) / (n - 1)
print(f"\nvariance after shifting all inputs by {shift:.0e}:")
print(f"  centered accumulator: {shifted.target_scales()[1][0] ** 2:.9f} "
      f"(true {base.target_scales()[1][0] ** 2:.9f})")
print(f"  naive sum-of-squares: {naive_var:.9f}")

# --- degenerate cases stay defined ----------------------------------------------
fresh = VectorStats(1, [0], 1)
means, sds = fresh.target_scales()
print("\ncold start: mean", means[0], "| sd", sds[0],
      "| z-score", fresh.standardize_features((1.0,))[0],
      "| inverse z", unstandardize((0.5,), means, sds)[0])
few = learned([1.0, 2.0, 3.0])
print("three values: z-score of 9.0 is", few.standardize_features((9.0,))[0],
      "(model inputs wait for 4 values)")
