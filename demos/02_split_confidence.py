#!/usr/bin/env python3
"""How a leaf decides to split.

Candidate thresholds come from per-feature observers; each candidate is scored
by how much it reduces the mean per-target variance. The leaf splits once the
running mean of second-best/best merit ratios plus a concentration bound drops
below 1 (the best feature is confidently ahead), or once the bound falls under
the tie-break threshold (the top candidates are interchangeable, so waiting
longer buys nothing).
"""

import numpy as np

from mtstream import (
    EBSTObserver,
    MeritRatio,
    ParentStats,
    TreeConfig,
    decide_split,
    hoeffding_bound,
)
from mtstream.observers import moment_block

rng = np.random.default_rng(7)

# --- the concentration bound shrinks with evidence -----------------------------
print("bound value by examples seen (delta = 1e-7):")
for n in (1, 10, 50, 200, 1000, 3363, 10_000):
    print(f"  n = {n:>6d}: {hoeffding_bound(n, 1e-7):.5f}")
print("at n = 3363 the bound crosses tau = 0.05, the tie-break threshold\n")

# --- observers score candidate thresholds ---------------------------------------
# feature 0 carries the signal (targets step at 0.5); feature 1 is noise
n = 400
x = rng.random((n, 2))
y = np.where(x[:, [0]] > 0.5, 10.0, 0.0) + rng.normal(0, 0.5, size=(n, 2))

# the leaf's moment column [n, sums, sums of squares], shared by every
# feature's scan
parent = ParentStats([float(n), *y.sum(axis=0), *(y ** 2).sum(axis=0)])
# each observer inserts its feature's column as one block of (1, y, y^2) rows
block = moment_block(y)
observers = [EBSTObserver(2), EBSTObserver(2)]
observers[0].insert(x[:, 0], block)
observers[1].insert(x[:, 1], block)

best0 = observers[0].best_splits(0, parent)
best1 = observers[1].best_splits(1, parent)
print("best candidate per feature after 400 examples:")
print(f"  informative feature: threshold {best0.threshold:.3f}, merit {best0.merit:.3f}")
print(f"  noise feature:       threshold {best1.threshold:.3f}, merit {best1.merit:.3f}")

# --- the decision ----------------------------------------------------------------
config = TreeConfig()  # delta 1e-7, tau 0.05, grace period 200
ratio = MeritRatio()
winner = decide_split(best0, best1, ratio, config, n_seen=n)
xi = hoeffding_bound(n, config.delta)
print(f"\nmerit ratio {ratio.mean:.4f} + bound {xi:.4f} = {ratio.mean + xi:.4f}"
      f" -> {'SPLIT on feature ' + str(winner.feature) if winner else 'keep waiting'}")

# --- near-ties resolve through tau ------------------------------------------------
clone = decide_split(best0, best0, MeritRatio(), config, n_seen=n)
print(f"identical merits at n = {n}: {'split' if clone else 'keep waiting'} "
      "(ratio stays ~1, bound still above tau)")
clone = decide_split(best0, best0, MeritRatio(), config, n_seen=4000)
print(f"identical merits at n = 4000: {'split via tie-break' if clone else 'keep waiting'}")
