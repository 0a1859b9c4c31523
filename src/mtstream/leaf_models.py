"""Leaf predictors: target means, linear models, a stacked second layer, and
the faded errors behind the adaptive leaves' per-target predictor choice.

All linear modelling happens in z-score space; predictions are mapped back to
the original target scales. Both layers train with the delta rule under a
shared learning rate; the stacked layer consumes the base layer's outputs, so
inter-target structure can sharpen each target's estimate.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .schema import (
    MEAN_PRED,
    PERCEPTRON_PRED,
    STACKED_PRED,
    Prediction,
    Variant,
)
from .stats import unstandardize

FADE_DECAY = 0.95


class LeafPredictorSet:
    """The predictor stack one leaf carries, shaped by the tree variant.

    `base` is the per-target linear layer, a (d, m + 1) weight array whose
    column 0 multiplies the fixed bias input 1; `meta` is the stacked layer
    over the base outputs, a (d, d + 1) array. Either is None when the
    variant lacks it. Products use `ndarray.dot`, the same BLAS call as `@`
    with less overhead per call on these small arrays.

    Only an adaptive leaf (several selectable predictors) keeps faded
    absolute errors: `fmae` maps each selectable predictor to its per-target
    numerators, which share the denominator `den`. Per example every sum
    decays by 0.95, each numerator adds its absolute error and `den` adds 1
    (so `den` < 20). An error reads num/den, or +inf before the first
    example, so fresh predictors tie and the cheaper model wins. A fixed
    leaf's `fmae` is empty: it scores nothing.
    """

    __slots__ = ("variant", "n_targets", "base", "meta", "fmae", "den", "learning_rate",
                 "train_inputs")

    def __init__(self, variant: Variant, n_features: int, n_targets: int,
                 learning_rate: float, rng: np.random.Generator):
        self.variant = variant
        self.n_targets = n_targets
        self.learning_rate = learning_rate
        self.base = rng.uniform(-1.0, 1.0, size=(n_targets, n_features + 1)) \
            if variant.has_base_layer else None
        self.meta = rng.uniform(-1.0, 1.0, size=(n_targets, n_targets + 1)) \
            if variant.has_meta_layer else None
        self._reset_errors()
        # augmented-input buffers of `train` (bias slot preset to 1), shared by
        # every predictor set spawned from this one, i.e. by one tree's leaves
        self.train_inputs = (np.ones(n_features + 1), np.ones(n_targets + 1)) \
            if variant.has_base_layer else None

    def spawn_child(self) -> "LeafPredictorSet":
        """Child predictor set for a fresh leaf after a split: weights are
        inherited from this (parent) leaf, faded errors start over."""
        child = copy.copy(self)
        child.base = self.base.copy() if self.base is not None else None
        child.meta = self.meta.copy() if self.meta is not None else None
        child._reset_errors()
        return child

    def _reset_errors(self) -> None:
        selectable = self.variant.selectable
        self.fmae = {name: [0.0] * self.n_targets for name in selectable} \
            if len(selectable) > 1 else {}
        self.den = 0.0

    def _candidates(self, x_std, stats) -> dict[str, list[float]]:
        """Original-scale prediction of every selectable predictor, all
        Python floats. `x_std` is read only when the variant has a base layer.

        Inputs are built fresh on every call, not in the `train` buffers,
        because `predict` may run concurrently."""
        means, sds = stats.target_scales()
        selectable = self.variant.selectable
        out = {}
        if MEAN_PRED in selectable:
            out[MEAN_PRED] = means
        base = self.base
        if base is not None:
            base_std = base.dot(np.array([1.0, *x_std])).tolist()
            if PERCEPTRON_PRED in selectable:
                out[PERCEPTRON_PRED] = unstandardize(base_std, means, sds)
            if self.meta is not None:
                meta_std = self.meta.dot(np.array([1.0, *base_std])).tolist()
                out[STACKED_PRED] = unstandardize(meta_std, means, sds)
        return out

    def select_from(self, candidates: dict[str, list[float]]) -> Prediction:
        """Pick, per target, the selectable predictor with the lowest faded
        error (fixed variants have a single choice) and emit original-scale
        values."""
        selectable = self.variant.selectable
        if len(selectable) == 1:
            name = selectable[0]
            return Prediction(values=tuple(candidates[name]),
                              per_target_source=(name,) * self.n_targets)
        tables = self.fmae.items()  # in `selectable` order
        den = self.den
        inf = math.inf
        values = []
        sources = []
        for t in range(self.n_targets):
            best_name = None
            for name, num in tables:
                err = num[t] / den if den > 0.0 else inf
                if best_name is None or err < best_err:
                    best_err = err
                    best_name = name
            values.append(candidates[best_name][t])
            sources.append(best_name)
        return Prediction(values=tuple(values), per_target_source=tuple(sources))

    def score_candidates(self, candidates: dict[str, list[float]], y_true) -> None:
        """Fold one example's absolute errors into an adaptive leaf's faded
        errors (call before any state is updated); a fixed leaf has none."""
        fmae = self.fmae
        if not fmae:
            return
        for name, pred in candidates.items():
            fmae[name] = [FADE_DECAY * e + abs(y - p) for e, y, p in zip(fmae[name], y_true, pred)]
        self.den = FADE_DECAY * self.den + 1.0

    def train(self, x_std, y_std) -> None:
        """One delta-rule step on both layers. The stacked layer consumes the
        base outputs as they were before the base layer moved; the base output
        is computed once and serves as the base layer's own error term too.
        Runs only on the single-writer learn path, so it fills the shared
        `train_inputs` buffers instead of allocating."""
        base = self.base
        if base is None:
            return
        x_aug, base_aug = self.train_inputs
        x_aug[1:] = x_std
        base_std = base.dot(x_aug)
        y = np.array(y_std)
        lr = self.learning_rate
        meta = self.meta
        if meta is not None:
            base_aug[1:] = base_std
            meta += ((y - meta.dot(base_aug)) * lr)[:, None] * base_aug
        base += ((y - base_std) * lr)[:, None] * x_aug

    def weight_slots(self) -> int:
        slots = 0
        if self.base is not None:
            slots += self.base.size
        if self.meta is not None:
            slots += self.meta.size
        return slots

    def fade_slots(self) -> int:
        return self.n_targets * len(self.fmae) + 1 if self.fmae else 0

    def state(self) -> dict:
        """JSON-ready weights and faded errors as stored."""
        return {
            "base": self.base.tolist() if self.base is not None else None,
            "meta": self.meta.tolist() if self.meta is not None else None,
            "fmae": {name: list(num) for name, num in self.fmae.items()},
            "den": self.den,
        }
