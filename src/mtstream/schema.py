"""Stream schema, instances, predictions, and the learner variant enumeration."""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from numbers import Integral, Real


class SchemaError(ValueError):
    """Configuration error: instance or stream does not match the declared schema."""


SETTING = "setting"  # the field-metadata key of a setting's declaration


@dataclass(frozen=True)
class Setting:
    """The declared kind and range of one config setting. `kind` is `int`
    (an integer), `float` (a finite number), `tuple` (a tuple of `items`
    settings), a class such as `Variant`, or a tuple of the allowed values;
    a bool is neither an integer nor a number. A number, or a tuple's
    length, lies in [low, high], or in (low, high) when `open`. An
    `optional` setting may also be None."""

    kind: object
    low: float = -math.inf
    high: float = math.inf
    open: bool = False
    items: Setting | None = None
    optional: bool = False

    def check(self, name: str, value, error: type) -> None:
        """Raise `error` naming `name` unless `value` is of this kind and in
        this range."""
        if value is None and self.optional:
            return
        kind = self.kind
        number = isinstance(value, Real) and not isinstance(value, bool)
        if kind is int:
            ok, what = number and isinstance(value, Integral), "an integer"
        elif kind is float:  # the comparison also refuses NaN and ints beyond a float
            ok, what = number and abs(value) <= sys.float_info.max, "a finite number"
        elif isinstance(kind, tuple):
            ok, what = value in kind, "one of " + ", ".join(map(repr, kind))
        else:
            ok, what = isinstance(value, kind), f"a {kind.__name__}"
        if not ok:
            raise error(f"{name} must be {what}{' or None' if self.optional else ''}, "
                        f"got {value!r}")
        size = len(value) if kind is tuple else value
        if kind in (int, float, tuple) and not (
                self.low < size < self.high if self.open else self.low <= size <= self.high):
            below, above = ("> ", "< ") if self.open else (">= ", "<= ")
            bounds = below + f"{self.low:g}" + (
                f" and {above}{self.high:g}" if self.high < math.inf else "")
            wording = f"have {bounds} items" if kind is tuple else f"be {bounds}"
            raise error(f"{name} must {wording}, got {value!r}")
        for i, item in enumerate(value if kind is tuple else ()):
            self.items.check(f"{name}[{i}]", item, error)


def setting(kind, default=MISSING, **declared):
    """A config dataclass field declared as a `Setting` of `kind`; one whose
    default is None is optional."""
    return field(default=default, metadata={
        SETTING: Setting(kind, optional=default is None, **declared)})


def check_settings(config, error: type) -> None:
    """Raise `error` naming the first declared setting of the config
    dataclass `config` that is not of its kind or lies outside its range."""
    for f in fields(config):
        if SETTING in f.metadata:
            f.metadata[SETTING].check(f.name, getattr(config, f.name), error)


NUMERIC = "numeric"
NOMINAL = "nominal"


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: str = NUMERIC
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (NUMERIC, NOMINAL):
            raise SchemaError(f"unknown feature kind {self.kind!r}")
        if self.kind == NOMINAL and not self.categories:
            raise SchemaError(f"nominal feature {self.name!r} needs a category set")
        if self.kind == NUMERIC and self.categories:
            raise SchemaError(f"numeric feature {self.name!r} cannot carry categories")


@dataclass(frozen=True)
class StreamSchema:
    """Declares the m input features and d target names of a stream.

    Feature and target names must be unique; category sets are fixed for the
    stream's lifetime.
    """

    features: tuple[FeatureSpec, ...]
    targets: tuple[str, ...]

    def __post_init__(self):
        if not self.features:
            raise SchemaError("schema needs at least one feature")
        if not self.targets:
            raise SchemaError("schema needs at least one target")
        names = [f.name for f in self.features] + list(self.targets)
        if len(set(names)) != len(names):
            raise SchemaError("feature and target names must be unique")
        object.__setattr__(self, "_nominal_cache", self._nominal_slots())
        object.__setattr__(self, "_numeric_cache", tuple(self.numeric_indices()))

    @property
    def n_features(self) -> int:
        return len(self.features)

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    def numeric_indices(self) -> list[int]:
        return [i for i, f in enumerate(self.features) if f.kind == NUMERIC]

    def _nominal_slots(self) -> tuple:
        return tuple((i, len(f.categories)) for i, f in enumerate(self.features)
                     if f.kind == NOMINAL)

    def validate_instance(self, inst: "Instance") -> None:
        """Raise SchemaError unless `inst` conforms: lengths match and nominal
        indices fall inside the declared category sets."""
        features = inst.features
        if len(features) != len(self.features):
            raise SchemaError(
                f"instance has {len(features)} features, schema declares {len(self.features)}"
            )
        if len(inst.targets) != len(self.targets):
            raise SchemaError(
                f"instance has {len(inst.targets)} targets, schema declares {len(self.targets)}"
            )
        for i, n_cats in self._nominal_cache:
            v = features[i]
            if v is None:
                continue
            if not isinstance(v, int) or not 0 <= v < n_cats:
                raise SchemaError(
                    f"nominal feature {self.features[i].name!r}: index {v!r} "
                    "outside its category set"
                )

    def targets_finite(self, inst: "Instance") -> bool:
        return all(map(math.isfinite, inst.targets))

    def features_finite(self, inst: "Instance") -> bool:
        """False when a numeric feature holds NaN or an infinity."""
        features = inst.features
        isfinite = math.isfinite
        for i in self._numeric_cache:
            v = features[i]
            if v is not None and not isfinite(v):
                return False
        return True

    def nonfinite_as_missing(self, inst: "Instance") -> "Instance":
        """`inst` itself, or a copy with every non-finite numeric feature
        replaced by None."""
        if self.features_finite(inst):
            return inst
        features = list(inst.features)
        for i in self._numeric_cache:
            v = features[i]
            if v is not None and not math.isfinite(v):
                features[i] = None
        return Instance(features=tuple(features), targets=inst.targets)


@dataclass(frozen=True)
class Instance:
    """One stream example.

    `features` holds, per schema position, a float (numeric), an int category
    index (nominal), or None for a missing value. `targets` holds d floats.
    """

    features: tuple
    targets: tuple


# Per-target predictor names, cheapest first: the tie-break order that
# `Variant.selectable` lists them in.
MEAN_PRED = "mean"
PERCEPTRON_PRED = "perceptron"
STACKED_PRED = "stacked"


@dataclass(frozen=True)
class Prediction:
    """d predicted values plus which leaf predictor produced each of them."""

    values: tuple[float, ...]
    per_target_source: tuple[str, ...]

    def __post_init__(self):
        if len(self.values) != len(self.per_target_source):
            raise ValueError("values and per_target_source lengths differ")


class Variant(enum.Enum):
    """The five tree flavours, named by how their leaves predict.

    MEAN              per-target running mean
    PERCEPTRON        one linear model per target over standardized inputs
    ADAPTIVE          per-target choice between mean and perceptron (faded MAE)
    STACKED           second linear layer over the base predictions, always used
    STACKED_ADAPTIVE  per-target choice among mean, perceptron, and stacked
    """

    MEAN = "mean"
    PERCEPTRON = "perceptron"
    ADAPTIVE = "adaptive"
    STACKED = "stacked"
    STACKED_ADAPTIVE = "stacked_adaptive"

    @property
    def has_base_layer(self) -> bool:
        return self is not Variant.MEAN

    @property
    def has_meta_layer(self) -> bool:
        return self in (Variant.STACKED, Variant.STACKED_ADAPTIVE)

    @property
    def selectable(self) -> tuple[str, ...]:
        """Predictors the variant may pick from, in tie-break order."""
        return _SELECTABLE[self]


_SELECTABLE = {
    Variant.MEAN: (MEAN_PRED,),
    Variant.PERCEPTRON: (PERCEPTRON_PRED,),
    Variant.ADAPTIVE: (MEAN_PRED, PERCEPTRON_PRED),
    Variant.STACKED: (STACKED_PRED,),
    Variant.STACKED_ADAPTIVE: (MEAN_PRED, PERCEPTRON_PRED, STACKED_PRED),
}


def numeric_schema(n_features: int, n_targets: int) -> StreamSchema:
    """All-numeric schema named x1..xm and y1..yd, handy for generators and tests."""
    return StreamSchema(
        features=tuple(FeatureSpec(f"x{i + 1}") for i in range(n_features)),
        targets=tuple(f"y{i + 1}" for i in range(n_targets)),
    )
