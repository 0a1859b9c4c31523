"""Stream sources: seeded synthetic multi-target generators and CSV ingestion.

Every source re-creates its random state when iteration starts, so replaying a
source yields the identical instance sequence. Synthetic targets follow one
shared pattern: a per-family base response combined per target through an
affine map (a_t * base + b_t) plus Gaussian noise, which makes the targets of
one stream linearly inter-correlated - the structure a stacked leaf layer can
exploit.

The generator formulas below are documented reconstructions in the spirit of
the classic benchmark tasks; they are specified fully by this module and make
no claim of reproducing any published dataset's absolute numbers.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .schema import (
    NOMINAL,
    NUMERIC,
    FeatureSpec,
    Instance,
    SchemaError,
    Setting,
    StreamSchema,
    check_settings,
    numeric_schema,
    setting,
)

_BLOCK = 2048  # vectorized generation block size


class ConfigError(ValueError):
    """Invalid stream or run configuration."""


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------

SYNC = "synchronous"
ASYNC = "asynchronous"


@dataclass(frozen=True)
class DriftSpec:
    """Concept-drift schedule: the example indices at which target responses
    switch input roles. Synchronous mode uses one shared position; the
    asynchronous mode needs one position per target."""

    positions: tuple[int, ...] = setting(tuple, low=1, items=Setting(int))
    mode: str = setting((SYNC, ASYNC), SYNC)

    def __post_init__(self):
        check_settings(self, ConfigError)
        if self.mode == SYNC and len(self.positions) != 1:
            raise ConfigError("synchronous drift takes exactly one position")


@dataclass(frozen=True)
class GeneratorSpec:
    family: str = setting(("friedman_mt", "plane_mt", "mv_like"))
    n_examples: int = setting(int, 10_000, low=1)
    n_targets: int = setting(int, 2, low=1)
    noise_sd: float = setting(float, 1.0, low=0.0)
    seed: int = setting(int, 0, low=0)
    drift: DriftSpec | None = setting(DriftSpec, None)
    # optional explicit per-target (a, b) coefficients; drawn from the seed
    # when omitted
    target_affine: tuple[tuple[float, float], ...] | None = setting(
        tuple, None, items=Setting(tuple, items=Setting(float)))

    def __post_init__(self):
        check_settings(self, ConfigError)
        affine = self.target_affine
        if affine is not None and (len(affine) != self.n_targets
                                   or any(len(pair) != 2 for pair in affine)):
            raise ConfigError("target_affine needs one (a, b) pair per target")
        if self.drift is not None:
            if self.family != "friedman_mt":
                raise ConfigError("drift is only supported by friedman_mt")
            if self.drift.mode == ASYNC and len(self.drift.positions) != self.n_targets:
                raise ConfigError("asynchronous drift needs one position per target")
            if not all(0 < p < self.n_examples for p in self.drift.positions):
                raise ConfigError("drift positions must lie strictly inside the stream")


def make_stream(spec: GeneratorSpec):
    if spec.family == "friedman_mt":
        return FriedmanStream(spec)
    if spec.family == "plane_mt":
        return PlaneStream(spec)
    return MVStream(spec)


def _draw_affine(spec: GeneratorSpec, rng: np.random.Generator):
    """Per-target (a, b): slopes clear of zero so every target tracks the base
    response, offsets separating the scales."""
    if spec.target_affine is not None:
        return [(float(a), float(b)) for a, b in spec.target_affine]
    a = rng.uniform(0.5, 2.0, size=spec.n_targets)
    b = rng.uniform(-5.0, 5.0, size=spec.n_targets)
    return list(zip(a.tolist(), b.tolist()))


class _SyntheticStream:
    """Common scaffolding: seeded setup draws, block-wise example generation."""

    spec: GeneratorSpec
    schema: StreamSchema

    def __init__(self, spec: GeneratorSpec):
        self.spec = spec
        setup = np.random.default_rng(spec.seed)
        self.target_affine = _draw_affine(spec, setup)
        self._setup(setup)

    def _setup(self, rng: np.random.Generator) -> None:  # pragma: no cover
        raise NotImplementedError

    def __len__(self) -> int:
        return self.spec.n_examples

    def __iter__(self):
        rng = np.random.default_rng((self.spec.seed, 1))
        remaining = self.spec.n_examples
        position = 0
        while remaining > 0:
            block = min(_BLOCK, remaining)
            yield from self._generate(rng, position, block)
            position += block
            remaining -= block

    def _generate(self, rng, position: int, count: int):  # pragma: no cover
        raise NotImplementedError

    def _targets(self, rng, base_by_target: np.ndarray) -> np.ndarray:
        """Affine map plus noise; `base_by_target` has shape (count, d)."""
        count, d = base_by_target.shape
        out = np.empty_like(base_by_target)
        for t, (a, b) in enumerate(self.target_affine):
            out[:, t] = a * base_by_target[:, t] + b
        if self.spec.noise_sd > 0:
            out += rng.normal(0.0, self.spec.noise_sd, size=(count, d))
        return out


def friedman_response(x) -> float:
    """Base response over the first five inputs: 10*sin(pi*x1*x2)
    + 20*(x3 - 0.5)^2 + 10*x4 + 5*x5."""
    return (10.0 * math.sin(math.pi * x[0] * x[1])
            + 20.0 * (x[2] - 0.5) ** 2 + 10.0 * x[3] + 5.0 * x[4])


class FriedmanStream(_SyntheticStream):
    """Ten uniform [0, 1] inputs; five informative, five irrelevant. Optional
    drift permutes the informative roles per target from a position onward."""

    N_FEATURES = 10

    def _setup(self, rng):
        self.schema = numeric_schema(self.N_FEATURES, self.spec.n_targets)
        d = self.spec.n_targets
        drift = self.spec.drift
        # role maps: columns of x used as (x1..x5) per target, before/after
        self._roles_before = [np.arange(5)] * d
        if drift is None:
            self._positions = [self.spec.n_examples] * d
            self._roles_after = self._roles_before
        elif drift.mode == SYNC:
            perm = rng.permutation(5)
            self._positions = [drift.positions[0]] * d
            self._roles_after = [perm] * d
        else:
            self._positions = list(drift.positions)
            self._roles_after = [rng.permutation(5) for _ in range(d)]

    def _generate(self, rng, position, count):
        x = rng.random((count, self.N_FEATURES))
        base = np.empty((count, self.spec.n_targets))
        sin = np.sin
        for t in range(self.spec.n_targets):
            pos = self._positions[t]
            for phase_rows, roles in (
                (slice(0, max(0, min(count, pos - position))), self._roles_before[t]),
                (slice(max(0, min(count, pos - position)), count), self._roles_after[t]),
            ):
                xr = x[phase_rows][:, roles]
                if xr.shape[0] == 0:
                    continue
                base[phase_rows, t] = (
                    10.0 * sin(np.pi * xr[:, 0] * xr[:, 1])
                    + 20.0 * (xr[:, 2] - 0.5) ** 2
                    + 10.0 * xr[:, 3] + 5.0 * xr[:, 4]
                )
        y = self._targets(rng, base)
        for row, targets in zip(x.tolist(), y.tolist()):
            yield Instance(features=tuple(row), targets=tuple(targets))


class PlaneStream(_SyntheticStream):
    """Piecewise-linear base over ternary inputs: x1 in {-1, 1} selects which
    of two affine planes responds; x2..x10 are uniform over {-1, 0, 1}.

        x1 = +1:  base = 3 + 3*x2 + 2*x3 + x4
        x1 = -1:  base = -3 + 3*x5 + 2*x6 + x7
    """

    N_FEATURES = 10

    def _setup(self, rng):
        self.schema = numeric_schema(self.N_FEATURES, self.spec.n_targets)

    def _generate(self, rng, position, count):
        x = rng.integers(-1, 2, size=(count, self.N_FEATURES)).astype(float)
        x[:, 0] = np.where(rng.random(count) < 0.5, -1.0, 1.0)
        up = 3.0 + 3.0 * x[:, 1] + 2.0 * x[:, 2] + x[:, 3]
        down = -3.0 + 3.0 * x[:, 4] + 2.0 * x[:, 5] + x[:, 6]
        base = np.where(x[:, 0] > 0, up, down)
        y = self._targets(rng, np.tile(base[:, None], (1, self.spec.n_targets)))
        for row, targets in zip(x.tolist(), y.tolist()):
            yield Instance(features=tuple(row), targets=tuple(targets))


def plane_response(x) -> float:
    """Scalar form of the plane_mt base response (documented formula)."""
    if x[0] > 0:
        return 3.0 + 3.0 * x[1] + 2.0 * x[2] + x[3]
    return -3.0 + 3.0 * x[4] + 2.0 * x[5] + x[6]


_MV_CATEGORIES = (
    ("a", "b", "c"),
    ("low", "high"),
    ("red", "green", "blue"),
    ("yes", "no"),
)
_MV_OFFSETS = (
    (0.0, 2.0, -2.0),
    (0.0, 3.0),
    (0.0, 1.0, -1.0),
    (1.5, 0.0),
)


class MVStream(_SyntheticStream):
    """Mixed-type inputs: six uniform [0, 1] numerics plus four nominals whose
    categories shift the base response by fixed offsets.

        base = 5*x1 - 3*x2 + 4*x3*x4 + 2*x5 - x6 + sum of category offsets
    """

    N_NUMERIC = 6

    def _setup(self, rng):
        features = [FeatureSpec(f"x{i + 1}") for i in range(self.N_NUMERIC)]
        features += [
            FeatureSpec(f"c{i + 1}", kind=NOMINAL, categories=cats)
            for i, cats in enumerate(_MV_CATEGORIES)
        ]
        self.schema = StreamSchema(
            features=tuple(features),
            targets=tuple(f"y{i + 1}" for i in range(self.spec.n_targets)),
        )

    def _generate(self, rng, position, count):
        x = rng.random((count, self.N_NUMERIC))
        cats = [rng.integers(0, len(c), size=count) for c in _MV_CATEGORIES]
        base = (5.0 * x[:, 0] - 3.0 * x[:, 1] + 4.0 * x[:, 2] * x[:, 3]
                + 2.0 * x[:, 4] - x[:, 5])
        for i, offsets in enumerate(_MV_OFFSETS):
            base += np.asarray(offsets)[cats[i]]
        y = self._targets(rng, np.tile(base[:, None], (1, self.spec.n_targets)))
        cat_cols = [c.tolist() for c in cats]
        for r, (row, targets) in enumerate(zip(x.tolist(), y.tolist())):
            features = tuple(row) + tuple(int(col[r]) for col in cat_cols)
            yield Instance(features=features, targets=tuple(targets))


def mv_response(x_numeric, categories) -> float:
    """Scalar form of the mv_like base response (documented formula)."""
    base = (5.0 * x_numeric[0] - 3.0 * x_numeric[1]
            + 4.0 * x_numeric[2] * x_numeric[3]
            + 2.0 * x_numeric[4] - x_numeric[5])
    for i, c in enumerate(categories):
        base += _MV_OFFSETS[i][c]
    return base


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CsvSchemaDecl:
    """Schema declaration accompanying a CSV export: feature kinds, category
    sets, target columns, and opt-in sentinel-to-missing rules per column."""

    schema: StreamSchema
    sentinel_value: float | None = setting(float, None)
    sentinel_columns: frozenset[str] = frozenset()

    def __post_init__(self):
        check_settings(self, SchemaError)
        unknown = self.sentinel_columns - {f.name for f in self.schema.features}
        if unknown:
            raise SchemaError(f"sentinel_columns name unknown features: {sorted(unknown)}")

    @classmethod
    def from_dict(cls, decl: dict) -> "CsvSchemaDecl":
        """Parse a JSON declaration. `targets`, each `categories` and
        `sentinel_columns` must be lists of strings, and `sentinel_value` a
        finite number or null; anything else raises SchemaError."""
        try:
            features = tuple(
                FeatureSpec(
                    name=f["name"],
                    kind=f.get("kind", NUMERIC),
                    categories=_names(f.get("categories", ()), f"categories of {f['name']!r}"),
                )
                for f in decl["features"]
            )
            targets = _names(decl["targets"], "targets")
            columns = frozenset(_names(decl.get("sentinel_columns", ()), "sentinel_columns"))
            return cls(schema=StreamSchema(features=features, targets=targets),
                       sentinel_value=decl.get("sentinel_value"), sentinel_columns=columns)
        except (KeyError, TypeError, SchemaError) as exc:
            raise SchemaError(f"bad schema declaration: {exc}") from exc

    def to_dict(self) -> dict:
        out = {
            "features": [
                {"name": f.name, "kind": f.kind,
                 **({"categories": list(f.categories)} if f.kind == NOMINAL else {})}
                for f in self.schema.features
            ],
            "targets": list(self.schema.targets),
        }
        if self.sentinel_value is not None:
            out["sentinel_value"] = self.sentinel_value
            out["sentinel_columns"] = sorted(self.sentinel_columns)
        return out

    @classmethod
    def load(cls, path) -> "CsvSchemaDecl":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


class CsvStream:
    """Streams a UTF-8, comma-separated, headered file in row order.

    Malformed rows (unparsable numerics, unknown category labels, non-finite
    targets) are skipped and counted in `skipped_rows`; a header that does not
    cover the declared names is fatal. Empty fields, and sentinel values in
    the declared columns, become missing feature values."""

    def __init__(self, path, decl: CsvSchemaDecl):
        self.path = Path(path)
        self.decl = decl
        self.schema = decl.schema
        self.skipped_rows = 0
        self._column_map = self._check_header()

    def _check_header(self) -> dict[str, int]:
        with open(self.path, "r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), None)
        if header is None:
            raise SchemaError(f"{self.path}: empty file, expected a header row")
        positions = {name: i for i, name in enumerate(header)}
        declared = [f.name for f in self.schema.features] + list(self.schema.targets)
        missing = [name for name in declared if name not in positions]
        if missing:
            raise SchemaError(f"{self.path}: header lacks declared columns {missing}")
        return positions

    def _parse_feature(self, spec: FeatureSpec, raw: str):
        if raw == "":
            return None
        if spec.kind == NOMINAL:
            if (self.decl.sentinel_value is not None
                    and spec.name in self.decl.sentinel_columns
                    and _parses_as(raw, self.decl.sentinel_value)):
                return None
            try:
                return spec.categories.index(raw)
            except ValueError:
                raise _RowError(f"unknown category {raw!r} for {spec.name!r}")
        try:
            value = float(raw)
        except ValueError:
            raise _RowError(f"unparsable numeric {raw!r} for {spec.name!r}")
        if (self.decl.sentinel_value is not None
                and spec.name in self.decl.sentinel_columns
                and value == self.decl.sentinel_value):
            return None
        if not math.isfinite(value):
            raise _RowError(f"non-finite value {raw!r} for {spec.name!r}")
        return value

    def __iter__(self):
        self.skipped_rows = 0  # counts reflect the pass in progress
        cols = self._column_map
        features = self.schema.features
        targets = self.schema.targets
        with open(self.path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)  # header, validated at construction
            for row in reader:
                if not row:
                    continue
                try:
                    fvals = tuple(
                        self._parse_feature(spec, row[cols[spec.name]])
                        for spec in features
                    )
                    tvals = []
                    for name in targets:
                        v = float(row[cols[name]])
                        if not math.isfinite(v):
                            raise _RowError(f"non-finite target {name!r}")
                        tvals.append(v)
                except (_RowError, ValueError, IndexError):
                    self.skipped_rows += 1
                    continue
                yield Instance(features=fvals, targets=tuple(tvals))


class _RowError(ValueError):
    pass


def _names(value, what: str) -> tuple[str, ...]:
    """`value` as a tuple of strings; a string or any other non-list is a
    SchemaError rather than a sequence of characters."""
    if not (isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)):
        raise SchemaError(f"{what} must be a list of strings, got {value!r}")
    return tuple(value)


def _parses_as(raw: str, sentinel: float) -> bool:
    try:
        return float(raw) == sentinel
    except ValueError:
        return False


def read_csv(path, decl: CsvSchemaDecl | dict | str | Path) -> CsvStream:
    """Open a CSV export as a stream source. `decl` may be a CsvSchemaDecl, a
    declaration dict, or a path to a declaration JSON file."""
    if isinstance(decl, (str, Path)):
        decl = CsvSchemaDecl.load(decl)
    elif isinstance(decl, dict):
        decl = CsvSchemaDecl.from_dict(decl)
    return CsvStream(path, decl)


def write_csv(source, path, decl_path=None) -> int:
    """Materialize a stream to CSV (+ its schema declaration JSON). Floats are
    written with shortest exact decimal repr, so reading the file back
    reproduces the stream bit-for-bit. Returns the number of rows written."""
    schema = source.schema
    path = Path(path)
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in schema.features] + list(schema.targets))
        for inst in source:
            row = []
            for spec, v in zip(schema.features, inst.features):
                if v is None:
                    row.append("")
                elif spec.kind == NOMINAL:
                    row.append(spec.categories[v])
                else:
                    row.append(repr(v))
            row.extend(repr(t) for t in inst.targets)
            writer.writerow(row)
            rows += 1
    decl = CsvSchemaDecl(schema=schema)
    decl.save(decl_path if decl_path is not None else path.with_suffix(path.suffix + ".schema.json"))
    return rows
