import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtstream.schema import NOMINAL, SchemaError
from mtstream.streams import (
    ConfigError,
    CsvSchemaDecl,
    DriftSpec,
    GeneratorSpec,
    StoredStream,
    _MV_OFFSETS,
    make_stream,
    read_csv,
    write_csv,
)


# scalar forms of the generators' documented base responses, the oracles
# their vectorized blocks are checked against

def friedman_response(x) -> float:
    """10*sin(pi*x1*x2) + 20*(x3 - 0.5)^2 + 10*x4 + 5*x5."""
    return (10.0 * math.sin(math.pi * x[0] * x[1])
            + 20.0 * (x[2] - 0.5) ** 2 + 10.0 * x[3] + 5.0 * x[4])


def plane_response(x) -> float:
    """3 + 3*x2 + 2*x3 + x4 where x1 > 0, else -3 + 3*x5 + 2*x6 + x7."""
    if x[0] > 0:
        return 3.0 + 3.0 * x[1] + 2.0 * x[2] + x[3]
    return -3.0 + 3.0 * x[4] + 2.0 * x[5] + x[6]


def mv_response(x_numeric, categories) -> float:
    """5*x1 - 3*x2 + 4*x3*x4 + 2*x5 - x6 plus each category's offset."""
    base = (5.0 * x_numeric[0] - 3.0 * x_numeric[1]
            + 4.0 * x_numeric[2] * x_numeric[3]
            + 2.0 * x_numeric[4] - x_numeric[5])
    for i, c in enumerate(categories):
        base += _MV_OFFSETS[i][c]
    return base


def collect(source, limit=None):
    out = []
    for inst in source:
        out.append(inst)
        if limit is not None and len(out) >= limit:
            break
    return out


class TestFriedmanGenerator:
    def test_base_response_hand_value(self):
        assert friedman_response((0.5, 1.0, 0.5, 0.0, 0.0)) == pytest.approx(10.0)

    def test_noiseless_targets_follow_the_affine_map(self):
        spec = GeneratorSpec(family="friedman_mt", n_examples=50, n_targets=3,
                             noise_sd=0.0, seed=5)
        source = make_stream(spec)
        for inst in source:
            base = friedman_response(inst.features[:5])
            for t, (a, b) in enumerate(source.target_affine):
                assert inst.targets[t] == pytest.approx(a * base + b, abs=1e-9)

    def test_explicit_coefficients_pin_targets_to_the_base(self):
        spec = GeneratorSpec(family="friedman_mt", n_examples=20, n_targets=2,
                             noise_sd=0.0, seed=1,
                             target_affine=((1.0, 0.0), (2.0, 1.0)))
        for inst in make_stream(spec):
            base = friedman_response(inst.features[:5])
            assert inst.targets[0] == pytest.approx(base)
            assert inst.targets[1] == pytest.approx(2 * base + 1)

    def test_same_seed_replays_identically(self):
        spec = GeneratorSpec(family="friedman_mt", n_examples=500, n_targets=2, seed=9)
        first = collect(make_stream(spec))
        second = collect(make_stream(spec))
        assert first == second
        assert collect(make_stream(spec)) == first  # same object, re-iterated

    def test_noiseless_targets_are_strongly_correlated(self):
        spec = GeneratorSpec(family="friedman_mt", n_examples=2000, n_targets=3,
                             noise_sd=0.0, seed=3)
        ys = np.array([inst.targets for inst in make_stream(spec)])
        corr = np.corrcoef(ys.T)
        assert np.min(np.abs(corr)) > 0.99

    def test_feature_ranges(self):
        spec = GeneratorSpec(family="friedman_mt", n_examples=1000, n_targets=1, seed=2)
        xs = np.array([inst.features for inst in make_stream(spec)])
        assert xs.shape == (1000, 10)
        assert xs.min() >= 0.0 and xs.max() <= 1.0
        assert np.isfinite(xs).all()

    def test_stationary_without_drift(self):
        spec = GeneratorSpec(family="friedman_mt", n_examples=4000, n_targets=2,
                             noise_sd=1.0, seed=11)
        ys = np.array([inst.targets for inst in make_stream(spec)])
        half = len(ys) // 2
        for t in range(2):
            first, second = ys[:half, t], ys[half:, t]
            se = math.sqrt(first.var(ddof=1) / half + second.var(ddof=1) / half)
            assert abs(first.mean() - second.mean()) < 3 * se

    def test_synchronous_drift_changes_the_second_half(self):
        n = 4000
        base_spec = GeneratorSpec(family="friedman_mt", n_examples=n, n_targets=2,
                                  noise_sd=0.0, seed=13)
        drift_spec = GeneratorSpec(family="friedman_mt", n_examples=n, n_targets=2,
                                   noise_sd=0.0, seed=13,
                                   drift=DriftSpec(positions=(n // 2,)))
        plain = collect(make_stream(base_spec))
        drifted = collect(make_stream(drift_spec))
        assert [i.targets for i in plain[:n // 2]] == [i.targets for i in drifted[:n // 2]]
        changed = sum(p.targets != q.targets for p, q in zip(plain[n // 2:], drifted[n // 2:]))
        assert changed > (n // 2) * 0.9

    def test_asynchronous_drift_switches_targets_at_their_own_positions(self):
        n = 1000
        spec = GeneratorSpec(
            family="friedman_mt", n_examples=n, n_targets=2, noise_sd=0.0, seed=7,
            drift=DriftSpec(positions=(200, 700), mode="asynchronous"))
        plain = GeneratorSpec(family="friedman_mt", n_examples=n, n_targets=2,
                              noise_sd=0.0, seed=7)
        drifted = collect(make_stream(spec))
        reference = collect(make_stream(plain))
        diff0 = [i for i, (p, q) in enumerate(zip(reference, drifted))
                 if p.targets[0] != q.targets[0]]
        diff1 = [i for i, (p, q) in enumerate(zip(reference, drifted))
                 if p.targets[1] != q.targets[1]]
        assert diff0 and min(diff0) >= 200 and min(diff0) < 250
        assert diff1 and min(diff1) >= 700 and min(diff1) < 750

    def test_drift_validation(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(family="friedman_mt", n_examples=100, n_targets=2,
                          drift=DriftSpec(positions=(100,)))  # not strictly inside
        with pytest.raises(ConfigError):
            GeneratorSpec(family="friedman_mt", n_examples=100, n_targets=2,
                          drift=DriftSpec(positions=(50,), mode="asynchronous"))
        with pytest.raises(ConfigError):
            DriftSpec(positions=(10, 20), mode="synchronous")
        with pytest.raises(ConfigError):
            GeneratorSpec(family="plane_mt", n_examples=100,
                          drift=DriftSpec(positions=(50,)))

    @pytest.mark.parametrize("position", [250.5, 250.0, True, "250"])
    def test_drift_positions_must_be_integers(self, position):
        # a non-integer position would reach a slice index during generation
        with pytest.raises(ConfigError, match=r"^positions\[0\] must be an integer, got "):
            DriftSpec(positions=(position,))


class TestPlaneGenerator:
    def test_hand_values(self):
        assert plane_response((1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0)) == pytest.approx(9.0)
        assert plane_response((-1.0, 0.0, 0.0, 0.0, 1.0, 0.0, -1.0)) == pytest.approx(-1.0)

    def test_noiseless_targets_match_formula(self):
        spec = GeneratorSpec(family="plane_mt", n_examples=200, n_targets=2,
                             noise_sd=0.0, seed=21)
        source = make_stream(spec)
        for inst in source:
            base = plane_response(inst.features)
            for t, (a, b) in enumerate(source.target_affine):
                assert inst.targets[t] == pytest.approx(a * base + b, abs=1e-9)

    def test_ternary_inputs_and_determinism(self):
        spec = GeneratorSpec(family="plane_mt", n_examples=300, n_targets=1, seed=4)
        rows = collect(make_stream(spec))
        assert rows == collect(make_stream(spec))
        values = {v for inst in rows for v in inst.features}
        assert values <= {-1.0, 0.0, 1.0}
        assert {inst.features[0] for inst in rows} <= {-1.0, 1.0}


class TestMVGenerator:
    def test_schema_has_four_nominals(self):
        spec = GeneratorSpec(family="mv_like", n_examples=10, n_targets=2, seed=0)
        schema = make_stream(spec).schema
        nominal = [f for f in schema.features if f.kind == NOMINAL]
        assert len(nominal) == 4
        assert [len(f.categories) for f in nominal] == [3, 2, 3, 2]

    def test_noiseless_targets_match_formula(self):
        spec = GeneratorSpec(family="mv_like", n_examples=150, n_targets=2,
                             noise_sd=0.0, seed=8)
        source = make_stream(spec)
        for inst in source:
            base = mv_response(inst.features[:6], inst.features[6:])
            for t, (a, b) in enumerate(source.target_affine):
                assert inst.targets[t] == pytest.approx(a * base + b, abs=1e-9)

    def test_hand_value(self):
        assert mv_response((0.5,) * 6, (0, 0, 0, 0)) == pytest.approx(4.0)

    def test_category_indices_respect_declared_sets(self):
        spec = GeneratorSpec(family="mv_like", n_examples=500, n_targets=1, seed=14)
        source = make_stream(spec)
        for inst in source:
            source.schema.validate_instance(inst)


class TestGeneratorSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(family="sine_mt")

    def test_bad_counts(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(family="plane_mt", n_examples=0)
        with pytest.raises(ConfigError):
            GeneratorSpec(family="plane_mt", noise_sd=-1.0)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            GeneratorSpec(family="plane_mt", seed=-1)

    def test_affine_length_must_match_targets(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(family="plane_mt", n_targets=2, target_affine=((1.0, 0.0),))


class TestCsvRoundTrip:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("x1,x2,y\n1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n")
        decl = {"features": [{"name": "x1"}, {"name": "x2"}], "targets": ["y"]}
        rows = collect(read_csv(path, decl))
        assert len(rows) == 3
        assert rows[0].features == (1.0, 2.0)
        assert rows[2].targets == (9.0,)

    def test_malformed_target_skipped_and_counted(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y\n1.0,2.0\n1.5,oops\n2.0,4.0\n")
        source = read_csv(path, {"features": [{"name": "x1"}], "targets": ["y"]})
        rows = collect(source)
        assert len(rows) == 2
        assert source.skipped_rows == 1

    def test_nonfinite_target_skipped(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("x1,y\n1.0,inf\n2.0,4.0\n")
        source = read_csv(path, {"features": [{"name": "x1"}], "targets": ["y"]})
        assert len(collect(source)) == 1
        assert source.skipped_rows == 1

    def test_rereading_is_deterministic(self, tmp_path):
        path = tmp_path / "again.csv"
        path.write_text("x1,y\n0.25,1.0\n0.5,2.0\n")
        source = read_csv(path, {"features": [{"name": "x1"}], "targets": ["y"]})
        assert collect(source) == collect(source)

    def test_header_mismatch_is_fatal(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(SchemaError):
            read_csv(path, {"features": [{"name": "x1"}], "targets": ["y"]})

    def test_repeated_declared_column_is_fatal(self, tmp_path):
        # the row dict would keep the last x1 and silently drop the first
        path = tmp_path / "twice.csv"
        path.write_text("x1,y1,x1\n1.0,2.0,3.0\n")
        with pytest.raises(SchemaError, match=r"header repeats declared columns \['x1'\]"):
            read_csv(path, {"features": [{"name": "x1"}], "targets": ["y1"]})

    def test_repeated_undeclared_column_is_harmless(self, tmp_path):
        path = tmp_path / "notes.csv"
        path.write_text("note,x1,note,y1\na,1.0,b,2.0\n")
        rows = collect(read_csv(path, {"features": [{"name": "x1"}], "targets": ["y1"]}))
        assert [(r.features, r.targets) for r in rows] == [((1.0,), (2.0,))]

    def test_sentinel_maps_to_missing_only_where_opted_in(self, tmp_path):
        """On either feature kind, the sentinel in an opted-in column is
        missing. Elsewhere it is a number, or, in a nominal column, an
        unknown category that skips the row."""
        path = tmp_path / "sent.csv"
        path.write_text("x1,x2,c1,c2,y\n-1,-1,-1,a,3.0\n-1,-1,-1.0,-1,4.0\n")
        nominal = {"kind": "nominal", "categories": ["a", "b"]}
        decl = {"features": [{"name": "x1"}, {"name": "x2"},
                             {"name": "c1", **nominal}, {"name": "c2", **nominal}],
                "targets": ["y"], "sentinel_value": -1, "sentinel_columns": ["x1", "c1"]}
        source = read_csv(path, decl)
        assert [inst.features for inst in collect(source)] == [(None, -1.0, None, 0)]
        assert source.skipped_rows == 1

    def test_unknown_category_label_skips_row(self, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text("c,y\nred,1.0\npurple,2.0\nblue,3.0\n")
        decl = {"features": [{"name": "c", "kind": "nominal",
                              "categories": ["red", "blue"]}], "targets": ["y"]}
        source = read_csv(path, decl)
        rows = collect(source)
        assert [r.features[0] for r in rows] == [0, 1]
        assert source.skipped_rows == 1

    def test_generated_stream_round_trips_losslessly(self, tmp_path):
        spec = GeneratorSpec(family="mv_like", n_examples=120, n_targets=2,
                             noise_sd=0.5, seed=6)
        source = make_stream(spec)
        csv_path = tmp_path / "mv.csv"
        n = write_csv(source, csv_path)
        assert n == 120
        decl_path = csv_path.with_suffix(".csv.schema.json")
        assert decl_path.exists()
        back = read_csv(csv_path, CsvSchemaDecl.load(decl_path))
        assert collect(back) == collect(source)
        assert back.skipped_rows == 0

    def test_schema_declaration_round_trips(self, tmp_path):
        spec = GeneratorSpec(family="friedman_mt", n_examples=5, n_targets=2, seed=0)
        decl = CsvSchemaDecl(schema=make_stream(spec).schema,
                             sentinel_value=-1.0, sentinel_columns=frozenset({"x1"}))
        path = tmp_path / "decl.json"
        decl.save(path)
        loaded = CsvSchemaDecl.load(path)
        assert loaded == decl


class TestSchemaDeclValidation:
    """A malformed declaration is a SchemaError, never a string split into
    characters or a sentinel that can never match."""

    @pytest.mark.parametrize("decl, message", [
        ({"features": [{"name": "x1"}], "targets": "y"},
         "targets must be a list of strings, got 'y'"),
        ({"features": [{"name": "x1"}], "targets": "yy"},
         "targets must be a list of strings, got 'yy'"),
        ({"features": [{"name": "x1"}], "targets": ["y", 3]},
         "targets must be a list of strings"),
        ({"features": [{"name": "c", "kind": "nominal", "categories": "ab"}], "targets": ["y"]},
         "categories of 'c' must be a list of strings, got 'ab'"),
        ({"features": [{"name": "x1"}], "targets": ["y"], "sentinel_columns": "x1"},
         "sentinel_columns must be a list of strings, got 'x1'"),
        ({"features": [{"name": "x1"}], "targets": ["y"], "sentinel_value": "abc"},
         "sentinel_value must be a finite number or None, got 'abc'"),
        ({"features": [{"name": "x1"}], "targets": ["y"], "sentinel_value": float("nan")},
         "sentinel_value must be a finite number or None, got nan"),
        ({"features": [{"name": "x1"}], "targets": ["y"], "sentinel_value": True},
         "sentinel_value must be a finite number or None, got True"),
        ({"features": [{"name": "x1"}], "targets": ["y"], "sentinel_value": 10 ** 400},
         "sentinel_value must be a finite number or None"),
        ({"features": [{"name": "x1"}], "targets": ["y"], "sentinel_value": -1,
          "sentinel_columns": ["x9"]},
         "sentinel_columns name unknown features: ['x9']"),
        # a CSV label reads as its first index, so a repeat's column and
        # child could never see an example
        ({"features": [{"name": "c", "kind": "nominal", "categories": ["a", "a", "b"]}],
          "targets": ["y"]},
         "nominal feature 'c' repeats categories ['a']"),
    ], ids=["targets_string", "targets_repeated_string", "targets_non_string",
            "categories_string", "sentinel_columns_string", "sentinel_value_string",
            "sentinel_value_nan", "sentinel_value_bool", "sentinel_value_beyond_float",
            "sentinel_columns_unknown", "categories_repeated"])
    def test_malformed_declaration_is_rejected(self, decl, message):
        with pytest.raises(SchemaError, match="bad schema declaration") as err:
            CsvSchemaDecl.from_dict(decl)
        assert message in str(err.value)


class TestLength:
    def test_len_matches_requested_examples(self):
        spec = GeneratorSpec(family="plane_mt", n_examples=77, n_targets=1, seed=0)
        source = make_stream(spec)
        assert len(source) == 77
        assert len(collect(source)) == 77


_CATEGORIES = ("red", "blue", "green")
_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.integers(-3, 3).map(float), st.just(-0.0))
_ROWS = st.lists(st.one_of(
    st.tuples(st.none() | _NUMBERS, st.none() | st.integers(0, 2), _NUMBERS),
    st.just("bad")), max_size=40)


class TestStoredStream:
    @settings(max_examples=80, deadline=None)
    @given(rows=_ROWS)
    def test_replays_the_source_pass_with_its_types(self, rows):
        """Missing numeric and nominal values, -0.0, integral floats and
        skipped rows of a CSV come back from every replay as read."""
        lines = ["x,c,y"]
        for row in rows:
            if row == "bad":
                lines.append("1.0,red,oops")
                continue
            x, c, y = row
            lines.append(f"{'' if x is None else repr(x)},"
                         f"{'' if c is None else _CATEGORIES[c]},{y!r}")
        decl = {"features": [{"name": "x"},
                             {"name": "c", "kind": "nominal", "categories": list(_CATEGORIES)}],
                "targets": ["y"]}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            path.write_text("\n".join(lines) + "\n")
            source = read_csv(path, decl)
            read = collect(source)
            stored = StoredStream(source)
        assert stored.schema is source.schema
        assert stored.skipped_rows == source.skipped_rows == rows.count("bad")
        for _ in range(2):
            replayed = collect(stored)
            assert replayed == read
            assert [repr(i) for i in replayed] == [repr(i) for i in read]  # -0.0, 3 vs 3.0
            assert [tuple(map(type, i.features + i.targets)) for i in replayed] \
                == [tuple(map(type, i.features + i.targets)) for i in read]

    def test_generated_stream_is_stored_in_blocks(self):
        source = make_stream(GeneratorSpec(family="mv_like", n_examples=2500, n_targets=2,
                                           seed=1))
        stored = StoredStream(source)
        assert len(stored._blocks) == 10  # 9 x 256 + 196 examples
        assert stored.skipped_rows == 0
        assert collect(stored) == collect(source)
