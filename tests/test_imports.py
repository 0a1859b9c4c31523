"""Import hygiene: every public name resolves, and scipy is loaded only by
the Friedman test's F survival function.

`import scipy.stats` costs about 0.6 s and 70 MB, which every prequential
process and every `mtstream run` pool worker would otherwise pay before its
first example; ranks are computed in numpy. Each check runs in a fresh
interpreter, since this test process may already have loaded scipy through
other tests.
"""

from __future__ import annotations

import json
import subprocess
import sys


def run_fresh(code: str) -> str:
    """Run `code` in a new interpreter (inheriting the environment, so
    PYTHONPATH too) and return its stdout."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    return done.stdout


def test_star_import_resolves_every_public_name():
    out = run_fresh("import mtstream\n"
                    "from mtstream import *\n"
                    "names = mtstream.__all__\n"
                    "print(len(names), all(globals()[n] is getattr(mtstream, n) for n in names))")
    count, resolved = out.split()
    assert int(count) > 0 and resolved == "True"


def test_import_does_not_load_scipy():
    out = run_fresh("import sys, mtstream, mtstream.cli\n"
                    "print('scipy' in sys.modules)")
    assert out.strip() == "False"


def test_generate_does_not_load_scipy(tmp_path):
    spec = tmp_path / "gen.json"
    spec.write_text(json.dumps({
        "name": "plane", "generator": {
            "family": "plane_mt", "n_examples": 50, "n_targets": 2,
            "noise_sd": 0.0, "seed": 3}}))
    out = run_fresh(
        "import sys\n"
        "from mtstream.cli import main\n"
        f"code = main(['generate', '--config', {str(spec)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, 'scipy' in sys.modules)")
    assert out.splitlines()[-1] == "0 False"  # after generate's own output
    assert (tmp_path / "out" / "plane.csv").exists()


def test_ranking_does_not_load_scipy():
    out = run_fresh(
        "import sys\n"
        "from mtstream import RankTable\n"
        "t = RankTable.from_scores(['a', 'b', 'c'], [[0.3, 0.1, 0.3], [0.2, 0.5, 0.4]])\n"
        "print('scipy' in sys.modules, t.ranks.tolist())")
    assert out.strip() == "False [[2.5, 1.0, 2.5], [1.0, 3.0, 2.0]]"


def test_comparison_loads_scipy_and_keeps_its_result():
    out = run_fresh(
        "import sys\n"
        "from mtstream import RankTable, friedman_nemenyi\n"
        "before = 'scipy' in sys.modules\n"
        "t = RankTable.from_scores(['a', 'b', 'c'], [[0.3, 0.1, 0.2], "
        "[0.5, 0.4, 0.4], [0.9, 0.2, 0.6], [0.7, 0.1, 0.8], [0.2, 0.3, 0.25]])\n"
        "r = friedman_nemenyi(t)\n"
        "print(before, 'scipy' in sys.modules)\n"
        "print(repr((t.ranks.tolist(), r.chi2, r.f_stat, r.p_value, "
        "r.critical_difference, r.groups)))")
    loaded, result = out.splitlines()
    assert loaded == "False True"
    # frozen values: where scipy is imported must not change the result
    assert result == repr((
        [[3.0, 1.0, 2.0], [3.0, 1.5, 1.5], [3.0, 1.0, 2.0], [2.0, 1.0, 3.0],
         [1.0, 3.0, 2.0]],
        2.0999999999999996, 1.063291139240506, 0.3895008100000001,
        1.482096293767716, (("b", "c", "a"),)))
