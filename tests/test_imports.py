"""Import hygiene: every public name resolves, nothing in the package loads
scipy, and `src/` defines nothing that only the tests use.

`import scipy.special` costs about 0.33 s and 26 MB, and `scipy.stats` about
1.0 s, which every prequential process, every `mtstream run` pool worker and
every summary would otherwise pay; ranks and the Friedman p-value are
computed in numpy and plain Python. Each check runs in a fresh interpreter,
since this test process may already have loaded scipy through other tests.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
        "import numpy as np\n"
        "from mtstream.evaluation import average_ranks\n"
        "t = average_ranks(np.array([[0.3, 0.1, 0.3], [0.2, 0.5, 0.4]]))\n"
        "print('scipy' in sys.modules, t.tolist())")
    assert out.strip() == "False [[2.5, 1.0, 2.5], [1.0, 3.0, 2.0]]"


def test_comparison_does_not_load_scipy():
    out = run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "from mtstream import friedman_nemenyi\n"
        "from mtstream.evaluation import average_ranks\n"
        "s = np.array([[0.3, 0.1, 0.2], "
        "[0.5, 0.4, 0.4], [0.9, 0.2, 0.6], [0.7, 0.1, 0.8], [0.2, 0.3, 0.25]])\n"
        "r = friedman_nemenyi(['a', 'b', 'c'], s)\n"
        "print('scipy' in sys.modules)\n"
        "print(repr((average_ranks(s).tolist(), r.chi2, r.f_stat, "
        "r.critical_difference, r.groups)))\n"
        "print(repr(r.p_value))")
    loaded, result, p_value = out.splitlines()
    assert loaded == "False"
    # frozen values; the p-value is scipy.special.fdtrc's to 1e-12
    assert result == repr((
        [[3.0, 1.0, 2.0], [3.0, 1.5, 1.5], [3.0, 1.0, 2.0], [2.0, 1.0, 3.0],
         [1.0, 3.0, 2.0]],
        2.0999999999999996, 1.063291139240506, 1.482096293767716, (("b", "c", "a"),)))
    assert float(p_value) == pytest.approx(0.3895008100000001, rel=1e-12, abs=0.0)


def test_run_and_compare_do_not_load_scipy(tmp_path):
    """One generated dataset ranks its variants over its windows, which do
    not all agree, so both commands compute a p-value."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "datasets": [{"name": "toy", "generator": {
            "family": "friedman_mt", "n_examples": 700, "n_targets": 2,
            "noise_sd": 1.0, "seed": 7}}],
        "variants": ["perceptron", "adaptive"],
        "evaluation": {"window": 100, "warm_start": 100, "seeds": [0]}}))
    out = tmp_path / "out"
    done = run_fresh(
        "import sys\n"
        "from mtstream.cli import main\n"
        f"ran = main(['run', '--config', {str(config)!r}, '--out', {str(out)!r}, "
        "'--jobs', '1'])\n"
        f"compared = main(['compare', {str(out)!r}])\n"
        "print(ran, compared, 'scipy' in sys.modules)")
    assert done.splitlines()[-1] == "0 0 False"
    with open(out / "comparison.csv", encoding="utf-8") as fh:
        f_stat = fh.read().splitlines()[1].split(",")[4]
    assert float(f_stat) < float("inf")


def _identifiers(tree: ast.AST) -> Counter:
    """How often each name occurs in `tree` as a `Name`, as an `Attribute`
    or as a whole string constant (a name in `__all__` or a trace point)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def test_src_defines_nothing_only_tests_use():
    """Each function, method and class under `src/mtstream` is used by other
    `src/` code outside its own body, is exported in `mtstream.__all__`, or is
    named in `perfbench/*.py`, which hooks the package by name. Dunder
    methods are exempt: Python calls them. So is the one method
    `MultiTargetHoeffdingTree.predict`, the learner's public pure read:
    users call it, and no package code may, because each entry point admits
    an example once and a call from `learn` or `predict_then_learn` would
    admit it a second time. The exemption is by enclosing class and name, so
    no other `predict` passes through it.

    This is a floor, not a proof: uses are matched by name alone, so a
    definition that shares its name with another attribute (say `update`,
    which dicts and hashes also have) passes even when nothing calls it."""
    import mtstream

    modules = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "src" / "mtstream").glob("*.py"))}
    src_uses = sum((_identifiers(tree) for tree in modules.values()), Counter())
    outside = set(mtstream.__all__)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        outside |= set(_identifiers(ast.parse(path.read_text(encoding="utf-8"))))
    public_read = [fn for cls in modules[ROOT / "src" / "mtstream" / "tree.py"].body
                   if isinstance(cls, ast.ClassDef) and cls.name == "MultiTargetHoeffdingTree"
                   for fn in cls.body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "predict"]
    assert len(public_read) == 1, "MultiTargetHoeffdingTree.predict is not defined once"

    unused = []
    for path, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__") or name in outside
                    or node is public_read[0]):
                continue
            if src_uses[name] - _identifiers(node)[name] <= 0:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"defined in src/ but used only outside it: {unused}"
