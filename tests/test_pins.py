"""Behaviour pins: sha256 digests of trees, predictions and one report.

Every (generator family, variant) cell of a small fixed matrix trains one tree
with `predict_then_learn` and is pinned by two digests: one over
`serialize()` followed by the repr of every prediction, and one over
`serialize_skeleton()`. One prequential report is pinned by its metric
columns (all but `elapsed_s`). A refactor that keeps behaviour keeps every
digest; one that changes floating-point order anywhere on the learn path
changes some. A change of behaviour on purpose updates the table and says so
in CHANGES.md.

The digests were computed with Python 3.11.7 and numpy 2.4.6 on x86-64
Linux. Another numpy build may round a reduction differently in the last bit
and so move a digest without any change to this package. Regenerate the table
with `PYTHONPATH=src python tests/test_pins.py`.
"""

from __future__ import annotations

import hashlib

import pytest

from mtstream import (GeneratorSpec, MultiTargetHoeffdingTree, PrequentialConfig,
                      TreeConfig, Variant, make_stream, read_csv,
                      run_prequential, write_csv)
from mtstream.evaluation import read_report_csv, write_report_csv

FAMILIES = ("friedman_mt", "plane_mt", "mv_like")
N_EXAMPLES = 3000


def _spec(family: str) -> GeneratorSpec:
    return GeneratorSpec(family=family, n_examples=N_EXAMPLES, n_targets=3,
                         noise_sd=0.5, seed=13)


def cell_digests(family: str, variant: Variant) -> tuple[str, str]:
    """(full digest, skeleton digest) of one trained matrix cell."""
    source = make_stream(_spec(family))
    tree = MultiTargetHoeffdingTree(source.schema,
                                    TreeConfig(variant=variant, grace_period=100,
                                               seed=5))
    full = hashlib.sha256()
    for instance in source:
        prediction = tree.predict_then_learn(instance)
        full.update(repr(prediction.values).encode())
        full.update(repr(prediction.per_target_source).encode())
    full.update(tree.serialize().encode())
    skeleton = hashlib.sha256(tree.serialize_skeleton().encode()).hexdigest()
    return full.hexdigest(), skeleton


def report_digest(tmp_dir) -> str:
    """Digest of the metric columns of one report CSV, written through a CSV
    stream so that parsing is pinned too."""
    source = make_stream(_spec("mv_like"))
    csv_path = tmp_dir / "pin.csv"
    write_csv(source, csv_path, tmp_dir / "pin.schema.json")
    stream = read_csv(csv_path, tmp_dir / "pin.schema.json")
    report = run_prequential(stream, TreeConfig(variant=Variant.STACKED_ADAPTIVE),
                             PrequentialConfig(window=100, warm_start=100, seeds=(3,)),
                             seed=3, dataset="pin")
    report_path = tmp_dir / "report.csv"
    write_report_csv(report, report_path)
    digest = hashlib.sha256()
    for row in read_report_csv(report_path):
        digest.update(repr((row.window_index, row.armse, row.cum_armse,
                            row.model_bytes)).encode())
    return digest.hexdigest()


FULL = {
    ('friedman_mt', 'mean'):
        '1b2bf430d92698a219600c47f186717c5537c3463df36c95c746501f4901e956',
    ('friedman_mt', 'perceptron'):
        'ab6d1a360e8e8aae1d3e6b2f4c430f328ccf7780e549e5bed3b6ed7f101320ee',
    ('friedman_mt', 'adaptive'):
        'a598f9f049b6126a3c5c8bf4f697df1929b3e2a002db338a8e0f200427e7720f',
    ('friedman_mt', 'stacked'):
        '1380c57f3a68b5679cac71554db7ebac2be2c9b7103b5c874c06b6f496c20bd6',
    ('friedman_mt', 'stacked_adaptive'):
        'f6def69bd68fa682c594e11642d3e7368ac12aa4388a63746a07e41c57b2d552',
    ('plane_mt', 'mean'):
        '109ec6e37376237bda633b1dc84a250b1728ef5f4ee157ea055a7aad86985163',
    ('plane_mt', 'perceptron'):
        '2ab9ae8ee9771831ef9f5803a95722574d258da1f710eba6b21f881fc2b8acd8',
    ('plane_mt', 'adaptive'):
        '78838dd01fd85ebb15a0269356dc28c7d5b5117c8879b0b25eadc2b7e566484d',
    ('plane_mt', 'stacked'):
        '4f37111fee9e6610f4ed514d11e47391aeea85a1a9de8645cb9ea095c2b6eca2',
    ('plane_mt', 'stacked_adaptive'):
        '7fc965487ba3787846c81eea90f66176c2ab2e8c654fa9e84fff80225de36465',
    ('mv_like', 'mean'):
        '956395bcfd95d2a0e51341cbca05957424f36d8b97b5b93cfbaeb760be7a72ec',
    ('mv_like', 'perceptron'):
        '2e4f73336f19fb93e79741c49ce121bc1361bc06264f78869f969e3f32e8996d',
    ('mv_like', 'adaptive'):
        'c5542872e5d2a4266b1070882d7d53e85f013436fa770f6986e8bc5f1d4a96ab',
    ('mv_like', 'stacked'):
        '687e7f5560dd8e18fb95aa9cf312b2aa99a83dd6ccfd334342ab49ae6a5c590d',
    ('mv_like', 'stacked_adaptive'):
        '12670309f5542ff7ddb359ae561469bf01483a4de5ed408b47756f24600dcab5',
}

SKELETON = {
    'friedman_mt':
        '7ea651bc588fa2f0188df3b9fe8339caa606fe2190a4021f388988cfe9347ac3',
    'plane_mt':
        '195fcb38f8c88ac0df045be5e11c5e7a31a3b760e970a3bf2528c4ad7cf943f8',
    'mv_like':
        'b6e01fe2d09bb613cc5da4a463e58025abdb580d959f86ecd3c7d4872dea7aae',
}

REPORT = 'bf1bfc1223084e0f408f02d30b5024738bd46d71ac1069ad4f4d6f8ef6228503'


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_cell_digests(family, variant):
    full, skeleton = cell_digests(family, variant)
    assert skeleton == SKELETON[family]
    assert full == FULL[(family, variant.value)]


def test_report_metric_columns(tmp_path):
    assert report_digest(tmp_path) == REPORT


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    print("FULL = {")
    skeletons = {}
    for family in FAMILIES:
        for variant in Variant:
            full, skeleton = cell_digests(family, variant)
            skeletons.setdefault(family, skeleton)
            print(f"    ({family!r}, {variant.value!r}):\n        {full!r},")
    print("}\n\nSKELETON = {")
    for family, skeleton in skeletons.items():
        print(f"    {family!r}:\n        {skeleton!r},")
    print("}\n")
    with tempfile.TemporaryDirectory() as tmp:
        print(f"REPORT = {report_digest(Path(tmp))!r}")
