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
    write_csv(source, csv_path)
    stream = read_csv(csv_path, tmp_dir / "pin.csv.schema.json")
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
        '5fd305517dc76e7952e6238d9f493ffa4545dc8cd5422894ead0de3a2a96cb7e',
    ('friedman_mt', 'perceptron'):
        '1245b7c8bee18affd0ac65cdc70c18c87b4d13732c7099c35fb42fd79f8e5340',
    ('friedman_mt', 'adaptive'):
        'a598f9f049b6126a3c5c8bf4f697df1929b3e2a002db338a8e0f200427e7720f',
    ('friedman_mt', 'stacked'):
        'ccd3505465536b7f63667c14dc98f69c12366c980cee97eeb4efec3ec3b97692',
    ('friedman_mt', 'stacked_adaptive'):
        'f6def69bd68fa682c594e11642d3e7368ac12aa4388a63746a07e41c57b2d552',
    ('plane_mt', 'mean'):
        'ffe0e8320c64f614031879d14de11c82d3c51fd85733765a94817cab9dd8c316',
    ('plane_mt', 'perceptron'):
        '899a521e6cf321ae785bbe03a74266c85e28844b1e08569fbd66080f5238102b',
    ('plane_mt', 'adaptive'):
        '78838dd01fd85ebb15a0269356dc28c7d5b5117c8879b0b25eadc2b7e566484d',
    ('plane_mt', 'stacked'):
        '1924b7fc9dec0032360587b1b5919402dfece32270cff30a05eb3cfe428d0571',
    ('plane_mt', 'stacked_adaptive'):
        '7fc965487ba3787846c81eea90f66176c2ab2e8c654fa9e84fff80225de36465',
    ('mv_like', 'mean'):
        '89a7723b9594691ecd50b9b0816c0aa8760ae6ebb43eca0eec511048b6e763bf',
    ('mv_like', 'perceptron'):
        'd64bda0ef3a53f4e4a1eee264c3a41a24b318bde674c0a6c2370486e44bfc883',
    ('mv_like', 'adaptive'):
        'c5542872e5d2a4266b1070882d7d53e85f013436fa770f6986e8bc5f1d4a96ab',
    ('mv_like', 'stacked'):
        '0f9917b699c1d26e8d05c44961df833f14b1cfe57a3e62b16cf8a0d20efdd8e3',
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

REPORT = 'd90c43ce06ab97fa16530bf9aef6ca6e2f34e12e418ed519b229ddc772713957'


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
