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
        '518225206bd5791c5ae03fb62bf457418d709330c84b181c4a42f84ca60f65e7',
    ('friedman_mt', 'perceptron'):
        '46722a9aae089a709951d7ea89beac5faf590421c05af7a41caafe66a870ec1a',
    ('friedman_mt', 'adaptive'):
        'f89f1256a23ccef4afa53cf1fdc5796291f9c0bc35ac215ccd45981c09ee6466',
    ('friedman_mt', 'stacked'):
        'c1b9ddf942a58725c7efed03d8d71002b69a14a53676d9953b724bfc1e1501f7',
    ('friedman_mt', 'stacked_adaptive'):
        'e60d98d611312ece98836e780503e2a71d57ccc3b95cb1ca93ea4eebd1749524',
    ('plane_mt', 'mean'):
        '8eb412d6570831ac831a0eaa05dddfa85e932a7530b01331886f90df526e782b',
    ('plane_mt', 'perceptron'):
        'b2da7e79f1feabdd80014d261ec19b2f10402ee8df7ed24c181100ffec3f9f28',
    ('plane_mt', 'adaptive'):
        '22f514cbe954813a07cf96b36d0efa1146d76de398d41a896d5e994fea966677',
    ('plane_mt', 'stacked'):
        '2fa5f6ee7c6e2da63e523d4be343a0c5f539dc55f3c9745a4a897ddeafea6b55',
    ('plane_mt', 'stacked_adaptive'):
        'ed4ffdaf7cbb6d9d3e64715b0df462f12372c7f277bde3ed938734535279cce8',
    ('mv_like', 'mean'):
        '41f347cb016f63a3891f87641e5a10d043a9ddef47ac3bc0c97b6823e15f154c',
    ('mv_like', 'perceptron'):
        '2bd304afac79567e973cd9c7c2dd957ab4fcd933a30f5e4f28366c06dadfaaad',
    ('mv_like', 'adaptive'):
        '5d89b198519a6f58a1cd5c561cab190f730878d66a6c2fa3fb7933fc1a3275fa',
    ('mv_like', 'stacked'):
        '8c18a0f00a950a9762e88319dd35d2e25c030ca7f5e803f7d275bf49b45a67c9',
    ('mv_like', 'stacked_adaptive'):
        'e4f12b8fc044339b8218795c3718d8df3d46273cce711765ab3d2770e445da89',
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
