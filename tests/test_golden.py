"""Golden SHA-256 digests of command outputs for fixed seeds.

Determinism tests elsewhere only check that a run repeated gives the
same bytes; these digests pin the bytes themselves, so any change to a
number a command writes fails here. Change a digest only for an
intended numeric change, and record why in CHANGES.md. The digests were
recorded with NumPy 2.4 on x86-64; a NumPy release that changes the
PCG64 ``Generator`` streams would change them too.

The training runs use batch size 512, so the backward products run
with shared dimension 512, the shape the large-k matmul kernel serves.
"""

import hashlib
import json

import pytest

from prenet.cli import main

TRAIN = [
    "--seed", "5", "--n-labeled", "8", "--epochs", "2",
    "--batches-per-epoch", "2", "--batch-size", "512", "--ensemble-size", "4",
]

GOLDEN = {
    "prenet_checkpoint": "6ec3f924ba49c1f97dc41665c49117be09976c20173c391d2dce04c0f3ef47bc",
    "a2h_checkpoint": "8f9bc20f896fe4db1aaf9ef292d3ee65ac0989f7dd5fdd0651701cd1f87fa007",
    "osnet_checkpoint": "320f0f3e9445de8c367bbdb54cecae0718a9a547265477c6d4c8b24eda784f3d",
    "prenet_scores": "fd8fe7e4923dd1bf437590cb1dfee51ebcfa5b420bf68b5f61f54dd8c68b99f1",
    "experiment_report": "59b799457b7fecaade6ff4d76718f75dabe64a66aa27793b356c15cff814d7d4",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    data = str(d / "data.csv")
    assert main([
        "synth", "--n-normal", "300", "--n-anomaly", "80", "--dim", "3",
        "--separation", "5", "--seed", "7", "-o", data,
    ]) == 0
    out = {}
    for variant in ("prenet", "a2h", "osnet"):
        path = d / f"{variant}.json"
        assert main(["train", "--data", data, "--variant", variant, *TRAIN,
                     "-o", str(path)]) == 0
        out[f"{variant}_checkpoint"] = path.read_bytes()
    scores = d / "scores.csv"
    assert main(["score", "--checkpoint", str(d / "prenet.json"), "--data", data,
                 "--ensemble-size", "4", "--seed", "1", "-o", str(scores)]) == 0
    out["prenet_scores"] = scores.read_bytes()
    report = d / "report.json"
    assert main(["experiment", "--data", data, "--runs", "2", *TRAIN,
                 "-o", str(report)]) == 0
    doc = json.loads(report.read_text())
    for volatile in ("generated_at", "wall_seconds"):
        doc.pop(volatile, None)
    out["experiment_report"] = json.dumps(doc, sort_keys=True, indent=1).encode()
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(outputs, name):
    assert hashlib.sha256(outputs[name]).hexdigest() == GOLDEN[name]
