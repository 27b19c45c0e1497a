"""Golden SHA-256 digests of command outputs for fixed seeds.

Determinism tests elsewhere only check that a run repeated gives the
same bytes; these digests pin the bytes themselves, so any change to a
number a command writes fails here. Change a digest only for an
intended numeric change, and record why in CHANGES.md. The digests were
recorded with NumPy 2.4 on x86-64; a NumPy release that changes the
PCG64 ``Generator`` streams would change them too.

The training runs use batch size 512. Training sums each batch's slots
per distinct store row first, so the backward products' shared
dimension is the number of distinct rows in a batch (269-278 in these
runs), not 512; that still runs the large-k matmul kernel.
"""

import hashlib
import json

import pytest

from prenet.cli import main

TRAIN = [
    "--seed", "5", "--n-labeled", "8", "--epochs", "2",
    "--batches-per-epoch", "2", "--batch-size", "512",
]

GOLDEN = {
    "prenet_checkpoint": "2eb9367affc133d7afd98aed2a7d010b7cfdddbf4168eaa4bd9af0b92f8e064a",
    "a2h_checkpoint": "53948a7598243bd504c7e96b1f9d28de02ac28a338e47db4c5dce2fb05c53b9c",
    "osnet_checkpoint": "af75c7d187ea506aafa18037840317f3dd6a55d7585851bd953a66082ddef242",
    "prenet_scores": "6bcb9474d746162db18456fb5eabe7de84a42d32f70d6925ecbf7638f820836a",
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
                 "--ensemble-size", "4", "-o", str(report)]) == 0
    doc = json.loads(report.read_text())
    for volatile in ("generated_at", "wall_seconds"):
        doc.pop(volatile, None)
    out["experiment_report"] = json.dumps(doc, sort_keys=True, indent=1).encode()
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(outputs, name):
    assert hashlib.sha256(outputs[name]).hexdigest() == GOLDEN[name]
