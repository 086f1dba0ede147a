"""Golden outputs: numerical or formatting changes fail here, not by luck.

``runs/demo`` is the committed output of ``talcil train --spec
configs/demo.yaml``.  The stream commands have no committed run, so the
SHA-256 of each CSV of a small run is pinned instead (the manifests record
the library version and are left out).
"""

import hashlib
from pathlib import Path

import pytest

from talcil.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_train_demo_reproduces_committed_run(tmp_path):
    golden = ROOT / "runs" / "demo"
    spec = ROOT / "configs" / "demo.yaml"
    assert main(["train", "--spec", str(spec), "--output-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in golden.iterdir())
    for path in sorted(golden.iterdir()):
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize(
    "argv, digests",
    [
        (
            [
                "simulate-stream",
                "--classes", "4", "--tasks", "2", "--per-class", "50", "--replay", "2",
            ],
            {
                "trace.csv": "30c2239bbc51698980c61cd3c50266e51d783601eaa1e09cc27187a2ee3aae6a",
                "s_curves.csv": "de3ddb29630a62319b20a45d1695bff46fd222440ca672d2a8ccafbcd1660e03",
                "q_trajectory.csv": "e99e13545d9c3bbb3b9d81674307f294d7f5da74cfbbf4770e0b432d6b69e675",
            },
        ),
        (
            ["verify-theorem1", "--pairs", "20"],
            {
                "theorem1_pairs.csv": "d7ddc0de250058b409fb4b8125d56d33e3db73249bc4bf1b04be6a4860e30210",
            },
        ),
    ],
    ids=["simulate-stream", "verify-theorem1"],
)
def test_stream_outputs_match_pinned_digests(tmp_path, argv, digests):
    assert main([*argv, "--output-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(digests)
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
