"""Golden outputs: numerical or formatting changes fail here, not by luck.

``runs/demo`` is the committed output of ``talcil train --spec
configs/demo.yaml``.  The stream commands and ``ablate`` have no committed
run, so the SHA-256 of each CSV of a run is pinned instead (the manifests
record the library version and are left out).  The ``ablate`` digests
were recorded when every cell of the grid trained on its own, one after
the other, the ``verify-theorem1`` digests when A's positions took one
scalar ``rng.integers`` call each, and the benchmark-scale
``simulate-stream`` digests when every integer cell took its own ``str``.
"""

import hashlib
import warnings
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
            # three tasks, so replay runs in two of them: 34, 42 and 50 steps
            [
                "simulate-stream",
                "--classes", "6", "--tasks", "3", "--per-class", "17", "--replay", "4",
            ],
            {
                "trace.csv": "c3bda90d414f0205f2449ff6002b85d9d85994ecb00e553d49e8e6002260bbf6",
                "s_curves.csv": "7263624a4054ab1b0fb709061e7575cb708be04883a1d9626988d9e2da7ea33a",
                "q_trajectory.csv": "b401f4f675b77cb9183996cd819b17bdc1a6237ce46ee9dfbe51b9d7fb44bfc9",
            },
        ),
        (
            # the benchmark's stream: 5,400 steps, so s_curves.csv and
            # q_trajectory.csv stream 54,000 rows in 53 chunks, with long
            # (step) and short (class, count) integer spans
            [
                "simulate-stream",
                "--classes", "10", "--tasks", "5", "--per-class", "500", "--replay", "20",
                "--lam", "0.995",
            ],
            {
                "trace.csv": "944de8b48c2eae939de40cadbdb9251635ec5eb01d8bcd19e9ec121e28ef81d8",
                "s_curves.csv": "0c9834929c8c1fdc748cd70384421d0598c7acde175d982df12bc809007e53d2",
                "q_trajectory.csv": "6ccc4ffab7e5d0c6ff7bf9562a230fbb149c1dfa0903f65223432270096d6916",
            },
        ),
        (
            ["verify-theorem1", "--pairs", "20"],
            {
                "theorem1_pairs.csv": "d7ddc0de250058b409fb4b8125d56d33e3db73249bc4bf1b04be6a4860e30210",
            },
        ),
        (
            # dense positives: most B-gaps are 1, so many spans of A are 1
            ["verify-theorem1", "--length", "40", "--positives", "30", "--pairs", "20"],
            {
                "theorem1_pairs.csv": "f48f95cae6218b3a55571b335c52f593b61c82cedb2a743592cbeffec25a1727",
            },
        ),
    ],
    ids=[
        "simulate-stream",
        "simulate-stream-replay",
        "simulate-stream-lab",
        "verify-theorem1",
        "verify-theorem1-dense",
    ],
)
def test_stream_outputs_match_pinned_digests(tmp_path, argv, digests):
    assert main([*argv, "--output-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(digests)
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


TINY_ABLATE_SPEC = """\
dataset: {classes: 4, dim: 8, tasks: 2, per_class: 30, test_per_class: 20, sep: 2.5}
schedule: {replay_per_class: 5, epochs: 3, batch_size: 16, lr: 0.1, hidden: HIDDEN}
loss: {kind: TAL, lambda: 0.995, r: 1.0}
seeds: [0, 1]
"""


@pytest.mark.parametrize(
    "hidden, digests",
    [
        (
            0,
            {
                "ablation.csv": "e80f67905028e62c9503334e905dab0e95be4814747737af09cbcbc637dee9ba",
                "ablation_summary.csv": "d6d0b6be460e5074755dc6d99c2351cf2e50d2b736a34649b0185b80657973d1",
            },
        ),
        (
            8,
            {
                "ablation.csv": "95d28ceda95b8c2678f91a1ec7eb7995434fa3969976d5374a026c711784f196",
                "ablation_summary.csv": "d7d1ff9ece6f2a0edb013ef572b854dd4dcf45b9441d18b55ac08b6f4d94c84f",
            },
        ),
    ],
    ids=["linear", "hidden"],
)
def test_ablate_outputs_match_pinned_digests(tmp_path, hidden, digests):
    spec = tmp_path / "spec.yaml"
    spec.write_text(TINY_ABLATE_SPEC.replace("HIDDEN", str(hidden)))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the exploratory r < 1 cells
        assert main(["ablate", "--spec", str(spec), "--output-dir", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(digests)
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_hidden_layer_train_matches_pinned_digests(tmp_path):
    """A ReLU-layer head whose batch size divides neither task's pool
    (60 and 70 samples in batches of 16), so every epoch ends short."""
    spec = tmp_path / "spec.yaml"
    spec.write_text(TINY_ABLATE_SPEC.replace("HIDDEN", "8"))
    out = tmp_path / "out"
    assert main(["train", "--spec", str(spec), "--output-dir", str(out)]) == 0
    digests = {
        "events_seed0.jsonl": "60eca56c39ab76f5fd1b34cc3a0ffe965c252f7c4715ce64402a827f1c6a8236",
        "q_snapshots_seed0.csv": "e0419d5a4ec1417c15642ba321e19ea61ca461ae2932b66c39d6e19b842c581b",
    }
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


UNDEFINED_PRECISION_SPEC = """\
dataset: {classes: 6, dim: 8, tasks: 3, per_class: 40, test_per_class: 20, sep: 2.5}
schedule: {replay_per_class: 0, epochs: 10, batch_size: 16, lr: 0.5, hidden: 0}
loss: {kind: CE}
seeds: [0]
"""


def test_undefined_precision_cells_match_pinned_digest(tmp_path):
    """Without replay, plain cross-entropy forgets the first task outright:
    nobody predicts its classes, so their precision is 0/0 (an empty cell)."""
    spec = tmp_path / "spec.yaml"
    spec.write_text(UNDEFINED_PRECISION_SPEC)
    out = tmp_path / "out"
    assert main(["train", "--spec", str(spec), "--output-dir", str(out)]) == 0
    table = (out / "per_class_seed0.csv").read_bytes()
    assert [line for line in table.splitlines() if b",," in line] == [
        b"2,0,,0.0,20,7.611670424899545,0",
        b"2,1,,0.0,20,7.619681087609539,0",
    ]
    digest = "1512c0ac63b6035727125520960546715457fe7c0d63009e42253c99dda27fdd"
    assert hashlib.sha256(table).hexdigest() == digest
