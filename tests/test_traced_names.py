"""Every name the benchmark traces is still in the library.

``perfbench/run.py`` wraps each function of its ``TARGETS`` by name; a
renamed or deleted function would otherwise fail only a benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def benchmark_targets():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)  # puts perfbench/ on sys.path for its imports
    finally:
        sys.path[:] = saved
    return module.TARGETS


@pytest.mark.parametrize("target", benchmark_targets(), ids=lambda target: target.name)
def test_traced_name_resolves_in_the_library(target):
    owner = importlib.import_module(f"talcil.{target.layer}")
    *parents, attr = target.path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    # the tracer replaces a method in its class's own namespace
    assert attr in vars(owner), f"talcil.{target.name} is gone"
