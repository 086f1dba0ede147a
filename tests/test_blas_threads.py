"""talcil's default for OpenBLAS's idle-worker timeout.

Importing talcil sets ``OPENBLAS_THREAD_TIMEOUT=4`` unless the variable is
already set, before numpy (and with it OpenBLAS) loads.  OpenBLAS reads
the variable once, at load, so each check runs in a fresh interpreter.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import talcil

# Prints the variable after ``import talcil``, numpy's BLAS, and the
# timeout the bundled scipy-openblas read (None when there is none).
_PROBE = """\
import ctypes, json, os
from pathlib import Path
import talcil
import numpy as np

blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
timeout = ctypes.CDLL(str(libs[0])).openblas_thread_timeout() if libs else None
print(json.dumps({"env": os.environ.get("OPENBLAS_THREAD_TIMEOUT"), "blas": blas,
                  "timeout": timeout}))
"""


@functools.cache
def _probe(preset):
    """What a fresh interpreter reports, ``OPENBLAS_THREAD_TIMEOUT`` unset
    (this process may carry talcil's default) or set to ``preset``."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    src = str(Path(talcil.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("preset, expected", [(None, "4"), ("28", "28")])
def test_importing_talcil_sets_the_timeout_unless_it_is_set(preset, expected):
    assert _probe(preset)["env"] == expected


@pytest.mark.parametrize("preset, expected", [(None, 4), ("28", 28)])
def test_openblas_reads_the_timeout_the_environment_holds(preset, expected):
    result = _probe(preset)
    if result["blas"] != "scipy-openblas" or result["timeout"] is None:
        pytest.skip(f"numpy is linked to {result['blas']}, not a bundled scipy-openblas")
    assert result["timeout"] == expected
