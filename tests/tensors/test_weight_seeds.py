"""``WeightStore`` weights do not depend on the process that draws them.

String hashes are salted per process (``PYTHONHASHSEED``), so a layer seed
taken from ``hash(name)`` changes from run to run.  Two subprocesses with
different hash seeds must draw byte-identical weights, and so must this
process.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.graph.layers import Conv2d
from repro.tensors.executor import WeightStore

SRC = str(Path(repro.__file__).resolve().parent.parent)

DRAW = """
import sys
from repro.graph.layers import Conv2d
from repro.tensors.executor import WeightStore

weights = WeightStore(seed=0).conv_weights("conv1", Conv2d(8, (3, 3), padding=(1, 1)), 3)
sys.stdout.write(weights["weight"].tobytes().hex() + ":" + weights["bias"].tobytes().hex())
"""


def _draw_in_subprocess(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", DRAW], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout


def test_conv_weights_identical_across_hash_seeds():
    first = _draw_in_subprocess("1")
    second = _draw_in_subprocess("2")
    assert first and first == second
    local = WeightStore(seed=0).conv_weights("conv1", Conv2d(8, (3, 3), padding=(1, 1)), 3)
    assert first == local["weight"].tobytes().hex() + ":" + local["bias"].tobytes().hex()
