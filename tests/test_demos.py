import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha1 of each demo's stdout: the demos print exact data only (and demo 05
# fixed-precision floats), so any change to what they show moves the digest
STDOUT_SHA1 = {
    "01_ring_and_charts.py": "829c7ddd8d4a0cb60937a6ccf4822ee5adc9d789",
    "02_bundles_and_resultants.py": "cc5d599f5b81bf63493e46f2ae1f69de67607e24",
    "03_degree_zero_group.py": "d71e81c46adc0f38e55de4c7a500e057c6ad72c9",
    "04_group_operation.py": "e535dad5eee512de9cc962f0dfeab09bd74a0fb7",
    "05_real_realization.py": "6bfa35bbd417b85262789f6688473e309924adb9",
}


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha1(proc.stdout.encode()).hexdigest() == STDOUT_SHA1[demo.name]
