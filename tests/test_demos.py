"""The demos print exactly their recorded output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_recording():
    recorded = sorted((ROOT / "tests" / "demo_output").glob("*.txt"))
    assert [p.stem for p in recorded] == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_output_is_byte_identical_to_the_recording(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    want = ROOT / "tests" / "demo_output" / (demo.stem + ".txt")
    assert done.stdout == want.read_bytes()
