"""Each narrative demo runs standalone and prints its stored output.

A demo whose output changes on purpose regenerates the copies under
``tests/golden/demos/`` with

    PYTHONPATH=src python tests/test_demos.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import _first_difference

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STORED = Path(__file__).resolve().parent / "golden" / "demos"


def _stdout(demo: Path, cwd: Path) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                          capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    stored = (STORED / f"{demo.stem}.txt").read_bytes()
    fresh = _stdout(demo, tmp_path)
    assert stored == fresh, _first_difference(f"demos/{demo.stem}.txt",
                                              stored, fresh)


if __name__ == "__main__":
    import tempfile

    STORED.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        with tempfile.TemporaryDirectory() as tmp:
            (STORED / f"{demo.stem}.txt").write_bytes(_stdout(demo,
                                                              Path(tmp)))
        print(f"wrote {STORED / demo.stem}.txt")
