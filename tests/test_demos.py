"""Each narrative demo runs standalone and prints its stored output, and
the README's library quick start runs and prints what its comments say.

A demo whose output changes on purpose regenerates the copies under
``tests/golden/demos/`` with

    PYTHONPATH=src python tests/test_demos.py
"""

import contextlib
import io
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


def _quick_start() -> str:
    """The fenced python block under "Library quick start" in README.md."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs():
    code = _quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md quick start", "exec"), {})
    # each print writes one line; a trailing comment states that line
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prints)
    for line, got in zip(prints, printed):
        if "#" in line:
            assert got == line.split("#", 1)[1].strip(), line


if __name__ == "__main__":
    import tempfile

    STORED.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        with tempfile.TemporaryDirectory() as tmp:
            (STORED / f"{demo.stem}.txt").write_bytes(_stdout(demo,
                                                              Path(tmp)))
        print(f"wrote {STORED / demo.stem}.txt")
