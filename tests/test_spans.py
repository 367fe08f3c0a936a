"""The benchmark's span recorder against the package.

``perfbench/spans.py`` rewraps every public package function and the
closures of the :class:`~gyrostat.poisson.ScalarField` values that
builders return (it reads their ``eval``, ``grad`` and ``eval_batch``
members and rebuilds the fields with ``dataclasses.replace``). Package
code that breaks that contract fails here, not only in a traced
benchmark run.
"""

import importlib
from pathlib import Path

import pytest

from gyrostat import cli
from test_acceptance import SIMULATE

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def recorder(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    rec = importlib.import_module("spans").Recorder()
    rec.install()
    try:
        yield rec
    finally:
        rec.uninstall()


def test_traced_commands_succeed(recorder, tmp_path, monkeypatch):
    config = tmp_path / "simulate.ini"
    config.write_text(SIMULATE)
    assert cli.main(["simulate", "--config", str(config), "--out",
                     str(tmp_path / "sim"), "--quiet"]) == cli.EXIT_OK
    # one bracket space keeps the traced sweep small
    monkeypatch.setattr(cli, "SUITES", ("so3_product",))
    assert cli.main(["bracket-verify", "--out", str(tmp_path / "brackets"),
                     "--quiet"]) == cli.EXIT_OK
    names = {span[0] for span in recorder.spans}
    assert {"cli.cmd_simulate", "integrate.run", "poisson.eval_batch",
            "poisson.bracket_axiom_suite"} <= names
