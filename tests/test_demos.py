"""Smoke test: every script under ``demos/`` runs to completion."""

import glob
import os
import runpy
import sys

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_0(path, tmp_path, monkeypatch, capsys):
    # in process, as ``python demos/<name>.py`` would run it
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [path])
    try:
        runpy.run_path(path, run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0)
    assert capsys.readouterr().out
