"""Every demo script runs to completion against the current package."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)   # demos write their outputs under the working directory
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
