"""Smoke tests: every shipped example runs to completion.

Each example script verifies its own numeric results internally (asserts
against dense/scipy oracles), so "runs without error" is a real check.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def run_example(name: str, argv=None) -> None:
    old_argv = sys.argv
    sys.argv = [name] + (argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "verified" in out

    def test_triangle_counting(self, capsys):
        run_example("triangle_counting.py")
        out = capsys.readouterr().out
        assert "triangles:" in out and "verified" in out

    def test_amg_galerkin(self, capsys):
        run_example("amg_galerkin.py")
        out = capsys.readouterr().out
        assert "verified" in out

    def test_schedule_explorer(self, capsys):
        run_example("schedule_explorer.py", ["stokes"])
        out = capsys.readouterr().out
        assert "executor comparison" in out
        assert "d2h_out1" in out  # the Fig. 6 interleaving is visible

    def test_schedule_explorer_rejects_unknown(self):
        with pytest.raises(SystemExit):
            run_example("schedule_explorer.py", ["nope"])

    def test_community_detection(self, capsys):
        run_example("community_detection.py")
        out = capsys.readouterr().out
        assert "recovered" in out
