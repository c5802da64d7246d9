"""``tools/compare_outputs.py`` says how a differing output differs."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def _tool(monkeypatch):
    # the tool turns bytecode writing off and puts perfbench/ on sys.path
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_numbers_and_other_text_are_told_apart(tmp_path, monkeypatch):
    tool = _tool(monkeypatch)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("t,x,seed0\n0.5,-1e-07,nan,3\nE1 = 2\nkind = thm14_y\n")
    b.write_text("t,x,seed0\n0.5000000000000001,-1.0000001e-07,nan,3.0\nE1 = 2\nkind = thm15_y\n")
    assert tool.how_it_differs(a, b) == (
        "2 numbers differ, by at most 1e-14 absolute and 1e-07 relative; other text"
        " differs, first at line 4: 'kind = thm14_y' against 'kind = thm15_y'")
    # digits inside a name are not numbers: seed0 against seed1 is text
    b.write_text("t,x,seed1\n0.5,-1e-07,nan,inf\nE1 = 2\nkind = thm14_y\nextra\n")
    assert tool.how_it_differs(a, b) == (
        "1 numbers differ, by at most inf absolute and inf relative; other text differs,"
        " first at line 1: 't,x,seed0' against 't,x,seed1'")
    b.write_text("t,x,seed0\n0.5,-1e-07,nan,3\nE1 = 2\nkind = thm14_y\nextra\n")
    assert tool.how_it_differs(a, b).endswith("first at 4 lines against 5")
