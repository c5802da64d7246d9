"""``tools/rss_pairs.py`` prints every pair beside its summaries."""

import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_report_prints_each_pair_with_both_sides(monkeypatch, capsys):
    # the tool imports compare_outputs beside it and perfbench's modules
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.setattr(sys, "path", [str(TOOLS)] + sys.path)
    spec = importlib.util.spec_from_file_location("rss_pairs", TOOLS / "rss_pairs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def run(rss, run_s, setup_s):
        return {"peak_rss_mb": rss, "run_s": run_s, "setup_s": setup_s}

    runs = {"rev": [run(32.5, 2.0, 0.5), {"failed": "exit 1"}, run(32.75, 2.25, 0.5)],
            "new": [run(32.25, 2.5, 0.25), run(33.0, 2.0, 0.5), run(32.5, 2.0, 0.75)]}
    tool.report("lax_blowup", runs, "HEAD~1")
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "lax_blowup: 2 pairs",
        "  pair 1    peak_rss_mb 32.5 32.25  run_s 2 2.5  setup_s 0.5 0.25",
        "  pair 3    peak_rss_mb 32.75 32.5  run_s 2.25 2  setup_s 0.5 0.75",
    ]
    assert "  peak_rss_mb  tree lower in 2 of 2 pairs" in lines
