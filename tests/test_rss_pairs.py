"""``tools/rss_pairs.py`` prints every pair beside its summaries, raw and calibrated."""

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

    def run(rss, run_s, setup_s, calib_s=0.35):
        return {"peak_rss_mb": rss, "run_s": run_s, "setup_s": setup_s, "calib_s": calib_s}

    runs = {"rev": [run(32.5, 2.0, 0.5), {"failed": "exit 1"}, run(32.75, 2.25, 0.5)],
            "new": [run(32.25, 2.5, 0.25), run(33.0, 2.0, 0.5), run(32.5, 2.0, 0.75, calib_s=0.7)]}
    tool.report("lax_blowup", runs, "HEAD~1")
    lines = capsys.readouterr().out.splitlines()
    # each time also calibrated as perfbench calibrates it: x CALIBRATION_REF_S / calib_s
    assert tool.CALIBRATION_REF_S == 0.35
    assert lines[:3] == [
        "lax_blowup: 2 pairs",
        "  pair 1    peak_rss_mb 32.5 32.25  run_s 2 2.5  setup_s 0.5 0.25  setup_s_cal 0.5 0.25"
        "  run_s_cal 2 2.5",
        "  pair 3    peak_rss_mb 32.75 32.5  run_s 2.25 2  setup_s 0.5 0.75  setup_s_cal 0.5 0.375"
        "  run_s_cal 2.25 1",
    ]
    assert "  peak_rss_mb  tree lower in 2 of 2 pairs" in lines
    assert "  run_s_cal    tree lower in 1 of 2 pairs" in lines
    assert "  run_s_cal    tree         median 2  q1 1.5  q3 2.25  min 1  max 2.5  n 3" in lines
