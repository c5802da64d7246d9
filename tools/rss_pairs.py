"""Compare peak resident memory and times of the working tree's
``steepen`` with a git revision's, over interleaved benchmark children.

    python tools/rss_pairs.py REV [--pairs N] [--seed S] [--fixed-layout]

Extracts ``src/`` at REV as ``compare_outputs`` does and copies it, and
the working tree's ``src/``, into two sibling temporary directories whose
paths have the same length, each with the working tree's ``configs/`` and
``perfbench/child.py``: a path's length moves where the heap starts, and
with it ``peak_rss_mb`` by up to 0.25 MB.  Then, N times (default 10), it
runs ``perfbench/child.py`` on each perfbench workload at seed S (default
0) once on each side, alternating which side goes first, with
``PYTHONDONTWRITEBYTECODE=1`` and one thread per math library, as the
benchmark runs it.  ``--fixed-layout`` runs each child under
``setarch -R`` (no address-space randomisation).

Prints, per workload, one line per pair with each metric on REV's side
and then the tree's: ``peak_rss_mb``, the raw ``run_s`` and ``setup_s``,
and ``run_s_cal`` and ``setup_s_cal``, the same times calibrated by
perfbench's rule (``× CALIBRATION_REF_S / calib_s``), which the
benchmark's gate reads; then, per metric, each side's median,
first and third quartiles, min and max, and in how many pairs the
working tree read lower.  A gain holds when the tree reads lower in at least nine tenths of
the pairs and the medians differ by more than REV's interquartile range
(q3 - q1).  Exits 1 if a child failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # import the tools and perfbench modules without writing beside them
from compare_outputs import ROOT, extract_src  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))
from run import CALIBRATED, CALIBRATION_REF_S, CHILD_TIMEOUT, THREAD_VARS  # noqa: E402
from workloads import WORKLOADS, render_config  # noqa: E402

METRICS = ("peak_rss_mb", "run_s", "setup_s", *(f"{name}_cal" for name in CALIBRATED))
SIDES = ("rev", "new")  # directory names: the same length, so the same path lengths


def prepare(side: Path, src: Path, seed: int) -> dict[str, Path]:
    """Lay out one side under ``side``: its sources, the configs and the
    child, and each workload's config; return the configs by workload."""
    # no bytecode on either side: both compile their sources, as the benchmark's checkout does
    shutil.copytree(src, side / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "configs", side / "configs")  # a `file:` input resolves beside its config
    (side / "perfbench").mkdir()
    for name in ("child.py", "spans.py"):
        shutil.copy2(ROOT / "perfbench" / name, side / "perfbench" / name)
    configs = {}
    for workload in WORKLOADS.values():
        cfg = side / "configs" / f"run_{workload.name}.cfg"
        text = (ROOT / "configs" / workload.config).read_text()
        cfg.write_text(render_config(text, workload, seed, str(side / "out" / workload.name)))
        configs[workload.name] = cfg
    return configs


def run_child(side: Path, cfg: Path, prefix: list[str]) -> dict:
    """One benchmark child on ``side``; its result, or a ``failed`` entry."""
    result = side / "result.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(side / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [*prefix, sys.executable, str(side / "perfbench" / "child.py"), str(cfg), str(result)]
    try:
        proc = subprocess.run(cmd, cwd=side, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)  # kills and reaps the child on timeout
    except subprocess.TimeoutExpired:
        return {"failed": f"timed out after {CHILD_TIMEOUT:g} s"}
    if proc.returncode != 0:
        return {"failed": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    return json.loads(result.read_text())


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartiles, linear between order statistics as numpy's default."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def calibrated(result: dict) -> dict:
    """``result`` with each time perfbench calibrates beside its raw one, as
    ``<name>_cal``, by perfbench's rule: ``× CALIBRATION_REF_S / calib_s``."""
    if "failed" in result:
        return result
    return {**result, **{f"{name}_cal": result[name] * CALIBRATION_REF_S / result["calib_s"] for name in CALIBRATED}}


def report(name: str, runs: dict[str, list[dict]], rev: str) -> None:
    runs = {side: [calibrated(r) for r in results] for side, results in runs.items()}
    pairs = [(a, b) for a, b in zip(runs["rev"], runs["new"]) if "failed" not in a and "failed" not in b]
    print(f"{name}: {len(pairs)} pairs")
    for k, (a, b) in enumerate(zip(runs["rev"], runs["new"]), 1):
        if "failed" not in a and "failed" not in b:
            print(f"  pair {k:<3}" + "".join(f"  {metric} {a[metric]:.6g} {b[metric]:.6g}" for metric in METRICS))
    for metric in METRICS:
        for side, label in (("rev", rev), ("new", "tree")):
            values = [r[metric] for r in runs[side] if "failed" not in r]
            if values:
                q1, q3 = quartiles(values)
                print(f"  {metric:<12} {label:<12} median {statistics.median(values):.6g}"
                      f"  q1 {q1:.6g}  q3 {q3:.6g}  min {min(values):.6g}  max {max(values):.6g}"
                      f"  n {len(values)}")
        lower = sum(b[metric] < a[metric] for a, b in pairs)
        print(f"  {metric:<12} tree lower in {lower} of {len(pairs)} pairs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fixed-layout", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    prefix = []
    if args.fixed_layout:
        if shutil.which("setarch") is None:
            print("rss_pairs: --fixed-layout needs setarch, which is not on PATH", file=sys.stderr)
            return 2
        prefix = ["setarch", platform.machine(), "-R"]

    runs = {name: {side: [] for side in SIDES} for name in WORKLOADS}
    with tempfile.TemporaryDirectory(prefix="rss_pairs_") as tmp:
        tmp = Path(tmp)
        sources = {"rev": extract_src(args.rev, tmp / "archive"), "new": ROOT / "src"}
        configs = {side: prepare(tmp / side, sources[side], args.seed) for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for name in WORKLOADS:
                for side in order:
                    runs[name][side].append(run_child(tmp / side, configs[side][name], prefix))
                    shutil.rmtree(tmp / side / "out" / name, ignore_errors=True)
    layout = "fixed (setarch -R)" if args.fixed_layout else "randomised"
    print(f"rss_pairs: {args.rev} against the working tree, {args.pairs} pairs, seed {args.seed}, layout {layout}")
    failed = 0
    for name, by_side in runs.items():
        report(name, by_side, args.rev)
        for side, results in by_side.items():
            for k, r in enumerate(results):
                if "failed" in r:
                    failed += 1
                    print(f"  FAILED {side} run {k + 1}: {r['failed']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
