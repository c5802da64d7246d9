"""Run benchmark for steepen: time to answer, answer quality and per-layer spans.

    python3 perfbench/run.py --workload lax_blowup --seed 0 --seconds 40 --trace 0

Each run of the pipeline is a fresh child process (``perfbench/child.py``),
one at a time and single-threaded, so that set-up (import, config, initial
state) is paid as on every ``steepen run``.  Children are started until
``--seconds`` would be exceeded, at least two.  Every child's outputs are
checked; a child that exits non-zero or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics as medians over the children.
A shared 2-core virtual machine was measured to change speed by +-15%
over seconds to minutes as other tenants' work comes and goes, which a
median over 40 s does not average out.  So each child also times a fixed
calibration kernel (``child.calibrate``) around the pipeline, and
``setup_s`` and ``run_s`` are calibrated: the median over the children
of wall time times ``CALIBRATION_REF_S`` over that child's calibration
time, i.e. the wall time at the speed the kernel had when the baseline
was taken.  The raw medians are printed too.
``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics (medians over the traced children) and the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Work files go under ``.perfbench_out/<workload>/`` at the
repo root: ``report.json`` (every child's figures, the answer-quality
figures and any failures) and the spans of the last traced child,
``spans.json``.

Workloads: see ``perfbench/workloads.py``.  Baseline figures are in
``perfbench/baseline.json`` (written by ``perfbench/baseline.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, render_config

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
CALIBRATED = ("setup_s", "run_s")
CALIBRATION_REF_S = 0.35  # s: typical child.calibrate() on the baseline machine
DRIFT_BOUND = 1e-6  # int_u_drift and int_tau_drift over the resolved window
UNACCOUNTED_BOUND = 1e-6  # s: traced run_s not covered by self times
CHILD_TIMEOUT = 150.0  # s
HASHED = ("fields.csv", "curves.csv")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def read_summary(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        body = line.split("#", 1)[0]
        if "=" in body:
            key, value = body.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def quality(workload, summary: dict) -> dict:
    """Answer-quality figures read from summary.txt."""
    residuals = [float(v) for k, v in summary.items() if k.startswith("residual_max.")]
    q = {
        "residual_max": max(residuals, default=0.0),
        "int_u_drift": float(summary["int_u_drift"]),
        "int_tau_drift": float(summary["int_tau_drift"]),
    }
    if workload.exact_t_blow and summary["t_blow"] != "none":
        min_y0 = abs(float(summary["min_y0"]))
        q["t_blow_rel_err"] = abs(float(summary["t_blow"]) - 1.0 / min_y0) * min_y0
    return q


def check_outputs(workload, summary: dict) -> list[str]:
    """Problems with one run's summary; an empty list means it is correct."""
    problems = []
    if summary.get("termination") != workload.termination:
        problems.append(f"termination {summary.get('termination')} != {workload.termination}")
    if summary.get("certificate") != workload.certificate:
        problems.append(f"certificate {summary.get('certificate')} != {workload.certificate}")
    t_blow = summary.get("t_blow", "none")
    if t_blow == "none":
        problems.append("no t_blow estimate")
        return problems
    t_blow = float(t_blow)
    if workload.exact_t_blow:
        exact = 1.0 / abs(float(summary["min_y0"]))
        if abs(t_blow - exact) > float(summary["t_blow_uncertainty"]):
            problems.append(f"t_blow {t_blow} is outside its uncertainty of 1/|min_y0| = {exact}")
    if workload.t_star_check and not t_blow <= float(summary["t_star_bound"]):
        problems.append(f"t_blow {t_blow} exceeds t_star_bound {summary['t_star_bound']}")
    for key in ("int_u_drift", "int_tau_drift"):
        if not float(summary[key]) <= DRIFT_BOUND:
            problems.append(f"{key} {summary[key]} exceeds {DRIFT_BOUND}")
    return problems


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_child(cfg_path: Path, work: Path, traced: bool) -> tuple[dict | None, str]:
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(cfg_path), str(result_path)]
    if traced:
        cmd.append(str(work / "spans.json"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT:g} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return json.loads(result_path.read_text()), ""


def spread(values: list[float]) -> str:
    med = statistics.median(values)
    return f"median {med:.6g}  min {min(values):.6g}  max {max(values):.6g}  n {len(values)}"


def measure(workload, seed: int, seconds: float, trace: bool) -> int:
    config = ROOT / "configs" / workload.config
    if not (ROOT / "src" / "steepen" / "cli.py").is_file() or not config.is_file():
        print(f"perfbench: no steepen sources or {config.name} under {ROOT}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_out" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_path = work / "run.cfg"
    cfg_path.write_text(render_config(config.read_text(), workload, seed, "out"))
    out_dir = work / "out"

    plain: list[dict] = []
    traced: list[dict] = []
    qualities: list[dict] = []
    failures: list[str] = []
    digests = None
    attempted = 0
    start = time.perf_counter()
    last_wall = 0.0
    while attempted < 2 or time.perf_counter() - start + last_wall <= seconds:
        with_trace = trace and attempted % 2 == 1
        t0 = time.perf_counter()
        shutil.rmtree(out_dir, ignore_errors=True)
        result, error = run_child(cfg_path, work, with_trace)
        last_wall = time.perf_counter() - t0
        attempted += 1
        problems = [error] if result is None else []
        if result is not None:
            try:
                summary = read_summary(out_dir / "summary.txt")
                these = {name: file_digest(out_dir / name) for name in HASHED}
                out_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
                problems += check_outputs(workload, summary)
                qualities.append(quality(workload, summary))
            except (OSError, KeyError, ValueError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            else:
                digests = digests or these
                problems += [f"{name} differs from the first run's" for name in HASHED
                             if these[name] != digests[name]]
                if with_trace:
                    layers = result["layers"]
                    # a check, not a metric: it reads 0.0 on every correct run
                    unaccounted = layers.pop("trace.unaccounted_s")[0]
                    if abs(unaccounted) > UNACCOUNTED_BOUND:
                        problems.append(f"self times leave {unaccounted} s of run_s unaccounted")
                    layers["cli.output_bytes"] = [out_bytes, "B"]
                    layers["cli.output_mb_per_s"] = [
                        out_bytes / 1e6 / layers["cli.run_pipeline.self_s"][0], "MB/s"]
        if problems:
            failures.append(f"run {attempted}: " + "; ".join(problems))
        elif with_trace:
            traced.append(result)
        else:
            plain.append(result)
    shutil.rmtree(out_dir, ignore_errors=True)

    failed = len(failures)
    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}  "
          f"runs {attempted}  failed {failed}  fail_ratio {failed / attempted:.6g}")
    for line in failures:
        print(f"  FAILED {line}")
    for r in plain:
        r["calibrated"] = {name: r[name] * CALIBRATION_REF_S / r["calib_s"] for name in CALIBRATED}
    if plain:
        for name in ("calib_s", *END_TO_END):
            print(f"  {name:<16} {spread([r[name] for r in plain])}  (raw)")
        for name in CALIBRATED:
            print(f"  {name:<16} {spread([r['calibrated'][name] for r in plain])}  (calibrated)")
    if qualities:
        q = qualities[-1]
        print(f"  residual_max     {q['residual_max']:.6g}  (largest residual_max.* in summary.txt,"
              " 0 without residual kinds)")
        if "t_blow_rel_err" in q:
            print(f"  t_blow_rel_err   {q['t_blow_rel_err']:.6g}  (|t_blow - 1/|min_y0|| * |min_y0|)")
        print(f"  int_u_drift      {q['int_u_drift']:.6g}  int_tau_drift {q['int_tau_drift']:.6g}"
              f"  (bound {DRIFT_BOUND:g})")

    metrics = {}
    if trace and traced and plain:
        for name, (_, unit) in traced[0]["layers"].items():
            value = statistics.median(r["layers"][name][0] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
        metrics["riccati.residual_max"] = {"value": qualities[-1]["residual_max"], "unit": "1"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["run_s"] for r in traced)
            - statistics.median(r["run_s"] for r in plain),
            "unit": "s",
        }
        for name, m in metrics.items():
            print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    elif not trace and plain:
        for name, unit in END_TO_END.items():
            values = [r["calibrated"].get(name, r[name]) for r in plain]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    report = dict(result, workload=workload.name, seed=seed, trace=int(trace), failures=failures,
                  quality=qualities[-1] if qualities else {}, plain=plain, traced=traced)
    (work / "report.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0 if metrics else 1


def main(argv=None) -> int:
    # SystemExit makes subprocess.run kill and reap the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
