"""One benchmark run in a fresh process.

    python3 perfbench/child.py CONFIG RESULT_JSON [SPANS_JSON]

Imports ``steepen``, loads CONFIG, builds the initial state (together the
set-up users pay on every ``steepen run``), then calls
``cli.run_pipeline``.  Writes the timings, the exit code and the peak RSS
of this process to RESULT_JSON, with the time of a fixed calibration
kernel run just before and just after the pipeline.  With SPANS_JSON the
public functions the pipeline calls are wrapped in spans, the spans are
written there, and the per-layer metrics go into RESULT_JSON.
"""

import json
import resource
import sys
import time

from spans import Tracer, layer_metrics


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, float-formatting and small-array
    numpy work, about 0.35 s: a yardstick of how fast the machine runs right
    now, independent of the code under test."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 1024)
    start = time.perf_counter()
    total = 0
    for i in range(900_000):
        total += i * i
    for i in range(180_000):
        f"{i * 0.1:.16g}"
    for _ in range(4_500):
        (np.roll(x, 1) - np.roll(x, -1)) * 8.0 + np.roll(x, 2)
    return time.perf_counter() - start


def main(config: str, result_path: str, spans_path: str | None) -> int:
    t0 = time.perf_counter()
    from steepen import charpath, cli, config as config_mod, detector, fields, riccati, solver, svg

    t1 = time.perf_counter()
    cfg = config_mod.load_config(config)
    t2 = time.perf_counter()
    config_mod.make_initial(cfg)
    t3 = time.perf_counter()

    tracer = None
    if spans_path:
        tracer = Tracer()
        tracer.record("import", t0, t1)
        tracer.record("config.load_config", t1, t2)
        tracer.record("config.make_initial", t2, t3)
        tracer.install({"cli": cli, "solver": solver, "riccati": riccati, "fields": fields,
                        "charpath": charpath, "detector": detector, "svg": svg})

    calib_before = calibrate()
    t4 = time.perf_counter()
    code = cli.run_pipeline(cfg)
    t5 = time.perf_counter()
    calib_after = calibrate()

    result = {
        "exit": code,
        "setup_s": t3 - t0,
        "run_s": t5 - t4,
        "calib_s": (calib_before + calib_after) / 2.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    if len(sys.argv) not in (3, 4):
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3] if len(sys.argv) == 4 else None))
