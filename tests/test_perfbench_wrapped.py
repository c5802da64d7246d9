"""The benchmark's traced run must keep working.

``perfbench/spans.py`` names each traced function by module and
attribute, and observes what some of them return (``len(curve.t)`` of a
``charpath.trace`` result); ``perfbench/run.py --trace 1`` fails if one
of them is renamed, deleted or returns something else.  The perfbench
directory is not a package, so its files are loaded or run by path.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
CHILD = ROOT / "perfbench" / "child.py"

TRACED_CFG = """\
gas.gamma = 3
gas.K = 0.3333333333333333
grid.x0 = 0
grid.x1 = 1
grid.n = 64
initial.u0 = -0.2*sin(2*pi*x)
initial.z0 = 1
solver.t_end = 1.5
solver.gradient_cap = 10
solver.snapshot_stride = 5
diagnostics.seeds = 0.1, 0.6
diagnostics.directions = forward, backward
diagnostics.residuals = ode_y, ode_q
output.directory = out
output.emit_svg = true
"""


def test_every_wrapped_attribute_is_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    for mod_name, entries in spans.WRAPPED.items():
        module = importlib.import_module(f"steepen.{mod_name}")
        for _, attr in entries:
            assert callable(getattr(module, attr, None)), f"steepen.{mod_name}.{attr}"


def test_traced_child_run_accounts_for_its_time(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TRACED_CFG)
    result_path = tmp_path / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(cfg), str(result_path), str(tmp_path / "spans.json")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(result_path.read_text())["layers"]
    assert layers["charpath.trace.calls"][0] >= 1
    assert layers["charpath.curve_nodes"][0] >= 1
    # the tracer counts the states of riccati.diagnostics from its first
    # argument: each snapshot's fields are computed in the run's one pass
    assert layers["riccati.diagnostics.states"][0] == layers["solver.snapshots"][0]
    # the solver still calls the stencil through its name, once per RK4 stage
    assert layers["fields.derivative.calls_per_step"][0] == 4.0
    assert abs(layers["trace.unaccounted_s"][0]) <= 1e-6
