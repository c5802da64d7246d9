import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import steepen
from steepen import _g16, charpath, cli, eos, fields, riccati, solver
from steepen.config import build_config, make_initial, parse_kv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


RUN_CFG = """\
gas.gamma = 3
gas.K = 0.3333333333333333
grid.x0 = 0
grid.x1 = 1
grid.n = 64
params.amp = 0.2
initial.u0 = -amp*sin(2*pi*x)
initial.z0 = 1
initial.m0 = 1
solver.t_end = 0.3
solver.gradient_cap = 30
solver.snapshot_stride = 5
diagnostics.seeds = 0.1, 0.6
diagnostics.residuals = ode_y, ode_q
certify.Z_L = 0.2
certify.Z_U = 3
certify.M1 = 0.5
certify.M2 = 1.5
certify.M3 = 0
certify.M4 = 0
certify.A = 0.25
output.directory = out
output.emit_svg = true
"""


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(RUN_CFG)
    return path


def test_validate_ok(cfg_path, capsys):
    assert cli.main(["validate", str(cfg_path)]) == 0
    assert "config ok" in capsys.readouterr().out


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).parents[1] / "configs").glob("*.cfg")), ids=lambda p: p.stem
)
def test_committed_config_validates(path, capsys):
    assert cli.main(["validate", str(path)]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_rejects_bad_expression(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(RUN_CFG.replace("-amp*sin(2*pi*x)", "sin(+)"))
    assert cli.main(["validate", str(path)]) == 2


@pytest.mark.parametrize("u0", ["0^-1", "(0-8)^0.5", "sqrt(-1)", "1e999", "\u00e9"])
def test_validate_rejects_non_finite_constants_and_non_ascii_letters(tmp_path, capsys, u0):
    path = tmp_path / "bad.cfg"
    path.write_text(RUN_CFG.replace("-amp*sin(2*pi*x)", u0), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 2
    assert "initial block: bad expression" in capsys.readouterr().err


def test_validate_checks_file_samples(tmp_path, capsys):
    (tmp_path / "few.csv").write_text("# profile\n0,0\n0.5,0.1\n1,0\n")  # 3 samples
    path = tmp_path / "few.cfg"
    path.write_text(RUN_CFG.replace("-amp*sin(2*pi*x)", "file:few.csv"))
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "few.csv" in err and "at least 4 samples" in err


@pytest.mark.parametrize("command", ["run", "certify"])
def test_entropy_profile_with_infinite_derivatives_stops_at_build(tmp_path, capsys, command):
    # 1 + sqrt(x) is finite on the grid, but its m_x and m_xx are not at x = 0:
    # one build error, not a vacuum at t = 0 or a certificate
    path = tmp_path / "sqrt.cfg"
    path.write_text(RUN_CFG.replace("initial.m0 = 1\n", "initial.m0 = 1 + sqrt(x)\n"))
    assert cli.main([command, str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("stage build:") == 1 and "derivatives m_x, m_xx must be finite" in err
    assert "vacuum" not in err
    assert not (tmp_path / "out" / "certificate.txt").exists()


#: one_sided_profile.cfg with a bump that is cut by the wrap x1 -> x0:
#: u jumps by 0.52 and 0.28 there (roughness 3.8 and 9.4)
UNRESOLVED_PROBES = {
    "cut_bump": {"initial.u0": "-1.4*exp(-((x - 28)/2)^2)"},
    "cut_bump_steep_entropy": {"initial.u0": "-0.3*exp(-((x - 29.5)/2)^2)",
                               "initial.m0": "(1 + 0.5*(1 + cos(2*pi*x/40)))^(-4)"},
}


@pytest.mark.parametrize("command", ["run", "certify"])
@pytest.mark.parametrize("probe", list(UNRESOLVED_PROBES))
def test_data_not_resolved_across_the_wrap_stop_at_build(tmp_path, capsys, probe, command):
    # before the check, the first probe stopped at t = 0 as gradient_blowup
    # with exit 0 and a thm15 certificate
    kv = parse_kv((CONFIGS / "one_sided_profile.cfg").read_text())
    kv.update(UNRESOLVED_PROBES[probe])
    kv["output.directory"] = str(tmp_path / "out")
    path = tmp_path / "probe.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in kv.items()))
    assert cli.main([command, str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("stage build: initial u is not resolved on the periodic grid")
    assert list((tmp_path / "out").iterdir()) == []


def _workload_configs(monkeypatch):
    """``{name: config text}`` of every perfbench workload at seeds 0 and 7."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing is written into perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_workloads", CONFIGS.parent / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return {f"{w.name}/seed{seed}": module.render_config((CONFIGS / w.config).read_text(), w, seed, "out")
            for w in module.WORKLOADS.values() for seed in (0, 7)}


def test_demos_and_workloads_are_resolved_across_the_wrap(monkeypatch):
    # each builds; measured at most 6.7e-9 (one_sided_profile's u), far
    # inside the build's tolerance of 1e-2
    texts = {path.name: path.read_text() for path in sorted(CONFIGS.glob("*.cfg"))}
    texts.update(_workload_configs(monkeypatch))
    assert len(texts) >= 10
    for name, text in texts.items():
        state = make_initial(build_config(parse_kv(text), CONFIGS))[0]
        worst = max(fields.roughness(v) for v in (state.u, state.z, state.m_arrays()[0]))
        assert worst <= 1e-6, (name, worst)


@pytest.mark.parametrize("command", ["validate", "run", "certify"])
def test_thm15_without_bounds_is_a_config_error_unless_gamma_3(tmp_path, command):
    lines = [line for line in RUN_CFG.splitlines() if not line.startswith("certify.") or line.startswith("certify.A")]
    path = tmp_path / "thm15.cfg"
    path.write_text("\n".join(lines).replace("gas.gamma = 3", "gas.gamma = 1.4") + "\n")
    assert cli.main([command, str(path)]) == 2
    assert not (tmp_path / "out").exists()  # rejected before any work


def test_run_writes_all_outputs(cfg_path, tmp_path):
    assert cli.main(["run", str(cfg_path)]) == 0
    out = tmp_path / "out"
    for name in (
        "fields.csv", "curves.csv", "certificate.txt", "assumptions.txt",
        "summary.txt", "yq_extrema.svg", "characteristics.svg",
    ):
        assert (out / name).exists(), name
    header = (out / "fields.csv").read_text().splitlines()[0]
    assert header == "t,x,z,u,m,p,c,alpha,beta,y,q"
    header_c = (out / "curves.csv").read_text().splitlines()[0]
    assert header_c == "curve_id,direction,t,x,value,residual"
    for name in ("yq_extrema.svg", "characteristics.svg"):
        ET.fromstring((out / name).read_text())  # well-formed XML


def test_run_values_carry_at_least_12_significant_digits(cfg_path, tmp_path):
    assert cli.main(["run", str(cfg_path)]) == 0
    row = (tmp_path / "out" / "fields.csv").read_text().splitlines()[2].split(",")
    u_text = row[3]
    assert abs(float(u_text) - (-0.2 * np.sin(2.0 * np.pi * float(row[1])))) <= 1e-12
    mantissa = u_text.lstrip("-0.").replace(".", "").split("e")[0]
    assert len(mantissa) >= 12


def test_run_byte_identical(cfg_path, tmp_path):
    assert cli.main(["run", str(cfg_path)]) == 0
    first = {
        name: (tmp_path / "out" / name).read_bytes()
        for name in ("fields.csv", "curves.csv", "summary.txt", "certificate.txt")
    }
    assert cli.main(["run", str(cfg_path)]) == 0
    for name, blob in first.items():
        assert (tmp_path / "out" / name).read_bytes() == blob, name


_NO_SCIPY_SCRIPT = """\
import sys

def assert_no_scipy(stage):
    loaded = sorted(k for k in sys.modules if k.startswith("scipy"))
    assert not loaded, (stage, loaded[:5])

from steepen import cli
assert_no_scipy("import steepen.cli")
cfg = cli.load_config(sys.argv[1])
assert cli.main(["validate", sys.argv[1]]) == 0
assert_no_scipy("validate")
assert cli.main(["validate", sys.argv[2]]) == 0
assert_no_scipy("validate of a file: input")
assert cli.run_pipeline(cfg) == 0
assert_no_scipy("run_pipeline")
assert cli.certify_only(cfg) == 0
assert_no_scipy("certify_only")
"""


def test_no_scipy_module_on_the_run_path_from_expressions(tmp_path):
    # building the state from sampled `file:` inputs still loads scipy;
    # test_config covers that path, and validate here checks their samples
    path = tmp_path / "run.cfg"
    path.write_text(
        RUN_CFG.replace("diagnostics.seeds = 0.1, 0.6", "diagnostics.seeds = 0.1")
        .replace("diagnostics.residuals = ode_y, ode_q", "diagnostics.residuals = ode_y")
    )
    (tmp_path / "u.csv").write_text("# profile\n" + "".join(f"{x},0\n" for x in (0, 0.25, 0.5, 0.75)))
    sampled = tmp_path / "sampled.cfg"
    sampled.write_text(path.read_text().replace("-amp*sin(2*pi*x)", "file:u.csv"))
    src = str(Path(steepen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(path), str(sampled)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "curves.csv").exists()


# perfbench/child.py's imports and calls: the path every `steepen run` takes
_RUN_PATH_SCRIPT = """\
import json, resource, sys, time
from steepen import charpath, cli, config, detector, fields, riccati, solver, svg
cfg = config.load_config(sys.argv[1])
config.make_initial(cfg)
assert cli.run_pipeline(cfg) == 0
print(json.dumps(sorted(sys.modules)))
"""


def test_run_path_loads_no_argparse_dataclasses_scipy_numpy_random_or_fft(tmp_path):
    # each is memory a run pays for and does not use: argparse only parses
    # the command line, numpy.random alone is about 6.4 MB resident, and
    # dataclasses (with copy) generates and compiles each record's methods
    path = tmp_path / "run.cfg"
    path.write_text(RUN_CFG)
    src = str(Path(steepen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_PATH_SCRIPT, str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "fields.csv").exists()
    loaded = json.loads(proc.stdout.splitlines()[-1])
    for name in ("argparse", "dataclasses", "scipy", "numpy.random", "numpy.fft"):
        assert not [m for m in loaded if m == name or m.startswith(name + ".")], name


def test_config_error_exit_2_and_no_outputs(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(RUN_CFG.replace("gas.gamma = 3", "gas.gamma = 1"))
    assert cli.main(["run", str(path)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_finite_param_is_a_config_error(tmp_path, capsys, command):
    path = tmp_path / "nan.cfg"
    path.write_text(RUN_CFG.replace("params.amp = 0.2", "params.amp = nan"))
    assert cli.main([command, str(path)]) == 2
    assert "config error: params block: amp must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_exit_2(tmp_path):
    assert cli.main(["run", str(tmp_path / "nope.cfg")]) == 2


@pytest.mark.parametrize("command", ["validate", "run"])
def test_gamma_whose_gas_constants_overflow_is_a_config_error(tmp_path, capsys, command):
    path = tmp_path / "g.cfg"
    path.write_text(RUN_CFG.replace("gas.gamma = 3", "gas.gamma = 1.01"))
    assert cli.main([command, str(path)]) == 2
    assert "config error: gas block: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_numeric_failure_exit_3(tmp_path):
    path = tmp_path / "vac.cfg"
    path.write_text(RUN_CFG.replace("initial.z0 = 1", "initial.tau0 = -1"))
    assert cli.main(["run", str(path)]) == 3


def test_cfl_collapse_without_certificate_exit_3(tmp_path):
    text = "".join(line + "\n" for line in RUN_CFG.splitlines() if not line.startswith("certify."))
    text = text.replace("params.amp = 0.2", "params.amp = 0.0001")
    text = text.replace("solver.t_end = 0.3", "solver.t_end = 0.3\nsolver.dt_min = 1\n")
    path = tmp_path / "collapse.cfg"
    path.write_text(text)
    assert cli.main(["run", str(path)]) == 3
    lines = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    summary = dict(line.split(" = ") for line in lines if " = " in line)
    assert summary["termination"] == "cfl_collapse"
    assert summary["certificate"] == "none"


@pytest.mark.parametrize("kind", ["cfl_collapse", "vacuum_guard"])
def test_cfl_collapse_or_vacuum_with_certificate_exit_3(tmp_path, monkeypatch, kind):
    # the certificate's bounds keep the wave speed bounded, so neither stop
    # can be the certified blowup
    text = RUN_CFG.replace("params.amp = 0.2", "params.amp = 0.0001")
    if kind == "cfl_collapse":
        text = text.replace("solver.t_end = 0.3", "solver.t_end = 0.3\nsolver.dt_min = 1\n")
    else:
        monkeypatch.setattr(solver._Workspace, "max_wavespeed", lambda self, z: float("nan"))
    path = tmp_path / "stop.cfg"
    path.write_text(text)
    assert cli.main(["run", str(path)]) == 3
    lines = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    summary = dict(line.split(" = ") for line in lines if " = " in line)
    assert summary["termination"] == kind
    assert summary["steps"] == "0"
    assert summary["certificate"] == "thm15_y"


def test_non_finite_without_certificate_writes_outputs_exit_3(tmp_path, monkeypatch):
    text = "".join(line + "\n" for line in RUN_CFG.splitlines() if not line.startswith("certify."))
    path = tmp_path / "nan.cfg"
    path.write_text(text)
    real = solver.derivative
    calls = 0

    def derivative_then_nan(values, grid, **buffers):
        # the solver reads the result from the buffers it passes, so the NaN
        # goes into them
        nonlocal calls
        calls += 1
        result = real(values, grid, **buffers)
        if calls > 4 * 10:
            result.fill(np.nan)
        return result

    monkeypatch.setattr(solver, "derivative", derivative_then_nan)
    assert cli.main(["run", str(path)]) == 3
    out = tmp_path / "out"
    summary = dict(
        line.split(" = ") for line in (out / "summary.txt").read_text().splitlines() if " = " in line
    )
    assert summary["termination"] == "non_finite"
    assert summary["steps"] == "10"
    rows = (out / "fields.csv").read_text().splitlines()[1:]
    assert float(rows[-1].split(",")[0]) == float(summary["t_stop"])
    assert all(np.isfinite(float(v)) for row in rows for v in row.split(","))
    assert len((out / "curves.csv").read_text().splitlines()) > 1


@pytest.mark.parametrize("t_end, kind, fraction", [
    ("0.3", "reached_t_end", 1.0),
    ("1.5", "gradient_blowup", 0.8),
])
def test_drift_window_is_the_resolved_window(tmp_path, monkeypatch, t_end, kind, fraction):
    text = RUN_CFG.replace("solver.t_end = 0.3", f"solver.t_end = {t_end}")
    path = tmp_path / "run.cfg"
    path.write_text(text.replace("solver.gradient_cap = 30", "solver.gradient_cap = 10"))
    real = solver.conserved_drift
    seen = []

    def spy(traj, t_max):
        seen.append((traj.termination, t_max))
        return real(traj, t_max)

    monkeypatch.setattr(solver, "conserved_drift", spy)
    assert cli.main(["run", str(path)]) == 0
    [(termination, t_max)] = seen
    assert termination.kind == kind
    assert t_max == fraction * termination.t_stop


def test_a_nan_residual_reads_nan_in_the_summary(cfg_path, tmp_path, monkeypatch):
    # ode_q's residual is NaN at one node of the second snapshot and finite
    # elsewhere: its maximum over the window is NaN, not the finite one,
    # and it is placed where the NaN is
    real = riccati.residual
    calls = []

    def nan_on_second_snapshot(state, kinds, rates, fields):
        res = real(state, kinds, rates, fields)
        calls.append(state.t)
        if len(calls) == 2:
            res["ode_q"][0][5] = np.nan
        return res

    monkeypatch.setattr(riccati, "residual", nan_on_second_snapshot)
    assert cli.main(["run", str(cfg_path)]) == 0
    text = (tmp_path / "out" / "summary.txt").read_text()
    summary = dict(line.split(" = ") for line in text.splitlines() if " = " in line)
    assert summary["residual_max.ode_q"] == "nan"
    assert summary["residual_rel.ode_q"] == "nan"
    assert float(summary["residual_t.ode_q"]) == calls[1]
    assert float(summary["residual_x.ode_q"]) == 5.0 / 64.0
    assert np.isfinite(float(summary["residual_max.ode_y"]))


def test_blowup_without_a_time_estimate_writes_outputs_exit_0(tmp_path):
    text = RUN_CFG.replace("solver.t_end = 0.3", "solver.t_end = 1.5")
    text = text.replace("solver.gradient_cap = 30", "solver.gradient_cap = 10")
    text = text.replace("solver.snapshot_stride = 5", "solver.snapshot_stride = 1000")
    path = tmp_path / "sparse.cfg"
    path.write_text(text)
    assert cli.main(["run", str(path)]) == 0
    out = tmp_path / "out"
    text = (out / "summary.txt").read_text()
    summary = dict(line.split(" = ") for line in text.splitlines() if " = " in line)
    assert summary["termination"] == "gradient_blowup"
    assert summary["t_blow"] == "none"
    assert summary["t_blow_uncertainty"] == "none"
    for name in ("fields.csv", "curves.csv", "certificate.txt", "assumptions.txt",
                 "yq_extrema.svg", "characteristics.svg"):
        assert (out / name).exists(), name


def _fields_csv_reference(traj):
    """The per-row f-string writer that the batched one replaced."""
    lines = ["t,x,z,u,m,p,c,alpha,beta,y,q\n"]
    for snap in traj.snapshots:
        m = snap.m_arrays()[0]
        p, c = eos.thermo(snap.z, m, snap.gc)
        d = riccati.diagnostics(snap, ("alpha", "beta", "y", "q"))
        for j in range(snap.grid.n):
            row = (snap.t, snap.grid.x[j], snap.z[j], snap.u[j], m[j], p[j], c[j],
                   d["alpha"][j], d["beta"][j], d["y"][j], d["q"][j])
            lines.append(",".join(f"{v:.16g}" for v in row) + "\n")
    return "".join(lines)


def test_fields_csv_matches_per_row_reference(tmp_path):
    gc = eos.make_constants(3.0, 1.0 / 3.0)
    fmt = _g16.Formatter()
    # the rows of one block: the changing columns are formatted per block
    block = _g16.VALUES_PER_BLOCK // len(cli._CHANGING_COLUMNS)
    # the unit grid, one with x0 = -10 and a non-dyadic h, and one whose
    # rows are formatted in two blocks, the second one partial; the data
    # have one period on each grid, as the build requires
    for x0, x1, n in ((0.0, 1.0, 16), (-10.0, 3.7, 24), (0.0, 1.0, block + block // 2 + 1)):
        grid = fields.Grid(x0, x1, n)
        phase = f"2*pi*(x - {x0!r})/{x1 - x0!r}"
        state, _ = fields.build_initial(f"-0.2*sin({phase})", grid, gc, m0=f"1 + 0.1*cos({phase})", z0=1.0)
        traj = solver.evolve(state, solver.SolverConfig(t_end=0.05, snapshot_stride=2))
        # signed zeros, a subnormal and magnitudes near both ends of the range
        u = np.resize([-0.0, 0.0, 5e-324, -1e-300, 1e290, -2.5e289, 1.0 / 3.0, -123456789.01234567], n)
        z = np.resize([1e-9, 1e3, 2.0, 0.7], n)
        traj.snapshots.append(fields.StateField(grid=grid, t=1.0 / 3.0, z=z, u=u, gc=gc,
                                               entropy=state.entropy))
        path = tmp_path / "fields.csv"
        extrema = np.empty((3, len(traj.snapshots)))
        with open(path, "wb") as fh:
            for rows in cli._snapshot_pass(fh, fmt, traj, ("y",), extrema):
                assert set(rows) == {"y"}
        data = path.read_bytes()
        assert data == _fields_csv_reference(traj).encode("ascii")
        assert b"\r" not in data
        for k, snap in enumerate(traj.snapshots):
            d = riccati.diagnostics(snap, ("y", "q"))
            peak = max(float(np.max(np.abs(d["y"]))), float(np.max(np.abs(d["q"]))))
            assert tuple(extrema[:, k]) == (np.min(d["y"]), np.min(d["q"]), peak)
        assert f"\n0.3333333333333333,{x0:.16g},1e-09,-0,".encode("ascii") in data
        assert b",1e+290," in data and b",4.940656458412465e-324," in data


def test_curves_csv_matches_per_row_reference(tmp_path):
    t = np.array([0.0, 1.0 / 3.0, 0.5, 2.0])
    blocks = []
    for cid, direction, x, values, res in (
        ("seed0_ode_y", "forward", [0.1, -0.0, 1e-300, 0.999], [-0.0, 5e-324, 1e290, -2.5], [np.nan, 0.0, -1e-9, np.inf]),
        ("seed1_ode_q", "backward", [0.6, 0.55, 0.5, 0.45], [1.0, 2.0, 3.0, 4.0], [-np.inf, 1.0 / 7.0, 2.0, 3.0]),
    ):
        curve = charpath.CharacteristicCurve(direction, t, np.array(x), np.array(x))
        blocks.append((cid, direction, curve, np.array(values), np.array(res)))
    # a curve longer than one block of rows (the last block partial), with
    # nan, infinities and signed zeros among its values and residuals
    rng = np.random.default_rng(3)
    n = 2 * _g16.VALUES_PER_BLOCK // 4 + 37
    tl = np.linspace(0.0, 1.5, n)
    xl = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6, n)
    specials = np.resize([np.nan, np.inf, -np.inf, 0.0, -0.0], n)
    values = np.where(rng.random(n) < 0.1, specials, rng.standard_normal(n))
    res = np.where(rng.random(n) < 0.1, specials[::-1], rng.standard_normal(n) * 1e-7)
    curve = charpath.CharacteristicCurve("forward", tl, xl, xl)
    blocks.append(("seed2_rem1", "forward", curve, values, res))
    path = tmp_path / "curves.csv"
    cli._write_curves_csv(path, blocks, _g16.Formatter())
    # the writer it replaced: one tuple of numpy scalars per row, then one f-string per row
    rows = [(cid, direction, curve.t[i], curve.x[i], values[i], res[i])
            for cid, direction, curve, values, res in blocks for i in range(len(curve.t))]
    expect = "curve_id,direction,t,x,value,residual\n" + "".join(
        f"{cid},{direction},{t:.16g},{x:.16g},{v:.16g},{r:.16g}\n" for cid, direction, t, x, v, r in rows
    )
    assert path.read_bytes() == expect.encode("ascii")
    assert "seed0_ode_y,forward,0.3333333333333333,-0,4.940656458412465e-324,0\n" in expect
    assert ",nan\n" in expect and ",-inf\n" in expect
    assert expect.count("seed2_rem1,") == n and ",-0," in expect


def test_diagnose_traces_every_seed_and_direction_in_one_call(cfg_path, monkeypatch):
    real = charpath.trace
    calls = []

    def counting_trace(traj, seeds, directions):
        calls.append((list(seeds), list(directions)))
        return real(traj, seeds, directions)

    monkeypatch.setattr(charpath, "trace", counting_trace)
    assert cli.main(["run", str(cfg_path)]) == 0
    assert calls == [([0.1, 0.1, 0.6, 0.6], ["forward", "backward"] * 2)]
    rows = (cfg_path.parent / "out" / "curves.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"seed0_ode_y", "seed0_ode_q", "seed1_ode_y", "seed1_ode_q"}


def test_run_computes_each_snapshot_diagnostics_once_in_a_window(cfg_path, monkeypatch):
    text = RUN_CFG.replace("diagnostics.seeds = 0.1, 0.6", "diagnostics.seeds = 0.1, 0.35, 0.6")
    text = text.replace("diagnostics.residuals = ode_y, ode_q",
                        "diagnostics.residuals = ode_y, ode_q, ode_ytilde, rem1")
    path = cfg_path.parent / "kinds.cfg"
    path.write_text(text)
    cfg = cli.load_config(path)
    real_evolve, real_diagnostics = solver.evolve, riccati.diagnostics
    trajs = []
    calls = []  # the state and names of every diagnostics call
    alive = []  # weak references to one array of every result

    def spy_evolve(state0, solver_cfg):
        trajs.append(real_evolve(state0, solver_cfg))
        return trajs[-1]

    def spy_diagnostics(state, names):
        # no more than a window of 4 snapshots is held at a time
        assert sum(ref() is not None for ref in alive) <= 4
        calls.append((state, tuple(names)))
        result = real_diagnostics(state, names)
        alive.append(weakref.ref(result[names[-1]]))  # a computed field, not the state's own
        return result

    monkeypatch.setattr(solver, "evolve", spy_evolve)
    monkeypatch.setattr(riccati, "diagnostics", spy_diagnostics)
    assert cli.run_pipeline(cfg) == 0
    [traj] = trajs
    snapshot_ids = [id(s) for s in traj.snapshots]
    # the trace asks for the wave speed only, each snapshot's once; every
    # other call computes a snapshot's fields once, in one forward pass
    assert [id(s) for s, names in calls if names == ("c",)] == snapshot_ids
    states = [s for s, names in calls if names != ("c",)]
    on_snapshots = [id(s) for s in states if id(s) in snapshot_ids]
    assert on_snapshots == snapshot_ids
    others = [s for s in states if id(s) not in snapshot_ids]
    assert len(others) == 2 and others[0] is others[1]  # the two certificates on state0
    assert others[0].t == 0.0
    summary = (cfg_path.parent / "out" / "summary.txt").read_text()
    for kind in ("ode_y", "ode_q", "ode_ytilde", "rem1"):
        assert f"residual_max.{kind} = " in summary
    rows = (cfg_path.parent / "out" / "curves.csv").read_text().splitlines()[1:]
    assert len({row.split(",")[0] for row in rows}) == 3 * 4


MEMORY_CFG = """\
gas.gamma = 3
gas.K = 0.3333333333333333
grid.x0 = 0
grid.x1 = 1
grid.n = 256
initial.u0 = -0.2*sin(2*pi*x)
initial.z0 = 1
solver.t_end = 0.25
solver.snapshot_stride = {stride}
diagnostics.seeds = 0.25
diagnostics.directions = forward
diagnostics.residuals = ode_y
output.directory = out{stride}
output.emit_svg = false
"""


def test_run_memory_above_the_snapshots_does_not_grow_with_their_count(tmp_path, monkeypatch):
    real = solver.evolve
    counts = []

    def spy(state0, solver_cfg):
        traj = real(state0, solver_cfg)
        counts.append(len(traj.snapshots))
        return traj

    monkeypatch.setattr(solver, "evolve", spy)
    stored, above = [], []
    for stride in (1, 10):
        path = tmp_path / f"mem{stride}.cfg"
        path.write_text(MEMORY_CFG.format(stride=stride))
        cfg = cli.load_config(path)
        tracemalloc.start()
        try:
            assert cli.run_pipeline(cfg) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored.append(counts[-1] * 2 * 256 * 8)  # the (z, u) arrays of the snapshots
        above.append(peak - stored[-1])
    assert counts[0] > 8 * counts[1]
    # a table of one quantity over all snapshots is half the size of the
    # snapshots' arrays: what the run holds beyond them must grow by less
    # (the curve's own nodes, 4 per snapshot interval, still grow with them)
    assert above[0] - above[1] < 0.5 * (stored[0] - stored[1])


@pytest.mark.parametrize("poison, kind, code", [
    (False, "gradient_blowup", 0),
    (True, "non_finite", 3),
], ids=["gradient_blowup", "non_finite"])
def test_run_stopped_at_its_first_state_writes_every_output(tmp_path, monkeypatch, poison, kind, code):
    if poison:  # the first step is not finite, and no certificate: exit 3
        text = "".join(line + "\n" for line in RUN_CFG.splitlines() if not line.startswith("certify."))
        real = solver.derivative

        def nan_derivative(values, grid):
            result = real(values, grid)
            result.fill(np.nan)
            return result

        monkeypatch.setattr(solver, "derivative", nan_derivative)
    else:  # the initial gradient is already past the cap
        text = RUN_CFG.replace("solver.gradient_cap = 30", "solver.gradient_cap = 1")
    path = tmp_path / "first.cfg"
    path.write_text(text)
    assert cli.main(["run", str(path)]) == code
    out = tmp_path / "out"
    lines = (out / "summary.txt").read_text().splitlines()
    summary = dict(line.split(" = ") for line in lines if " = " in line)
    assert summary["termination"] == kind
    assert summary["steps"] == "0"
    assert not any(key.startswith("residual_max.") for key in summary)
    assert (out / "curves.csv").read_text() == "curve_id,direction,t,x,value,residual\n"
    assert len((out / "fields.csv").read_text().splitlines()) == 1 + 64
    for name in ("certificate.txt", "yq_extrema.svg", "characteristics.svg"):
        assert (out / name).exists(), name
    assert (out / "assumptions.txt").exists() == (not poison)


def test_io_error_exit_4(tmp_path):
    path = tmp_path / "io.cfg"
    path.write_text(RUN_CFG)
    (tmp_path / "out").write_text("not a directory")
    assert cli.main(["run", str(path)]) == 4


def test_certificate_report_contents(cfg_path, tmp_path):
    assert cli.main(["certify", str(cfg_path)]) == 0
    out = tmp_path / "out"
    assert not (out / "fields.csv").exists()  # no evolution
    report = dict(
        line.split(" = ")
        for line in (out / "certificate.txt").read_text().splitlines()
        if " = " in line
    )
    assert report["kind"] == "thm15_y"
    assert report["conditional_on_assumptions"] == "false"  # gamma = 3
    assert float(report["t_star_bound"]) > 0.0
    assert float(report["epsilon"]) == 0.01  # the configured sharpness, always reported
    assert report["thm14.kind"] == "thm14_y"
    assert float(report["N"]) == 0.0  # M3 = M4 = 0
    assert report["bounds.Z_U"] == "3"


def test_certificate_reports_thm14_blowup_bound(cfg_path, tmp_path):
    # keys are only added: summary.txt's t_star_bound stays thm15's
    assert cli.main(["run", str(cfg_path)]) == 0
    out = tmp_path / "out"
    report = dict(line.split(" = ") for line in (out / "certificate.txt").read_text().splitlines() if " = " in line)
    summary = dict(line.split(" = ") for line in (out / "summary.txt").read_text().splitlines() if " = " in line)
    # gamma = 3 and M3 = M4 = 0: T*_14 = 1/|min y0|
    assert float(report["thm14.t_star_bound"]) == pytest.approx(1.0 / abs(float(summary["min_y0"])), rel=1e-12)
    assert summary["t_star_bound"] == report["thm15.t_star_bound"] == report["t_star_bound"]
    assert list(report).index("thm14.t_star_bound") == list(report).index("thm14.witness_value") + 1


def test_summary_reports_the_grid_residual_with_its_size_and_place(cfg_path, tmp_path):
    assert cli.main(["run", str(cfg_path)]) == 0
    lines = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    keys = [line.split(" = ")[0] for line in lines if " = " in line]
    residual_keys = [key for key in keys if key.startswith("residual")]
    assert residual_keys == keys[-len(residual_keys):] == sorted(residual_keys)
    assert set(residual_keys) == {f"residual_{what}.{kind}" for what in ("max", "rel", "t", "x")
                                  for kind in ("ode_y", "ode_q")} | {"residual_window_t"}
    summary = dict(line.split(" = ") for line in lines if " = " in line)
    assert float(summary["residual_window_t"]) == float(summary["t_stop"])  # reached t_end: all of it
    for kind in ("ode_y", "ode_q"):
        assert 0.0 < float(summary[f"residual_rel.{kind}"]) < 1e-3
        assert float(summary[f"residual_max.{kind}"]) < 1e-2
        assert 0.0 <= float(summary[f"residual_t.{kind}"]) <= float(summary["residual_window_t"])
        assert 0.0 <= float(summary[f"residual_x.{kind}"]) < 1.0


def test_stationary_config_reads_a_finite_residual(tmp_path):
    # u = 0, so z_t = 0 everywhere: the tangent's step must not divide by it
    kv = parse_kv((CONFIGS / "stationary.cfg").read_text())
    kv.update({"output.directory": str(tmp_path), "output.emit_svg": "false"})
    cfg = build_config(kv, CONFIGS)
    state = make_initial(cfg)[0]
    assert not np.any(solver.rates(state)[0])
    code, pairs = cli._run(cfg)
    summary = dict(pairs)
    assert code == 0
    for kind in ("ode_y", "ode_q"):  # measured 9.36e-9 and, relative, 2.15e-6
        assert 0.0 < summary[f"residual_max.{kind}"] <= 1e-7
        assert summary[f"residual_rel.{kind}"] <= 1e-5


def test_certify_and_run_write_the_same_certificate(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["certify", str(cfg_path)]) == 0
    certified = (out / "certificate.txt").read_bytes()
    (out / "certificate.txt").unlink()
    assert cli.main(["run", str(cfg_path)]) == 0
    assert (out / "certificate.txt").read_bytes() == certified


def test_sweep_summary_rows(cfg_path, tmp_path, capsys):
    assert cli.main(["sweep", str(cfg_path), "--axis", "grid.n", "--values", "32,64"]) == 0
    table = (tmp_path / "out" / "sweep_summary.csv").read_text().splitlines()
    assert table[0].startswith("axis,value,status")
    assert len(table) == 3
    assert (tmp_path / "out" / "grid_n=32" / "summary.txt").exists()
    assert (tmp_path / "out" / "grid_n=64" / "summary.txt").exists()
    out = capsys.readouterr().out
    assert "grid.n,32" in out


def test_sweep_strips_the_spaces_around_values(cfg_path, tmp_path):
    assert cli.main(["sweep", str(cfg_path), "--axis", "params.amp", "--values", "0.1, 0.2"]) == 0
    rows = (tmp_path / "out" / "sweep_summary.csv").read_text().splitlines()
    assert [row.split(",")[:3] for row in rows[1:]] == [["params.amp", "0.1", "ok"], ["params.amp", "0.2", "ok"]]
    assert sorted(p.name for p in (tmp_path / "out").iterdir() if p.is_dir()) == ["params_amp=0.1", "params_amp=0.2"]


def test_sweep_empty_values(cfg_path, tmp_path):
    assert cli.main(["sweep", str(cfg_path), "--axis", "grid.n", "--values", ","]) == 0
    table = (tmp_path / "out" / "sweep_summary.csv").read_text().splitlines()
    assert len(table) == 1  # header only


def test_sweep_records_per_run_failures(cfg_path, tmp_path):
    code = cli.main(["sweep", str(cfg_path), "--axis", "gas.gamma", "--values", "3,1"])
    assert code == 0
    rows = (tmp_path / "out" / "sweep_summary.csv").read_text().splitlines()
    assert len(rows) == 3
    assert "error" in rows[2]


def test_sweep_unknown_axis(cfg_path):
    assert cli.main(["sweep", str(cfg_path), "--axis", "gas.R", "--values", "1"]) == 2


def test_sweep_of_a_base_config_with_a_bad_expression_exits_2_before_any_run(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(RUN_CFG.replace("-amp*sin(2*pi*x)", "sin(+)"))
    assert cli.main(["sweep", str(path), "--axis", "params.amp", "--values", "0.1,0.2"]) == 2
    assert "config error: initial block: bad expression" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_missing_config_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert cli.main(["sweep", str(missing), "--axis", "grid.n", "--values", "32"]) == 2
    assert "config error" in capsys.readouterr().err


def test_sweep_build_failure_row_ignores_stale_summary(cfg_path, tmp_path):
    # a summary.txt left by an earlier sweep must not be reported for a
    # sub-run that stops before it writes its own
    stale = tmp_path / "out" / "initial_z0=-1"
    stale.mkdir(parents=True)
    (stale / "summary.txt").write_text(
        "# run summary\ntermination = reached_t_end\nt_stop = 0.3\ncertificate = thm15_y\n"
    )
    assert cli.main(["sweep", str(cfg_path), "--axis", "initial.z0", "--values", "1,-1"]) == 0
    rows = (tmp_path / "out" / "sweep_summary.csv").read_text().splitlines()
    assert rows[1].startswith("initial.z0,1,ok,")
    assert rows[2] == "initial.z0,-1,exit3,,,,,,,"


def test_sweep_amplitude_crosses_certificate_threshold(tmp_path):
    """The thm14 certificate appears exactly past the threshold amplitude."""
    text = RUN_CFG.replace("certify.M3 = 0", "certify.M3 = 1").replace("certify.M4 = 0", "certify.M4 = 1")
    text = text.replace("solver.t_end = 0.3", "solver.t_end = 0.05")
    text = text.replace("certify.A = 0.25\n", "")  # thm14 only: the column should flip
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    from steepen import detector
    from steepen.fields import AssumptionBounds

    n_threshold = detector.thresholds(
        AssumptionBounds(Z_L=0.2, Z_U=3.0, M1=0.5, M2=1.5, M3=1.0, M4=1.0), 3.0, 0.01
    ).N
    a_crit = n_threshold / (2.0 * np.pi)  # min y0 = -2 pi a
    lo, hi = 0.8 * a_crit, 1.2 * a_crit
    assert cli.main(["sweep", str(path), "--axis", "params.amp", "--values", f"{lo},{hi}"]) == 0
    rows = (tmp_path / "out" / "sweep_summary.csv").read_text().splitlines()
    assert "none" in rows[1]
    assert "thm14_y" in rows[2]


def test_sweep_axis_may_be_schema_default_leaf(cfg_path, tmp_path):
    # solver.cfl is absent from the config text but is a valid leaf
    assert cli.main(["sweep", str(cfg_path), "--axis", "solver.cfl", "--values", "0.3,0.5"]) == 0
    rows = (tmp_path / "out" / "sweep_summary.csv").read_text().splitlines()
    assert len(rows) == 3
    assert all("ok" in r for r in rows[1:])
