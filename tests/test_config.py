import re
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from steepen import cli, config
from steepen.cli import run_pipeline
from steepen.config import ConfigError, build_config, load_config, make_initial, parse_kv
from steepen.expressions import Num
from steepen.riccati import RESIDUAL_KINDS


BASE = """\
# minimal run
gas.gamma = 3
gas.K = 0.3333333333333333
grid.x0 = 0
grid.x1 = 1
grid.n = 64
initial.u0 = -0.2*sin(2*pi*x)
initial.z0 = 1
initial.m0 = 1
solver.t_end = 0.2
output.directory = out
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_kv_comments_and_blanks():
    kv = parse_kv("# hello\n\na.b = 1  # trailing\n c.d.e = x + 1 \n")
    assert kv == {"a.b": "1", "c.d.e": "x + 1"}


def test_parse_kv_errors():
    with pytest.raises(ConfigError):
        parse_kv("novalue\n")
    with pytest.raises(ConfigError):
        parse_kv("plain = 1\n")  # keys need a section
    with pytest.raises(ConfigError):
        parse_kv("a.b = 1\na.b = 2\n")


def test_load_minimal_config(tmp_path):
    cfg = load_config(_write(tmp_path, BASE))
    assert cfg.gas.gamma == 3.0
    assert cfg.grid.n == 64
    assert cfg.solver.t_end == 0.2
    assert cfg.output.directory == (tmp_path / "out").resolve()
    assert cfg.initial.z0 == Num(1.0)  # parsed at load
    assert cfg.certify.bounds is None
    state, profile = make_initial(cfg)
    assert state.grid.n == 64
    assert np.allclose(profile(state.grid.x), 1.0)


def test_unknown_block_and_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown config block"):
        load_config(_write(tmp_path, BASE + "physics.c = 1\n"))
    with pytest.raises(ConfigError, match="gas block"):
        load_config(_write(tmp_path, BASE + "gas.R = 8.31\n"))
    with pytest.raises(ConfigError, match="unknown key 'diagnostics.substeps'"):
        load_config(_write(tmp_path, BASE + "diagnostics.substeps = 4\n"))
    with pytest.raises(ConfigError, match="gas block: unknown key 'gas.c_v'"):
        load_config(_write(tmp_path, BASE + "gas.c_v = 1\n"))


def test_gas_block_validation_names_block(tmp_path):
    bad = BASE.replace("gas.gamma = 3", "gas.gamma = 1")
    with pytest.raises(ConfigError, match="gas block"):
        load_config(_write(tmp_path, bad))


def test_exactly_one_density_spec(tmp_path):
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(_write(tmp_path, BASE + "initial.tau0 = 1\n"))
    both_gone = BASE.replace("initial.z0 = 1\n", "")
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(_write(tmp_path, both_gone))


def test_referenced_file_must_exist(tmp_path):
    cfg_text = BASE.replace("initial.m0 = 1", "initial.m0 = file:profile.csv")
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(_write(tmp_path, cfg_text))
    (tmp_path / "profile.csv").write_text(
        "# profile\n" + "".join(f"{x:.6f},{1.0 + 0.1 * np.sin(2.0 * np.pi * x):.8f}\n"
                                 for x in np.linspace(-0.5, 1.5, 50))
    )
    cfg = load_config(_write(tmp_path, cfg_text))
    state, profile = make_initial(cfg)
    assert np.allclose(profile(0.3), 1.0 + 0.1 * np.sin(0.6 * np.pi), atol=1e-5)


def test_file_u0_with_negative_samples_is_splined_and_runs(tmp_path):
    xs = np.linspace(0.0, 1.0, 33)
    us = -0.2 * np.sin(2.0 * np.pi * xs) - 0.05
    (tmp_path / "u.csv").write_text(
        "# profile u0\n" + "".join(f"{x!r},{u!r}\n" for x, u in zip(xs.tolist(), us.tolist()))
    )
    text = BASE.replace("initial.u0 = -0.2*sin(2*pi*x)", "initial.u0 = file:u.csv")
    cfg = load_config(_write(tmp_path, text))
    state, _ = make_initial(cfg)
    assert np.min(state.u) < 0.0
    assert np.array_equal(state.u, CubicSpline(xs, us)(state.grid.x))
    assert run_pipeline(cfg) == 0


def test_file_row_errors_match_for_u0_and_m0(tmp_path):
    (tmp_path / "bad.csv").write_text("# profile\n0.0,1.0\n0.5,1.0,2.0\n1.0,1.0\n")
    messages = []
    for key in ("initial.u0 = -0.2*sin(2*pi*x)", "initial.m0 = 1"):
        name = key.split(" = ")[0]
        with pytest.raises(ConfigError, match="initial block: .*bad.csv") as err:
            load_config(_write(tmp_path, BASE.replace(key, f"{name} = file:bad.csv")))
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("rows", [
    [(0.0, 1.0), (0.5, 1.0), (1.0, 1.0)],  # 3 samples
    [(0.0, 1.0), (0.5, 1.0), (0.25, 1.0), (1.0, 1.0)],  # x not increasing
    [(0.0, 1.0), (0.25, "nan"), (0.5, 1.0), (1.0, 1.0)],
    [(0.0, 1.0), (0.25, "one"), (0.5, 1.0), (1.0, 1.0)],
], ids=["three_rows", "decreasing_x", "nan_value", "not_a_number"])
def test_file_sample_errors_match_for_u0_and_m0(tmp_path, rows):
    (tmp_path / "few.csv").write_text("# profile\n" + "".join(f"{x},{v}\n" for x, v in rows))
    messages = []
    for key in ("initial.u0 = -0.2*sin(2*pi*x)", "initial.m0 = 1"):
        name = key.split(" = ")[0]
        with pytest.raises(ConfigError, match="initial block: .*few.csv") as err:
            load_config(_write(tmp_path, BASE.replace(key, f"{name} = file:few.csv")))
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_params_feed_expressions_and_are_sweepable(tmp_path):
    text = BASE.replace("initial.u0 = -0.2*sin(2*pi*x)", "initial.u0 = -amp*sin(2*pi*x)")
    text += "params.amp = 0.1\n"
    cfg = load_config(_write(tmp_path, text))
    state, _ = make_initial(cfg)
    assert float(np.max(np.abs(state.u))) == pytest.approx(0.1, rel=1e-3)
    kv = parse_kv(text)
    kv["params.amp"] = "0.3"
    cfg2 = build_config(kv, tmp_path)
    state2, _ = make_initial(cfg2)
    assert float(np.max(np.abs(state2.u))) == pytest.approx(0.3, rel=1e-3)


def test_certify_block_requires_complete_bounds(tmp_path):
    with pytest.raises(ConfigError, match="incomplete bounds"):
        load_config(_write(tmp_path, BASE + "certify.Z_L = 0.1\n"))
    full = BASE + (
        "certify.Z_L = 0.1\ncertify.Z_U = 3\ncertify.M1 = 0.5\ncertify.M2 = 1.5\n"
        "certify.M3 = 0\ncertify.M4 = 0\ncertify.A = 0.25\ncertify.epsilon = 0.02\n"
    )
    cfg = load_config(_write(tmp_path, full))
    assert cfg.certify.bounds.M3 == 0.0
    assert cfg.certify.A == 0.25
    assert cfg.certify.epsilon == 0.02
    assert load_config(_write(tmp_path, BASE + "certify.A = 0.25\n")).certify.bounds is None  # gamma = 3
    with pytest.raises(ConfigError, match="A needs the bounds"):
        load_config(_write(tmp_path, BASE.replace("gas.gamma = 3", "gas.gamma = 1.4") + "certify.A = 0.25\n"))


def test_diagnostics_block_parsing(tmp_path):
    text = BASE + (
        "diagnostics.seeds = 0.1, 0.5, 0.9\n"
        "diagnostics.directions = forward\n"
        "diagnostics.residuals = ode_y, rem1\n"
    )
    cfg = load_config(_write(tmp_path, text))
    assert cfg.diagnostics.seeds == [0.1, 0.5, 0.9]
    assert cfg.diagnostics.directions == ["forward"]
    assert cfg.diagnostics.residuals == ["ode_y", "rem1"]
    with pytest.raises(ConfigError, match="unknown residual"):
        load_config(_write(tmp_path, BASE + "diagnostics.residuals = ode_w\n"))
    with pytest.raises(ConfigError, match="unknown direction"):
        load_config(_write(tmp_path, BASE + "diagnostics.directions = up\n"))


@pytest.mark.parametrize("key, entry", [("directions", "forward"), ("residuals", "ode_y")])
def test_repeated_diagnostics_entry_is_a_config_error(tmp_path, capsys, key, entry):
    # both keys name a subset: a repeat traced the same curves again and
    # wrote identical curves.csv blocks under one id
    path = _write(tmp_path, BASE + f"diagnostics.{key} = {entry}, {entry}\n")
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"diagnostics block: {key} lists {entry!r} more than once" in err


def test_residuals_follow_the_traced_directions(tmp_path):
    assert load_config(_write(tmp_path, BASE)).diagnostics.residuals == list(RESIDUAL_KINDS)
    forward = BASE + "diagnostics.directions = forward\n"
    cfg = load_config(_write(tmp_path, forward))
    assert cfg.diagnostics.residuals == ["rem1", "ode_y", "ode_ytilde"]
    with pytest.raises(ConfigError, match="diagnostics block: residual 'ode_q' needs backward"):
        load_config(_write(tmp_path, forward + "diagnostics.residuals = ode_y, ode_q\n"))


BOUNDS = """\
certify.Z_L = 0.2
certify.Z_U = 3
certify.M1 = 0.5
certify.M2 = 1.5
certify.M3 = 0
certify.M4 = 0
"""


@pytest.mark.parametrize("key,value", [
    ("gas.gamma", "inf"),
    ("gas.K", "nan"),
    ("grid.x0", "-inf"),
    ("grid.x1", "inf"),
    ("solver.t_end", "nan"),
    ("solver.gradient_cap", "nan"),
    ("solver.dt_min", "nan"),
    ("certify.Z_U", "inf"),
    ("certify.M3", "nan"),
    ("certify.epsilon", "inf"),
    ("certify.A", "nan"),
    ("diagnostics.seeds", "0.1, nan"),
    ("params.amp", "nan"),
])
def test_non_finite_numbers_name_the_block(tmp_path, key, value):
    kv = parse_kv(BASE + BOUNDS)
    kv[key] = value
    block = key.split(".", 1)[0]
    with pytest.raises(ConfigError, match=f"{block} block: .*finite"):
        build_config(kv, tmp_path)


def test_bad_numbers_name_the_block(tmp_path):
    with pytest.raises(ConfigError, match="grid block"):
        load_config(_write(tmp_path, BASE.replace("grid.n = 64", "grid.n = many")))
    with pytest.raises(ConfigError, match="solver block"):
        load_config(_write(tmp_path, BASE.replace("solver.t_end = 0.2", "solver.t_end = soon")))
    with pytest.raises(ConfigError, match="output block"):
        load_config(_write(tmp_path, BASE + "output.emit_svg = maybe\n"))


@pytest.mark.parametrize("key", ["gas.gamma", "grid.n", "solver.cfl", "certify.M1"])
def test_malformed_number_names_its_block_once(tmp_path, key):
    kv = parse_kv(BASE + BOUNDS)
    kv[key] = "abc"
    block, name = key.split(".", 1)
    with pytest.raises(ConfigError) as info:
        build_config(kv, tmp_path)
    message = str(info.value)
    assert message.startswith(f"{block} block: {name} must be")
    assert message.count("block") == 1


def test_readme_configuration_reference_matches_the_key_table():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Configuration reference", 1)[1].split("\n#", 1)[0]
    rows = [line.strip("|").split("|") for line in section.splitlines() if line.startswith("| `")]
    table = [(re.findall(r"`([^`]+)`", row[0]), row[-1].strip()) for row in rows]
    assert sorted(k for keys, _ in table for k in keys) == sorted([*config._KEYS, "params.<name>"])
    required = {k for keys, default in table if default == "required" for k in keys}
    assert required == {*config._REQUIRED, "initial.z0", "initial.tau0"}
