"""The solver against the exact forward simple wave (tests/simple_wave.py)."""

from pathlib import Path

import numpy as np
import pytest
import simple_wave

from steepen import solver
from steepen.config import build_config, make_initial, parse_kv

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "simple_wave.cfg"


def _errors(gamma: float, n: int, tmp_path) -> tuple:
    """The largest pointwise ``z`` and ``u`` errors of the committed config's
    run at ``gamma`` and ``n``, stopped at ``t* / 2``."""
    gc = simple_wave.gas(gamma)
    t_half = simple_wave.t_star(gc) / 2.0
    kv = parse_kv(CONFIG.read_text())
    kv.update({"gas.gamma": repr(gamma), "gas.K": repr(gc.K), "grid.n": str(n),
               "solver.t_end": repr(t_half), "output.directory": str(tmp_path)})
    cfg = build_config(kv, CONFIG.parent)
    traj = solver.evolve(make_initial(cfg)[0], cfg.solver)
    last = traj.snapshots[-1]
    assert traj.termination.kind == "reached_t_end" and last.t == t_half
    z = simple_wave.z_exact(gc, last.grid.x, last.t)
    return np.max(np.abs(last.z - z)), np.max(np.abs(last.u - z))  # u = z in this wave


@pytest.mark.parametrize("gamma, t_star", [(1.4, 0.4702210), (5.0 / 3.0, 0.5160427)])
def test_blowup_time_of_the_simple_wave(gamma, t_star):
    assert round(simple_wave.t_star(simple_wave.gas(gamma)), 7) == t_star


def test_committed_config_is_the_wave_at_gamma_1_4():
    cfg = build_config(parse_kv(CONFIG.read_text()), CONFIG.parent)
    gc = simple_wave.gas(1.4)
    assert cfg.gas == gc and gc.K_tau == 1.0
    state = make_initial(cfg)[0]
    assert np.array_equal(state.z, state.u)
    assert np.array_equal(state.z, simple_wave.z_exact(gc, state.grid.x, 0.0))


@pytest.mark.parametrize("gamma", [1.4, 5.0 / 3.0])
def test_pointwise_error_converges_at_fourth_order(gamma, tmp_path):
    # measured: 6.99e-6, 4.59e-7, 2.92e-8 at gamma = 1.4 and 6.13e-6,
    # 3.97e-7, 2.50e-8 at 5/3 (ratios 15.2 to 15.9)
    errors = np.array([_errors(gamma, n, tmp_path) for n in (128, 256, 512)])
    assert np.all(errors[-1] < 1e-7), errors
    ratios = errors[:-1] / errors[1:]
    assert np.all(ratios >= 14.0), ratios
