"""The solver against the exact forward simple wave (tests/simple_wave.py)."""

import functools
from pathlib import Path

import numpy as np
import pytest
import simple_wave

from steepen import riccati, solver
from steepen.config import build_config, make_initial, parse_kv

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "simple_wave.cfg"


@functools.lru_cache(maxsize=None)
def _last(gamma: float, n: int):
    """The last snapshot of the committed config's run at ``gamma`` and
    ``n``, stopped at ``t* / 2``."""
    gc = simple_wave.gas(gamma)
    t_half = simple_wave.t_star(gc) / 2.0
    kv = parse_kv(CONFIG.read_text())
    kv.update({"gas.gamma": repr(gamma), "gas.K": repr(gc.K), "grid.n": str(n), "solver.t_end": repr(t_half)})
    cfg = build_config(kv, CONFIG.parent)
    traj = solver.evolve(make_initial(cfg)[0], cfg.solver)
    last = traj.snapshots[-1]
    assert traj.termination.kind == "reached_t_end" and last.t == t_half
    return last


def _errors(gamma: float, n: int) -> tuple:
    """The largest pointwise ``z`` and ``u`` errors at ``t* / 2``."""
    last = _last(gamma, n)
    z = simple_wave.z_exact(last.gc, last.grid.x, last.t)
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
def test_pointwise_error_converges_at_fourth_order(gamma):
    # measured: 6.99e-6, 4.59e-7, 2.92e-8 at gamma = 1.4 and 6.13e-6,
    # 3.97e-7, 2.50e-8 at 5/3 (ratios 15.2 to 15.9)
    errors = np.array([_errors(gamma, n) for n in (128, 256, 512)])
    assert np.all(errors[-1] < 1e-7), errors
    ratios = errors[:-1] / errors[1:]
    assert np.all(ratios >= 14.0), ratios


@pytest.mark.parametrize("gamma", [1.4, 5.0 / 3.0])
def test_y_error_converges_at_fourth_order(gamma):
    # the paper's own diagnostic against the truth: max|y - y_exact| /
    # max|y_exact| at t*/2.  Measured: 3.92e-4, 2.66e-5, 1.68e-6 at
    # gamma = 1.4 and 2.45e-4, 1.57e-5, 9.96e-7 at 5/3 (ratios 14.7 to 15.8)
    errors = []
    for n in (128, 256, 512):
        last = _last(gamma, n)
        y = riccati.diagnostics(last, ("y",))["y"]
        exact = simple_wave.y_exact(last.gc, last.grid.x, last.t)
        errors.append(np.max(np.abs(y - exact)) / np.max(np.abs(exact)))
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all(ratios >= 13.5), (errors, ratios)
    assert errors[-1] < 3e-6, errors


def test_y_exact_is_the_diagnostic_at_t0():
    gc = simple_wave.gas(1.4)
    cfg = build_config(parse_kv(CONFIG.read_text()), CONFIG.parent)
    state = make_initial(cfg)[0]
    y = riccati.diagnostics(state, ("y",))["y"]
    exact = simple_wave.y_exact(gc, state.grid.x, 0.0)
    assert np.max(np.abs(y - exact)) <= 1e-8 * np.max(np.abs(exact))
