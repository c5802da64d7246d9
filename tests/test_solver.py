import numpy as np
import pytest

from steepen import eos, fields, riccati, solver

from conftest import make_gas


def _constant_state(gas, n=64, z=1.0, L=1.0):
    grid = fields.Grid(0.0, L, n)
    state, _ = fields.build_initial(0.0, grid, gas, m0=1.0, z0=z)
    return state


# --- time step ----------------------------------------------------------------


def _cfl_dt(state, cfl):
    """cfl * h / max_x c with evolve's arithmetic: c_max = K_c max(m z^((g+1)/(g-1)))."""
    g = state.gc.gamma
    m = state.m_arrays()[0]
    c_max = state.gc.K_c * float(np.max(m * state.z ** ((g + 1.0) / (g - 1.0))))
    return cfl * state.grid.h / c_max


def _first_dt(state, cfl, t_end):
    """The first step evolve takes from ``state``; ``t_end`` must exceed it."""
    traj = solver.evolve(state, solver.SolverConfig(cfl=cfl, t_end=t_end, snapshot_stride=1))
    return traj.conserved.t[1]


def test_cfl_dt_formula():
    gc = make_gas(1.4, 1.0)
    state = _constant_state(gc, n=100, z=1.0)
    expected = 0.5 * 0.01 / gc.K_c
    assert _first_dt(state, 0.5, 3.0 * expected) == pytest.approx(expected, rel=1e-13)


def test_cfl_dt_gamma3_example(gas3):
    grid = fields.Grid(0.0, 6.4, 64)  # h = 0.1
    state, _ = fields.build_initial(0.0, grid, gas3, m0=1.0, z0=2.0)
    # c = K_c m z^2 = 4
    assert _first_dt(state, 0.4, 0.05) == pytest.approx(0.01, rel=1e-13)


def test_cfl_dt_halves_when_speed_doubles(gas3):
    s1 = _constant_state(gas3, z=1.0)
    s2 = _constant_state(gas3, z=np.sqrt(2.0))  # c = z^2 doubles
    assert _first_dt(s2, 0.4, 0.1) == pytest.approx(0.5 * _first_dt(s1, 0.4, 0.1), rel=1e-12)


def test_cfl_dt_is_the_step_evolve_takes(gas3):
    gc = make_gas(5.0 / 3.0, 1.0 / 15.0)  # K_c != 1, so where it multiplies matters
    grid = fields.Grid(0.0, 1.0, 64)
    state, _ = fields.build_initial(
        "-0.2*sin(2*pi*x)", grid, gc, m0="1 + 0.1*cos(2*pi*x)", z0="1 + 0.05*sin(4*pi*x)"
    )
    cfg = solver.SolverConfig(cfl=0.4, t_end=0.05, snapshot_stride=1)
    traj = solver.evolve(state, cfg)
    assert traj.conserved.t[1] == _cfl_dt(state, cfg.cfl)
    second = traj.snapshots[1]
    assert traj.conserved.t[2] == second.t + _cfl_dt(second, cfg.cfl)
    # gamma = 3 by hand: h = 0.1, z = 2, c = 4, so dt = 0.4 * 0.1 / 4
    state3, _ = fields.build_initial(0.0, fields.Grid(0.0, 6.4, 64), gas3, m0=1.0, z0=2.0)
    traj3 = solver.evolve(state3, solver.SolverConfig(cfl=0.4, t_end=0.05, snapshot_stride=1))
    assert traj3.conserved.t[1] == _cfl_dt(state3, 0.4) == pytest.approx(0.01, rel=1e-13)


# --- single step ----------------------------------------------------------------


def _one_step(state, dt):
    """One RK4 step of ``dt`` through evolve: t_end = dt, under a full CFL step."""
    traj = solver.evolve(state, solver.SolverConfig(cfl=1.0, t_end=dt, snapshot_stride=1))
    assert traj.steps_taken == 1 and traj.conserved.t[1] == dt
    return traj.snapshots[-1]


def test_step_constant_state_fixed_point(gas3):
    state = _constant_state(gas3, z=1.5)
    new = _one_step(state, 1e-3)
    assert np.allclose(new.z, state.z, rtol=0, atol=1e-15)
    assert np.allclose(new.u, state.u, rtol=0, atol=1e-15)
    assert new.t == pytest.approx(1e-3)


def test_step_reduces_to_p_system_when_entropy_constant(gas3):
    """With m constant the entropy forcing vanishes identically."""
    grid = fields.Grid(0.0, 1.0, 64)
    state, _ = fields.build_initial("0.1*sin(2*pi*x)", grid, gas3, m0=1.0, z0="1 + 0.1*cos(2*pi*x)")
    dt = 0.3 * _cfl_dt(state, 1.0)
    stepped = _one_step(state, dt)

    g = gas3.gamma
    e_c = (g + 1.0) / (g - 1.0)

    def rhs(z, u):
        u_x = fields.derivative(u, grid)
        z_x = fields.derivative(z, grid)
        zc = z**e_c
        return -gas3.K_c * zc * u_x, -gas3.K_c * zc * z_x  # pure p-system, m = 1

    z, u = state.z, state.u
    k1 = rhs(z, u)
    k2 = rhs(z + 0.5 * dt * k1[0], u + 0.5 * dt * k1[1])
    k3 = rhs(z + 0.5 * dt * k2[0], u + 0.5 * dt * k2[1])
    k4 = rhs(z + dt * k3[0], u + dt * k3[1])
    z_ref = z + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    u_ref = u + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    assert np.array_equal(stepped.z, z_ref)
    assert np.array_equal(stepped.u, u_ref)


def test_stationary_state_stays_stationary_under_refinement():
    """u growth per unit time at the discretization floor for gentle data."""
    g = 5.0 / 3.0
    gc = make_gas(g, 1.0 / 15.0)
    m_expr = "1 + 0.3*tanh(sin(2*pi*(x - 10)/20))"
    z_expr = f"(1/(({m_expr})^2))^({(g - 1.0) / (2.0 * g)})"
    rates = []
    for n in (512, 1024):
        grid = fields.Grid(0.0, 20.0, n)
        state, _ = fields.build_initial(0.0, grid, gc, m0=m_expr, z0=z_expr)
        traj = solver.evolve(state, solver.SolverConfig(cfl=0.4, t_end=0.5, snapshot_stride=5))
        rates.append(max(float(np.max(np.abs(s.u))) for s in traj.snapshots) / 0.5)
    assert rates[1] < rates[0]
    assert rates[1] <= 1e-10


# --- evolve ---------------------------------------------------------------------


def test_evolve_constant_state_conserves_everything(constant_traj):
    assert constant_traj.termination.kind == "reached_t_end"
    log = constant_traj.conserved
    for series in (log.int_u, log.int_tau):
        scale = max(abs(series[0]), 1.0)
        assert np.max(np.abs(series - series[0])) <= 1e-12 * scale


def test_evolve_compressive_blowup_matches_riccati_oracle(gas3):
    grid = fields.Grid(0.0, 1.0, 256)
    state, _ = fields.build_initial("-0.2*sin(2*pi*x)", grid, gas3, m0=1.0, z0=1.0)
    y0 = riccati.diagnostics(state).y
    oracle = 1.0 / abs(float(np.min(y0)))  # a0 = 0, a2 = -K_c = -1
    cfg = solver.SolverConfig(cfl=0.4, t_end=1.5, snapshot_stride=10, gradient_cap=30.0)
    traj = solver.evolve(state, cfg)
    assert traj.termination.kind == "gradient_blowup"
    assert traj.termination.t_stop == pytest.approx(oracle, rel=0.15)


def test_evolve_conservation_drift_small_pre_blowup(gas3):
    grid = fields.Grid(0.0, 1.0, 512)
    state, _ = fields.build_initial("-0.2*sin(2*pi*x)", grid, gas3, m0=1.0, z0=1.0)
    cfg = solver.SolverConfig(cfl=0.4, t_end=1.5, snapshot_stride=10, gradient_cap=30.0)
    traj = solver.evolve(state, cfg)
    drift = solver.conserved_drift(traj, t_max=0.8 * traj.termination.t_stop)
    assert drift["int_u"] <= 1e-8
    assert drift["int_tau"] <= 1e-8


def test_evolve_vacuum_guard_tag(gas3, monkeypatch):
    # a raised floor turns a strong rarefaction into a vacuum-guard stop; at
    # the default floor this run stops as cfl_collapse
    monkeypatch.setattr(eos, "Z_FLOOR", 0.9)
    grid = fields.Grid(0.0, 1.0, 64)
    state, _ = fields.build_initial("2.0*sin(2*pi*x)", grid, gas3, m0=1.0, z0=1.0)
    traj = solver.evolve(state, solver.SolverConfig(cfl=0.4, t_end=1.0))
    assert traj.termination.kind == "vacuum_guard"
    assert 0.0 <= traj.termination.t_stop < 1.0


def test_evolve_cfl_collapse_tag(gas3):
    state = _constant_state(gas3)
    cfg = solver.SolverConfig(cfl=0.4, t_end=1.0, dt_min=1.0)  # unreachable step size
    traj = solver.evolve(state, cfg)
    assert traj.termination.kind == "cfl_collapse"
    assert traj.termination.t_stop == 0.0


@pytest.mark.parametrize("poisoned_row", [1, 0], ids=["nan_in_z", "nan_in_u"])
def test_evolve_non_finite_stops_at_last_finite_state(gas3, monkeypatch, poisoned_row):
    # 4 derivative calls per step, one per stage, each returning the stacked
    # (z_x, u_x): row 1 of the last stage's result (u_x) spoils only z, row 0
    # (z_x) only u
    grid = fields.Grid(0.0, 1.0, 64)
    state, _ = fields.build_initial("-0.2*sin(2*pi*x)", grid, gas3, m0=1.0, z0=1.0)
    cfg = solver.SolverConfig(cfl=0.4, t_end=0.3, snapshot_stride=3)
    clean = solver.evolve(state, cfg)
    good_steps = 5
    real = solver.derivative
    calls = 0

    def derivative_then_nan(values, grid):
        nonlocal calls
        calls += 1
        out = real(values, grid)
        if calls >= 4 * good_steps + 4:
            out[poisoned_row] = np.nan
        return out

    monkeypatch.setattr(solver, "derivative", derivative_then_nan)
    traj = solver.evolve(state, cfg)
    assert traj.termination.kind == "non_finite"
    assert traj.steps_taken == good_steps
    assert traj.termination.t_stop == clean.conserved.t[good_steps]
    last = traj.snapshots[-1]
    assert last.t == traj.termination.t_stop
    assert np.all(np.isfinite(last.z)) and np.all(np.isfinite(last.u))
    assert np.array_equal(traj.conserved.int_u, clean.conserved.int_u[: good_steps + 1])
    assert np.array_equal(traj.conserved.int_tau, clean.conserved.int_tau[: good_steps + 1])


def test_evolve_entropy_arrays_bit_identical(varying_traj):
    first = varying_traj.snapshots[0].m_arrays()[0]
    last = varying_traj.snapshots[-1].m_arrays()[0]
    assert first.tobytes() == last.tobytes()


def test_snapshots_own_their_arrays(gas3):
    # evolve swaps two state buffers between steps: a snapshot keeping a view
    # of either would share memory with every other snapshot but one
    grid = fields.Grid(0.0, 1.0, 32)
    state, _ = fields.build_initial("0.1*sin(2*pi*x)", grid, gas3, m0=1.0, z0=1.0)
    traj = solver.evolve(state, solver.SolverConfig(cfl=0.4, t_end=0.05, snapshot_stride=1))
    assert len(traj.snapshots) >= 4
    arrays = [a for snap in traj.snapshots for a in (snap.z, snap.u)]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


def test_snapshot_times_strictly_increasing(varying_traj):
    times = varying_traj.times
    assert np.all(np.diff(times) > 0.0)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(varying_traj.termination.t_stop)


def test_solution_convergence_order_at_least_3(gas3):
    """Solution error against a 4x refined reference, smooth window."""
    T = 0.3

    def final_state(n):
        grid = fields.Grid(0.0, 1.0, n)
        state, _ = fields.build_initial("-0.2*sin(2*pi*x)", grid, gas3, m0=1.0, z0=1.0)
        cfg = solver.SolverConfig(cfl=0.4, t_end=T, snapshot_stride=10**6)
        traj = solver.evolve(state, cfg)
        assert traj.termination.kind == "reached_t_end"
        return traj.snapshots[-1]

    errs = []
    for n in (64, 128):
        coarse = final_state(n)
        fine = final_state(4 * n)
        errs.append(float(np.max(np.abs(coarse.z - fine.z[::4]))))
    order = np.log2(errs[0] / errs[1])
    assert order >= 3.0, (errs, order)
