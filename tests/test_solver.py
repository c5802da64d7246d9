import tracemalloc

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


def _reference_run(state, cfg):
    """evolve's loop on unpadded ``(z, u)`` rows, every operation in the order
    of rhs and _rk4: (snapshots, int_u log, int_tau log, termination)."""
    gc, grid = state.gc, state.grid
    g = gc.gamma
    e_c = (g + 1.0) / (g - 1.0)
    m, m_x, _ = state.m_arrays()
    mc_coeff = gc.K_c * m * m
    forcing = 2.0 * gc.K_p * m * m_x

    def rhs(w):
        z, u = w
        zc = z**e_c
        z_x, u_x = fields.derivative(z, grid), fields.derivative(u, grid)
        return np.stack(((zc * -gc.K_c) * u_x, -((mc_coeff * zc) * z_x + (zc * forcing) * z)))

    def steepness(z, u):
        dz = np.abs(np.roll(z, -1) - z)
        mags = np.maximum(np.abs(np.roll(u, -1) - u), m * dz) / grid.h
        i = int(mags.argmax())
        return mags[i] * grid.length, grid.x[i]

    def conserved(z, u):
        tau = gc.K_tau * z ** (-2.0 / (g - 1.0))
        return grid.h * float(np.sum(u)), grid.h * float(np.sum(tau))

    t, steps = 0.0, 0
    w = np.stack((state.z, state.u))
    snapshots, log = [(t, w)], [conserved(*w)]
    while True:
        steep, x_peak = steepness(*w)
        if steep > cfg.gradient_cap:
            termination = ("gradient_blowup", t, x_peak)
            break
        if t >= cfg.t_end - 1e-14 * max(1.0, cfg.t_end):
            termination = ("reached_t_end", t, None)
            break
        dt = cfg.cfl * grid.h / (gc.K_c * float(np.max(m * w[0] ** e_c)))
        dt = min(dt, cfg.t_end - t)
        k1 = rhs(w)
        k2 = rhs(w + 0.5 * dt * k1)
        k3 = rhs(w + 0.5 * dt * k2)
        k4 = rhs(w + dt * k3)
        w = w + (((k1 + 2.0 * k2) + 2.0 * k3) + k4) * (dt / 6.0)
        t += dt
        steps += 1
        log.append(conserved(*w))
        if steps % cfg.snapshot_stride == 0:
            snapshots.append((t, w))
    if snapshots[-1][0] < t:
        snapshots.append((t, w))
    return snapshots, np.array(log), termination


_VARYING_M0 = "1 + 0.2*sin(2*pi*x)"


@pytest.mark.parametrize(
    "gas, m0, t_end, kind",
    [
        pytest.param((5.0 / 3.0, 1.0 / 15.0), _VARYING_M0, 0.2, "reached_t_end",
                     id="0.2-reached_t_end"),
        pytest.param((5.0 / 3.0, 1.0 / 15.0), _VARYING_M0, 1.0, "gradient_blowup",
                     id="1.0-gradient_blowup"),
        pytest.param((3.0, 1.0 / 3.0), "1", 0.1, "reached_t_end",
                     id="p_system_gamma3-0.1-reached_t_end"),
        pytest.param((5.0 / 3.0, 1.0 / 15.0), "1.3", 1.0, "gradient_blowup",
                     id="p_system_m1.3-1.0-gradient_blowup"),
    ],
)
def test_evolve_with_entropy_forcing_equals_unpadded_reference(gas, m0, t_end, kind):
    """About 20 steps.  With m varying the forcing term is not zero; with m
    constant evolve drops it, and the reference still adds its zeros and
    negates the sum, so the forcing-free stage is pinned to it bit for bit."""
    gc = make_gas(*gas)
    grid = fields.Grid(0.0, 1.0, 64)
    state, _ = fields.build_initial(
        "-0.35*sin(2*pi*x)", grid, gc, m0=m0, z0="1 + 0.1*cos(2*pi*x)"
    )
    m_x_max = np.max(np.abs(state.m_arrays()[1]))
    assert m_x_max > 1.0 if m0 == _VARYING_M0 else m_x_max == 0.0
    assert (solver._Workspace(state).forcing is None) == (m_x_max == 0.0)
    cfg = solver.SolverConfig(cfl=0.4, t_end=t_end, snapshot_stride=3, gradient_cap=2.3)
    traj = solver.evolve(state, cfg)
    snapshots, log, termination = _reference_run(state, cfg)
    assert traj.termination.kind == kind == termination[0]
    assert 15 <= traj.steps_taken <= 30
    assert traj.termination.t_stop == termination[1]
    assert traj.termination.x_loc == termination[2]
    assert [s.t for s in traj.snapshots] == [t for t, _ in snapshots]
    for snap, (_, w) in zip(traj.snapshots, snapshots):
        assert np.array_equal(snap.z, w[0])
        assert np.array_equal(snap.u, w[1])
    assert np.array_equal(traj.conserved.int_u, log[:, 0])
    assert np.array_equal(traj.conserved.int_tau, log[:, 1])


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
    y0 = riccati.diagnostics(state, ("y",))["y"]
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


def test_evolve_last_step_absorbs_a_remainder_below_dt_min(gas3):
    # t_end lies 1e-13 past the third full CFL step: the third step takes
    # the remainder in and the run reaches t_end, not cfl_collapse
    state = _constant_state(gas3)
    dt = _cfl_dt(state, 0.4)
    t_end = 3.0 * dt + 1e-13
    traj = solver.evolve(state, solver.SolverConfig(cfl=0.4, t_end=t_end, snapshot_stride=1))
    assert traj.termination.kind == "reached_t_end"
    assert traj.termination.t_stop == pytest.approx(t_end, rel=1e-14)
    assert traj.steps_taken == 3
    assert len(traj.snapshots) == 4  # no near-duplicate final snapshot


@pytest.mark.parametrize(
    "m0, poisoned_row",
    [
        pytest.param(1.0, 1, id="nan_in_z"),
        pytest.param(1.0, 0, id="nan_in_u"),
        pytest.param(_VARYING_M0, 1, id="varying_m-nan_in_z"),
        pytest.param(_VARYING_M0, 0, id="varying_m-nan_in_u"),
    ],
)
def test_evolve_non_finite_stops_at_last_finite_state(gas3, monkeypatch, m0, poisoned_row):
    # 4 calls through the name solver.derivative per step, one per stage,
    # with the forcing term or without it; each writes the stacked (z_x, u_x)
    # into the workspace's result rows, which rhs reads: row 1 of the last
    # stage's result (u_x) spoils only z, row 0 (z_x) only u
    grid = fields.Grid(0.0, 1.0, 64)
    state, _ = fields.build_initial("-0.2*sin(2*pi*x)", grid, gas3, m0=m0, z0=1.0)
    cfg = solver.SolverConfig(cfl=0.4, t_end=0.3, snapshot_stride=3)
    clean = solver.evolve(state, cfg)
    good_steps = 5
    real = solver.derivative
    calls = 0

    def derivative_then_nan(values, grid, **buffers):
        nonlocal calls
        calls += 1
        out = real(values, grid, **buffers)
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


@pytest.mark.parametrize("e", [2.0, -1.0, 4.0, -3.0, 6.0, -5.0, 1.5])
def test_power_equals_the_operator_bit_for_bit(e):
    # e_c and tau's exponent of gamma = 3, 5/3 and 1.4 gases, and one that
    # is not an integer
    rng = np.random.default_rng(7)
    z = np.concatenate((rng.uniform(1e-3, 10.0, 4096), 10.0 ** rng.uniform(-300.0, 300.0, 4096)))
    out = np.empty_like(z)
    with np.errstate(over="ignore", under="ignore"):
        assert solver._power(z, e, out) is out
        assert np.array_equal(out, z**e)


def test_a_step_allocates_no_state_sized_array(gas3):
    # evolve's step on a workspace built beforehand: the steepness, the wave
    # speed, the RK4 step with its four derivative calls, the finiteness
    # check and the conserved integrals all run in the workspace's buffers,
    # so the step raises the traced peak by less than one (n,) row
    n = 4096
    grid = fields.Grid(0.0, 1.0, n)
    state, _ = fields.build_initial(
        "-0.2*sin(2*pi*x)", grid, gas3, m0="1 + 0.2*sin(2*pi*x)", z0=1.0
    )
    ws = solver._Workspace(state)

    def step(w, w_new):
        solver._steepness(ws, w)
        dt = 0.4 * grid.h / ws.max_wavespeed(w.z)
        solver._rk4(ws, w, dt, w_new)
        assert ws.all_finite(w_new)
        solver._conserved(ws, w_new)

    w, w_new = ws.states
    step(w, w_new)  # numpy's first calls may set up caches of their own
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        step(w_new, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < n * 8


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
