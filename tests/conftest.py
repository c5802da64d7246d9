import numpy as np
import pytest

from steepen import charpath, detector, eos, fields, riccati, solver


def make_gas(gamma=3.0, K=1.0 / 3.0):
    return eos.make_constants(gamma, K)


def sampled_residual(traj, curve, kind):
    """``riccati.residual`` of ``kind`` on ``curve``, its quantities sampled from ``traj`` first."""
    charpath.sample_along(curve, traj, riccati.RESIDUAL_KINDS[kind][2])
    return riccati.residual(curve, kind)


def gradient_peaks(traj):
    """The ``detector.gradient_peak`` of every snapshot, as a run's snapshot pass records it."""
    return np.array([detector.gradient_peak(riccati.diagnostics(s)) for s in traj.snapshots])


@pytest.fixture(scope="session")
def gas3():
    """gamma = 3, K = 1/3: every derived constant equals 1 (or 1/3)."""
    return make_gas()


@pytest.fixture(scope="session")
def constant_traj(gas3):
    grid = fields.Grid(0.0, 1.0, 64)
    state, _ = fields.build_initial(0.0, grid, gas3, m0=1.0, z0=2.0)
    cfg = solver.SolverConfig(cfl=0.4, t_end=0.05, snapshot_stride=2)
    return solver.evolve(state, cfg)


@pytest.fixture(scope="session")
def varying_traj():
    """Smooth pre-blowup window of a varying-entropy compressive run."""
    gc = make_gas(5.0 / 3.0, 1.0 / 15.0)
    grid = fields.Grid(0.0, 1.0, 256)
    state, _ = fields.build_initial(
        "-0.35*sin(2*pi*x)", grid, gc, m0="1 + 0.2*sin(2*pi*x)", z0=1.0
    )
    cfg = solver.SolverConfig(cfl=0.4, t_end=0.35, snapshot_stride=5, gradient_cap=100.0)
    traj = solver.evolve(state, cfg)
    assert traj.termination.kind == "reached_t_end"
    return traj


@pytest.fixture(scope="session")
def stationary_traj():
    """Varying-entropy stationary solution: u = 0 and p constant."""
    g = 5.0 / 3.0
    gc = make_gas(g, 1.0 / 15.0)
    grid = fields.Grid(0.0, 20.0, 512)
    m_expr = "1 + 0.3*tanh(sin(2*pi*(x - 10)/20))"
    z_expr = f"(1/(({m_expr})^2))^({(g - 1.0) / (2.0 * g)})"
    state, _ = fields.build_initial(0.0, grid, gc, m0=m_expr, z0=z_expr)
    cfg = solver.SolverConfig(cfl=0.4, t_end=1.0, snapshot_stride=10)
    return solver.evolve(state, cfg)
