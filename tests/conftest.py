import numpy as np
import pytest

from steepen import charpath, detector, eos, fields, riccati, solver


def make_gas(gamma=3.0, K=1.0 / 3.0):
    return eos.make_constants(gamma, K)


def ghost_padded(values):
    """``values`` with two periodic ghost columns on each side of the last
    axis: the ``(..., n + 4)`` rows ``fields.derivative`` takes."""
    values = np.asarray(values)
    return np.pad(values, [(0, 0)] * (values.ndim - 1) + [(2, 2)], mode="wrap")


def fd_tangent(state, names, rates):
    """``{name: field_t}`` of any grid fields ``names`` along ``rates =
    (z_t, u_t)``: the 4th-order central difference over ``(z + s z_t,
    u + s u_t)``, ``s = ±h, ±2h``, ``h = 1e-3 min z / max|z_t|`` (``1e-3
    min z`` where ``z_t`` is 0: the fields are affine in ``u``).  The oracle
    of the exact tangent; a 2-point one leaves 1e-7 of the equation at
    gamma = 1.1."""
    z_t, u_t = rates
    speed = float(np.max(np.abs(z_t)))
    h = 1e-3 * float(np.min(state.z)) / (speed if speed > 0.0 else 1.0)

    def at(s):  # the fields at (z + s z_t, u + s u_t); the memo's other fields go with it
        memo = {"z": state.z + s * z_t, "u": state.u + s * u_t}
        return [riccati._field(memo, state, state.gc.exponents, name) for name in names]

    far = [a - b for a, b in zip(at(-2.0 * h), at(2.0 * h))]
    near = [a - b for a, b in zip(at(h), at(-h))]
    return {name: (f + 8.0 * g) / (12.0 * h) for name, f, g in zip(names, far, near)}


def grid_residuals(states, kinds):
    """``riccati.residual`` of ``kinds`` on each of ``states`` in turn, from
    the solver's own rates, as a run takes them."""
    names = riccati.residual_names(kinds)
    for state in states:
        yield riccati.residual(state, kinds, solver.rates(state), riccati.diagnostics(state, names))


def sampled_residual(traj, curve, kind):
    """The grid residual ``R`` of ``kind`` on every snapshot of ``traj``,
    sampled along ``curve``, as a run samples curves.csv's ``residual``."""
    rows = ({kind: res[kind][0]} for res in grid_residuals(traj.snapshots, (kind,)))
    return charpath.sample_along(curve, traj, (kind,), rows)[kind]


def gradient_peaks(traj):
    """The ``detector.gradient_peak`` of every snapshot, as a run's snapshot pass records it."""
    return np.array([detector.gradient_peak(riccati.diagnostics(s, ("y", "q"))) for s in traj.snapshots])


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


#: the entropy profile of ``varying_traj``
VARYING_M0 = "1 + 0.2*sin(2*pi*x)"


@pytest.fixture(scope="session")
def varying_traj():
    """Smooth pre-blowup window of a varying-entropy compressive run."""
    gc = make_gas(5.0 / 3.0, 1.0 / 15.0)
    grid = fields.Grid(0.0, 1.0, 256)
    state, _ = fields.build_initial(
        "-0.35*sin(2*pi*x)", grid, gc, m0=VARYING_M0, z0=1.0
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
