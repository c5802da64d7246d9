"""Method-of-lines evolution of the (z, u) system with frozen entropy.

Semi-discrete form (4th-order central differences, periodic)::

    z_t = -(c/m) u_x
    u_t = -(m c z_x + 2 (p/m) m_x)
    m_t = 0

advanced with the classical 4-stage Runge-Kutta scheme under a CFL time
step.  The energy equation is not evolved; smooth solutions carry it via
the stationarity of the entropy.  The integrals of u and tau (momentum
and volume) are logged at every step as a conservation check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from steepen.eos import VacuumError
from steepen.fields import Grid, StateField, derivative


@dataclass
class SolverConfig:
    cfl: float = 0.4
    t_end: float = 1.0
    snapshot_stride: int = 10
    gradient_cap: float = 1e4
    dt_min: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if self.gradient_cap <= 0.0:
            raise ValueError("gradient_cap must be positive")
        if self.dt_min <= 0.0:
            raise ValueError("dt_min must be positive")


@dataclass(frozen=True)
class Termination:
    kind: str  # reached_t_end | gradient_blowup | cfl_collapse | vacuum_guard | non_finite
    t_stop: float
    x_loc: float | None = None


@dataclass
class ConservedLog:
    t: np.ndarray
    int_u: np.ndarray
    int_tau: np.ndarray


@dataclass
class Trajectory:
    snapshots: list[StateField]
    termination: Termination
    conserved: ConservedLog
    steps_taken: int = 0
    #: the trajectory's ``charpath.FieldSampler``, filled on first use by
    #: ``charpath.FieldSampler.of``
    cached_sampler: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def grid(self) -> Grid:
        return self.snapshots[0].grid

    @property
    def profile(self):
        return self.snapshots[0].profile

    @property
    def gc(self):
        return self.snapshots[0].gc

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


class _Workspace:
    """Profile-derived constants reused across RK stages and steps."""

    def __init__(self, state: StateField):
        gc = state.gc
        g = gc.gamma
        m, m_x, _ = state.m_arrays()
        self.grid = state.grid
        self.gc = gc
        self.z_floor = state.z_floor
        self.m = m
        self.e_c = (g + 1.0) / (g - 1.0)
        self.K_c = gc.K_c
        self.mc_coeff = gc.K_c * m * m  # m*c = coeff * z**e_c
        self.forcing = 2.0 * gc.K_p * m * m_x  # 2(p/m)m_x = forcing * z**(e_c+1)

    def rhs(self, z, u):
        if (z <= self.z_floor).any():
            raise VacuumError("z fell to the vacuum floor during a step")
        u_x = derivative(u, self.grid, 1)
        z_x = derivative(z, self.grid, 1)
        zc = z**self.e_c
        z_t = -self.K_c * zc * u_x
        u_t = -(self.mc_coeff * zc * z_x + self.forcing * zc * z)
        return z_t, u_t


def max_wavespeed(state: StateField) -> float:
    m = state.m_arrays()[0]
    g = state.gc.gamma
    c = state.gc.K_c * m * state.z ** ((g + 1.0) / (g - 1.0))
    c_max = float(np.max(c))
    if not np.isfinite(c_max):
        raise VacuumError("non-finite wave speed")
    return c_max


def cfl_dt(state: StateField, cfl: float) -> float:
    """CFL time step: cfl * h / max_x c(z, m)."""
    return cfl * state.grid.h / max_wavespeed(state)


def _abs_forward_diff(a):
    """|a[i+1] - a[i]| with the periodic wrap at the last node."""
    d = np.empty_like(a)
    np.subtract(a[1:], a[:-1], out=d[:-1])
    d[-1] = a[0] - a[-1]
    return np.abs(d, out=d)


def _steepness(z, u, m, grid: Grid):
    # one-sided differences: unlike the centered stencil they cannot alias
    # away a two-cell sawtooth, so the cap also catches lost resolution
    dz = _abs_forward_diff(z)
    np.multiply(m, dz, out=dz)
    mags = np.maximum(_abs_forward_diff(u), dz, out=dz)
    mags /= grid.h
    i = int(mags.argmax())
    return float(mags[i] * grid.length), float(grid.x[i])


def _rk4(ws: _Workspace, z, u, dt):
    k1z, k1u = ws.rhs(z, u)
    k2z, k2u = ws.rhs(z + 0.5 * dt * k1z, u + 0.5 * dt * k1u)
    k3z, k3u = ws.rhs(z + 0.5 * dt * k2z, u + 0.5 * dt * k2u)
    k4z, k4u = ws.rhs(z + dt * k3z, u + dt * k3u)
    z_new = z + (dt / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
    u_new = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    if (z_new <= ws.z_floor).any():
        raise VacuumError("z fell to the vacuum floor during a step")
    return z_new, u_new


def step(state: StateField, dt: float) -> StateField:
    """One classical RK4 step of duration dt; the entropy arrays are untouched."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    ws = _Workspace(state)
    z_new, u_new = _rk4(ws, state.z, state.u, dt)
    return StateField(
        grid=state.grid,
        t=state.t + dt,
        z=z_new,
        u=u_new,
        profile=state.profile,
        gc=state.gc,
        z_floor=state.z_floor,
    )


def _conserved(ws: _Workspace, z, u):
    gc = ws.gc
    h = ws.grid.h
    tau = gc.K_tau * z ** (-2.0 / (gc.gamma - 1.0))
    return h * float(np.sum(u)), h * float(np.sum(tau))


def evolve(state0: StateField, cfg: SolverConfig) -> Trajectory:
    """Advance state0 until t_end, blowup, CFL collapse, vacuum, or a non-finite state.

    A step whose new state is not finite is rejected: the run stops with
    ``non_finite`` at the last finite state.

    Conserved quantities are logged every step; full fields are stored every
    ``snapshot_stride`` steps plus the initial and final instants.
    """
    ws = _Workspace(state0)
    grid = state0.grid
    z = state0.z.copy()
    u = state0.u.copy()
    t = 0.0

    def make_state(tv, zv, uv):
        return StateField(
            grid=grid, t=tv, z=zv.copy(), u=uv.copy(),
            profile=state0.profile, gc=state0.gc, z_floor=state0.z_floor,
        )

    snapshots = [make_state(t, z, u)]
    log_t, log_u, log_tau = [], [], []

    def log(tv, zv, uv):
        iu, itau = _conserved(ws, zv, uv)
        log_t.append(tv)
        log_u.append(iu)
        log_tau.append(itau)

    log(t, z, u)

    termination = None
    steps = 0
    while True:
        steep, x_peak = _steepness(z, u, ws.m, grid)
        if steep > cfg.gradient_cap:
            termination = Termination("gradient_blowup", t, x_peak)
            break
        if t >= cfg.t_end - 1e-14 * max(1.0, cfg.t_end):
            termination = Termination("reached_t_end", t)
            break

        c_max = ws.K_c * float(np.max(ws.m * z**ws.e_c))
        if not np.isfinite(c_max) or c_max <= 0.0:
            termination = Termination("vacuum_guard", t)
            break
        dt = cfg.cfl * grid.h / c_max
        if t + dt > cfg.t_end:
            dt = cfg.t_end - t
        if dt < cfg.dt_min:
            termination = Termination("cfl_collapse", t)
            break

        try:
            z_new, u_new = _rk4(ws, z, u, dt)
        except VacuumError:
            termination = Termination("vacuum_guard", t)
            break
        if not (np.isfinite(z_new).all() and np.isfinite(u_new).all()):
            termination = Termination("non_finite", t)
            break
        z, u = z_new, u_new
        t += dt
        steps += 1
        log(t, z, u)
        if steps % cfg.snapshot_stride == 0:
            snapshots.append(make_state(t, z, u))

    if snapshots[-1].t < t - 1e-300:
        snapshots.append(make_state(t, z, u))

    return Trajectory(
        snapshots=snapshots,
        termination=termination,
        conserved=ConservedLog(
            t=np.array(log_t),
            int_u=np.array(log_u),
            int_tau=np.array(log_tau),
        ),
        steps_taken=steps,
    )


def conserved_drift(traj: Trajectory, t_max: float | None = None) -> dict:
    """Max relative drift of the conserved logs up to t_max (default: all).

    The momentum integral can start (and stay) at zero, so its drift is
    normalized by the larger of |int u(0)| and L * max|u| over the run.
    """
    log = traj.conserved
    mask = np.ones_like(log.t, dtype=bool) if t_max is None else log.t <= t_max
    u_peak = max(float(np.max(np.abs(s.u))) for s in traj.snapshots)
    out = {}
    for name, series in (("int_u", log.int_u), ("int_tau", log.int_tau)):
        vals = series[mask]
        scale = max(abs(vals[0]), u_peak * traj.grid.length, 1e-30)
        out[name] = float(np.max(np.abs(vals - vals[0]))) / scale
    return out

