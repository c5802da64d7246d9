"""Method-of-lines evolution of the (z, u) system with frozen entropy.

Semi-discrete form (4th-order central differences, periodic)::

    z_t = -(c/m) u_x
    u_t = -(m c z_x + 2 (p/m) m_x)
    m_t = 0

advanced with the classical 4-stage Runge-Kutta scheme under a CFL time
step.  The state is held as one ``(2, n)`` array with rows ``(z, u)``:
each stage takes one :func:`~steepen.fields.derivative` call for both
gradients, and the stage sums, the RK4 combination and the finiteness
check each run once on the stacked array, in preallocated buffers.  The
energy equation is not evolved; smooth solutions carry it via the
stationarity of the entropy.  The integrals of u and tau (momentum and
volume) are logged at every step as a conservation check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        for name in ("cfl", "t_end", "gradient_cap", "dt_min"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
    """The stored snapshots of a run, why it stopped and its conservation log.

    It holds no derived data: a snapshot is its ``(z, u)`` arrays, and its
    diagnostics are computed by whoever needs them
    (:func:`steepen.riccati.diagnostics`).  The grid rows that
    characteristic tracing and sampling need are held by a
    :class:`steepen.charpath.FieldSampler`, a few snapshots at a time.
    """

    snapshots: list[StateField]
    termination: Termination
    conserved: ConservedLog
    steps_taken: int = 0

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
    """Profile-derived constants and the RK stage buffers, reused across steps."""

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
        # (2, n) buffers: the stage state, one stage's slope, the slope sum
        self.stage, self.k, self.acc = np.empty((3, 2, len(m)))

    def max_wavespeed(self, z) -> float:
        """max_x c = K_c max(m z^e_c), the speed a step is bounded by
        (not finite when z is not)."""
        return self.K_c * float(np.max(self.m * z**self.e_c))

    def rhs(self, w, out):
        """Write (z_t, u_t) of the stacked state ``w = (z, u)`` into ``out``."""
        z = w[0]
        if (z <= self.z_floor).any():
            raise VacuumError("z fell to the vacuum floor during a step")
        z_x, u_x = derivative(w, self.grid)
        zc = z**self.e_c
        z_t, u_t = out
        # z_t = -K_c zc u_x and u_t = -(mc_coeff zc z_x + forcing zc z),
        # each product in that order
        np.multiply(zc, -self.K_c, out=z_t)
        z_t *= u_x
        np.multiply(self.mc_coeff, zc, out=u_t)
        u_t *= z_x
        zc *= self.forcing
        zc *= z
        u_t += zc
        np.negative(u_t, out=u_t)


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


def _rk4(ws: _Workspace, w, dt, out):
    """One RK4 step of the stacked state ``w``, written into ``out``.

    Every element is computed as ``w + (dt/6) (((k1 + 2 k2) + 2 k3) + k4)``
    with stages ``w + (dt/2) k1``, ``w + (dt/2) k2`` and ``w + dt k3``.
    """
    stage, k, acc = ws.stage, ws.k, ws.acc
    half = 0.5 * dt
    ws.rhs(w, acc)  # k1
    np.multiply(acc, half, out=stage)
    stage += w
    for stage_dt in (half, dt):  # k2, then k3
        ws.rhs(stage, k)
        np.multiply(k, stage_dt, out=stage)
        stage += w
        k *= 2.0
        acc += k
    ws.rhs(stage, k)  # k4
    acc += k
    acc *= dt / 6.0
    np.add(w, acc, out=out)
    if (out[0] <= ws.z_floor).any():
        raise VacuumError("z fell to the vacuum floor during a step")


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
    w = np.stack((state0.z, state0.u))  # rows (z, u)
    w_new = np.empty_like(w)
    t = 0.0

    def make_state(tv, zv, uv):
        return StateField(
            grid=grid, t=tv, z=zv, u=uv,  # StateField copies them
            profile=state0.profile, gc=state0.gc, z_floor=state0.z_floor,
        )

    snapshots = [make_state(t, *w)]
    log_t, log_u, log_tau = [], [], []

    def log(tv, zv, uv):
        iu, itau = _conserved(ws, zv, uv)
        log_t.append(tv)
        log_u.append(iu)
        log_tau.append(itau)

    log(t, *w)

    termination = None
    steps = 0
    while True:
        steep, x_peak = _steepness(w[0], w[1], ws.m, grid)
        if steep > cfg.gradient_cap:
            termination = Termination("gradient_blowup", t, x_peak)
            break
        if t >= cfg.t_end - 1e-14 * max(1.0, cfg.t_end):
            termination = Termination("reached_t_end", t)
            break

        c_max = ws.max_wavespeed(w[0])
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
            _rk4(ws, w, dt, w_new)
        except VacuumError:
            termination = Termination("vacuum_guard", t)
            break
        if not np.isfinite(w_new).all():
            termination = Termination("non_finite", t)
            break
        w, w_new = w_new, w
        t += dt
        steps += 1
        log(t, *w)
        if steps % cfg.snapshot_stride == 0:
            snapshots.append(make_state(t, *w))

    if snapshots[-1].t < t - 1e-300:
        snapshots.append(make_state(t, *w))

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

