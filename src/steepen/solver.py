"""Method-of-lines evolution of the (z, u) system with frozen entropy.

Semi-discrete form (4th-order central differences, periodic)::

    z_t = -(c/m) u_x
    u_t = -(m c z_x + 2 (p/m) m_x)
    m_t = 0

advanced with the classical 4-stage Runge-Kutta scheme under a CFL time
step.  The state is held as one ``(2, n + 4)`` array with rows ``(z, u)``:
node i sits in column i + 2, and two periodic ghost cells pad each end.
Each stage takes one :func:`~steepen.fields.derivative` call for both
gradients, which runs a :class:`~steepen.fields.Stencil` bound once per
run to the padded buffer: it reads the buffer as it is and writes into
the workspace's result rows.  The stage sums, the RK4 combination and the
finiteness check each run once over the whole buffers; a ghost gets the
same operations as its node, so only a slope's ghosts are refilled, and
every node value is bit for bit that of the unpadded formulas.  Every
buffer, view and stencil a step uses is made once per run
(:class:`_Workspace`), so a step makes no array and no view of its own.
With a constant entropy profile (``m_x`` zero at every node) the system
is the p-system, and a stage drops the forcing term: ``z_x`` is never
``-0``, so the values are bit for bit those with its zeros added.  The
energy equation is not evolved; smooth solutions carry it via the
stationarity of the entropy.  The integrals of u and tau (momentum and
volume) are logged at every step as a conservation check, 24 B a step in
``array("d")`` buffers that become the log's arrays when the run ends.
"""

from __future__ import annotations

import math
from array import array
from typing import NamedTuple

import numpy as np

from steepen import eos
from steepen.eos import VacuumError
from steepen.fields import Grid, StateField, Stencil, derivative, ghost_views


class SolverConfig:
    __slots__ = ("cfl", "t_end", "snapshot_stride", "gradient_cap", "dt_min")

    def __init__(self, cfl: float = 0.4, t_end: float = 1.0, snapshot_stride: int = 10, gradient_cap: float = 1e4,
                 dt_min: float = 1e-12):
        self.cfl, self.t_end, self.snapshot_stride = cfl, t_end, snapshot_stride
        self.gradient_cap, self.dt_min = gradient_cap, dt_min
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


class Termination(NamedTuple):
    kind: str  # reached_t_end | gradient_blowup | cfl_collapse | vacuum_guard | non_finite
    t_stop: float
    x_loc: float | None = None


class ConservedLog:
    __slots__ = ("t", "int_u", "int_tau")

    def __init__(self, t: np.ndarray, int_u: np.ndarray, int_tau: np.ndarray):
        self.t, self.int_u, self.int_tau = t, int_u, int_tau


class Trajectory:
    """The stored snapshots of a run, why it stopped and its conservation log.

    It holds no derived data: a snapshot is its ``(z, u)`` arrays, and
    whoever needs its other grid fields computes just those, by name
    (:func:`steepen.riccati.diagnostics`).  The grid rows that
    characteristic tracing and sampling need are held by a
    :class:`steepen.charpath.FieldSampler`, a few snapshots at a time.
    """

    __slots__ = ("snapshots", "termination", "conserved", "steps_taken")

    def __init__(self, snapshots: list[StateField], termination: Termination, conserved: ConservedLog,
                 steps_taken: int = 0):
        self.snapshots, self.termination, self.conserved = snapshots, termination, conserved
        self.steps_taken = steps_taken

    @property
    def grid(self) -> Grid:
        return self.snapshots[0].grid

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


def _power(z, e: float, out):
    """``z ** e`` into ``out``, bit for bit.

    For ``e = 2`` and ``e = -1`` (``e_c`` and ``tau``'s exponent of a
    ``gamma = 3`` gas) numpy's ``**`` computes ``z * z`` and ``1 / z``:
    numpy 1 by ``square`` and ``reciprocal``, numpy 2 in its power loop,
    which tests the exponent at every element.  Here they run as those
    operations directly.
    """
    if e == 2.0:
        return np.multiply(z, z, out=out)
    if e == -1.0:
        return np.divide(1.0, z, out=out)
    return np.power(z, e, out=out)


class _Rows:
    """A ``(2, n + 4)`` buffer, rows ``(z, u)``, and the views of it a step takes.

    Node i sits in column i + 2, and columns 0, 1 and n + 2, n + 3 hold
    periodic ghost copies of nodes n - 2, n - 1 and 0, 1.
    """

    def __init__(self, n: int):
        self.a = np.empty((2, n + 4))
        self.flat = self.a.reshape(-1)
        self.ahead, self.behind = self.flat[1:], self.flat[:-1]
        self.z, self.u = self.a[:, 2:-2]
        self.z_padded = self.a[0]
        self.ghosts, self.ghost_nodes = ghost_views(self.a)

    def fill_ghosts(self) -> None:
        self.ghosts[...] = self.ghost_nodes


class _Workspace:
    """Every buffer and view a step uses, made once per run.

    It holds the profile-derived constants and these :class:`_Rows`
    buffers: the two ``states`` a step reads and writes in turn (the first
    holds ``state``), the RK stage, one stage's slope, the slope sum and
    ``_steepness``'s forward differences.  Beside them sit the stencil's
    result rows and its ``8 f`` scratch, ``z**e_c``, ``tau`` and the
    finiteness mask.  Each buffer a stage differentiates (both ``states``
    and the stage) gets its ``stencil``, a :class:`~steepen.fields.Stencil`
    bound into those result rows.  A step then makes no array and no view
    at all: :func:`~steepen.fields.derivative` runs the stencil it is given.
    """

    def __init__(self, state: StateField):
        gc = state.gc
        m, m_x, _ = state.m_arrays()
        n = state.grid.n
        self.grid = state.grid
        self.m = m
        self.e_c = gc.exponents.E_c
        self.e_tau = gc.exponents.E_tau
        self.K_c = gc.K_c
        # the constant operands of a step as 0-d arrays: numpy converts a
        # Python float operand anew on every call
        self.minus_K_c, self.two, self.K_tau, self.h = map(
            np.array, (-gc.K_c, 2.0, gc.K_tau, state.grid.h)
        )
        self.minus_mc_coeff = -gc.K_c * m * m  # -m*c = minus_mc_coeff * z**e_c
        # 2(p/m)m_x = forcing * z**(e_c+1); None for a constant profile, whose
        # u_t is then that of the p-system
        self.forcing = 2.0 * gc.K_p * m * m_x if np.any(m_x) else None
        self.states = (_Rows(n), _Rows(n))
        self.stage, self.k, self.acc, self.diff = (_Rows(n) for _ in range(4))
        first = self.states[0]
        first.z[...] = state.z
        first.u[...] = state.u
        first.fill_ghosts()
        # derivative's result rows (nodes in columns 2 .. n + 1) and its 8 f
        self.dx, self.f8 = np.empty((2, 2, n + 4))
        self.z_x, self.u_x = self.dx[:, 2:-2]
        for w in (*self.states, self.stage):
            w.stencil = Stencil(w.a, self.grid, out=self.dx, scratch=self.f8)
        self.zc, self.tau = np.empty((2, n))
        self.finite = np.empty(2 * (n + 4), dtype=bool)

    def max_wavespeed(self, z) -> float:
        """max_x c = K_c max(m z^e_c) over the nodes ``z``, the speed a step
        is bounded by (not finite when z is not)."""
        mc = _power(z, self.e_c, self.zc)
        mc *= self.m
        return self.K_c * float(np.maximum.reduce(mc))

    def rhs(self, w: _Rows, out: _Rows) -> None:
        """Write (z_t, u_t) of the padded state ``w``, ghosts included, into ``out``."""
        derivative(w.stencil, self.grid)
        z = w.z
        zc = _power(z, self.e_c, self.zc)
        z_t, u_t = out.z, out.u
        # z_t = -K_c zc u_x and u_t = minus_mc_coeff zc z_x - forcing zc z,
        # each product in that order (with forcing, only the sign of an
        # exactly zero u_t can differ from the negated sum's)
        np.multiply(zc, self.minus_K_c, out=z_t)
        z_t *= self.u_x
        np.multiply(self.minus_mc_coeff, zc, out=u_t)
        u_t *= self.z_x
        if self.forcing is not None:
            zc *= self.forcing
            zc *= z
            u_t -= zc
        out.fill_ghosts()

    def all_finite(self, w: _Rows) -> bool:
        return bool(np.logical_and.reduce(np.isfinite(w.flat, out=self.finite)))


def _check_floor(w: _Rows):
    # fmin ignores NaN, as the comparison z <= Z_FLOOR does
    if np.fmin.reduce(w.z_padded) <= eos.Z_FLOOR:
        raise VacuumError("z fell to the vacuum floor during a step")


def _steepness(ws: _Workspace, w: _Rows):
    # one-sided differences: unlike the centered stencil they cannot alias
    # away a two-cell sawtooth, so the cap also catches lost resolution.
    # One pass over the flat state gives both rows' differences; ghost
    # column n + 2 is node 0, so the last node's is the periodic wrap.
    diff = ws.diff
    d = diff.behind
    np.subtract(w.ahead, w.behind, out=d)
    np.abs(d, out=d)
    dz = diff.z
    np.multiply(ws.m, dz, out=dz)
    mags = np.maximum(diff.u, dz, out=dz)
    mags /= ws.h
    grid = ws.grid
    i = int(mags.argmax())
    return float(mags[i] * grid.length), float(grid.x[i])


def _rk4(ws: _Workspace, w: _Rows, dt, out: _Rows):
    """One RK4 step of the padded state ``w``, written into ``out``.

    Every element, ghosts included, is computed as
    ``w + (dt/6) (((k1 + 2 k2) + 2 k3) + k4)`` with stages
    ``w + (dt/2) k1``, ``w + (dt/2) k2`` and ``w + dt k3``; a ghost gets the
    same operations on exact copies, so it stays its node's copy.  ``w``
    itself is above the vacuum floor: every state the run keeps is checked.
    """
    stage, k, acc = ws.stage.a, ws.k.a, ws.acc.a
    half = 0.5 * dt
    ws.rhs(w, ws.acc)  # k1
    np.multiply(acc, half, out=stage)
    stage += w.a
    for stage_dt in (half, dt):  # k2, then k3
        _check_floor(ws.stage)
        ws.rhs(ws.stage, ws.k)
        np.multiply(k, stage_dt, out=stage)
        stage += w.a
        k *= ws.two
        acc += k
    _check_floor(ws.stage)
    ws.rhs(ws.stage, ws.k)  # k4
    acc += k
    acc *= dt / 6.0
    np.add(w.a, acc, out=out.a)
    _check_floor(out)


def _conserved(ws: _Workspace, w: _Rows):
    h = ws.grid.h
    tau = _power(w.z, ws.e_tau, ws.tau)
    np.multiply(ws.K_tau, tau, out=tau)
    return h * float(np.add.reduce(w.u)), h * float(np.add.reduce(tau))


def evolve(state0: StateField, cfg: SolverConfig) -> Trajectory:
    """Advance state0 until t_end, blowup, CFL collapse, vacuum, or a non-finite state.

    A step whose new state is not finite is rejected: the run stops with
    ``non_finite`` at the last finite state.

    Conserved quantities are logged every step; full fields are stored every
    ``snapshot_stride`` steps plus the initial and final instants.
    """
    ws = _Workspace(state0)
    grid = state0.grid
    w, w_new = ws.states
    t = 0.0

    def make_state(tv, wv):
        return StateField(
            grid=grid, t=tv, z=wv.z, u=wv.u,  # StateField copies them
            gc=state0.gc, entropy=state0.entropy,
        )

    snapshots = [make_state(t, w)]
    log_t, log_u, log_tau = array("d"), array("d"), array("d")

    def log(tv, wv):
        iu, itau = _conserved(ws, wv)
        log_t.append(tv)
        log_u.append(iu)
        log_tau.append(itau)

    log(t, w)

    termination = None
    steps = 0
    while True:
        steep, x_peak = _steepness(ws, w)
        if steep > cfg.gradient_cap:
            termination = Termination("gradient_blowup", t, x_peak)
            break
        if t >= cfg.t_end - 1e-14 * max(1.0, cfg.t_end):
            termination = Termination("reached_t_end", t)
            break

        c_max = ws.max_wavespeed(w.z)
        if not math.isfinite(c_max) or c_max <= 0.0:
            termination = Termination("vacuum_guard", t)
            break
        dt = cfg.cfl * grid.h / c_max
        if dt < cfg.dt_min:
            termination = Termination("cfl_collapse", t)
            break
        # the last step ends at t_end, and takes in a remainder shorter
        # than dt_min rather than leave it to a step of its own
        if cfg.t_end - (t + dt) < cfg.dt_min:
            dt = cfg.t_end - t

        try:
            _rk4(ws, w, dt, w_new)
        except VacuumError:
            termination = Termination("vacuum_guard", t)
            break
        if not ws.all_finite(w_new):
            termination = Termination("non_finite", t)
            break
        w, w_new = w_new, w
        t += dt
        steps += 1
        log(t, w)
        if steps % cfg.snapshot_stride == 0:
            snapshots.append(make_state(t, w))

    if snapshots[-1].t < t - 1e-300:
        snapshots.append(make_state(t, w))

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


def conserved_drift(traj: Trajectory, t_max: float) -> dict:
    """Max relative drift of the conserved logs up to t_max.

    The momentum integral can start (and stay) at zero, so its drift is
    normalized by the larger of |int u(0)| and L * max|u| over the run.
    """
    log = traj.conserved
    mask = log.t <= t_max
    u_peak = max(float(np.max(np.abs(s.u))) for s in traj.snapshots)
    out = {}
    for name, series in (("int_u", log.int_u), ("int_tau", log.int_tau)):
        vals = series[mask]
        scale = max(abs(vals[0]), u_peak * traj.grid.length, 1e-30)
        out[name] = float(np.max(np.abs(vals - vals[0]))) / scale
    return out

