"""Characteristic tracing through a trajectory and along-curve derivatives.

Forward curves integrate dx/dt = +c, backward curves dx/dt = -c, with RK4
in time (4 substeps per stored snapshot interval), cubic-spline
interpolation in space and 4-point Lagrange interpolation in snapshot time.
Derived quantities are always computed on the grid first (see
:mod:`steepen.riccati`) and only then interpolated onto curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from steepen import riccati
from steepen.riccati import Exponents
from steepen.solver import Trajectory


@dataclass
class CharacteristicCurve:
    direction: str  # forward | backward
    t: np.ndarray
    x: np.ndarray  # wrapped into [x0, x1)
    x_path: np.ndarray  # unwrapped, for continuity across the seam
    samples: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("curve node times must be strictly increasing")


class FieldSampler:
    """Space-time interpolator over a trajectory's snapshots."""

    def __init__(self, traj: Trajectory):
        if len(traj.snapshots) < 2:
            raise ValueError("trajectory too sparse to interpolate (stride guard)")
        self.traj = traj
        self.snaps = traj.snapshots
        self.times = traj.times
        self.grid = traj.grid
        self.profile = traj.profile
        self.K_c = traj.gc.K_c
        self.ex = Exponents.of(traj.gc.gamma)
        self._splines: dict = {}

    def spline(self, k: int, name: str) -> CubicSpline:
        key = (k, name)
        sp = self._splines.get(key)
        if sp is None:
            arr = riccati.grid_quantity(self.snaps[k], name)
            xs = np.append(self.grid.x, self.grid.x1)
            ys = np.append(arr, arr[0])
            sp = CubicSpline(xs, ys, bc_type="periodic")
            self._splines[key] = sp
        return sp

    def _window(self, tq: float) -> tuple[int, int]:
        n_t = len(self.times)
        k = int(np.searchsorted(self.times, tq, side="right")) - 1
        k = min(max(k, 0), n_t - 2)
        j0 = min(max(k - 1, 0), max(n_t - 4, 0))
        return j0, min(j0 + 4, n_t)

    def value(self, name: str, tq: float, xq: float) -> float:
        """Scalar space-time interpolation of a named field."""
        j0, j1 = self._window(tq)
        tw = self.times[j0:j1]
        xq = float(self.grid.wrap(xq))
        total = 0.0
        for jj in range(len(tw)):
            w = 1.0
            for ii in range(len(tw)):
                if ii != jj:
                    w *= (tq - tw[ii]) / (tw[jj] - tw[ii])
            total += w * float(self.spline(j0 + jj, name)(xq))
        return total

    def values(self, name: str, ts, xs) -> np.ndarray:
        """Vectorized interpolation at matched (t, x) node arrays."""
        ts = np.asarray(ts, dtype=float)
        xs = self.grid.wrap(xs)
        out = np.empty_like(ts)
        n_t = len(self.times)
        ks = np.clip(np.searchsorted(self.times, ts, side="right") - 1, 0, n_t - 2)
        j0s = np.clip(ks - 1, 0, max(n_t - 4, 0))
        for j0 in np.unique(j0s):
            sel = j0s == j0
            j1 = min(j0 + 4, n_t)
            tw = self.times[j0:j1]
            tq = ts[sel]
            acc = np.zeros_like(tq)
            for jj in range(len(tw)):
                w = np.ones_like(tq)
                for ii in range(len(tw)):
                    if ii != jj:
                        w *= (tq - tw[ii]) / (tw[jj] - tw[ii])
                acc += w * self.spline(int(j0 + jj), name)(xs[sel])
            out[sel] = acc
        return out

    def speed(self, tq: float, xq: float) -> float:
        """Lagrangian wave speed c(t, x) = K_c m(x) z(t, x)**((g+1)/(g-1))."""
        zq = self.value("z", tq, xq)
        mq = float(np.asarray(self.profile.m(self.grid.wrap(xq)), dtype=float))
        return self.K_c * mq * zq**self.ex.E_c


def get_sampler(traj: Trajectory) -> FieldSampler:
    sampler = getattr(traj, "_charpath_sampler", None)
    if sampler is None:
        sampler = FieldSampler(traj)
        traj._charpath_sampler = sampler
    return sampler


def integrate_position(traj: Trajectory, x_start: float, t_nodes, sign: float) -> np.ndarray:
    """RK4 integration of dx/dt = sign*c through the trajectory's field.

    ``t_nodes`` may be ascending or descending (the latter walks the same
    characteristic backwards in time).  Returns unwrapped positions.
    """
    sampler = get_sampler(traj)
    t_nodes = np.asarray(t_nodes, dtype=float)
    xs = np.empty_like(t_nodes)
    x = float(x_start)
    xs[0] = x
    for i in range(len(t_nodes) - 1):
        ta, tb = t_nodes[i], t_nodes[i + 1]
        dt = tb - ta
        k1 = sign * sampler.speed(ta, x)
        k2 = sign * sampler.speed(ta + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = sign * sampler.speed(ta + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = sign * sampler.speed(tb, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs[i + 1] = x
    return xs


def trace(traj: Trajectory, x_start: float, direction: str, substeps: int = 4) -> CharacteristicCurve:
    """Trace a characteristic from (t=0, x_start) to the trajectory's end."""
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    if len(traj.snapshots) < 2:
        raise ValueError("trajectory too sparse to trace (stride guard)")
    sign = 1.0 if direction == "forward" else -1.0

    times = traj.times
    t_nodes = [times[0]]
    for k in range(len(times) - 1):
        seg = np.linspace(times[k], times[k + 1], substeps + 1)[1:]
        t_nodes.extend(seg.tolist())
    t_nodes = np.array(t_nodes)

    x_path = integrate_position(traj, x_start, t_nodes, sign)
    return CharacteristicCurve(
        direction=direction,
        t=t_nodes,
        x=traj.grid.wrap(x_path),
        x_path=x_path,
    )


def sample_along(curve: CharacteristicCurve, traj: Trajectory, quantity: str) -> np.ndarray:
    """Interpolate a named derived field onto the curve nodes (and cache it)."""
    sampler = get_sampler(traj)
    values = sampler.values(quantity, curve.t, curve.x)
    curve.samples[quantity] = values
    return values


# --- along-curve differentiation -------------------------------------------


def _fd_weights(nodes: np.ndarray, x0: float) -> np.ndarray:
    """First-derivative weights at x0 over arbitrary nodes (Fornberg)."""
    n = len(nodes)
    w = np.zeros((2, n))
    c1 = 1.0
    c4 = nodes[0] - x0
    w[0, 0] = 1.0
    for i in range(1, n):
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                w[1, i] = c1 * (w[0, i - 1] - c5 * w[1, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            w[1, j] = (c4 * w[1, j] - w[0, j]) / c3
            w[0, j] = c4 * w[0, j] / c3
        c1 = c2
    return w[1]


def directional_derivative(curve: CharacteristicCurve, quantity: str) -> np.ndarray:
    """d/dt of an along-curve sample series (5-point, 4th order).

    On forward curves this realizes the forward directional derivative
    (prime); on backward curves the backward one (backprime).
    """
    if quantity not in curve.samples:
        raise ValueError(f"quantity {quantity!r} has not been sampled on this curve")
    f = curve.samples[quantity]
    t = curve.t
    n = len(t)
    if n < 5:
        raise ValueError("need at least 5 curve nodes to differentiate")

    out = np.empty_like(f)
    uniform_w = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    for i in range(n):
        j0 = min(max(i - 2, 0), n - 5)
        tw = t[j0:j0 + 5]
        dts = np.diff(tw)
        if i - j0 == 2 and np.all(np.abs(dts - dts[0]) <= 1e-12 * dts[0]):
            out[i] = float(np.dot(uniform_w, f[j0:j0 + 5])) / dts[0]
        else:
            out[i] = float(np.dot(_fd_weights(tw, t[i]), f[j0:j0 + 5]))
    return out

