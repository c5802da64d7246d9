"""Characteristic tracing through a trajectory and along-curve derivatives.

Forward curves integrate dx/dt = +c, backward curves dx/dt = -c, with RK4
in time (:data:`SUBSTEPS` steps per snapshot interval), moving a bundle of
seeds as one array; each seed of a bundle may have its own direction.
:class:`FieldSampler` is the one space-time interpolator (periodic 6-point
Lagrange in space, 4-point Lagrange in snapshot time), for the wave speed
while tracing and for samples along curves.  A quantity's table is its
grid values at every snapshot, built by :func:`grid_table`; a sampler
gathers the values each point needs from it in one indexing operation.
Tables are transient: :func:`integrate_position` builds the ``c`` table
for its own trace, and :func:`sample_along` builds one quantity's table,
samples every seed of a bundle from it and drops it, so one table is
alive at a time.  Derived quantities are always computed on the grid
first (see :mod:`steepen.riccati`) and only then interpolated onto curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from steepen import riccati
from steepen.solver import Trajectory

SUBSTEPS = 4  # RK4 steps per snapshot interval when tracing
_SIGN = {"forward": 1.0, "backward": -1.0}  # dx/dt = sign * c

# grid nodes j-2 ... j+3 of a point in cell j: 6 points, error O(h^6).  With 4
# (O(h^4), the scheme's order) one_sided_profile's ode_y residual was 4.6 times
# larger; with 8 it was the same
_STENCIL = np.arange(-2.0, 4.0)

# row j of _OTHERS[n]: the nodes i != j of an n-node window, the factors
# of node j's Lagrange weight
_OTHERS = {n: np.array([[i for i in range(n) if i != j] for j in range(n)]) for n in (2, 3, 4, 6)}


@dataclass
class CharacteristicCurve:
    direction: str | tuple  # forward | backward; a bundle may have one per seed
    t: np.ndarray
    x: np.ndarray  # wrapped into [x0, x1); a bundle has one column per seed
    x_path: np.ndarray  # unwrapped, for continuity across the seam
    samples: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("curve node times must be strictly increasing")

    def column(self, i: int) -> CharacteristicCurve:
        """The curve of seed ``i`` of a bundle, with that seed's direction and samples."""
        direction = self.direction if isinstance(self.direction, str) else self.direction[i]
        samples = {name: values[:, i] for name, values in self.samples.items()}
        return CharacteristicCurve(direction, self.t, self.x[:, i], self.x_path[:, i], samples)


def _lagrange_weights(nodes: np.ndarray, at) -> np.ndarray:
    """Lagrange weights of the nodes along the last axis of ``nodes`` at ``at``.

    ``nodes`` has shape ``S + (n,)`` and the array ``at`` broadcasts
    against ``S``; the weights have the broadcast shape plus the node axis.  Node ``j``'s
    weight is the product, in node order, of ``(at - t_i) / (t_j - t_i)``
    over the nodes ``i != j``.
    """
    others = nodes[..., _OTHERS[nodes.shape[-1]]]
    return np.multiply.reduce((at[..., None, None] - others) / (nodes[..., None] - others), axis=-1)


def grid_table(traj: Trajectory, name: str) -> np.ndarray:
    """``name`` on the grid at every snapshot, shape ``(n_snapshots, n)``."""
    table = np.empty((len(traj.snapshots), traj.grid.n))
    for k, snap in enumerate(traj.snapshots):
        table[k] = riccati.grid_quantity(snap, name)
    return table


class FieldSampler:
    """Space-time interpolator over a trajectory's snapshots.

    Each quantity has one table, its :func:`grid_table`, built on first use
    and kept for as long as the sampler lives.  Interpolation splits into a
    time part, :meth:`time_window`, which depends only on the times, and a
    space part, :meth:`interpolate`; :meth:`values` is the two in turn.
    """

    def __init__(self, traj: Trajectory):
        if len(traj.snapshots) < 2:
            raise ValueError("trajectory too sparse to interpolate (stride guard)")
        self.traj = traj
        self.times = traj.times
        self._tables: dict = {}

    def table(self, name: str) -> np.ndarray:
        """``name``'s grid values at every snapshot, shape ``(n_snapshots, n)``."""
        values = self._tables.get(name)
        if values is None:
            values = self._tables[name] = grid_table(self.traj, name)
        return values

    def time_window(self, ts) -> tuple:
        """The snapshots around each time and their Lagrange weights.

        Returns ``(ks, w)``, both of shape ``ts.shape + (n_w,)``: the indices
        of the ``n_w`` = 4 snapshots around each time (all of them when there
        are fewer) and each one's weight.
        """
        ts = np.asarray(ts, dtype=float)
        n_t = len(self.times)
        n_w = min(4, n_t)
        # window start: the snapshot two before t's interval, clamped to [0, n_t - n_w]
        j0 = self.times[2:n_t - n_w + 2].searchsorted(ts, side="right")
        ks = j0[..., None] + np.arange(n_w)
        return ks, _lagrange_weights(self.times[ks], ts)

    def interpolate(self, name: str, window: tuple, xs) -> np.ndarray:
        """``name`` at positions ``xs`` in a :meth:`time_window`.

        The window's time shape broadcasts against ``xs``; the result has
        the broadcast shape.  Each snapshot's value is the periodic 6-point
        Lagrange interpolant on grid nodes ``j-2 ... j+3`` of the point's
        cell ``j``.
        """
        ks, w = window
        grid = self.traj.grid
        s = (xs - grid.x0) / grid.h
        j = np.floor(s)
        nodes = (j[..., None] + _STENCIL).astype(np.intp) % grid.n
        f = self.table(name)[ks[..., :, None], nodes[..., None, :]]  # one gather: (..., n_w, 6)
        wx = _lagrange_weights(_STENCIL, s - j)
        # add.accumulate sums in index order whatever the shapes (np.sum may
        # pair terms), so a bundle's columns equal single seeds bit for bit
        at_snapshot = np.add.accumulate(wx[..., None, :] * f, axis=-1)[..., -1]
        return np.add.accumulate(w * at_snapshot, axis=-1)[..., -1]

    def values(self, name: str, ts, xs) -> np.ndarray:
        """``name`` at the (t, x) points of ``ts`` and ``xs``, which broadcast together.

        Each point combines its value in the 4 snapshots around its time
        (all of them when there are fewer) with Lagrange weights in time.
        """
        return self.interpolate(name, self.time_window(ts), xs)


def integrate_position(traj: Trajectory, x_start, t_nodes, sign) -> np.ndarray:
    """RK4 integration of dx/dt = sign*c through the trajectory's field.

    ``x_start`` is one start position or an array of them, advanced
    together, and ``sign`` is +1.0 or -1.0, or an array of them matching
    ``x_start``; the result has shape ``(len(t_nodes),) + np.shape(x_start)``.
    ``t_nodes`` may be ascending or descending (the latter walks the same
    characteristic backwards in time).  Returns unwrapped positions.

    The ``c`` table is built for this call only, and the time windows of
    all RK4 stages are found up front, so each stage does only the space
    part of the interpolation.
    """
    sampler = FieldSampler(traj)

    t_nodes = np.asarray(t_nodes, dtype=float)
    x = np.array(x_start, dtype=float)
    ta, tb = t_nodes[:-1], t_nodes[1:]
    # stage times (ta, ta + dt/2, tb) of every step, with trailing axes that
    # broadcast against x
    stage_t = np.stack((ta, ta + 0.5 * (tb - ta), tb), axis=1)
    ks, w = sampler.time_window(stage_t.reshape(stage_t.shape + (1,) * x.ndim))

    def wave_speed(i, stage, x):
        return sampler.interpolate("c", (ks[i, stage], w[i, stage]), x)

    xs = np.empty(t_nodes.shape + x.shape)
    xs[0] = x
    for i in range(len(t_nodes) - 1):
        dt = tb[i] - ta[i]
        k1 = sign * wave_speed(i, 0, x)
        k2 = sign * wave_speed(i, 1, x + 0.5 * dt * k1)
        k3 = sign * wave_speed(i, 1, x + 0.5 * dt * k2)
        k4 = sign * wave_speed(i, 2, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs[i + 1] = x
    return xs


def trace(traj: Trajectory, x_start, direction) -> CharacteristicCurve:
    """Trace characteristics from (t=0, x_start) to the trajectory's end.

    ``x_start`` is one seed, or an array of seeds traced as one bundle.
    ``direction`` is one direction for every seed, or a sequence with one
    direction per seed of a bundle.
    """
    per_seed = not isinstance(direction, str)
    directions = tuple(direction) if per_seed else (direction,)
    if not set(directions) <= _SIGN.keys():
        raise ValueError("direction must be 'forward' or 'backward'")
    if per_seed and np.shape(x_start) != (len(directions),):
        raise ValueError("a direction per seed needs one seed for each direction")
    sign = np.array([_SIGN[d] for d in directions]) if per_seed else _SIGN[direction]

    times = traj.times
    steps = np.linspace(times[:-1], times[1:], SUBSTEPS + 1, axis=1)[:, 1:]
    t_nodes = np.concatenate((times[:1], steps.ravel()))

    x_path = integrate_position(traj, x_start, t_nodes, sign)
    return CharacteristicCurve(directions if per_seed else direction, t_nodes,
                               traj.grid.wrap(x_path), x_path)


def sample_along(curve: CharacteristicCurve, traj: Trajectory, quantity: str) -> np.ndarray:
    """Interpolate a named derived field onto a curve's nodes (and keep it in ``curve.samples``).

    Every seed of a bundle is sampled in one call; the quantity's table is
    built for this call only.
    """
    t = curve.t.reshape(curve.t.shape + (1,) * (curve.x.ndim - 1))
    values = FieldSampler(traj).values(quantity, t, curve.x)
    curve.samples[quantity] = values
    return values


# --- along-curve differentiation -------------------------------------------


def _fd_weights(nodes: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """First-derivative weights at ``x0`` over arbitrary nodes (Fornberg).

    Batched: ``nodes`` has shape ``(m, n)``, one window of ``n`` nodes per
    row, and ``x0`` shape ``(m,)``; the result has the shape of ``nodes``.
    """
    nodes = nodes.T  # node axis first
    n = len(nodes)
    w0 = np.zeros(nodes.shape)
    w1 = np.zeros(nodes.shape)
    c1 = 1.0
    c4 = nodes[0] - x0
    w0[0] = 1.0
    for i in range(1, n):
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                w1[i] = c1 * (w0[i - 1] - c5 * w1[i - 1]) / c2
                w0[i] = -c1 * c5 * w0[i - 1] / c2
            w1[j] = (c4 * w1[j] - w0[j]) / c3
            w0[j] = c4 * w0[j] / c3
        c1 = c2
    return w1.T


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

    # node i's window t[j0:j0 + 5], centred where the curve allows
    j0 = np.clip(np.arange(n) - 2, 0, n - 5)
    win = j0[:, None] + np.arange(5)
    tw = t[win]
    dts = np.diff(tw, axis=1)
    h = dts[:, 0]
    uniform = (j0 == np.arange(n) - 2) & np.all(np.abs(dts - h[:, None]) <= 1e-12 * h[:, None], axis=1)
    w = np.empty((n, 5))
    w[uniform] = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    w[~uniform] = _fd_weights(tw[~uniform], t[~uniform])
    # a stack of 1x5 @ 5x1 products runs np.dot's routine per node, so each sum
    # equals that of a per-node np.dot bit for bit
    out = np.matmul(w[:, None, :], f[win][:, :, None])[:, 0, 0]
    out[uniform] /= h[uniform]
    return out
