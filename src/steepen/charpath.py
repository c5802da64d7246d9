"""Characteristic tracing through a trajectory and sampling along the curves.

Forward curves integrate dx/dt = +c, backward curves dx/dt = -c, with RK4
in time (:data:`SUBSTEPS` steps per snapshot interval), moving a bundle of
seeds, each with its own direction, as one array.  :class:`FieldSampler`
is the one space-time interpolator (periodic 6-point Lagrange in space,
4-point Lagrange in snapshot time), for the wave speed while tracing and
for samples along curves.  It holds a sliding window of grid rows of the
quantities it was made for, at most 4 snapshots per quantity: a row is
computed when its snapshot enters the window and overwritten once it has
left, so its memory does not grow with the number of snapshots.  A trace
and a sample both walk the snapshots forward in time, so each call
computes each row once, and a sample of several quantities computes a
snapshot's rows of all of them with one :func:`riccati.diagnostics` call,
which computes only the fields those rows are made from.
:func:`sample_along` may instead take its rows from the caller's own pass
over the snapshots (the run computes each snapshot's fields once for
every output).  Derived quantities are always computed on the grid first
(see :mod:`steepen.riccati`) and only then interpolated onto curves.

Each call has one form: directions and quantity names are sequences, and
a bare string in their place is a ``ValueError``.
"""

from __future__ import annotations

import numpy as np

from steepen import riccati
from steepen.solver import Trajectory

SUBSTEPS = 4  # RK4 steps per snapshot interval when tracing
_CHUNK = 64  # RK4 steps whose stage time windows are found together
_SIGN = {"forward": 1.0, "backward": -1.0}  # dx/dt = sign * c

# grid nodes j-2 ... j+3 of a point in cell j: 6 points, error O(h^6).  With 4
# (O(h^4), the scheme's order) one_sided_profile's ode_y residual was 4.6 times
# larger; with 8 it was the same
_STENCIL = np.arange(-2.0, 4.0)

# row j of _OTHERS[n]: the nodes i != j of an n-node window, the factors
# of node j's Lagrange weight
_OTHERS = {n: np.array([[i for i in range(n) if i != j] for j in range(n)]) for n in (2, 3, 4, 6)}
# the space stencil's factors, as _lagrange_weights forms them: row j holds
# node j's five other nodes and their differences from it
_STENCIL_OTHERS = _STENCIL[_OTHERS[6]]
_STENCIL_GAPS = _STENCIL[:, None] - _STENCIL_OTHERS


class CharacteristicCurve:
    __slots__ = ("directions", "t", "x", "x_path", "samples")

    def __init__(self, directions: tuple, t: np.ndarray, x: np.ndarray, x_path: np.ndarray,
                 samples: dict | None = None):
        self.directions = directions  # forward | backward, one per seed
        self.t = t
        self.x = x  # wrapped into [x0, x1); a bundle has one column per seed
        self.x_path = x_path  # unwrapped, for continuity across the seam
        self.samples = {} if samples is None else samples
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("curve node times must be strictly increasing")

    def column(self, i: int) -> CharacteristicCurve:
        """Seed ``i`` of a bundle as one curve: a 1-tuple of directions, one value a node."""
        samples = {name: values[:, i] for name, values in self.samples.items()}
        return CharacteristicCurve(self.directions[i:i + 1], self.t, self.x[:, i], self.x_path[:, i], samples)


def _lagrange_weights(nodes: np.ndarray, at) -> np.ndarray:
    """Lagrange weights of the nodes along the last axis of ``nodes`` at ``at``.

    ``nodes`` has shape ``S + (n,)`` and the array ``at`` broadcasts
    against ``S``; the weights have the broadcast shape plus the node axis.  Node ``j``'s
    weight is the product, in node order, of ``(at - t_i) / (t_j - t_i)``
    over the nodes ``i != j``.
    """
    others = nodes[..., _OTHERS[nodes.shape[-1]]]
    return np.multiply.reduce((at[..., None, None] - others) / (nodes[..., None] - others), axis=-1)


class FieldSampler:
    """Space-time interpolator over a trajectory's snapshots, on a sliding window of grid rows.

    It holds the quantities of ``names``, a sequence fixed when it is
    made.  Interpolation splits into a time part, :meth:`time_window`,
    which depends only on the times, and a space part, :meth:`interpolate`,
    which gathers each point's values from the rows held; :meth:`hold`
    brings a window's rows in.  :meth:`sample` does all of it for fixed
    points in one pass forward through the snapshots.

    The held rows form one ``(quantities, width, n)`` array; snapshot
    ``k``'s rows sit in slot ``k % width``, ``width`` being the snapshots
    of one time window (4, or all of them when there are fewer), and one
    gather serves every quantity at once.  By default a snapshot's rows of
    every held quantity come from one :func:`riccati.diagnostics` call on
    it; ``rows``, if given, is an iterator over every snapshot's rows
    ``{name: row}`` in snapshot order, from which the sampler takes them
    instead (stepping over the snapshots no window uses).
    """

    def __init__(self, traj: Trajectory, names, rows=None):
        if len(traj.snapshots) < 2:
            raise ValueError("trajectory too sparse to interpolate (stride guard)")
        self.traj = traj
        self.names = riccati.sequence(names, "names")  # the quantities held, in table order
        self.times = traj.times
        self.width = min(4, len(self.times))
        self._source = rows
        self._next = 0  # the snapshot whose rows the source yields next
        self._table = np.empty((len(self.names), self.width, traj.grid.n))
        self._held = range(0)  # the snapshots whose rows the slots hold

    def _fetch(self, k: int) -> dict:
        if self._source is None:
            return riccati.diagnostics(self.traj.snapshots[k], self.names)
        if k < self._next:
            raise ValueError(f"the rows of snapshot {k} were already taken from the source")
        for _ in range(k - self._next):
            next(self._source)
        self._next = k + 1
        return next(self._source)

    def hold(self, lo: int, hi: int) -> None:
        """Hold the rows of snapshots ``lo`` ... ``hi`` (at most ``width`` of them).

        Rows held already stay; each other one is fetched into its
        snapshot's slot, over a row that has left the window.
        """
        if self._held.start <= lo and hi < self._held.stop:
            return
        for k in range(lo, hi + 1):
            if k not in self._held:
                rows = self._fetch(k)
                for i, name in enumerate(self.names):
                    self._table[i, k % self.width] = rows[name]
        self._held = range(lo, hi + 1)

    def time_window(self, ts) -> tuple:
        """The snapshots around each time, their slots and their Lagrange weights.

        Returns ``(starts, slots, w)``: ``starts``, of the shape of ``ts``,
        the first snapshot of each time's window, and ``slots`` and ``w``,
        of shape ``ts.shape + (n_w,)``, the slots ``k % width`` of the
        window's ``n_w`` = 4 snapshots ``k`` (all of them when there are
        fewer) and each one's weight.
        """
        ts = np.asarray(ts, dtype=float)
        starts = self._window_start(ts)
        ks = starts[..., None] + np.arange(self.width)
        return starts, ks % self.width, _lagrange_weights(self.times[ks], ts)

    def _window_start(self, ts) -> np.ndarray:
        """The first snapshot of each time's window: the snapshot two before
        its interval, clamped to ``[0, n_t - width]``."""
        n_t = len(self.times)
        return self.times[2:n_t - self.width + 2].searchsorted(ts, side="right")

    def interpolate(self, slots, w, xs) -> np.ndarray:
        """Every held quantity at positions ``xs``, in a time window of
        ``slots`` and weights ``w`` (from :meth:`time_window`) whose rows
        are held.

        The window's time shape broadcasts against ``xs``; the result has
        shape ``(quantities,)`` plus the broadcast shape.  Each snapshot's
        value is the periodic 6-point Lagrange interpolant on grid nodes
        ``j-2 ... j+3`` (mod ``n``) of the point's cell ``j``.
        """
        grid = self.traj.grid
        s = (xs - grid.x0) / grid.h
        j = np.floor(s)
        nodes = (j[..., None] + _STENCIL).astype(np.intp) % grid.n
        # one gather for all quantities: (quantities, ..., n_w, 6)
        f = self._table[:, slots[..., :, None], nodes[..., None, :]]
        # _lagrange_weights(_STENCIL, s - j), with the stencil's factors tabled
        wx = np.multiply.reduce(((s - j)[..., None, None] - _STENCIL_OTHERS) / _STENCIL_GAPS, axis=-1)
        # add.accumulate sums in index order whatever the shapes (np.sum may
        # pair terms), so a bundle's columns equal single seeds bit for bit
        at_snapshot = np.add.accumulate(wx[..., None, :] * f, axis=-1)[..., -1]
        return np.add.accumulate(w * at_snapshot, axis=-1)[..., -1]

    def sample(self, ts, xs) -> dict:
        """The held quantities at the (t, x) points of ``ts`` and ``xs``,
        which broadcast together.

        One pass forward through the snapshots, whatever the order of the
        points: the points whose time window starts at snapshot ``k`` are
        interpolated together once the window's rows are held, and their
        time weights are found then.  Returns ``{name: values}``, each of
        the broadcast shape.
        """
        ts, xs = np.broadcast_arrays(np.asarray(ts, dtype=float), np.asarray(xs, dtype=float))
        shape = ts.shape
        ts, xs = ts.ravel(), xs.ravel()
        starts = self._window_start(ts)
        order = np.argsort(starts, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(starts[order])) + 1) if order.size else []
        out = np.empty((len(self.names), ts.size))
        for group in groups:  # the weights of one group at a time
            k = int(starts[group[0]])
            self.hold(k, k + self.width - 1)
            _, slots, w = self.time_window(ts[group])
            out[:, group] = self.interpolate(slots, w, xs[group])
        return {name: values.reshape(shape) for name, values in zip(self.names, out)}


def integrate_position(traj: Trajectory, x_start, t_nodes, sign) -> np.ndarray:
    """RK4 integration of dx/dt = sign*c through the trajectory's field.

    ``x_start`` is one start position or an array of them, advanced
    together, and ``sign`` is +1.0 or -1.0, or an array of them matching
    ``x_start``; the result has shape ``(len(t_nodes),) + np.shape(x_start)``.
    ``t_nodes`` may be ascending or descending (the latter walks the same
    characteristic backwards in time).  Returns unwrapped positions.

    The time windows of the RK4 stages are found :data:`_CHUNK` steps at a
    time, so each stage does only the space part of the interpolation;
    the ``c`` rows of a stage's window are brought in before it, each
    once, as the windows slide with the nodes.
    """
    sampler = FieldSampler(traj, ("c",))

    t_nodes = np.asarray(t_nodes, dtype=float)
    x = np.array(x_start, dtype=float)
    ta, tb = t_nodes[:-1], t_nodes[1:]
    # stage times (ta, ta + dt/2, tb) of every step, with trailing axes that
    # broadcast against x
    stage_t = np.stack((ta, ta + 0.5 * (tb - ta), tb), axis=1)
    stage_t = stage_t.reshape(stage_t.shape + (1,) * x.ndim)

    def wave_speed(i, stage, x):
        # the windows of the chunk that step i is in, set by the loop below
        j = i % _CHUNK
        sampler.hold(starts[j][stage], starts[j][stage] + sampler.width - 1)
        return sampler.interpolate(slots[j, stage], w[j, stage], x)[0]

    xs = np.empty(t_nodes.shape + x.shape)
    xs[0] = x
    for i in range(len(t_nodes) - 1):
        if i % _CHUNK == 0:
            starts, slots, w = sampler.time_window(stage_t[i:i + _CHUNK])
            starts = starts.reshape(-1, 3).tolist()
        dt = tb[i] - ta[i]
        k1 = sign * wave_speed(i, 0, x)
        k2 = sign * wave_speed(i, 1, x + 0.5 * dt * k1)
        k3 = sign * wave_speed(i, 1, x + 0.5 * dt * k2)
        k4 = sign * wave_speed(i, 2, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs[i + 1] = x
    return xs


def trace(traj: Trajectory, seeds, directions) -> CharacteristicCurve:
    """Trace the characteristics from (t=0, ``seeds``) to the trajectory's end.

    ``seeds`` is a sequence of start positions, traced as one bundle, and
    ``directions`` holds each seed's direction; the curve's ``x`` has one
    column per seed (:meth:`CharacteristicCurve.column`).
    """
    directions = riccati.sequence(directions, "directions")
    if not set(directions) <= _SIGN.keys():
        raise ValueError("direction must be 'forward' or 'backward'")
    if np.shape(seeds) != (len(directions),):
        raise ValueError("a direction per seed needs one seed for each direction")
    sign = np.array([_SIGN[d] for d in directions])

    times = traj.times
    steps = np.linspace(times[:-1], times[1:], SUBSTEPS + 1, axis=1)[:, 1:]
    t_nodes = np.concatenate((times[:1], steps.ravel()))

    x_path = integrate_position(traj, seeds, t_nodes, sign)
    return CharacteristicCurve(directions, t_nodes, traj.grid.wrap(x_path), x_path)


def sample_along(curve: CharacteristicCurve, traj: Trajectory, names, rows=None) -> dict:
    """Interpolate named derived fields onto a curve's nodes (and keep them in ``curve.samples``).

    ``names`` is a sequence of names, any that :func:`riccati.diagnostics`
    resolves, sampled in one pass that computes each snapshot's grid rows
    of all of them with one call, and returned as ``{name: values}``.
    Every seed of a bundle is sampled in the same pass.  ``rows`` is a row
    source for :class:`FieldSampler`: an iterator over every snapshot's
    grid rows of these names, in snapshot order.
    """
    t = curve.t.reshape(curve.t.shape + (1,) * (curve.x.ndim - 1))
    samples = FieldSampler(traj, names, rows).sample(t, curve.x)
    curve.samples.update(samples)
    return samples
