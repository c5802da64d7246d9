"""Grids, sampled ``file:`` inputs, grid-sampled states, and assumption checking.

The spatial coordinate x is the Lagrangian (material) coordinate.  All
boundaries are periodic: node i sits at x0 + i*h with h = (x1-x0)/n and
x1 is identified with x0.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from steepen import eos
from steepen.eos import GasConstants, VacuumError
from steepen.expressions import Num, parse_expression


class Grid:
    """Uniform periodic grid on [x0, x1) with n nodes, equal to another by ``(x0, x1, n)``."""

    __slots__ = ("x0", "x1", "n", "h", "x")

    def __init__(self, x0: float, x1: float, n: int):
        self.x0, self.x1, self.n = x0, x1, n
        if not (np.isfinite(self.x0) and np.isfinite(self.x1)):
            raise ValueError("grid ends x0, x1 must be finite")
        if not self.x1 > self.x0:
            raise ValueError("grid requires x1 > x0")
        if self.n < 16:
            raise ValueError("grid requires at least 16 cells")
        self.h = (self.x1 - self.x0) / self.n
        self.x = self.x0 + self.h * np.arange(self.n)
        self.x.flags.writeable = False

    def __eq__(self, other):
        return type(other) is Grid and (self.x0, self.x1, self.n) == (other.x0, other.x1, other.n)

    @property
    def length(self) -> float:
        return self.x1 - self.x0

    def wrap(self, x):
        """Normalize positions into [x0, x1)."""
        return self.x0 + np.mod(np.asarray(x, dtype=float) - self.x0, self.length)


def read_samples(path, positive: bool = False):
    """The checked ``(x, values)`` samples of a ``# profile`` file: the one
    reader of every ``file:`` input.

    The format: a first line starting ``# profile``, then one ``x,value``
    row of two numbers per sample; blank lines and ``#`` comment lines are
    skipped.  The file needs at least 4 finite samples at strictly
    increasing x and, with ``positive``, positive values; each error names
    the file.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or not lines[0].strip().startswith("# profile"):
        raise ValueError(f"{path}: missing '# profile' header line")
    xs, vs = [], []
    for line in lines[1:]:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            x, v = map(float, line.split(","))
        except ValueError:
            raise ValueError(f"{path}: expected 'x,value' rows, got {line!r}") from None
        xs.append(x)
        vs.append(v)
    x, values = np.array(xs), np.array(vs)
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: samples must be finite")
    if x.size < 4:
        raise ValueError(f"{path}: a sampled profile needs at least 4 samples, got {x.size}")
    if np.any(np.diff(x) <= 0.0):
        raise ValueError(f"{path}: sample x values must be strictly increasing")
    if positive and np.any(values <= 0.0):
        raise ValueError(f"{path}: sample values must be positive")
    return x, values


class StateField:
    """Grid sample of (z, u) at one time instant, plus frozen entropy and gas.

    ``entropy`` is the profile's read-only ``(m, m_x, m_xx)`` on the grid
    nodes, evaluated once when the initial state is built and shared by
    every state of its run.
    """

    __slots__ = ("grid", "t", "z", "u", "gc", "entropy")

    def __init__(self, grid: Grid, t: float, z: np.ndarray, u: np.ndarray, gc: GasConstants, entropy: tuple):
        self.grid = grid
        self.t = t
        # a state owns its arrays: np.array copies whatever it is given
        self.z = np.array(z, dtype=float)
        self.u = np.array(u, dtype=float)
        self.gc = gc
        self.entropy = entropy
        if self.z.shape != (self.grid.n,) or self.u.shape != (self.grid.n,):
            raise ValueError("state arrays must match the grid size")
        if not (np.all(np.isfinite(self.z)) and np.all(np.isfinite(self.u))):
            raise ValueError("state arrays must be finite")
        if np.any(self.z <= eos.Z_FLOOR):
            raise VacuumError(f"z at/below the vacuum floor {eos.Z_FLOOR:g}")
        self.z.flags.writeable = False
        self.u.flags.writeable = False

    def m_arrays(self):
        return self.entropy


def _as_function(f) -> Callable:
    """``f`` as a profile: an expression string is parsed and a number
    becomes the constant :class:`~steepen.expressions.Num`; a callable, such
    as a parsed expression or a spline, is used as it is."""
    if isinstance(f, str):
        return parse_expression(f)
    if isinstance(f, (int, float)):
        return Num(float(f))
    if callable(f):
        return f
    raise TypeError(f"cannot interpret {f!r} as a function of x")


def _on_grid(f, grid: Grid) -> np.ndarray:
    return np.broadcast_to(np.asarray(f(grid.x), dtype=float), grid.x.shape)


def build_initial(
    u0,
    grid: Grid,
    gc: GasConstants,
    m0=1.0,
    z0=None,
    tau0=None,
):
    """Sample initial data onto a grid.

    Exactly one of ``z0``/``tau0`` must be given; ``tau0`` is converted with
    the z transform.  Each input may be an expression string, a plain
    number or a callable of x; ``m0`` must also give its derivatives by
    ``m0.derivative(nu)``, as a parsed expression and a scipy spline do (a
    string or number is parsed or made a constant first).  Returns
    ``(state, m0)`` at t = 0, ``m0`` as a profile.
    """
    if (z0 is None) == (tau0 is None):
        raise ValueError("exactly one of z0 or tau0 is required")

    u = _on_grid(_as_function(u0), grid)
    if tau0 is not None:
        z = eos.z_of_tau(_on_grid(_as_function(tau0), grid), gc)
    else:
        z = _on_grid(_as_function(z0), grid)

    m0 = _as_function(m0)
    entropy = tuple(np.array(_on_grid(f, grid)) for f in (m0, m0.derivative(1), m0.derivative(2)))
    for a in entropy:
        a.flags.writeable = False
    m, m_x, m_xx = entropy
    if np.any(m <= 0.0) or not np.all(np.isfinite(m)):
        raise ValueError("entropy profile must be positive and finite on the grid")
    if not (np.all(np.isfinite(m_x)) and np.all(np.isfinite(m_xx))):
        raise ValueError("entropy profile derivatives m_x, m_xx must be finite on the grid")

    return StateField(grid=grid, t=0.0, z=z, u=u, gc=gc, entropy=entropy), m0


# --- finite differences --------------------------------------------------


def fill_ghosts(padded) -> None:
    """Make ``(..., n + 4)`` values periodic again, in place: ghost columns
    0, 1 take nodes n - 2, n - 1 and columns n + 2, n + 3 take nodes 0, 1
    (node i sits in column i + 2)."""
    padded[..., :2] = padded[..., -4:-2]
    padded[..., -2:] = padded[..., 2:4]


def ghost_views(padded):
    """``(ghosts, nodes)``: the columns :func:`fill_ghosts` writes and the
    ones it reads, as two ``(..., 2, 2)`` views of ``padded``, for a caller
    that refills the same buffer many times with one ``ghosts[...] = nodes``.

    Side 0 is ghost columns 0, 1 and nodes n - 2, n - 1; side 1 is ghost
    columns n + 2, n + 3 and nodes 0, 1.  The node side steps back by
    n - 2 columns, which no slice can, hence the strided views.
    """
    n = padded.shape[-1] - 4
    *row_strides, step = padded.strides
    shape = (*padded.shape[:-1], 2, 2)
    ghosts = as_strided(padded, shape, (*row_strides, (n + 2) * step, step))
    nodes = as_strided(padded[..., n:], shape, (*row_strides, (2 - n) * step, step))
    return ghosts, nodes


def _holds(buf, f) -> bool:
    """Whether ``buf`` can take the stencil's flat passes over ``f`` (float64) in place."""
    return buf.shape == f.shape and buf.dtype == f.dtype and buf.flags.c_contiguous


# the stencil's constant factor as a 0-d array, as is a stencil's 12 h:
# numpy converts a Python float operand anew on every call
_EIGHT = np.array(8.0)
_EIGHT.flags.writeable = False


class Stencil:
    """:func:`derivative` of fixed rows into fixed buffers, checked and sliced once.

    ``Stencil(values, grid, out=None, scratch=None)`` makes its checks,
    and the flat views of the stencil's five passes, when it is made; a
    call runs the five passes on what ``values`` holds then, writes the
    result into ``out`` and returns the view ``out[..., 2:n + 2]`` (the
    same view every call).  It holds views, not values: rewrite the bound
    rows in place and the next call differentiates the new values.  So
    ``values`` must be a C-contiguous float64 array of ghost-padded
    ``(..., n + 4)`` rows, never copied.  ``out`` and ``scratch``, the
    result and the stencil's ``8 f``, are C-contiguous float64 arrays of
    the padded shape, allocated here when not given; their other columns
    are overwritten.  Buffers that share memory are refused, since the
    passes would then read what they have already overwritten.  ``nbytes``
    is the bytes of the rows a call reads.
    """

    __slots__ = (
        "grid", "nbytes", "_flat", "_f8", "_f8_ahead", "_ahead", "_f8_behind",
        "_behind", "_body", "_twelve_h", "_result",
    )

    def __init__(self, values, grid: Grid, out=None, scratch=None):
        n = grid.n
        if np.shape(values)[-1:] != (n + 4,):
            raise ValueError(f"values must be ghost-padded rows of the grid size + 4 = {n + 4} columns")
        if not (isinstance(values, np.ndarray) and values.dtype == np.float64 and values.flags.c_contiguous):
            raise ValueError("values must be a C-contiguous float64 array: a stencil binds views of it")
        for name, buf in (("out", out), ("scratch", scratch)):
            if buf is not None and not _holds(buf, values):
                raise ValueError(f"{name} must be a C-contiguous float64 array of the padded shape")
        for name, buf, other, held in (("out", out, "values", values), ("scratch", scratch, "values", values),
                                       ("scratch", scratch, "out", out)):
            if buf is not None and held is not None and np.shares_memory(buf, held):
                raise ValueError(f"{name} shares memory with {other}: the stencil would read what it overwrote")
        if out is None:
            out = np.empty(values.shape)
        if scratch is None:
            scratch = np.empty(values.shape)
        self.grid = grid
        self.nbytes = values.nbytes
        # out[c] = (-f[c+2] + 8 f[c+1] - 8 f[c-1] + f[c-2]) / (12 h) at every
        # flat centre c, summed in that order in place from one product 8 f;
        # the centres whose stencil reaches into the next row are ghosts, and
        # are dropped
        self._flat = flat = values.reshape(-1)
        self._f8 = f8 = scratch.reshape(-1)
        self._f8_ahead, self._ahead = f8[3:-1], flat[4:]
        self._f8_behind, self._behind = f8[1:-3], flat[:-4]
        self._body = out.reshape(-1)[2:-2]
        self._twelve_h = np.array(12.0 * grid.h)
        self._result = out[..., 2:n + 2]

    def __call__(self) -> np.ndarray:
        body = self._body
        np.multiply(self._flat, _EIGHT, out=self._f8)
        np.subtract(self._f8_ahead, self._ahead, out=body)
        body -= self._f8_behind
        body += self._behind
        body /= self._twelve_h
        return self._result


def derivative(values, grid: Grid) -> np.ndarray:
    """First derivative by the 4th-order central difference on the periodic grid.

    The stencil is exact for polynomials of degree <= 4 (away from the
    periodic wrap) up to rounding.  ``values`` is differentiated along its
    last axis, so a stack of fields such as ``(z, u)`` takes one call; each
    row equals the 1-D result bit for bit.  The last axis holds ``n + 4``
    columns that carry two periodic ghost cells on each side (node i in
    column i + 2; see :func:`fill_ghosts`).  The result is a new
    ``(..., n)`` array.

    ``values`` may instead be a :class:`Stencil` bound on ``grid``: the
    call then runs it, with no check and no view made, and returns its
    view into the buffers it was bound to.  That is the one way to write
    into a caller's buffers, and how a caller that differentiates the same
    buffers many times pays for the checks once.
    """
    if isinstance(values, Stencil):
        if values.grid is not grid and values.grid != grid:
            raise ValueError("the Stencil was bound on another grid")
        return values()
    return Stencil(np.ascontiguousarray(values, dtype=float), grid)()


# --- a-priori bound checking ---------------------------------------------


class AssumptionBounds:
    """User-supplied constants: Z_L < z < Z_U, M1 < m < M2, |m_x| <= M3, |m_xx| <= M4.  Immutable."""

    __slots__ = ("Z_L", "Z_U", "M1", "M2", "M3", "M4")

    def __init__(self, Z_L: float, Z_U: float, M1: float, M2: float, M3: float, M4: float):
        for name, value in zip(self.__slots__, (Z_L, Z_U, M1, M2, M3, M4)):
            object.__setattr__(self, name, value)
        for name in ("Z_L", "Z_U", "M1", "M2", "M3", "M4"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (0.0 < self.Z_L < self.Z_U):
            raise ValueError("need 0 < Z_L < Z_U")
        if not (0.0 < self.M1 < self.M2):
            raise ValueError("need 0 < M1 < M2")
        if self.M3 < 0.0 or self.M4 < 0.0:
            raise ValueError("M3 and M4 must be nonnegative")

    def __setattr__(self, name, value=None):
        raise AttributeError(f"AssumptionBounds is immutable: cannot change {name!r}")

    __delattr__ = __setattr__


class BoundCheck:
    __slots__ = ("name", "observed", "bound", "passed", "t", "x")

    def __init__(self, name: str, observed: float, bound: float, passed: bool, t: float | None = None,
                 x: float | None = None):
        self.name, self.observed, self.bound, self.passed, self.t, self.x = name, observed, bound, passed, t, x


def validate_assumptions(states, bounds: AssumptionBounds) -> list[BoundCheck]:
    """Compare observed extremes of z and the entropy profile against bounds.

    ``states`` is a sequence of StateFields, such as a trajectory's
    snapshots; the entropy profile is the first state's.  Returns one
    :class:`BoundCheck` per bound: violations are failed checks, never
    errors; inputs are not mutated.  The derivative bounds hold with
    equality, so ``M3 = M4 = 0`` admits a constant profile.
    """
    if not states:
        raise ValueError("no states to check")

    z_min = np.inf
    z_max = -np.inf
    where_min = where_max = (None, None)
    for st in states:
        i_min = int(np.argmin(st.z))
        i_max = int(np.argmax(st.z))
        if st.z[i_min] < z_min:
            z_min = float(st.z[i_min])
            where_min = (st.t, float(st.grid.x[i_min]))
        if st.z[i_max] > z_max:
            z_max = float(st.z[i_max])
            where_max = (st.t, float(st.grid.x[i_max]))

    m, m_x, m_xx = states[0].m_arrays()
    m_min, m_max = float(np.min(m)), float(np.max(m))
    mx_max = float(np.max(np.abs(m_x)))
    mxx_max = float(np.max(np.abs(m_xx)))

    return [
        BoundCheck("z_lower", z_min, bounds.Z_L, z_min > bounds.Z_L, t=where_min[0], x=where_min[1]),
        BoundCheck("z_upper", z_max, bounds.Z_U, z_max < bounds.Z_U, t=where_max[0], x=where_max[1]),
        BoundCheck("m_lower", m_min, bounds.M1, m_min > bounds.M1),
        BoundCheck("m_upper", m_max, bounds.M2, m_max < bounds.M2),
        BoundCheck("m_x_abs", mx_max, bounds.M3, mx_max <= bounds.M3),
        BoundCheck("m_xx_abs", mxx_max, bounds.M4, mxx_max <= bounds.M4),
    ]
