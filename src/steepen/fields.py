"""Grids, entropy profiles, grid-sampled states, and assumption checking.

The spatial coordinate x is the Lagrangian (material) coordinate.  All
boundaries are periodic: node i sits at x0 + i*h with h = (x1-x0)/n and
x1 is identified with x0.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from steepen import eos
from steepen.eos import GasConstants, VacuumError
from steepen.expressions import parse_expression


@dataclass
class Grid:
    """Uniform periodic grid on [x0, x1) with n nodes."""

    x0: float
    x1: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.x0) and np.isfinite(self.x1)):
            raise ValueError("grid ends x0, x1 must be finite")
        if not self.x1 > self.x0:
            raise ValueError("grid requires x1 > x0")
        if self.n < 16:
            raise ValueError("grid requires at least 16 cells")
        self.h = (self.x1 - self.x0) / self.n
        self.x = self.x0 + self.h * np.arange(self.n)
        self.x.flags.writeable = False

    @property
    def length(self) -> float:
        return self.x1 - self.x0

    def wrap(self, x):
        """Normalize positions into [x0, x1)."""
        return self.x0 + np.mod(np.asarray(x, dtype=float) - self.x0, self.length)


def read_spline(path, positive: bool = False):
    """The not-a-knot cubic spline through the samples of a ``# profile``
    file: the one route of every ``file:`` input.

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
    from scipy.interpolate import CubicSpline  # only sampled inputs need scipy

    return CubicSpline(x, values)


class EntropyProfile:
    """Stationary entropy variable m(x) with first and second derivatives.

    Analytic profiles carry exact derivatives from the expression AST;
    sampled profiles use a not-a-knot cubic spline and its derivatives.
    The profile is frozen after construction (entropy is stationary in
    smooth solutions).
    """

    def __init__(self, m: Callable, m_x: Callable, m_xx: Callable):
        self.m = m
        self.m_x = m_x
        self.m_xx = m_xx

    @classmethod
    def from_expression(cls, text: str, constants=None) -> "EntropyProfile":
        ast = parse_expression(text, constants)
        d1 = ast.diff()
        d2 = d1.diff()
        return cls(ast, d1, d2)

    @classmethod
    def from_file(cls, path) -> "EntropyProfile":
        """Load a ``# profile`` file of positive samples (see :func:`read_spline`)."""
        spline = read_spline(path, positive=True)
        return cls(spline, spline.derivative(1), spline.derivative(2))

    @classmethod
    def constant(cls, value: float = 1.0) -> "EntropyProfile":
        if value <= 0.0:
            raise ValueError("entropy profile must be positive")

        def const(x, v=value):
            return np.full_like(np.asarray(x, dtype=float), v)

        def zero(x):
            return np.zeros_like(np.asarray(x, dtype=float))

        return cls(const, zero, zero)

    def on_grid(self, grid: Grid):
        """Read-only arrays (m, m_x, m_xx) on the grid nodes."""
        arrays = tuple(
            np.array(np.broadcast_to(np.asarray(f(grid.x), dtype=float), grid.x.shape))
            for f in (self.m, self.m_x, self.m_xx)
        )
        for a in arrays:
            a.flags.writeable = False
        return arrays


@dataclass(eq=False)
class StateField:
    """Grid sample of (z, u) at one time instant, plus frozen profile and gas.

    ``entropy`` is the profile's read-only ``(m, m_x, m_xx)`` on the grid
    nodes, evaluated once when the initial state is built and shared by
    every state of its run.
    """

    grid: Grid
    t: float
    z: np.ndarray
    u: np.ndarray
    profile: EntropyProfile
    gc: GasConstants
    entropy: tuple

    def __post_init__(self):
        # a state owns its arrays: np.array copies whatever it is given
        self.z = np.array(self.z, dtype=float)
        self.u = np.array(self.u, dtype=float)
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


def _as_function(f, constants=None) -> Callable:
    if isinstance(f, str):
        return parse_expression(f, constants)
    if isinstance(f, (int, float)):
        value = float(f)
        return lambda x: np.full_like(np.asarray(x, dtype=float), value)
    if callable(f):
        return f
    raise TypeError(f"cannot interpret {f!r} as a function of x")


def build_initial(
    u0,
    grid: Grid,
    gc: GasConstants,
    m0=None,
    z0=None,
    tau0=None,
    constants=None,
):
    """Sample initial data onto a grid.

    Exactly one of ``z0``/``tau0`` must be given; ``tau0`` is converted with
    the z transform.  ``u0`` and the chosen density function may be
    expression strings, plain numbers or callables; ``m0`` may be an
    expression string, a number or an :class:`EntropyProfile`.  Returns
    ``(state, profile)`` at t = 0.
    """
    if (z0 is None) == (tau0 is None):
        raise ValueError("exactly one of z0 or tau0 is required")

    if isinstance(m0, EntropyProfile):
        profile = m0
    elif isinstance(m0, str):
        profile = EntropyProfile.from_expression(m0, constants)
    elif m0 is None:
        profile = EntropyProfile.constant(1.0)
    elif isinstance(m0, (int, float)):
        profile = EntropyProfile.constant(float(m0))
    else:
        raise TypeError("m0 must be an expression, number, or EntropyProfile")

    x = grid.x
    u = np.broadcast_to(np.asarray(_as_function(u0, constants)(x), dtype=float), x.shape).copy()

    if tau0 is not None:
        tau = np.broadcast_to(np.asarray(_as_function(tau0, constants)(x), dtype=float), x.shape)
        if np.any(tau <= 0.0) or not np.all(np.isfinite(tau)):
            raise VacuumError("initial specific volume must be positive and finite")
        z = np.asarray(eos.z_of_tau(tau, gc), dtype=float)
    else:
        z = np.broadcast_to(np.asarray(_as_function(z0, constants)(x), dtype=float), x.shape).copy()

    if not np.all(np.isfinite(z)) or np.any(z <= eos.Z_FLOOR):
        raise VacuumError(f"initial z at/below the vacuum floor {eos.Z_FLOOR:g}")

    entropy = profile.on_grid(grid)
    m = entropy[0]
    if np.any(m <= 0.0) or not np.all(np.isfinite(m)):
        raise ValueError("entropy profile must be positive and finite on the grid")

    state = StateField(grid=grid, t=0.0, z=z, u=u, profile=profile, gc=gc, entropy=entropy)
    return state, profile


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
    """Whether ``buf`` can take ``derivative``'s flat passes over ``f`` (float64) in place."""
    return buf.shape == f.shape and buf.dtype == f.dtype and buf.flags.c_contiguous


def derivative(values, grid: Grid, out=None, scratch=None) -> np.ndarray:
    """First derivative by the 4th-order central difference on the periodic grid.

    The stencil is exact for polynomials of degree <= 4 (away from the
    periodic wrap) up to rounding.  ``values`` is differentiated along its
    last axis, so a stack of fields such as ``(z, u)`` takes one call; each
    row equals the 1-D result bit for bit.  The last axis holds either the
    ``n`` nodes, which are then padded by one copy, or ``n + 4`` columns
    that already carry two periodic ghost cells on each side (node i in
    column i + 2).  The result is ``(..., n)``.

    ``out`` and ``scratch``, if given, are C-contiguous float64 arrays of
    the padded shape ``(..., n + 4)`` that share no memory with ``values``
    or each other.  The result is written into ``out``'s node columns and
    returned as the view ``out[..., 2:n + 2]``; ``scratch`` takes the
    stencil's ``8 f``.  The other columns of both are overwritten.  On
    ghost-padded values with both given, the call allocates no array, and
    its result equals the allocating call's bit for bit.
    """
    n = grid.n
    f = np.asarray(values, dtype=float)
    width = f.shape[-1] if f.ndim else None
    if width == n:
        f = np.concatenate((f[..., -2:], f, f[..., :2]), axis=-1)
    elif width != n + 4:
        raise ValueError("values must match the grid size")
    if out is None:
        out = np.empty(f.shape)
    elif not _holds(out, f):
        raise ValueError("out must be a C-contiguous float64 array of the padded shape")
    if scratch is not None and not _holds(scratch, f):
        raise ValueError("scratch must be a C-contiguous float64 array of the padded shape")
    flat = f.ravel()
    # out[c] = (-f[c+2] + 8 f[c+1] - 8 f[c-1] + f[c-2]) / (12 h) at every flat
    # centre c, summed in that order in place from one product 8 f; the
    # centres whose stencil reaches into the next row are ghosts, and are
    # dropped
    f8 = np.multiply(flat, 8.0, out=None if scratch is None else scratch.ravel())
    body = out.ravel()[2:-2]
    np.subtract(f8[3:-1], flat[4:], out=body)
    body -= f8[1:-3]
    body += flat[:-4]
    body /= 12.0 * grid.h
    return out[..., 2:n + 2]


# --- a-priori bound checking ---------------------------------------------


@dataclass(frozen=True)
class AssumptionBounds:
    """User-supplied constants: Z_L < z < Z_U, M1 < m < M2, |m_x| <= M3, |m_xx| <= M4."""

    Z_L: float
    Z_U: float
    M1: float
    M2: float
    M3: float
    M4: float

    def __post_init__(self):
        for name in ("Z_L", "Z_U", "M1", "M2", "M3", "M4"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (0.0 < self.Z_L < self.Z_U):
            raise ValueError("need 0 < Z_L < Z_U")
        if not (0.0 < self.M1 < self.M2):
            raise ValueError("need 0 < M1 < M2")
        if self.M3 < 0.0 or self.M4 < 0.0:
            raise ValueError("M3 and M4 must be nonnegative")


@dataclass
class BoundCheck:
    name: str
    observed: float
    bound: float
    passed: bool
    t: float | None = None
    x: float | None = None


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
