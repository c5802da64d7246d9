"""Grids, entropy profiles, grid-sampled states, and assumption checking.

The spatial coordinate x is the Lagrangian (material) coordinate.  All
boundaries are periodic: node i sits at x0 + i*h with h = (x1-x0)/n and
x1 is identified with x0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

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


def read_samples(path) -> tuple[np.ndarray, np.ndarray]:
    """The ``(x, value)`` columns of a ``# profile`` file.

    The format: a first line starting ``# profile``, then one ``x,value``
    row per sample; blank lines and ``#`` comment lines are skipped.
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
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}: expected 'x,value' rows, got {line!r}")
        xs.append(float(parts[0]))
        vs.append(float(parts[1]))
    return np.array(xs), np.array(vs)


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
        self._grid_cache: dict = {}

    @classmethod
    def from_expression(cls, text: str, constants=None) -> "EntropyProfile":
        ast = parse_expression(text, constants)
        d1 = ast.diff()
        d2 = d1.diff()
        return cls(ast, d1, d2)

    @classmethod
    def from_samples(cls, x: np.ndarray, values: np.ndarray) -> "EntropyProfile":
        x = np.asarray(x, dtype=float)
        values = np.asarray(values, dtype=float)
        if x.ndim != 1 or x.shape != values.shape or x.size < 4:
            raise ValueError("sampled profile needs matching 1-D arrays, >= 4 points")
        if np.any(np.diff(x) <= 0.0):
            raise ValueError("sampled profile abscissae must be strictly increasing")
        if np.any(values <= 0.0):
            raise ValueError("entropy profile must be positive everywhere")
        from scipy.interpolate import CubicSpline  # only sampled inputs need scipy

        spline = CubicSpline(x, values)  # not-a-knot ends
        return cls(spline, spline.derivative(1), spline.derivative(2))

    @classmethod
    def from_file(cls, path) -> "EntropyProfile":
        """Load a ``# profile`` file (see :func:`read_samples`)."""
        return cls.from_samples(*read_samples(path))

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
        """Arrays (m, m_x, m_xx) on the grid nodes, cached per grid."""
        key = (grid.x0, grid.x1, grid.n)
        if key not in self._grid_cache:
            arrays = tuple(
                np.array(np.broadcast_to(np.asarray(f(grid.x), dtype=float), grid.x.shape))
                for f in (self.m, self.m_x, self.m_xx)
            )
            for a in arrays:
                a.flags.writeable = False
            self._grid_cache[key] = arrays
        return self._grid_cache[key]


@dataclass(eq=False)
class StateField:
    """Grid sample of (z, u) at one time instant, plus frozen profile and gas."""

    grid: Grid
    t: float
    z: np.ndarray
    u: np.ndarray
    profile: EntropyProfile
    gc: GasConstants

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
        return self.profile.on_grid(self.grid)

    def thermo(self):
        """(p, c) arrays on the grid."""
        m = self.m_arrays()[0]
        return eos.thermo(self.z, m, self.gc)


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

    m, _, _ = profile.on_grid(grid)
    if np.any(m <= 0.0) or not np.all(np.isfinite(m)):
        raise ValueError("entropy profile must be positive and finite on the grid")

    state = StateField(grid=grid, t=0.0, z=z, u=u, profile=profile, gc=gc)
    return state, profile


# --- finite differences --------------------------------------------------


def derivative(values, grid: Grid) -> np.ndarray:
    """First derivative by the 4th-order central difference on the periodic grid.

    The stencil is exact for polynomials of degree <= 4 (away from the
    periodic wrap) up to rounding.  ``values`` is differentiated along its
    last axis, which must match the grid, so a stack of fields such as
    ``(z, u)`` takes one call; each row equals the 1-D result bit for bit.
    The shifted neighbours are slices of one copy of ``values`` padded with
    two periodic ghost cells on each side.
    """
    f = np.asarray(values, dtype=float)
    if f.ndim == 0 or f.shape[-1] != grid.n:
        raise ValueError("values must match the grid size")
    padded = np.concatenate((f[..., -2:], f, f[..., :2]), axis=-1)
    fm2 = padded[..., :-4]
    fm1 = padded[..., 1:-3]
    fp1 = padded[..., 3:-1]
    fp2 = padded[..., 4:]
    # (-fp2 + 8 fp1 - 8 fm1 + fm2) / (12 h), summed in that order in place
    out = fp1 * 8.0
    out -= fp2
    out -= fm1 * 8.0
    out += fm2
    out /= 12.0 * grid.h
    return out


# --- a-priori bound checking ---------------------------------------------


@dataclass(frozen=True)
class AssumptionBounds:
    """User-supplied constants: Z_L < z < Z_U, M1 < m < M2, |m_x| < M3, |m_xx| < M4."""

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


@dataclass
class AssumptionReport:
    checks: list[BoundCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __iter__(self):
        return iter(self.checks)


def validate_assumptions(states, bounds: AssumptionBounds) -> AssumptionReport:
    """Compare observed extremes of z and the entropy profile against bounds.

    ``states`` is a sequence of StateFields, such as a trajectory's
    snapshots; the entropy profile is the first state's.  Violations are
    report entries, never errors; inputs are not mutated.
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

    report = AssumptionReport()
    report.checks.append(
        BoundCheck("z_lower", z_min, bounds.Z_L, z_min > bounds.Z_L, t=where_min[0], x=where_min[1])
    )
    report.checks.append(
        BoundCheck("z_upper", z_max, bounds.Z_U, z_max < bounds.Z_U, t=where_max[0], x=where_max[1])
    )
    report.checks.append(BoundCheck("m_lower", m_min, bounds.M1, m_min > bounds.M1))
    report.checks.append(BoundCheck("m_upper", m_max, bounds.M2, m_max < bounds.M2))
    report.checks.append(BoundCheck("m_x_abs", mx_max, bounds.M3, mx_max < bounds.M3))
    report.checks.append(BoundCheck("m_xx_abs", mxx_max, bounds.M4, mxx_max < bounds.M4))
    return report
