"""Gradient diagnostics and the directional Riccati machinery.

All diagnostics are defined once, here, through the canonical grid formulas
in u_x, z_x, m_x, m_xx (the pressure-derivative forms are reserved for
cross-check tests).  With gamma > 1 and the shorthand

    E1 = (gamma+1)/(2(gamma-1))        z exponent of y, q
    E2 = 3(3-gamma)/(2(3gamma-1))      mu_bar = m**(-E2)
    G  = 2/(3gamma-1)                  entropy-gradient coupling

the diagnostics are::

    alpha = u_x + m z_x + ((gamma-1)/gamma) m_x z
    beta  = u_x - m z_x - ((gamma-1)/gamma) m_x z
    y     = m**(-E2) z**E1 ((u+mz)_x - G m_x z)
    q     = m**(-E2) z**E1 ((u-mz)_x + G m_x z)

with tilde variants lacking the m prefactor.  Smooth solutions satisfy
alpha' = k1(k2(3 alpha + beta) + alpha beta - alpha^2) together with its
backward mirror, and the decoupled forms y' = a0 + a2 y^2,
q` = a0 + a2 q^2; ``residual`` measures both numerically along traced
characteristics, from samples taken along them, by
:func:`directional_derivative`.

:func:`diagnostics` is the one way to reach these fields.  It computes
them and returns them, with no cache: a caller that needs a state's
fields more than once keeps the result, and a run computes each stored
snapshot's diagnostics once, in one pass over the snapshots.
:func:`grid_quantities` resolves several named fields of a state with
one call of :func:`diagnostics`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from steepen.fields import StateField, derivative, fill_ghosts


@dataclass(frozen=True)
class Exponents:
    """The gamma-dependent exponent pack shared by all diagnostics."""

    gamma: float
    E1: float
    E2: float
    G: float
    E_c: float  # (gamma+1)/(gamma-1), the z exponent of the wave speed

    @classmethod
    def of(cls, gamma: float) -> "Exponents":
        return cls(
            gamma=gamma,
            E1=(gamma + 1.0) / (2.0 * (gamma - 1.0)),
            E2=3.0 * (3.0 - gamma) / (2.0 * (3.0 * gamma - 1.0)),
            G=2.0 / (3.0 * gamma - 1.0),
            E_c=(gamma + 1.0) / (gamma - 1.0),
        )


@dataclass
class DiagnosticFields:
    u_x: np.ndarray
    z_x: np.ndarray
    s_x: np.ndarray
    r_x: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    y: np.ndarray
    q: np.ndarray
    y_tilde: np.ndarray
    q_tilde: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    a0: np.ndarray
    a2: np.ndarray
    a0_t: np.ndarray
    a1_t: np.ndarray
    a2_t: np.ndarray
    mu_bar: np.ndarray


def diagnostics(state: StateField) -> DiagnosticFields:
    """Every diagnostic field of the state, computed on the grid."""
    gc = state.gc
    g = gc.gamma
    ex = Exponents.of(g)
    grid = state.grid
    z = state.z
    u = state.u
    m, m_x, m_xx = state.m_arrays()

    # one stencil call on (u, z, u + m z, u - m z), built with its ghost cells
    # in place rather than stacked and then padded by a second copy
    rows = np.empty((4, grid.n + 4))
    nodes = rows[:, 2:-2]
    nodes[0] = u
    nodes[1] = z
    np.multiply(m, z, out=nodes[3])
    np.add(u, nodes[3], out=nodes[2])
    np.subtract(u, nodes[3], out=nodes[3])
    fill_ghosts(rows)
    u_x, z_x, s_x, r_x = derivative(rows, grid)

    ent = ((g - 1.0) / g) * m_x * z
    alpha = u_x + m * z_x + ent
    beta = u_x - m * z_x - ent

    zE1 = z**ex.E1
    mu_bar = m ** (-ex.E2)
    gy = s_x - ex.G * m_x * z
    gq = r_x + ex.G * m_x * z
    y = mu_bar * zE1 * gy
    q = mu_bar * zE1 * gq
    y_tilde = zE1 * gy
    q_tilde = zE1 * gq

    K_c = gc.K_c
    k1 = (g + 1.0) * K_c / (2.0 * (g - 1.0)) * z ** (2.0 / (g - 1.0))
    k2 = (g - 1.0) / (g * (g + 1.0)) * z * m_x

    bracket = ((g - 1.0) / (3.0 * g - 1.0)) * m * m_xx - (
        (3.0 * g + 1.0) * (g - 1.0) / (3.0 * g - 1.0) ** 2
    ) * m_x**2
    z_a0 = z ** (3.0 * ex.E1 + 1.0)
    a0_t = (K_c / g) * bracket * z_a0
    a0 = (K_c / g) * mu_bar * bracket * z_a0
    a2_t = -K_c * (g + 1.0) / (2.0 * (g - 1.0)) * z ** (ex.E1 - 1.0)
    a2 = -K_c * (g + 1.0) / (2.0 * (g - 1.0)) * m**ex.E2 * z ** (ex.E1 - 1.0)
    a1_t = K_c * ex.E2 * m_x * z**ex.E_c

    return DiagnosticFields(
        u_x=u_x, z_x=z_x, s_x=s_x, r_x=r_x,
        alpha=alpha, beta=beta,
        y=y, q=q, y_tilde=y_tilde, q_tilde=q_tilde,
        k1=k1, k2=k2,
        a0=a0, a2=a2, a0_t=a0_t, a1_t=a1_t, a2_t=a2_t,
        mu_bar=mu_bar,
    )


#: names resolvable by :func:`grid_quantities` beyond the raw state arrays
_DIAG_NAMES = tuple(f.name for f in dataclasses.fields(DiagnosticFields))


def grid_quantities(state: StateField, names, diag: DiagnosticFields | None = None) -> dict:
    """Named primitive or derived fields evaluated on the grid, ``{name: array}``.

    The state's diagnostics are computed at most once, for all the names
    that need them, and not at all when ``diag`` gives them.
    """
    out = {}
    for name in names:
        if name in ("z", "u"):
            out[name] = state.z if name == "z" else state.u
        elif name in ("m", "m_x", "m_xx"):
            out[name] = state.m_arrays()[("m", "m_x", "m_xx").index(name)]
        elif name in ("p", "c"):
            p, c = state.thermo()
            out[name] = p if name == "p" else c
        elif name in ("s", "r"):
            m = state.m_arrays()[0]
            out[name] = state.u + m * state.z if name == "s" else state.u - m * state.z
        elif name in _DIAG_NAMES:
            if diag is None:
                diag = diagnostics(state)
            out[name] = getattr(diag, name)
        else:
            raise ValueError(f"unknown quantity {name!r}")
    return out


# --- phase-line classification -------------------------------------------


@dataclass(frozen=True)
class PhaseRegime:
    roots: tuple | None  # None, (0.0,), or (-r, +r)
    region: str  # below | between | above | none
    monotonicity: str  # increasing | decreasing | stationary


def phase_classify(a0: float, a2: float, v: float) -> PhaseRegime:
    """Where v sits on the phase line of v' = a0 + a2 v^2 (a2 < 0 required)."""
    if not a2 < 0.0:
        raise ValueError("a2 must be negative")
    slope = a0 + a2 * v * v
    mono = "increasing" if slope > 0.0 else ("decreasing" if slope < 0.0 else "stationary")
    if a0 < 0.0:
        return PhaseRegime(None, "none", mono)
    if a0 == 0.0:
        region = "below" if v < 0.0 else ("above" if v > 0.0 else "between")
        return PhaseRegime((0.0,), region, mono)
    r = float(np.sqrt(-a0 / a2))
    region = "below" if v < -r else ("above" if v > r else "between")
    return PhaseRegime((-r, r), region, mono)


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


def directional_derivative(curve, quantity: str) -> np.ndarray:
    """d/dt of an along-curve sample series (5-point, 4th order).

    ``curve`` is a :class:`steepen.charpath.CharacteristicCurve` with
    ``quantity`` sampled on it.

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


# --- residual verification along characteristics ---------------------------

#: equation -> (needed direction, measured quantity, quantities on the RHS)
RESIDUAL_KINDS = {
    "rem1": ("forward", "alpha", ("alpha", "beta", "k1", "k2")),
    "rem2": ("backward", "beta", ("alpha", "beta", "k1", "k2")),
    "ode_y": ("forward", "y", ("y", "a0", "a2")),
    "ode_q": ("backward", "q", ("q", "a0", "a2")),
    "ode_ytilde": ("forward", "y_tilde", ("y_tilde", "a0_t", "a1_t", "a2_t")),
    "ode_qtilde": ("backward", "q_tilde", ("q_tilde", "a0_t", "a1_t", "a2_t")),
}


def residual(curve, which: str) -> np.ndarray:
    """(measured directional derivative) - (equation right-hand side).

    ``curve`` carries the samples of every quantity the equation names in
    :data:`RESIDUAL_KINDS` (see :func:`steepen.charpath.sample_along`).
    The curve direction must match the equation's derivative direction:
    forward curves for the primed equations, backward for the back-primed.
    """
    if which not in RESIDUAL_KINDS:
        raise ValueError(f"unknown residual kind {which!r}")
    direction, measured, needed = RESIDUAL_KINDS[which]
    if curve.direction != direction:
        raise ValueError(
            f"{which} needs a {direction} curve, got a {curve.direction} one"
        )
    missing = [name for name in needed if name not in curve.samples]
    if missing:
        raise ValueError(f"{which} needs {', '.join(missing)} sampled on the curve")
    s = curve.samples

    lhs = directional_derivative(curve, measured)
    if which == "rem1":
        rhs = s["k1"] * (s["k2"] * (3.0 * s["alpha"] + s["beta"]) + s["alpha"] * s["beta"] - s["alpha"] ** 2)
    elif which == "rem2":
        rhs = s["k1"] * (-s["k2"] * (s["alpha"] + 3.0 * s["beta"]) + s["alpha"] * s["beta"] - s["beta"] ** 2)
    elif which == "ode_y":
        rhs = s["a0"] + s["a2"] * s["y"] ** 2
    elif which == "ode_q":
        rhs = s["a0"] + s["a2"] * s["q"] ** 2
    elif which == "ode_ytilde":
        rhs = s["a0_t"] + s["a1_t"] * s["y_tilde"] + s["a2_t"] * s["y_tilde"] ** 2
    else:  # ode_qtilde
        rhs = s["a0_t"] - s["a1_t"] * s["q_tilde"] + s["a2_t"] * s["q_tilde"] ** 2
    return lhs - rhs
