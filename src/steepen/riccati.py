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

:func:`diagnostics` is the one way to reach a grid field: the state's
z, u and m arrays, p, c and the other diagnostics, by name, from one
table of formulas.  It computes only the fields asked for and those they
are made from, each once, and keeps no cache: a caller that needs a
state's fields more than once keeps the result, and a run computes each
stored snapshot's fields once, in one pass over the snapshots.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from steepen import eos
from steepen.eos import Exponents
from steepen.fields import StateField, derivative, fill_ghosts


def _gradients(f, s, ex) -> np.ndarray:
    """u_x, z_x, s_x, r_x as the rows of one array."""
    # one stencil call on (u, z, u + m z, u - m z), built with its ghost cells
    # in place rather than stacked and then padded by a second copy
    rows = np.empty((4, s.grid.n + 4))
    nodes = rows[:, 2:-2]
    nodes[0] = f("u")
    nodes[1] = f("z")
    np.multiply(f("m"), f("z"), out=nodes[3])
    np.add(f("u"), nodes[3], out=nodes[2])
    np.subtract(f("u"), nodes[3], out=nodes[3])
    fill_ghosts(rows)
    return derivative(rows, s.grid)


#: name -> the formula of that grid field of state ``s``, in ``f``, which
#: gives the state's other fields by name, and ``ex``, its exponents.  The
#: names that start with ``_`` are intermediates that several fields share.
_FORMULAS = {
    "z": lambda f, s, ex: s.z,
    "u": lambda f, s, ex: s.u,
    "m": lambda f, s, ex: s.m_arrays()[0],
    "m_x": lambda f, s, ex: s.m_arrays()[1],
    "m_xx": lambda f, s, ex: s.m_arrays()[2],
    "_thermo": lambda f, s, ex: eos.thermo(f("z"), f("m"), s.gc),
    "p": lambda f, s, ex: f("_thermo")[0],
    "c": lambda f, s, ex: f("_thermo")[1],
    "s": lambda f, s, ex: f("u") + f("m") * f("z"),
    "r": lambda f, s, ex: f("u") - f("m") * f("z"),
    "_grad": _gradients,
    "u_x": lambda f, s, ex: f("_grad")[0],
    "z_x": lambda f, s, ex: f("_grad")[1],
    "s_x": lambda f, s, ex: f("_grad")[2],
    "r_x": lambda f, s, ex: f("_grad")[3],
    "_ent": lambda f, s, ex: ((ex.gamma - 1.0) / ex.gamma) * f("m_x") * f("z"),
    "alpha": lambda f, s, ex: f("u_x") + f("m") * f("z_x") + f("_ent"),
    "beta": lambda f, s, ex: f("u_x") - f("m") * f("z_x") - f("_ent"),
    "_zE1": lambda f, s, ex: f("z") ** ex.E1,
    "mu_bar": lambda f, s, ex: f("m") ** (-ex.E2),
    "_gy": lambda f, s, ex: f("s_x") - ex.G * f("m_x") * f("z"),
    "_gq": lambda f, s, ex: f("r_x") + ex.G * f("m_x") * f("z"),
    "y": lambda f, s, ex: f("mu_bar") * f("_zE1") * f("_gy"),
    "q": lambda f, s, ex: f("mu_bar") * f("_zE1") * f("_gq"),
    "y_tilde": lambda f, s, ex: f("_zE1") * f("_gy"),
    "q_tilde": lambda f, s, ex: f("_zE1") * f("_gq"),
    "k1": lambda f, s, ex: s.gc.K_a2 * f("z") ** (2.0 / (ex.gamma - 1.0)),
    "k2": lambda f, s, ex: (ex.gamma - 1.0) / (ex.gamma * (ex.gamma + 1.0)) * f("z") * f("m_x"),
    "_bracket": lambda f, s, ex: ((ex.gamma - 1.0) / (3.0 * ex.gamma - 1.0)) * f("m") * f("m_xx") - (
        (3.0 * ex.gamma + 1.0) * (ex.gamma - 1.0) / (3.0 * ex.gamma - 1.0) ** 2
    ) * f("m_x") ** 2,
    "_z_a0": lambda f, s, ex: f("z") ** (3.0 * ex.E1 + 1.0),
    "a0_t": lambda f, s, ex: (s.gc.K_c / ex.gamma) * f("_bracket") * f("_z_a0"),
    "a0": lambda f, s, ex: (s.gc.K_c / ex.gamma) * f("mu_bar") * f("_bracket") * f("_z_a0"),
    "a2_t": lambda f, s, ex: -s.gc.K_a2 * f("z") ** (ex.E1 - 1.0),
    "a2": lambda f, s, ex: -s.gc.K_a2 * f("m") ** ex.E2 * f("z") ** (ex.E1 - 1.0),
    "a1_t": lambda f, s, ex: s.gc.K_c * ex.E2 * f("m_x") * f("z") ** ex.E_c,
}


def _field(memo: dict, state: StateField, ex: Exponents, name: str) -> np.ndarray:
    """The grid field ``name`` of ``state``, computed once per ``memo``."""
    if name not in memo:
        memo[name] = _FORMULAS[name](functools.partial(_field, memo, state, ex), state, ex)
    return memo[name]


def diagnostics(state: StateField, names) -> dict:
    """The grid fields of ``names`` of the state, ``{name: array}``.

    A name is one of ``z u m m_x m_xx p c s r`` (s = u + m z and
    r = u - m z) or a diagnostic: ``u_x z_x s_x r_x alpha beta y q
    y_tilde q_tilde k1 k2 a0 a2 a0_t a1_t a2_t mu_bar``.  Only the named
    fields and those they are made from are computed, each once; the four
    gradients come from one stencil call.
    """
    for name in names:
        if name.startswith("_") or name not in _FORMULAS:
            raise ValueError(f"unknown quantity {name!r}")
    # the memo lives in the partial alone, so the fields it holds are freed
    # with the call and not by the cyclic garbage collector
    field = functools.partial(_field, {}, state, state.gc.exponents)
    return {name: field(name) for name in names}


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
