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
q` = a0 + a2 q^2.  Each of these equations is one record in
:data:`RESIDUAL_KINDS`, the one definition of its right-hand side.  A
prime differentiates along a forward characteristic, f' = f_t + c f_x,
and a backprime along a backward one, f` = f_t - c f_x, so each equation
holds at every point, and :func:`residual` checks it at every grid node
of a state: f_t exactly along the solver's own rates, f_x by the stencil.

:func:`diagnostics` is the one way to reach a grid field: the state's
z, u and m arrays, p, c and the other diagnostics, by name, from one
table of formulas.  It computes only the fields asked for and those they
are made from, each once, and keeps no cache: a caller that needs a
state's fields more than once keeps the result, and a run computes each
stored snapshot's fields once, in one pass over the snapshots.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

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
    # m**(-G) and its second derivative, whose sign is the one-sided condition
    "mu_G": lambda f, s, ex: f("m") ** (-ex.G),
    "mu_G_xx": lambda f, s, ex: f("mu_G") * (
        ex.G * (ex.G + 1.0) * (f("m_x") / f("m")) ** 2 - ex.G * f("m_xx") / f("m")),
    "_gy": lambda f, s, ex: f("s_x") - ex.G * f("m_x") * f("z"),
    "_gq": lambda f, s, ex: f("r_x") + ex.G * f("m_x") * f("z"),
    "y": lambda f, s, ex: f("mu_bar") * f("_zE1") * f("_gy"),
    "q": lambda f, s, ex: f("mu_bar") * f("_zE1") * f("_gq"),
    "y_tilde": lambda f, s, ex: f("_zE1") * f("_gy"),
    "q_tilde": lambda f, s, ex: f("_zE1") * f("_gq"),
    "k1": lambda f, s, ex: s.gc.K_a2 * f("z") ** (-ex.E_tau),
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


def sequence(items, what: str) -> tuple:
    """``items`` as a tuple, never a bare string's letters."""
    if isinstance(items, str):
        raise ValueError(f"{what} must be a sequence, not the string {items!r}")
    return tuple(items)


def diagnostics(state: StateField, names) -> dict:
    """The grid fields of ``names`` of the state, ``{name: array}``.

    ``names`` is a sequence of names (a bare string is a ``ValueError``,
    not its letters).  A name is one of ``z u m m_x m_xx p c s r``
    (s = u + m z and r = u - m z) or a diagnostic: ``u_x z_x s_x r_x
    alpha beta y q y_tilde q_tilde k1 k2 a0 a2 a0_t a1_t a2_t mu_bar mu_G
    mu_G_xx`` (mu_G = m**(-G); mu_G_xx >= 0 is the one-sided condition).
    Only the named fields and those they are made from are computed, each
    once; the four gradients come from one stencil call.
    """
    names = sequence(names, "names")
    for name in names:
        if name.startswith("_") or name not in _FORMULAS:
            raise ValueError(f"unknown quantity {name!r}")
    # the memo lives in the partial alone, so the fields it holds are freed
    # with the call and not by the cyclic garbage collector
    field = functools.partial(_field, {}, state, state.gc.exponents)
    return {name: field(name) for name in names}


# --- phase-line classification -------------------------------------------


class PhaseRegime(NamedTuple):
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


# --- the Riccati identities on the grid ------------------------------------

class ResidualKind(NamedTuple):
    """One Riccati equation: it differentiates ``measured`` along curves of
    ``direction``, and ``rhs`` gives its right-hand side from a mapping that
    holds at least the ``sampled`` quantities' arrays."""

    direction: str
    measured: str
    sampled: tuple
    rhs: Callable


#: equation -> its record: the one definition of each right-hand side
RESIDUAL_KINDS = {
    "rem1": ResidualKind("forward", "alpha", ("alpha", "beta", "k1", "k2"), lambda s: s["k1"] * (
        s["k2"] * (3.0 * s["alpha"] + s["beta"]) + s["alpha"] * s["beta"] - s["alpha"] ** 2)),
    "rem2": ResidualKind("backward", "beta", ("alpha", "beta", "k1", "k2"), lambda s: s["k1"] * (
        -s["k2"] * (s["alpha"] + 3.0 * s["beta"]) + s["alpha"] * s["beta"] - s["beta"] ** 2)),
    "ode_y": ResidualKind("forward", "y", ("y", "a0", "a2"), lambda s: s["a0"] + s["a2"] * s["y"] ** 2),
    "ode_q": ResidualKind("backward", "q", ("q", "a0", "a2"), lambda s: s["a0"] + s["a2"] * s["q"] ** 2),
    "ode_ytilde": ResidualKind("forward", "y_tilde", ("y_tilde", "a0_t", "a1_t", "a2_t"), lambda s: (
        s["a0_t"] + s["a1_t"] * s["y_tilde"] + s["a2_t"] * s["y_tilde"] ** 2)),
    "ode_qtilde": ResidualKind("backward", "q_tilde", ("q_tilde", "a0_t", "a1_t", "a2_t"), lambda s: (
        s["a0_t"] - s["a1_t"] * s["q_tilde"] + s["a2_t"] * s["q_tilde"] ** 2)),
}

SIGN = {"forward": 1.0, "backward": -1.0}  # dx/dt = sign c, and d/dt along it is f_t + sign c f_x
#: measured field -> its factors by name, (P, L): f = P L, P = mu_bar z**E1, z**E1 or 1, L linear in (z, u)
_FACTORS = {"alpha": ((), "alpha"), "beta": ((), "beta"), "y": (("mu_bar", "_zE1"), "_gy"),
            "q": (("mu_bar", "_zE1"), "_gq"), "y_tilde": (("_zE1",), "_gy"), "q_tilde": (("_zE1",), "_gq")}


def residual_names(kinds) -> tuple:
    """The grid fields :func:`residual` reads: ``c`` and each kind's ``sampled`` ones, each once."""
    return tuple(dict.fromkeys(["c"] + [name for kind in kinds for name in RESIDUAL_KINDS[kind].sampled]))


def _tangent(state: StateField, names, rates, fields) -> dict:
    """``{name: field_t}`` of the measured ``names``, which ``fields`` holds,
    along ``rates = (z_t, u_t)``, exact by the product rule: m is frozen and
    ``L`` linear, so ``f = P L`` gives ``f_t = E1 (z_t / z) f + P L(z_t, u_t)``.
    Every ``L`` comes from one stencil call on the rates, which go to the
    formulas directly: :func:`diagnostics` sees only a run's snapshots."""
    ex = state.gc.exponents
    rate = ex.E1 * (rates[0] / state.z)  # z**E1's tangent over z**E1
    on_rates, base, out = {"z": rates[0], "u": rates[1]}, {}, {}
    for name in names:
        prefactor, linear = _FACTORS[name]
        out[name] = _field(on_rates, state, ex, linear)
        if prefactor:  # P L + rate f, added in place: one temporary fewer
            out[name] = functools.reduce(np.multiply, [_field(base, state, ex, f) for f in prefactor]) * out[name]
            out[name] += rate * fields[name]
    return out


def residual(state: StateField, kinds, rates, fields) -> dict:
    """The Riccati equations ``kinds`` at each grid node: ``{kind: (R, size)}``.

    For a kind's ``measured`` field ``f``, ``R = f_t + sign c f_x - rhs``
    and ``size = |f_t| + |c f_x| + |rhs|``.  ``rates`` is the state's
    ``(z_t, u_t)`` (:func:`steepen.solver.rates`) and ``fields`` its grid
    fields of :func:`residual_names`.  ``f_t`` is exact along the rates and
    ``f_x`` the stencil's, so ``R`` is the semi-discrete scheme's residual,
    4th order in the grid step and blind to the RK4 time error.
    """
    for kind in kinds:  # a bare string's letters are no kinds either
        if kind not in RESIDUAL_KINDS:
            raise ValueError(f"unknown residual kind {kind!r}")
    measured = [RESIDUAL_KINDS[kind].measured for kind in kinds]
    tangent = _tangent(state, measured, rates, fields)
    padded = np.empty((len(measured), state.grid.n + 4))
    padded[:, 2:-2] = [fields[name] for name in measured]
    fill_ghosts(padded)
    out = {}
    for kind, f_x in zip(kinds, derivative(padded, state.grid)):
        record = RESIDUAL_KINDS[kind]
        f_t, rhs = tangent[record.measured], record.rhs(fields)
        transport = SIGN[record.direction] * (fields["c"] * f_x)
        out[kind] = (f_t + transport - rhs, np.abs(f_t) + np.abs(transport) + np.abs(rhs))
    return out
