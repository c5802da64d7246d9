"""Finite-time blowup certificates and the measured blowup time.

A certificate is a machine-checked instance of a singularity-formation
hypothesis on the *initial* data: either a threshold violation of the
scaled diagnostics (min y, q < -N or min y~, q~ < -N~), or the
one-sided-profile criterion that additionally yields an explicit bound T*
on the blowup time.  Certificates are conditional on the user-supplied
a-priori bounds, which are checked a posteriori over the computed run by
:func:`steepen.fields.validate_assumptions`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from steepen import riccati
from steepen.eos import Exponents
from steepen.fields import AssumptionBounds, StateField
from steepen.solver import Trajectory

# --- thresholds -------------------------------------------------------------


class Thresholds(NamedTuple):
    N: float
    N_tilde: float
    A1: float
    A2: float


def thresholds(bounds: AssumptionBounds, gamma: float, epsilon: float) -> Thresholds:
    """Certificate thresholds N and N~ from the a-priori bound constants.

    Degenerates to N = N~ = 0 when M3 = M4 = 0 (constant entropy), which
    recovers the pure sign criterion of the two-variable theory.
    """
    if not gamma > 1.0:
        raise ValueError("gamma must exceed 1")
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    g = gamma
    ex = Exponents.of(g)
    one = 1.0 + epsilon

    base = 2.0 * (g - 1.0) ** 2 / (g * (g + 1.0) * (3.0 * g - 1.0))
    m_low_or_high = bounds.M1 if g <= 3.0 else bounds.M2
    N = (
        one
        * np.sqrt(base * bounds.M2 * bounds.M4)
        * bounds.Z_U ** (ex.E1 + 1.0)
        * m_low_or_high ** (-ex.E2)
    )

    A1 = (9.0 * g * g - 54.0 * g + 81.0) - (1.0 / one) * (24.0 * g * g + 32.0 * g + 8.0) / g
    A2 = (1.0 / one) * (24.0 * g * g + 16.0 * g - 8.0) / g
    N_tilde = (
        one
        * (g - 1.0)
        * (abs(9.0 - 3.0 * g) * bounds.M3 + np.sqrt(abs(A1) * bounds.M3**2 + abs(A2) * bounds.M2 * bounds.M4))
        / (2.0 * (3.0 * g - 1.0) * (g + 1.0))
        * bounds.Z_U ** (ex.E1 + 1.0)
    )
    return Thresholds(N=float(N), N_tilde=float(N_tilde), A1=float(A1), A2=float(A2))


# --- certificates -----------------------------------------------------------


class Certificate:
    __slots__ = ("kind", "threshold", "witness_x", "witness_value", "t_star_bound", "conditional")

    def __init__(self, kind: str, threshold: float | None = None, witness_x: float | None = None,
                 witness_value: float | None = None, t_star_bound: float | None = None, conditional: bool = True):
        self.kind = kind  # thm14_y | thm14_q | thm14_ytilde | thm14_qtilde | thm15_y | thm15_q | none
        self.threshold, self.witness_x, self.witness_value = threshold, witness_x, witness_value
        self.t_star_bound, self.conditional = t_star_bound, conditional


def certify_thm14(state0: StateField, bounds: AssumptionBounds, epsilon: float) -> Certificate:
    """Threshold certificate on initial data: strong enough compression blows up.

    Checks min y < -N, min q < -N, min y~ < -N~, min q~ < -N~ in that
    order and returns the first violation as a certificate (kind 'none'
    when all four minima clear their thresholds).
    """
    gamma = state0.gc.gamma
    th = thresholds(bounds, gamma, epsilon)
    d = riccati.diagnostics(state0, ("y", "q", "y_tilde", "q_tilde"))
    x = state0.grid.x
    for arr, kind, limit in (
        (d["y"], "thm14_y", th.N),
        (d["q"], "thm14_q", th.N),
        (d["y_tilde"], "thm14_ytilde", th.N_tilde),
        (d["q_tilde"], "thm14_qtilde", th.N_tilde),
    ):
        i = int(np.argmin(arr))
        if arr[i] < -limit:
            return Certificate(
                kind=kind,
                threshold=limit,
                witness_x=float(x[i]),
                witness_value=float(arr[i]),
                conditional=True,
            )
    return Certificate(kind="none", conditional=True)


def min_neg_a2(bounds: AssumptionBounds | None, gc) -> float:
    """Lower bound of -a2 from the a-priori constants (exact for gamma = 3)."""
    g = gc.gamma
    ex = gc.exponents
    lead = gc.K_a2
    if g == 3.0:
        return float(lead)
    if bounds is None:
        raise ValueError("Assumption-2 bounds are required unless gamma = 3")
    if g < 3.0:
        return float(lead * bounds.M1**ex.E2 * bounds.Z_L ** (ex.E1 - 1.0))
    return float(lead * bounds.M2**ex.E2 * bounds.Z_U ** (ex.E1 - 1.0))


def certify_thm15(
    state0: StateField,
    A: float,
    bounds: AssumptionBounds | None,
    variable: str = "y",
) -> Certificate:
    """One-sided-profile certificate with an explicit blowup-time bound.

    For ``variable='y'`` the profile condition, ``mu_G_xx >= 0`` (of
    :func:`riccati.diagnostics`, to within 1e-10 of ``max mu_G``), is
    checked on grid cells with x > A and the witness is the most negative
    y(0, x) there; the mirrored check (x < A, backward direction) applies
    to ``variable='q'``.  The
    bound is t* = -1 / (y0 * min(-a2)); for gamma = 3 no a-priori bounds
    are needed and the certificate is unconditional.
    """
    if variable not in ("y", "q"):
        raise ValueError("variable must be 'y' or 'q'")
    gamma = state0.gc.gamma
    grid = state0.grid
    d = riccati.diagnostics(state0, ("mu_G", "mu_G_xx", variable))
    delta_cond = 1e-10 * float(np.max(d["mu_G"]))

    region = grid.x > A if variable == "y" else grid.x < A
    none_cert = Certificate(kind="none", conditional=gamma != 3.0)
    if not np.any(region):
        return none_cert
    if float(np.min(d["mu_G_xx"][region])) < -delta_cond:
        return none_cert

    masked = np.where(region, d[variable], np.inf)
    i = int(np.argmin(masked))
    v0 = float(masked[i])
    if not v0 < 0.0:
        return none_cert

    t_star = -1.0 / (v0 * min_neg_a2(bounds, state0.gc))
    return Certificate(
        kind=f"thm15_{variable}",
        witness_x=float(grid.x[i]),
        witness_value=v0,
        t_star_bound=t_star,
        conditional=gamma != 3.0,
    )


# --- empirical blowup-time measurement --------------------------------------


class BlowupEstimate(NamedTuple):
    t_blow: float
    uncertainty: float


def gradient_peak(d: dict) -> float:
    """max(|y|, |q|) over the grid, from a state's fields ``d`` (see
    :func:`riccati.diagnostics`): the size whose growth :func:`detect_blowup`
    extrapolates."""
    return max(float(np.max(np.abs(d["y"]))), float(np.max(np.abs(d["q"]))))


def _fit_line(t: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """Least-squares ``(slope, intercept)`` of ``g`` against ``t``.

    The closed form on centred sums, so that no LAPACK routine is loaded
    for a straight line.
    """
    t_mean = t.mean()
    g_mean = g.mean()
    dt = t - t_mean
    slope = float((dt * (g - g_mean)).sum() / (dt * dt).sum())
    return slope, float(g_mean - slope * t_mean)


def detect_blowup(traj: Trajectory, peak: np.ndarray) -> BlowupEstimate | None:
    """Extrapolate the gradient-blowup time from the growth of |y|, |q|.

    Fits 1/max(|y|, |q|) against time over the last resolved stretch of the
    run and extrapolates its zero crossing; the reciprocal is asymptotically
    linear near the pole.  ``peak`` is the :func:`gradient_peak` of every
    snapshot, as a run's pass over its snapshots records it.  Returns None
    for runs that did not terminate in gradient blowup, and for blowup runs
    where the time cannot be estimated: fewer than 5 snapshots with a
    nonzero peak, or a fitted reciprocal that does not decay.
    """
    if traj.termination.kind != "gradient_blowup":
        return None

    good = peak > 0.0
    t = traj.times[good]
    g_recip = 1.0 / peak[good]
    if len(t) < 5:
        return None

    # late, still-resolved stretch: past the halfway decay of 1/peak but
    # clear of the saturated tail where the grid no longer tracks the peak
    g_end = g_recip[-1]
    sel = np.where((g_recip <= 0.6 * g_recip[0]) & (g_recip >= 2.0 * g_end))[0]
    if len(sel) < 5:
        sel = np.arange(len(t))[-max(5, len(t) // 2):]
    tw = t[sel]
    gw = g_recip[sel]

    slope, intercept = _fit_line(tw, gw)
    if slope >= 0.0:
        return None
    root_lin = -intercept / slope

    half = len(tw) // 2
    roots = []
    for sl in (slice(None, half), slice(half, None)):
        if len(tw[sl]) >= 3:
            b, a = _fit_line(tw[sl], gw[sl])
            if b < 0.0:
                roots.append(-a / b)
    spread = max(abs(r - root_lin) for r in roots) if roots else 0.0
    rms = float(np.sqrt(np.mean((slope * tw + intercept - gw) ** 2)))
    uncertainty = max(spread, 3.0 * rms / abs(slope))
    return BlowupEstimate(t_blow=float(root_lin), uncertainty=float(uncertainty))
