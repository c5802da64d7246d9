"""Polytropic ideal-gas thermodynamics in the (z, m) coordinate frame.

The whole diagnostic machinery works in the rescaled variables

    z = (2*sqrt(K*gamma)/(gamma-1)) * tau**(-(gamma-1)/2)
    m = exp(S / (2*c_v))

in which specific volume, pressure and the Lagrangian sound speed become
pure power laws::

    tau = K_tau * z**(-2/(gamma-1))
    p   = K_p * m**2 * z**(2*gamma/(gamma-1))
    c   = K_c * m * z**((gamma+1)/(gamma-1))

The entropy profile is given directly as m(x), so c_v never enters; tau
appears only at ingestion (``initial.tau0``).  Everything else in the
package consumes (z, m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Positive floor for the metric-density variable z.  Values at or below the
#: floor count as vacuum, which the smooth-solution machinery excludes.
#: Every vacuum check reads it when it runs.
Z_FLOOR = 1e-10


class VacuumError(ValueError):
    """A state touched the vacuum guard (z or tau at/below the floor)."""


@dataclass(frozen=True)
class Exponents:
    """The gamma-dependent exponents of the power laws and the diagnostics."""

    gamma: float
    E1: float  # (gamma+1)/(2(gamma-1)), the z exponent of y, q
    E2: float  # 3(3-gamma)/(2(3gamma-1)), mu_bar = m**(-E2)
    G: float  # 2/(3gamma-1), the entropy-gradient coupling
    E_c: float  # (gamma+1)/(gamma-1), the z exponent of the wave speed
    E_tau: float  # -2/(gamma-1), the z exponent of tau
    E_p: float  # 2gamma/(gamma-1), the z exponent of p

    @classmethod
    def of(cls, gamma: float) -> "Exponents":
        return cls(
            gamma=gamma,
            E1=(gamma + 1.0) / (2.0 * (gamma - 1.0)),
            E2=3.0 * (3.0 - gamma) / (2.0 * (3.0 * gamma - 1.0)),
            G=2.0 / (3.0 * gamma - 1.0),
            E_c=(gamma + 1.0) / (gamma - 1.0),
            E_tau=-2.0 / (gamma - 1.0),
            E_p=2.0 * gamma / (gamma - 1.0),
        )


@dataclass(frozen=True)
class GasConstants:
    """Gas law parameters plus the derived power-law coefficients.

    K_tau, K_p, K_c, K_a2 and the exponents are fixed by (gamma, K); they
    always satisfy K_p = (gamma-1)/(2*gamma) * K_c.  K_a2 =
    K_c (gamma+1)/(2(gamma-1)) is the coefficient of the Riccati equations:
    a2 = -K_a2 m**E2 z**(E1-1).
    """

    gamma: float
    K: float
    K_tau: float
    K_p: float
    K_c: float
    K_a2: float
    exponents: Exponents


def make_constants(gamma: float, K: float) -> GasConstants:
    """Build a :class:`GasConstants` record, deriving K_tau, K_p, K_c, K_a2.

    Raises ValueError unless gamma > 1 and K > 0, both finite, and unless
    K_tau, K_p and K_c come out finite and positive (a gamma near 1 makes
    K_tau overflow).
    """
    if not 1.0 < gamma < np.inf:
        raise ValueError(f"adiabatic exponent must be finite and exceed 1, got gamma={gamma}")
    if not 0.0 < K < np.inf:
        raise ValueError(f"pressure-law constant must be finite and positive, got K={K}")
    with np.errstate(all="ignore"):
        K_tau = (2.0 * np.sqrt(K * gamma) / (gamma - 1.0)) ** (2.0 / (gamma - 1.0))
        K_p = K * K_tau ** (-gamma)
        K_c = np.sqrt(K * gamma) * K_tau ** (-(gamma + 1.0) / 2.0)
    if not all(0.0 < k < np.inf for k in (K_tau, K_p, K_c)):
        raise ValueError(
            f"gamma={gamma}, K={K} give gas constants out of floating-point range"
            f" (K_tau={K_tau:g}, K_p={K_p:g}, K_c={K_c:g})"
        )
    return GasConstants(
        gamma=gamma, K=K, K_tau=K_tau, K_p=K_p, K_c=K_c,
        K_a2=K_c * (gamma + 1.0) / (2.0 * (gamma - 1.0)), exponents=Exponents.of(gamma),
    )


def z_of_tau(tau, gc: GasConstants):
    """Metric-density variable z from specific volume tau (tau > 0)."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0.0) or not np.all(np.isfinite(tau)):
        raise VacuumError("specific volume must be positive and finite")
    g = gc.gamma
    z = (2.0 * np.sqrt(gc.K * g) / (g - 1.0)) * tau ** (-(g - 1.0) / 2.0)
    return z if z.ndim else float(z)


def thermo(z, m, gc: GasConstants):
    """Pressure and Lagrangian sound speed at (z, m).

    Returns the pair (p, c); both are strictly positive for valid inputs.
    """
    z = np.asarray(z, dtype=float)
    m = np.asarray(m, dtype=float)
    if np.any(z <= Z_FLOOR) or not np.all(np.isfinite(z)):
        raise VacuumError(f"z must exceed the vacuum floor {Z_FLOOR:g}")
    if np.any(m <= 0.0):
        raise ValueError("entropy variable m must be positive")
    ex = gc.exponents
    p = gc.K_p * m**2 * z**ex.E_p
    c = gc.K_c * m * z**ex.E_c
    if p.ndim:
        return p, c
    return float(p), float(c)
