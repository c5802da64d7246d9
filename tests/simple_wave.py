"""The exact forward simple wave of the lab's equations, a true error norm.

With constant ``m = 1`` and ``u0 = z0``, ``r = u - m z`` is 0 everywhere,
and ``z`` is carried unchanged along the straight forward characteristics
``x = xi + c(z0(xi)) t``, ``c = K_c z**E_c`` (Lax, J. Math. Phys. 5 (1964)
611): ``z(x, t) = z0(xi)`` and ``u = z`` until the first blowup at
``t* = 1 / max(-K_c E_c z0**(E_c - 1) z0')``.  ``configs/simple_wave.cfg``
is this wave at gamma = 1.4, with ``z0 = 1 + AMP sin(2 pi x)``.
"""

import numpy as np

from steepen import eos

AMP = 0.2


def gas(gamma: float) -> eos.GasConstants:
    """The gas at ``gamma`` with ``K = (gamma-1)**2/(4 gamma)``, so ``K_tau = 1``."""
    return eos.make_constants(gamma, (gamma - 1.0) ** 2 / (4.0 * gamma))


def _speed(gc: eos.GasConstants, xi):
    """``c(z0(xi))`` and its derivative in ``xi``."""
    z0 = 1.0 + AMP * np.sin(2.0 * np.pi * xi)
    dz0 = 2.0 * np.pi * AMP * np.cos(2.0 * np.pi * xi)
    e = gc.exponents.E_c
    return gc.K_c * z0**e, gc.K_c * e * z0 ** (e - 1.0) * dz0


def t_star(gc: eos.GasConstants) -> float:
    """The first blowup time, ``1 / max(-dc/dxi)``, from grids refined about
    the maximum."""
    xi = np.linspace(0.0, 1.0, 1025)
    for _ in range(4):
        rate = -_speed(gc, xi)[1]
        k = int(np.argmax(rate))
        h = xi[1] - xi[0]
        xi = np.linspace(xi[k] - h, xi[k] + h, 1025)
    return 1.0 / float(np.max(-_speed(gc, xi)[1]))


def _foot(gc: eos.GasConstants, x, t: float) -> np.ndarray:
    """The foot ``xi`` of the line through ``(x, t)``: ``xi + c(z0(xi)) t = x``
    solved by Newton per point (``t < t*``, where that map is increasing)."""
    xi = x - _speed(gc, x)[0] * t
    for _ in range(50):
        c, dc = _speed(gc, xi)
        step = (xi + c * t - x) / (1.0 + dc * t)
        xi = xi - step
        if np.max(np.abs(step)) < 1e-15:
            break
    return xi


def z_exact(gc: eos.GasConstants, x, t: float) -> np.ndarray:
    """``z(x, t) = z0(xi)``."""
    return 1.0 + AMP * np.sin(2.0 * np.pi * _foot(gc, x, t))


def y_exact(gc: eos.GasConstants, x, t: float) -> np.ndarray:
    """The paper's ``y`` at ``(x, t)``: ``y0 / (1 - a2 y0 t)`` along the line
    from ``xi``, where ``a0 = 0`` and ``a2 = -K_a2 z0**(E1 - 1)`` stay
    constant, and ``y0 = z0**E1 (u + m z)_x = z0**E1 2 z0'`` (``m = 1``)."""
    xi = _foot(gc, x, t)
    z0 = 1.0 + AMP * np.sin(2.0 * np.pi * xi)
    e1 = gc.exponents.E1
    y0 = z0**e1 * 2.0 * (2.0 * np.pi * AMP * np.cos(2.0 * np.pi * xi))
    a2 = -gc.K_a2 * z0 ** (e1 - 1.0)
    return y0 / (1.0 - a2 * y0 * t)
