import numpy as np
import pytest
from hypothesis import given, strategies as st

from steepen import eos

from conftest import make_gas


def test_gamma3_constants_are_unity(gas3):
    assert gas3.K_tau == pytest.approx(1.0, rel=1e-14)
    assert gas3.K_p == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert gas3.K_c == pytest.approx(1.0, rel=1e-14)


def test_kp_kc_relation_random_samples():
    rng = np.random.default_rng(7)
    for _ in range(50):
        gamma = rng.uniform(1.05, 5.0)  # gamma in (1, 5]
        K = rng.uniform(0.05, 5.0)
        gc = make_gas(gamma, K)
        assert gc.K_p / gc.K_c == pytest.approx((gamma - 1.0) / (2.0 * gamma), rel=1e-12)


@given(
    gamma=st.floats(1.1, 5.0, allow_nan=False),
    K=st.floats(0.01, 10.0, allow_nan=False),
)
def test_kp_kc_relation_property(gamma, K):
    gc = make_gas(gamma, K)
    assert gc.K_p == pytest.approx((gamma - 1.0) / (2.0 * gamma) * gc.K_c, rel=1e-12)


@pytest.mark.parametrize("bad", [
    dict(gamma=1.0, K=1.0),
    dict(gamma=0.9, K=1.0),
    dict(gamma=1.4, K=0.0),
    dict(gamma=1.4, K=-2.0),
    dict(gamma=1.4, K=float("nan")),
])
def test_make_constants_domain_errors(bad):
    with pytest.raises(ValueError):
        eos.make_constants(**bad)


def test_z_of_tau_example(gas3):
    # gamma=3, K=1/3: prefactor 1, exponent -1, so z = 1/tau
    assert eos.z_of_tau(2.0, gas3) == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
def test_z_tau_round_trip(tau):
    gc = make_gas(1.4, 2.0)
    z = eos.z_of_tau(tau, gc)
    assert gc.K_tau * z ** (-2.0 / (gc.gamma - 1.0)) == pytest.approx(tau, rel=1e-12)


def test_z_decreases_to_zero_with_tau(gas3):
    taus = np.logspace(-1, 6, 30)
    z = eos.z_of_tau(taus, gas3)
    assert np.all(np.diff(z) < 0.0)
    assert z[-1] < 1e-5
    assert np.all(z > 0.0)


def test_z_of_tau_vacuum_guard(gas3):
    with pytest.raises(eos.VacuumError):
        eos.z_of_tau(0.0, gas3)
    with pytest.raises(eos.VacuumError):
        eos.z_of_tau(-1.0, gas3)


def test_thermo_example(gas3):
    p, c = eos.thermo(2.0, 1.0, gas3)
    assert p == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert c == pytest.approx(4.0, rel=1e-14)


@pytest.mark.parametrize("gamma,K", [(1.4, 1.0), (2.0, 0.5), (3.0, 1.0 / 3.0)])
def test_thermo_unit_arguments(gamma, K):
    gc = make_gas(gamma, K)
    p, c = eos.thermo(1.0, 1.0, gc)
    assert p == pytest.approx(gc.K_p, rel=1e-14)
    assert c == pytest.approx(gc.K_c, rel=1e-14)


def test_thermo_monotone_in_z_and_m():
    gc = make_gas(1.7, 0.8)
    z = np.linspace(0.5, 3.0, 40)
    p, c = eos.thermo(z, 1.3, gc)
    assert np.all(np.diff(p) > 0.0) and np.all(np.diff(c) > 0.0)
    m = np.linspace(0.5, 3.0, 40)
    p, c = eos.thermo(1.2, m, gc)
    assert np.all(np.diff(p) > 0.0) and np.all(np.diff(c) > 0.0)


def test_thermo_domain_errors(gas3):
    with pytest.raises(eos.VacuumError):
        eos.thermo(0.0, 1.0, gas3)
    with pytest.raises(ValueError):
        eos.thermo(1.0, -1.0, gas3)


def _pressure_tau_S(tau, S, gc, c_v):
    """The original (tau, S) law p = K e^(S/c_v) tau^(-gamma)."""
    return gc.K * np.exp(S / c_v) * tau ** (-gc.gamma)


def test_transform_consistency_tau_S_vs_z_m():
    # pressure through the original (tau, S) law vs the z-form power law,
    # with m = exp(S / (2 c_v))
    gc = make_gas(1.4, 1.0)
    c_v = 0.9
    rng = np.random.default_rng(11)
    taus = rng.uniform(0.2, 5.0, 40)
    Ss = rng.uniform(-1.0, 1.0, 40)
    p_direct = _pressure_tau_S(taus, Ss, gc, c_v)
    z = eos.z_of_tau(taus, gc)
    m = np.exp(Ss / (2.0 * c_v))
    p_zm, _ = eos.thermo(z, m, gc)
    assert np.max(np.abs(p_zm / p_direct - 1.0)) <= 1e-10


def test_sound_speed_squared_equals_minus_p_tau():
    gc = make_gas(1.66, 1.3)
    c_v = 1.1
    for tau in (0.3, 1.0, 4.0):
        for S in (-0.5, 0.0, 0.8):
            step = 1e-6 * tau
            dp = (_pressure_tau_S(tau + step, S, gc, c_v) - _pressure_tau_S(tau - step, S, gc, c_v)) / (2.0 * step)
            z = eos.z_of_tau(tau, gc)
            m = np.exp(S / (2.0 * c_v))
            _, c = eos.thermo(z, m, gc)
            assert c**2 == pytest.approx(-dp, rel=1e-6)
