from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steepen import charpath, eos, fields, riccati, solver
from steepen.config import build_config, make_initial, parse_kv

from conftest import fd_tangent, ghost_padded, grid_residuals, make_gas, sampled_residual

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _state(expr_u, expr_m, expr_z, gamma=5.0 / 3.0, K=1.0 / 15.0, n=256, L=1.0):
    gc = make_gas(gamma, K)
    grid = fields.Grid(0.0, L, n)
    state, _ = fields.build_initial(expr_u, grid, gc, m0=expr_m, z0=expr_z)
    return state


def test_gradients_equal_one_derivative_call_per_field():
    # diagnostics differentiates (u, z, u + m z, u - m z) in one stacked call;
    # each gradient must be the one-field call's, bit for bit
    state = _state("0.3*sin(2*pi*x) + 0.1*cos(4*pi*x)", "1 + 0.25*cos(2*pi*x)", "1 + 0.2*sin(4*pi*x)")
    d = riccati.diagnostics(state, ("u_x", "z_x", "s_x", "r_x"))
    m = state.m_arrays()[0]
    u, z, grid = state.u, state.z, state.grid
    assert np.array_equal(d["u_x"], fields.derivative(ghost_padded(u), grid))
    assert np.array_equal(d["z_x"], fields.derivative(ghost_padded(z), grid))
    assert np.array_equal(d["s_x"], fields.derivative(ghost_padded(u + m * z), grid))
    assert np.array_equal(d["r_x"], fields.derivative(ghost_padded(u - m * z), grid))


def _reference_fields(state):
    """Every named field of ``state``, each by its own whole formula: the 18
    diagnostics as one function computed them all at once, before the
    fields were resolved by name, and the state's primitive fields."""
    gc = state.gc
    g = gc.gamma
    ex = riccati.Exponents.of(g)
    grid = state.grid
    z, u = state.z, state.u
    m, m_x, m_xx = state.m_arrays()
    u_x, z_x, s_x, r_x = fields.derivative(ghost_padded(np.stack([u, z, u + m * z, u - m * z])), grid)
    ent = ((g - 1.0) / g) * m_x * z
    zE1 = z**ex.E1
    mu_bar = m ** (-ex.E2)
    gy = s_x - ex.G * m_x * z
    gq = r_x + ex.G * m_x * z
    K_c = gc.K_c
    bracket = ((g - 1.0) / (3.0 * g - 1.0)) * m * m_xx - (
        (3.0 * g + 1.0) * (g - 1.0) / (3.0 * g - 1.0) ** 2
    ) * m_x**2
    z_a0 = z ** (3.0 * ex.E1 + 1.0)
    p, c = eos.thermo(z, m, gc)
    return {
        "z": z, "u": u, "m": m, "m_x": m_x, "m_xx": m_xx, "p": p, "c": c,
        "s": u + m * z, "r": u - m * z,
        "u_x": u_x, "z_x": z_x, "s_x": s_x, "r_x": r_x,
        "alpha": u_x + m * z_x + ent,
        "beta": u_x - m * z_x - ent,
        "y": mu_bar * zE1 * gy,
        "q": mu_bar * zE1 * gq,
        "y_tilde": zE1 * gy,
        "q_tilde": zE1 * gq,
        "k1": (g + 1.0) * K_c / (2.0 * (g - 1.0)) * z ** (2.0 / (g - 1.0)),
        "k2": (g - 1.0) / (g * (g + 1.0)) * z * m_x,
        "a0": (K_c / g) * mu_bar * bracket * z_a0,
        "a2": -K_c * (g + 1.0) / (2.0 * (g - 1.0)) * m**ex.E2 * z ** (ex.E1 - 1.0),
        "a0_t": (K_c / g) * bracket * z_a0,
        "a1_t": K_c * ex.E2 * m_x * z**ex.E_c,
        "a2_t": -K_c * (g + 1.0) / (2.0 * (g - 1.0)) * z ** (ex.E1 - 1.0),
        "mu_bar": mu_bar,
    }


@pytest.mark.parametrize("gamma, K", [(3.0, 1.0 / 3.0), (5.0 / 3.0, 1.0 / 15.0)])
@pytest.mark.parametrize("m0", ["1 + 0.25*cos(2*pi*x)", "1"])
def test_named_fields_are_exactly_their_formulas(gamma, K, m0):
    state = _state("0.3*sin(2*pi*x) + 0.1*cos(4*pi*x)", m0, "1 + 0.2*sin(4*pi*x)", gamma=gamma, K=K)
    ref = _reference_fields(state)
    everything = riccati.diagnostics(state, tuple(ref))
    assert list(everything) == list(ref)
    for names in (("y",), ("c",), ("m_x",), ("a0", "alpha"), ("q_tilde", "z", "k1", "p", "s", "r")):
        d = riccati.diagnostics(state, names)
        assert list(d) == list(names)
        for name in names:
            assert np.array_equal(d[name], ref[name]), name
    for name, value in everything.items():
        assert np.array_equal(value, ref[name]), name


@pytest.mark.parametrize("gamma", [1.2, 1.4, 5.0 / 3.0, 2.0, 2.5, 3.0])
def test_a2_coefficient_is_one_gas_constant(gamma):
    # K_a2 = K_c (gamma+1)/(2(gamma-1)) is built once; k1, a2 and a2_t that
    # read it equal their written-out formulas bit for bit
    state = _state("0.3*sin(2*pi*x)", "1 + 0.25*cos(2*pi*x)", "1 + 0.2*sin(4*pi*x)", gamma=gamma, K=0.5)
    gc = state.gc
    assert gc.K_a2 == gc.K_c * (gamma + 1.0) / (2.0 * (gamma - 1.0))
    ref = _reference_fields(state)
    d = riccati.diagnostics(state, ("k1", "a2", "a2_t"))
    for name, value in d.items():
        assert np.array_equal(value, ref[name]), name


def test_named_fields_differentiate_only_what_they_need(monkeypatch):
    state = _state("0.3*sin(2*pi*x)", "1 + 0.25*cos(2*pi*x)", "1 + 0.2*sin(4*pi*x)")
    calls = []
    real = riccati.derivative

    def counting(values, grid):
        calls.append(values.shape)
        return real(values, grid)

    monkeypatch.setattr(riccati, "derivative", counting)
    for names, count in ((("c",), 0), (("m_x",), 0), (("y", "q"), 1), (("alpha", "u_x", "a0", "r_x"), 1)):
        calls.clear()
        riccati.diagnostics(state, names)
        assert len(calls) == count, names
    assert calls == [(4, state.grid.n + 4)]  # the four gradients, one stacked call


def test_unknown_and_intermediate_names_are_refused():
    state = _state("0.3*sin(2*pi*x)", "1 + 0.25*cos(2*pi*x)", "1")
    for names in (("y", "w"), ("_grad",), ("alpha", "_ent"), ("Y",)):
        with pytest.raises(ValueError, match="unknown quantity"):
            riccati.diagnostics(state, names)
    # a bare string is not read as a sequence of one-letter names
    for names in ("c", "alpha"):
        with pytest.raises(ValueError, match="names must be a sequence, not the string"):
            riccati.diagnostics(state, names)


# --- alpha, beta --------------------------------------------------------------


def test_alpha_beta_zero_in_constant_state(gas3):
    grid = fields.Grid(0.0, 1.0, 64)
    state, _ = fields.build_initial(0.0, grid, gas3, m0=1.0, z0=1.5)
    d = riccati.diagnostics(state, ("alpha", "beta"))
    assert np.max(np.abs(d["alpha"])) <= 1e-13
    assert np.max(np.abs(d["beta"])) <= 1e-13


def test_alpha_beta_sum_is_two_ux():
    state = _state("0.3*sin(2*pi*x) + 0.1*cos(4*pi*x)", "1 + 0.25*cos(2*pi*x)", "1 + 0.2*sin(4*pi*x)")
    d = riccati.diagnostics(state, ("alpha", "beta", "u_x", "z_x"))
    scale = np.max(np.abs(d["alpha"])) + np.max(np.abs(d["beta"]))
    assert np.max(np.abs(d["alpha"] + d["beta"] - 2.0 * d["u_x"])) <= 1e-12 * scale
    m, m_x, _ = state.m_arrays()
    g = state.gc.gamma
    diff = d["alpha"] - d["beta"] - 2.0 * (m * d["z_x"] + (g - 1.0) / g * m_x * state.z)
    assert np.max(np.abs(diff)) <= 1e-12 * scale


def test_alpha_beta_vanish_on_stationary_solution():
    """u, p constant: the generalized gradients are pure discretization error."""
    g = 5.0 / 3.0
    gc = make_gas(g, 1.0 / 15.0)
    grid = fields.Grid(0.0, 20.0, 1024)
    m_expr = "1 + 0.3*tanh(sin(2*pi*(x - 10)/20))"
    z_expr = f"(1/(({m_expr})^2))^({(g - 1.0) / (2.0 * g)})"
    state, _ = fields.build_initial(0.0, grid, gc, m0=m_expr, z0=z_expr)
    d = riccati.diagnostics(state, ("alpha", "beta"))
    assert np.max(np.abs(d["alpha"])) <= 1e-9
    assert np.max(np.abs(d["beta"])) <= 1e-9


def test_isentropic_alpha_is_sx_beta_is_rx(gas3):
    grid = fields.Grid(0.0, 1.0, 128)
    state, _ = fields.build_initial("0.2*sin(2*pi*x)", grid, gas3, m0=1.0, z0="1 + 0.1*cos(2*pi*x)")
    d = riccati.diagnostics(state, ("alpha", "beta", "s_x", "r_x"))
    scale = max(np.max(np.abs(d["s_x"])), np.max(np.abs(d["r_x"])))
    assert np.max(np.abs(d["alpha"] - d["s_x"])) <= 1e-10 * scale
    assert np.max(np.abs(d["beta"] - d["r_x"])) <= 1e-10 * scale


def test_forward_simple_wave_has_no_beta(gas3):
    # isentropic forward simple wave: r = u - z is constant, s_x carries the wave
    grid = fields.Grid(0.0, 1.0, 128)
    state, _ = fields.build_initial("0.3*sin(2*pi*x)", grid, gas3, m0=1.0, z0="1.5 + 0.3*sin(2*pi*x)")
    d = riccati.diagnostics(state, ("alpha", "beta"))
    assert np.max(np.abs(d["beta"])) <= 1e-10
    assert np.max(np.abs(d["alpha"])) > 1.0


def _grid_primes(state, rates, names):
    """``{name: (f', f`)}``: each grid field's derivatives along forward
    and backward characteristics, ``f_t +- c f_x``, with ``f_t`` the
    difference tangent along the state's ``rates`` and ``f_x`` the stencil's."""
    d = riccati.diagnostics(state, names + ("c",))
    f_t = fd_tangent(state, names, rates)
    f_x = fields.derivative(ghost_padded(np.stack([d[name] for name in names])), state.grid)
    return {name: (f_t[name] + d["c"] * fx, f_t[name] - d["c"] * fx) for name, fx in zip(names, f_x)}


def test_alpha_beta_match_pressure_derivative_form(varying_traj):
    """Cross-check: alpha = -p`/c^2 and beta = -p'/c^2 on every snapshot's grid."""
    traj = varying_traj
    worst = 0.0
    for snap in traj.snapshots:
        rates = solver.rates(snap)
        p_fw, p_bw = _grid_primes(snap, rates, ("p",))["p"]
        d = riccati.diagnostics(snap, ("c", "alpha", "beta"))
        # beta from the forward (primed) derivative of p, alpha from the backward one
        worst = max(worst, float(np.max(np.abs(-p_fw / d["c"] ** 2 - d["beta"]))),
                    float(np.max(np.abs(-p_bw / d["c"] ** 2 - d["alpha"]))))
    assert worst <= 5e-4  # measured 5.3e-5: the stencil on p against the one on u and z


# --- y, q families -------------------------------------------------------------


def test_yq_gamma3_reduction(gas3):
    grid = fields.Grid(0.0, 1.0, 128)
    state, _ = fields.build_initial("0.2*sin(2*pi*x)", grid, gas3, m0=1.0, z0="1 + 0.1*cos(2*pi*x)")
    d = riccati.diagnostics(state, ("u_x", "z_x", "y", "q", "y_tilde"))
    y_ref = state.z * (d["u_x"] + d["z_x"])
    q_ref = state.z * (d["u_x"] - d["z_x"])
    assert np.allclose(d["y"], y_ref, rtol=0, atol=1e-13)
    assert np.allclose(d["q"], q_ref, rtol=0, atol=1e-13)
    assert np.allclose(d["y_tilde"], d["y"], rtol=0, atol=1e-13)  # mu_bar = 1 at gamma 3


def test_y_plus_q_identity_machine_precision():
    state = _state("0.3*sin(2*pi*x)", "1 + 0.25*cos(2*pi*x)", "1 + 0.2*sin(4*pi*x)")
    d = riccati.diagnostics(state, ("u_x", "y", "q"))
    g = state.gc.gamma
    ex = riccati.Exponents.of(g)
    m = state.m_arrays()[0]
    ref = 2.0 * m ** (-ex.E2) * d["u_x"] * state.z**ex.E1
    scale = np.max(np.abs(d["y"])) + np.max(np.abs(d["q"]))
    assert np.max(np.abs(d["y"] + d["q"] - ref)) <= 1e-12 * scale


def test_scaling_chain_identities_machine_precision():
    state = _state("0.3*sin(2*pi*x)", "1 + 0.25*cos(2*pi*x)", "1 + 0.2*sin(4*pi*x)")
    d = riccati.diagnostics(state, ("y", "q", "a0", "a2", "y_tilde", "q_tilde", "a0_t", "a2_t", "mu_bar"))
    for a, b in (
        (d["y"], d["mu_bar"] * d["y_tilde"]),
        (d["q"], d["mu_bar"] * d["q_tilde"]),
        (d["a0"], d["mu_bar"] * d["a0_t"]),
    ):
        scale = np.maximum(np.abs(a), 1e-30)
        assert np.max(np.abs(a - b) / scale) <= 1e-12
    assert np.max(np.abs(d["a2"] - d["a2_t"] / d["mu_bar"]) / np.abs(d["a2"])) <= 1e-12


def test_stationary_yq_pure_entropy_content():
    """Brute-force oracle: at constant p with u = 0,
    y = -q = mu_bar z^(E1+1) m_x (g-1)/(g(3g-1))."""
    g = 5.0 / 3.0
    gc = make_gas(g, 1.0 / 15.0)
    grid = fields.Grid(0.0, 20.0, 512)
    m_expr = "1 + 0.3*tanh(sin(2*pi*(x - 10)/20))"
    z_expr = f"(1/(({m_expr})^2))^({(g - 1.0) / (2.0 * g)})"
    state, _ = fields.build_initial(0.0, grid, gc, m0=m_expr, z0=z_expr)
    d = riccati.diagnostics(state, ("y", "q"))
    ex = riccati.Exponents.of(g)
    m, m_x, _ = state.m_arrays()
    oracle = m ** (-ex.E2) * state.z ** (ex.E1 + 1.0) * m_x * (g - 1.0) / (g * (3.0 * g - 1.0))
    tol = 5e-9 * max(1.0, float(np.max(np.abs(oracle))))
    assert np.max(np.abs(d["y"] - oracle)) <= tol
    assert np.max(np.abs(d["y"] + d["q"])) <= tol


# --- coefficients ---------------------------------------------------------------


def test_coefficients_constant_entropy_degeneration():
    state = _state("0.2*sin(2*pi*x)", "1", "1 + 0.1*sin(2*pi*x)", gamma=1.4, K=1.0)
    d = riccati.diagnostics(state, ("k2", "a0", "a1_t", "mu_bar", "a2"))
    assert np.all(d["k2"] == 0.0)
    assert np.all(d["a0"] == 0.0)
    assert np.all(d["a1_t"] == 0.0)
    assert np.ptp(d["mu_bar"]) == 0.0
    assert np.all(d["a2"] < 0.0)


def test_a2_is_minus_one_for_gamma3(gas3):
    grid = fields.Grid(0.0, 1.0, 64)
    state, _ = fields.build_initial(
        "0.1*sin(2*pi*x)", grid, gas3, m0="1 + 0.3*cos(2*pi*x)", z0="1 + 0.4*sin(2*pi*x)"
    )
    a2 = riccati.diagnostics(state, ("a2",))["a2"]
    assert np.max(np.abs(a2 + 1.0)) <= 1e-13


def test_a2_always_negative_random_states():
    rng = np.random.default_rng(5)
    for gamma in (1.2, 5.0 / 3.0, 3.0, 4.5):
        state = _state(
            "0.2*sin(2*pi*x)",
            f"1 + {rng.uniform(0.05, 0.4):.3f}*cos(2*pi*x)",
            f"1 + {rng.uniform(0.05, 0.4):.3f}*sin(2*pi*x)",
            gamma=gamma,
            K=rng.uniform(0.2, 2.0),
        )
        a2 = riccati.diagnostics(state, ("a2",))["a2"]
        assert np.all(a2 < 0.0)


def test_sign_a0_matches_profile_curvature():
    state = _state("0", "(1 + 0.3*cos(2*pi*x))^(-2)", "1")
    d = riccati.diagnostics(state, ("a0", "mu_G_xx"))
    mask = np.abs(d["a0"]) > 1e-10 * np.max(np.abs(d["a0"]))
    assert np.all(np.sign(d["a0"][mask]) == -np.sign(d["mu_G_xx"][mask]))


# --- phase classification --------------------------------------------------------


def test_phase_classify_lax_regime():
    regime = riccati.phase_classify(0.0, -1.0, -0.5)
    assert regime.roots == (0.0,)
    assert regime.region == "below"
    assert regime.monotonicity == "decreasing"


def test_phase_classify_between_roots_increasing():
    regime = riccati.phase_classify(1.0, -1.0, 0.5)
    assert regime.roots == pytest.approx((-1.0, 1.0))
    assert regime.region == "between"
    assert regime.monotonicity == "increasing"  # a0 + a2 v^2 = 0.75 > 0


def test_phase_classify_no_roots_always_decreasing():
    for v in (-2.0, 0.0, 3.0):
        regime = riccati.phase_classify(-1.0, -1.0, v)
        assert regime.roots is None
        assert regime.region == "none"
        assert regime.monotonicity == "decreasing"


def test_phase_classify_requires_negative_a2():
    with pytest.raises(ValueError):
        riccati.phase_classify(1.0, 0.0, 0.0)


# --- residuals --------------------------------------------------------------------


def test_residual_direction_mismatch(varying_traj):
    # each equation's transport term takes its own direction's sign: the
    # other sign leaves a residual as large as the equation
    snap = varying_traj.snapshots[-1]
    rates = solver.rates(snap)
    d = riccati.diagnostics(snap, riccati.residual_names(riccati.RESIDUAL_KINDS))
    res = riccati.residual(snap, ("rem1", "rem2"), rates, d)
    for kind, measured, sign in (("rem1", "alpha", 1.0), ("rem2", "beta", -1.0)):
        r, size = res[kind]
        assert r.shape == size.shape == (snap.grid.n,)
        transport = sign * (d["c"] * fields.derivative(ghost_padded(d[measured]), snap.grid))
        mismatched = r - 2.0 * transport
        assert np.max(np.abs(r)) <= 1e-4 * np.max(np.abs(mismatched)), kind
        assert np.max(np.abs(mismatched)) >= 0.1 * np.max(size), kind
    with pytest.raises(ValueError, match="unknown residual kind 'nonsense'"):
        riccati.residual(snap, ("rem1", "nonsense"), rates, d)
    with pytest.raises(ValueError, match="unknown residual kind 'r'"):  # a bare string's letters
        riccati.residual(snap, "rem1", rates, d)


def test_residuals_vanish_in_constant_state(constant_traj):
    for kind in riccati.RESIDUAL_KINDS:
        direction = riccati.RESIDUAL_KINDS[kind].direction
        curve = charpath.trace(constant_traj, [0.4], [direction]).column(0)
        res = sampled_residual(constant_traj, curve, kind)
        assert np.max(np.abs(res)) <= 1e-10, kind


def test_residuals_small_on_smooth_varying_run(varying_traj):
    for kind in riccati.RESIDUAL_KINDS:
        direction = riccati.RESIDUAL_KINDS[kind].direction
        curve = charpath.trace(varying_traj, [0.37], [direction]).column(0)
        res = sampled_residual(varying_traj, curve, kind)
        assert np.max(np.abs(res)) <= 0.05, kind


#: kind -> (measured quantity, right-hand side): each equation written out
#: here apart from RESIDUAL_KINDS, in the same operation order
_REFERENCE_EQUATIONS = {
    "rem1": ("alpha", lambda s: s["k1"] * (s["k2"] * (3.0 * s["alpha"] + s["beta"]) + s["alpha"] * s["beta"] - s["alpha"] ** 2)),
    "rem2": ("beta", lambda s: s["k1"] * (-s["k2"] * (s["alpha"] + 3.0 * s["beta"]) + s["alpha"] * s["beta"] - s["beta"] ** 2)),
    "ode_y": ("y", lambda s: s["a0"] + s["a2"] * s["y"] ** 2),
    "ode_q": ("q", lambda s: s["a0"] + s["a2"] * s["q"] ** 2),
    "ode_ytilde": ("y_tilde", lambda s: s["a0_t"] + s["a1_t"] * s["y_tilde"] + s["a2_t"] * s["y_tilde"] ** 2),
    "ode_qtilde": ("q_tilde", lambda s: s["a0_t"] - s["a1_t"] * s["q_tilde"] + s["a2_t"] * s["q_tilde"] ** 2),
}


@pytest.mark.parametrize("kind", list(riccati.RESIDUAL_KINDS))
def test_residual_equals_reference_equation_bit_for_bit(varying_traj, kind):
    # R = f_t + sign c f_x - rhs on every snapshot, from the same arrays
    measured, rhs = _REFERENCE_EQUATIONS[kind]
    sign = 1.0 if riccati.RESIDUAL_KINDS[kind].direction == "forward" else -1.0
    names = riccati.residual_names((kind,))
    for snap in varying_traj.snapshots:
        rates = solver.rates(snap)
        d = riccati.diagnostics(snap, names)
        r, size = riccati.residual(snap, (kind,), rates, d)[kind]
        f_t = riccati._tangent(snap, (measured,), rates, d)[measured]
        transport = sign * (d["c"] * fields.derivative(ghost_padded(d[measured]), snap.grid))
        assert np.array_equal(r, f_t + transport - rhs(d)), (kind, snap.t)
        assert np.array_equal(size, np.abs(f_t) + np.abs(transport) + np.abs(rhs(d))), (kind, snap.t)


MEASURED = tuple(dict.fromkeys(record.measured for record in riccati.RESIDUAL_KINDS.values()))


def _exact_against_difference(state):
    """The largest gap between the exact tangent of every measured field
    and the difference oracle's, relative to the oracle's ``max|f_t|``."""
    rates = solver.rates(state)
    exact = riccati._tangent(state, MEASURED, rates, riccati.diagnostics(state, MEASURED))
    oracle = fd_tangent(state, MEASURED, rates)
    return max(float(np.max(np.abs(exact[name] - oracle[name])) / np.max(np.abs(oracle[name])))
               for name in MEASURED)


def test_exact_tangent_matches_the_difference_on_a_run(varying_traj):
    # measured 4.2e-11 over the snapshots
    worst = max(_exact_against_difference(snap) for snap in varying_traj.snapshots)
    assert worst <= 1e-9, worst


@pytest.mark.parametrize("gamma, K", [(1.1, 1.0), (1.4, 100.0), (3.0, 1.0 / 3.0), (4.5, 1.0)])
def test_exact_tangent_matches_the_difference_at_t0(gamma, K):
    # one smooth state per gas; gamma = 1.1 has E1 = 10.5, where a 2-point difference
    # floors.  Measured 1.6e-10, 8.5e-11, 5.0e-11 and 4.3e-11
    state = _state("0.2*sin(2*pi*x + 0.7)", "1 + 0.2*cos(2*pi*x)", "1 + 0.15*sin(2*pi*x)", gamma, K)
    assert _exact_against_difference(state) <= 1e-9


def test_each_measured_field_is_its_prefactor_times_its_linear_factor(varying_traj):
    snap = varying_traj.snapshots[-1]
    ex = snap.gc.exponents
    assert set(riccati._FACTORS) == set(MEASURED)
    for name, (prefactor, linear) in riccati._FACTORS.items():
        memo = {}
        product = riccati._field(memo, snap, ex, linear)
        if prefactor:  # the tangent's E1 (z_t / z) f term is z**E1's, and m is frozen
            assert prefactor[-1] == "_zE1" and set(prefactor[:-1]) <= {"mu_bar"}
            p = riccati._field(memo, snap, ex, prefactor[0])
            for factor in prefactor[1:]:
                p = p * riccati._field(memo, snap, ex, factor)
            product = p * product
        assert np.array_equal(product, riccati._field({}, snap, ex, name)), name
    # alpha and beta are linear: their tangents are themselves on the rates
    rates = solver.rates(snap)
    tangent = riccati._tangent(snap, ("alpha", "beta"), rates, riccati.diagnostics(snap, ("alpha", "beta")))
    on_rates = {"z": rates[0], "u": rates[1]}
    for name in ("alpha", "beta"):
        assert np.array_equal(tangent[name], riccati._field(on_rates, snap, ex, name))


@pytest.mark.parametrize("kinds", [("ode_y",), ("rem1", "ode_q"), tuple(riccati.RESIDUAL_KINDS)],
                         ids=["one", "two", "all"])
def test_residual_makes_two_derivative_calls(varying_traj, monkeypatch, kinds):
    # one stencil call on the rates' linear factors and one for every f_x
    snap = varying_traj.snapshots[-1]
    rates, d = solver.rates(snap), riccati.diagnostics(snap, riccati.residual_names(kinds))
    calls = []

    def counted(values, grid):
        calls.append(np.shape(values))
        return fields.derivative(values, grid)

    monkeypatch.setattr(riccati, "derivative", counted)
    riccati.residual(snap, kinds, rates, d)
    assert len(calls) == 2, calls


class _OnlyNames(Mapping):
    """Arrays under ``names`` alone: records each name it is asked for and
    fails the test on any other."""

    def __init__(self, names):
        self.names, self.asked = tuple(names), set()

    def __getitem__(self, name):
        if name not in self.names:
            pytest.fail(f"right-hand side read {name!r}, which its record does not sample")
        self.asked.add(name)
        return np.linspace(0.5, 1.5, 7)

    def __iter__(self):
        return iter(self.names)

    def __len__(self):
        return len(self.names)


@pytest.mark.parametrize("kind", list(riccati.RESIDUAL_KINDS))
def test_rhs_reads_exactly_its_sampled_names(kind):
    record = riccati.RESIDUAL_KINDS[kind]
    assert record.measured in record.sampled
    samples = _OnlyNames(record.sampled)
    assert record.rhs(samples).shape == (7,)
    assert samples.asked == set(record.sampled)


def test_mu_bar_transport_identity(varying_traj):
    # mu_bar' = -a1_t mu_bar: m is frozen, so mu_bar' = c mu_bar_x
    worst = scale = 0.0
    for snap in varying_traj.snapshots:
        rates = solver.rates(snap)
        dmu = _grid_primes(snap, rates, ("mu_bar",))["mu_bar"][0]
        d = riccati.diagnostics(snap, ("a1_t", "mu_bar"))
        worst = max(worst, float(np.max(np.abs(dmu + d["a1_t"] * d["mu_bar"]))))
        scale = max(scale, float(np.max(np.abs(dmu))))
    assert worst <= 1e-6 * max(1.0, scale)


def test_beta_backprime_coupling_at_beta_zero():
    """Where beta vanishes, its backward derivative is the pure coupling
    term -k1 k2 alpha: forward and backward waves source each other."""
    gc = make_gas(5.0 / 3.0, 1.0 / 15.0)
    grid = fields.Grid(0.0, 1.0, 256)
    state, _ = fields.build_initial(
        "-0.35*sin(2*pi*x)", grid, gc, m0="1 + 0.2*cos(2*pi*x)", z0=1.0
    )
    traj = solver.evolve(
        state, solver.SolverConfig(cfl=0.4, t_end=0.3, snapshot_stride=5, gradient_cap=100.0)
    )
    offsets = np.arange(-1.0, 3.0)  # nodes i - 1 ... i + 2 about a crossing in cell i
    checked = 0
    for snap in traj.snapshots:
        rates = solver.rates(snap)
        d = riccati.diagnostics(snap, ("beta", "alpha", "k1", "k2"))
        d_beta = _grid_primes(snap, rates, ("beta",))["beta"][1]
        beta = d["beta"]
        for i in np.flatnonzero(beta * np.roll(beta, -1) < 0.0):
            # every field by its cubic through the four nodes, at the root of beta's
            nodes = np.arange(i - 1, i + 3) % grid.n
            [s] = [r.real for r in np.roots(np.polyfit(offsets, beta[nodes], 3))
                   if abs(r.imag) < 1e-12 and 0.0 <= r.real <= 1.0]

            def at_crossing(series):
                return np.polyval(np.polyfit(offsets, series[nodes], 3), s)

            rhs = -at_crossing(d["k1"]) * at_crossing(d["k2"]) * at_crossing(d["alpha"])
            if abs(rhs) > 0.05:  # the coupling term is genuinely active here
                assert at_crossing(d_beta) == pytest.approx(rhs, rel=1e-4)  # measured 1.1e-5
                checked += 1
    assert checked >= 10


def test_phase_monotonicity_agrees_with_measured_derivative(varying_traj):
    """Fig.-1 arrows vs the measured y' at random grid points of the snapshots."""
    rng = np.random.default_rng(17)
    checked = 0
    for snap in varying_traj.snapshots:
        rates = solver.rates(snap)
        dy = _grid_primes(snap, rates, ("y",))["y"][0]
        d = riccati.diagnostics(snap, ("y", "a0", "a2"))
        for i in rng.integers(0, snap.grid.n, size=4):
            slope = d["a0"][i] + d["a2"][i] * d["y"][i] ** 2
            if abs(slope) <= 10.0 * abs(dy[i] - slope):
                continue  # too close to equilibrium to call at this resolution
            regime = riccati.phase_classify(float(d["a0"][i]), float(d["a2"][i]), float(d["y"][i]))
            assert regime.monotonicity == ("increasing" if dy[i] > 0 else "decreasing")
            checked += 1
    assert checked >= 0.5 * 4 * len(varying_traj.snapshots)


def test_invariant_domain_on_determinacy_region(gas3):
    """y, q > 0 persists where both characteristic ancestries carry it.

    On a periodic domain y > 0 cannot hold globally (its x-integrand has
    zero mean in the isentropic case), so positivity is tracked on the
    shrinking domain of determinacy of the initially positive interval.
    """
    grid = fields.Grid(0.0, 1.0, 256)
    state, _ = fields.build_initial("0.25*sin(2*pi*x)", grid, gas3, m0=1.0, z0=1.0)
    d0 = riccati.diagnostics(state, ("y", "q"))
    pos0 = (d0["y"] > 0.0) & (d0["q"] > 0.0)
    # initially positive on a contiguous band around the u_x maximum at x=0
    lo, hi = -0.2, 0.2
    wrapped = np.minimum(grid.x, 1.0 - grid.x)  # distance from x = 0
    band = wrapped < 0.2
    assert np.all(pos0[band])

    traj = solver.evolve(state, solver.SolverConfig(cfl=0.4, t_end=0.12, snapshot_stride=5))
    c_max = max(float(np.max(riccati.diagnostics(s, ("c",))["c"])) for s in traj.snapshots)
    for snap in traj.snapshots:
        shrink = c_max * snap.t
        region = wrapped < 0.2 - shrink
        assert np.any(region)
        d = riccati.diagnostics(snap, ("y", "q"))
        assert float(np.min(d["y"][region])) > 0.0
        assert float(np.min(d["q"][region])) > 0.0


# --- the identities on the grid -----------------------------------------------------


@settings(max_examples=20, deadline=None, derandomize=True)
@given(gamma=st.floats(1.1, 4.5), a=st.floats(0.05, 0.3), b=st.floats(0.05, 0.3), c=st.floats(0.05, 0.3),
       phi=st.floats(0.0, 2.0 * np.pi))
def test_every_identity_holds_at_t0_to_fourth_order(gamma, a, b, c, phi):
    # the time derivative at t = 0 is the scheme's own, so no run is needed;
    # each kind's residual relative to the size of its terms falls 16-fold
    # per doubling of n.  Measured over 484 draws (the box's corners at six
    # phases, and random ones): ratios 15.6 to 16.0 with the exact tangent,
    # 15.3 to 16.4 with the 4-point difference.  A 2-point difference
    # tangent at h = 1e-4 min z / max|z_t| floored near 1e-7 at gamma = 1.1
    kinds = tuple(riccati.RESIDUAL_KINDS)
    rel = []
    for n in (128, 256, 512):
        grid = fields.Grid(0.0, 1.0, n)
        state, _ = fields.build_initial(f"{b!r}*sin(2*pi*x + {phi!r})", grid, make_gas(gamma, 1.0),
                                        m0=f"1 + {c!r}*cos(2*pi*x)", z0=f"1 + {a!r}*sin(2*pi*x)")
        [res] = grid_residuals([state], kinds)
        rel.append([np.max(np.abs(r)) / np.max(size) for r, size in res.values()])
    ratios = np.array(rel[:-1]) / np.array(rel[1:])
    assert np.all((ratios >= 14.0) & (ratios <= 18.0)), ratios


def test_lax_blowup_headline_does_not_depend_on_the_snapshot_stride():
    # the grid residual reads the scheme, not the snapshots between which a
    # curve's samples were interpolated: the stride-10 snapshots of
    # lax_blowup.cfg are every 10th of a stride-1 run's.  Measured 1.8758e-2
    # and 2.0576e-2 at (t, x) = (0.651, 0.676) and (0.653, 0.678)
    kv = parse_kv((CONFIGS / "lax_blowup.cfg").read_text())
    kv["solver.snapshot_stride"] = "1"
    cfg = build_config(kv, CONFIGS)
    traj = solver.evolve(make_initial(cfg)[0], cfg.solver)
    assert traj.termination.kind == "gradient_blowup"
    window = [s for s in traj.snapshots if s.t <= 0.8 * traj.termination.t_stop]
    peaks = np.array([np.max(np.abs(res["ode_y"][0])) for res in grid_residuals(window, ("ode_y",))])
    every, tenth = np.max(peaks), np.max(peaks[::10])
    assert abs(tenth - every) <= 0.1 * every, (tenth, every)
    assert every <= 0.05
