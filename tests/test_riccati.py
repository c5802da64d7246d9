import numpy as np
import pytest

from steepen import charpath, detector, eos, fields, riccati, solver

from conftest import make_gas, sampled_residual


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
    assert np.array_equal(d["u_x"], fields.derivative(u, grid))
    assert np.array_equal(d["z_x"], fields.derivative(z, grid))
    assert np.array_equal(d["s_x"], fields.derivative(u + m * z, grid))
    assert np.array_equal(d["r_x"], fields.derivative(u - m * z, grid))


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
    u_x, z_x, s_x, r_x = fields.derivative(np.stack([u, z, u + m * z, u - m * z]), grid)
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


def test_alpha_beta_match_pressure_derivative_form(varying_traj):
    """Cross-check: alpha = -p`/c^2 and beta = -p'/c^2 measured along curves."""
    traj = varying_traj
    worst = 0.0
    for seed in (0.3, 0.7):
        fw = charpath.trace(traj, seed, "forward")
        bw = charpath.trace(traj, seed, "backward")
        for c in (fw, bw):
            for name in ("p", "c", "alpha", "beta"):
                charpath.sample_along(c, traj, name)
        # beta from the forward (primed) derivative of p
        dp_f = riccati.directional_derivative(fw, "p")
        beta_ref = -dp_f / fw.samples["c"] ** 2
        worst = max(worst, float(np.max(np.abs(beta_ref - fw.samples["beta"]))))
        # alpha from the backward derivative of p
        dp_b = riccati.directional_derivative(bw, "p")
        alpha_ref = -dp_b / bw.samples["c"] ** 2
        worst = max(worst, float(np.max(np.abs(alpha_ref - bw.samples["alpha"]))))
    assert worst <= 5e-3  # two interpolations compound; grid formulas are canonical


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
    d = riccati.diagnostics(state, ("a0",))
    w_xx = detector.profile_condition_curvature(state.m_arrays(), state.gc.gamma)
    mask = np.abs(d["a0"]) > 1e-10 * np.max(np.abs(d["a0"]))
    assert np.all(np.sign(d["a0"][mask]) == -np.sign(w_xx[mask]))


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
    fw = charpath.trace(varying_traj, 0.2, "forward")
    with pytest.raises(ValueError):
        riccati.residual(fw, "rem2")
    with pytest.raises(ValueError):
        riccati.residual(fw, "nonsense")


def test_residuals_vanish_in_constant_state(constant_traj):
    for kind in riccati.RESIDUAL_KINDS:
        direction = riccati.RESIDUAL_KINDS[kind][0]
        curve = charpath.trace(constant_traj, 0.4, direction)
        res = sampled_residual(constant_traj, curve, kind)
        assert np.max(np.abs(res)) <= 1e-10, kind


def test_residuals_small_on_smooth_varying_run(varying_traj):
    for kind in riccati.RESIDUAL_KINDS:
        direction = riccati.RESIDUAL_KINDS[kind][0]
        curve = charpath.trace(varying_traj, 0.37, direction)
        res = sampled_residual(varying_traj, curve, kind)
        assert np.max(np.abs(res)) <= 0.05, kind


def test_mu_bar_transport_identity(varying_traj):
    curve = charpath.trace(varying_traj, 0.3, "forward")
    for name in ("mu_bar", "a1_t"):
        charpath.sample_along(curve, varying_traj, name)
    dmu = riccati.directional_derivative(curve, "mu_bar")
    err = np.max(np.abs(dmu + curve.samples["a1_t"] * curve.samples["mu_bar"]))
    assert err <= 1e-6 * max(1.0, float(np.max(np.abs(dmu))))


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
    curve = charpath.trace(traj, 0.215, "backward")
    beta = charpath.sample_along(curve, traj, "beta")
    for name in ("alpha", "k1", "k2"):
        charpath.sample_along(curve, traj, name)
    d_beta = riccati.directional_derivative(curve, "beta")
    crossings = np.where(beta[:-1] * beta[1:] < 0.0)[0]
    assert crossings.size >= 1
    i = crossings[0]
    frac = beta[i] / (beta[i] - beta[i + 1])

    def at_crossing(series):
        return series[i] * (1.0 - frac) + series[i + 1] * frac

    lhs = at_crossing(d_beta)
    rhs = -at_crossing(curve.samples["k1"]) * at_crossing(curve.samples["k2"]) * at_crossing(curve.samples["alpha"])
    assert abs(rhs) > 0.05  # the coupling term is genuinely active here
    assert lhs == pytest.approx(rhs, rel=5e-3)


def test_phase_monotonicity_agrees_with_measured_derivative(varying_traj):
    """Fig.-1 arrows vs the measured y' at random probe points."""
    curve = charpath.trace(varying_traj, 0.4, "forward")
    res = sampled_residual(varying_traj, curve, "ode_y")
    y = curve.samples["y"]
    a0 = curve.samples["a0"]
    a2 = curve.samples["a2"]
    dy = riccati.directional_derivative(curve, "y")
    rng = np.random.default_rng(17)
    probes = rng.integers(0, len(y), size=100)
    checked = 0
    for i in probes:
        slope = a0[i] + a2[i] * y[i] ** 2
        if abs(slope) <= 10.0 * abs(res[i]):
            continue  # too close to equilibrium to call at this resolution
        regime = riccati.phase_classify(float(a0[i]), float(a2[i]), float(y[i]))
        assert regime.monotonicity == ("increasing" if dy[i] > 0 else "decreasing")
        checked += 1
    assert checked >= 50


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
