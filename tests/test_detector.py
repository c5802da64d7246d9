import dataclasses

import numpy as np
import pytest

from steepen import cli, config, detector, fields, riccati, solver

from conftest import gradient_peaks, make_gas


LAX_CFG = """\
gas.gamma = 3
gas.K = 0.3333333333333333
grid.x0 = 0
grid.x1 = 1
grid.n = 128
initial.u0 = -0.2*sin(2*pi*x)
initial.z0 = 1
solver.t_end = 1.5
solver.gradient_cap = 30
diagnostics.seeds = 0.0
diagnostics.residuals = ode_y
output.directory = out
"""


def _bounds(**kw):
    base = dict(Z_L=0.2, Z_U=3.0, M1=0.5, M2=1.5, M3=1.0, M4=1.0)
    base.update(kw)
    return fields.AssumptionBounds(**base)


# --- thresholds ----------------------------------------------------------------


def test_thresholds_degenerate_to_zero_for_constant_entropy():
    th = detector.thresholds(_bounds(M3=0.0, M4=0.0), gamma=1.8, epsilon=0.01)
    assert th.N == 0.0
    assert th.N_tilde == 0.0


def test_thresholds_gamma3_hand_value():
    th = detector.thresholds(
        _bounds(Z_U=1.0, M1=0.5, M2=1.0, M3=1.0, M4=12.0), gamma=3.0, epsilon=0.0
    )
    # sqrt(2*(g-1)^2/(g(g+1)(3g-1)) * M2*M4) = sqrt(8/96 * 12) = 1
    assert th.N == pytest.approx(1.0, rel=1e-13)


def test_thresholds_monotone_in_ZU_and_M4():
    base = dict(M1=0.5, M2=1.5, M3=1.0, M4=1.0)
    gammas = (1.4, 2.5, 4.0)
    for g in gammas:
        n_prev = -1.0
        for zu in (1.0, 1.5, 2.0, 3.0):
            th = detector.thresholds(_bounds(Z_U=zu, **base), g, 0.01)
            assert th.N > n_prev
            n_prev = th.N
        n_prev = -1.0
        for m4 in (0.5, 1.0, 2.0):
            th = detector.thresholds(_bounds(**{**base, "M4": m4}, Z_U=2.0), g, 0.01)
            assert th.N > n_prev
            n_prev = th.N


def test_thresholds_decrease_monotonically_as_epsilon_shrinks():
    # strict on gamma in [1.2, 5]; nearer 1 the |A1| term can flip direction
    rng = np.random.default_rng(23)
    for _ in range(25):
        g = rng.uniform(1.2, 5.0)
        b = _bounds(
            Z_U=rng.uniform(0.5, 3.0),
            M1=0.3,
            M2=rng.uniform(0.5, 2.0),
            M3=rng.uniform(0.1, 2.0),
            M4=rng.uniform(0.1, 2.0),
        )
        eps = [0.05, 0.02, 0.01, 0.005, 0.0]
        Ns = [detector.thresholds(b, g, e).N for e in eps]
        Nt = [detector.thresholds(b, g, e).N_tilde for e in eps]
        assert np.all(np.diff(Ns) < 0.0)
        assert np.all(np.diff(Nt) < 0.0)


def test_thresholds_domain_errors():
    with pytest.raises(ValueError):
        detector.thresholds(_bounds(), gamma=1.0, epsilon=0.01)
    with pytest.raises(ValueError):
        detector.thresholds(_bounds(), gamma=2.0, epsilon=-0.1)


# --- threshold certificates -------------------------------------------------------


def test_certify_thm14_isentropic_sign_test(gas3):
    grid = fields.Grid(0.0, 1.0, 128)
    state, _ = fields.build_initial("-0.2*sin(2*pi*x)", grid, gas3, m0=1.0, z0=1.0)
    cert = detector.certify_thm14(state, _bounds(M3=0.0, M4=0.0), 0.01)
    assert cert.kind == "thm14_y"
    assert cert.threshold == 0.0
    assert cert.witness_value == pytest.approx(-0.4 * np.pi, rel=1e-3)
    assert cert.witness_x is not None


def test_certify_thm14_constant_state_none(gas3):
    grid = fields.Grid(0.0, 1.0, 64)
    state, _ = fields.build_initial(0.0, grid, gas3, m0=1.0, z0=1.0)
    cert = detector.certify_thm14(state, _bounds(M3=0.0, M4=0.0), 0.01)
    assert cert.kind == "none"  # min y = 0 is not a strict violation


def test_certify_thm14_stationary_mild_profile_none():
    g = 5.0 / 3.0
    gc = make_gas(g, 1.0 / 15.0)
    grid = fields.Grid(0.0, 20.0, 512)
    m_expr = "1 + 0.3*tanh(sin(2*pi*(x - 10)/20))"
    z_expr = f"(1/(({m_expr})^2))^({(g - 1.0) / (2.0 * g)})"
    state, _ = fields.build_initial(0.0, grid, gc, m0=m_expr, z0=z_expr)
    cert = detector.certify_thm14(state, _bounds(Z_U=2.0, M2=1.5, M3=0.5, M4=0.5), 0.01)
    assert cert.kind == "none"  # y, q are O(m_x), far inside the thresholds


def test_certify_thm14_witness_at_twice_threshold(gas3):
    bounds = _bounds()
    th = detector.thresholds(bounds, 3.0, 0.01)
    amp = 2.0 * th.N / (2.0 * np.pi)  # min y0 = -2N for u = -a sin(2 pi x)
    grid = fields.Grid(0.0, 1.0, 256)
    state, _ = fields.build_initial(f"-{amp}*sin(2*pi*x)", grid, gas3, m0=1.0, z0=1.0)
    cert = detector.certify_thm14(state, bounds, 0.01)
    assert cert.kind == "thm14_y"
    assert cert.witness_value == pytest.approx(-2.0 * th.N, rel=1e-4)


def test_certificates_gained_never_lost_as_epsilon_shrinks(gas3):
    bounds = _bounds()
    n_low = detector.thresholds(bounds, 3.0, 0.0).N
    n_high = detector.thresholds(bounds, 3.0, 0.2).N
    amp = 0.5 * (n_low + n_high) / (2.0 * np.pi)  # min y0 between the two
    grid = fields.Grid(0.0, 1.0, 256)
    state, _ = fields.build_initial(f"-{amp}*sin(2*pi*x)", grid, gas3, m0=1.0, z0=1.0)
    kinds = [detector.certify_thm14(state, bounds, eps).kind for eps in (0.2, 0.1, 0.0)]
    assert kinds[0] == "none"
    seen = False
    for kind in kinds:
        if kind != "none":
            seen = True
        assert not (seen and kind == "none")
    assert kinds[-1] == "thm14_y"


# --- one-sided-profile certificates -------------------------------------------------


def test_certify_thm15_gamma3_hand_value(gas3):
    grid = fields.Grid(0.0, 1.0, 512)
    state, _ = fields.build_initial(f"-{1.0 / np.pi}*sin(2*pi*x)", grid, gas3, m0=1.0, z0=1.0)
    cert = detector.certify_thm15(state, A=0.25, bounds=None)  # gamma = 3 needs no bounds
    assert cert.kind == "thm15_y"
    assert not cert.conditional
    assert cert.witness_value == pytest.approx(-2.0, rel=1e-3)
    assert cert.t_star_bound == pytest.approx(0.5, rel=1e-3)


def test_certify_thm15_requires_bounds_off_gamma3():
    gc = make_gas(1.4, 1.0)
    grid = fields.Grid(0.0, 1.0, 64)
    state, _ = fields.build_initial("-0.5*sin(2*pi*x)", grid, gc, m0=1.0, z0=1.0)
    with pytest.raises(ValueError):
        detector.certify_thm15(state, A=0.25, bounds=None)
    cert = detector.certify_thm15(state, A=0.25, bounds=_bounds())
    assert cert.kind == "thm15_y"
    assert cert.conditional


def test_certify_thm15_no_negative_y_in_region(gas3):
    grid = fields.Grid(-0.5, 0.5, 128)
    # y0 = u_x = -0.4 pi cos(2 pi x) is strictly positive on (0.25, 0.5)
    state, _ = fields.build_initial("-0.2*sin(2*pi*x)", grid, gas3, m0=1.0, z0=1.0)
    cert = detector.certify_thm15(state, A=0.25, bounds=None)
    assert cert.kind == "none"


def test_certify_thm15_condition_violated_gives_none(gas3):
    grid = fields.Grid(-10.0, 30.0, 512)
    # convex arc of m^(-2/(3g-1)) sits on x > 10; on x > -5 the condition fails
    m_expr = "(1 + 0.05*(1 + cos(2*pi*x/40)))^(-4)"
    state, _ = fields.build_initial("-1.0*exp(-(x - 16)^2)", grid, gas3, m0=m_expr, z0=1.0)
    assert detector.certify_thm15(state, A=10.0, bounds=None).kind == "thm15_y"
    assert detector.certify_thm15(state, A=-5.0, bounds=None).kind == "none"


def test_certify_thm15_q_mirror(gas3):
    grid = fields.Grid(-30.0, 10.0, 512)
    # mirrored profile: convex arc on x < -10; backward-moving compression
    m_expr = "(1 + 0.05*(1 + cos(2*pi*x/40)))^(-4)"
    state, _ = fields.build_initial("1.0*exp(-(x + 16)^2)", grid, gas3, m0=m_expr, z0=1.0)
    cert = detector.certify_thm15(state, A=-10.0, bounds=None, variable="q")
    assert cert.kind == "thm15_q"
    assert cert.witness_x < -10.0
    assert cert.t_star_bound > 0.0


def test_one_sided_profile_condition_curvature():
    # m = (e^-x + 1)^(-(3g-1)/2) gives (m^(-2/(3g-1)))_xx = e^-x exactly
    g = 2.0
    prof = fields.EntropyProfile.from_expression(f"(exp(-x)+1)^({-(3 * g - 1) / 2})")
    grid = fields.Grid(0.0, 8.0, 64)
    w_xx = detector.profile_condition_curvature(prof.on_grid(grid), g)
    assert np.allclose(w_xx, np.exp(-grid.x), rtol=1e-9)


# --- sign of a0 ------------------------------------------------------------------


def _sign_a0(prof, gamma, grid):
    """sign(a0) on the grid, from the diagnostics of a state with profile ``prof``."""
    state, _ = fields.build_initial(0.0, grid, make_gas(gamma, 1.0), m0=prof, z0=1.0)
    return np.sign(riccati.diagnostics(state, ("a0",))["a0"])


def test_sign_a0_constant_profile_zero(gas3):
    grid = fields.Grid(0.0, 1.0, 64)
    prof = fields.EntropyProfile.constant(1.0)
    assert np.all(_sign_a0(prof, 3.0, grid) == 0.0)


def test_sign_a0_one_sided_profile_nonpositive():
    g = 2.0
    prof = fields.EntropyProfile.from_expression(f"(exp(-x)+1)^({-(3 * g - 1) / 2})")
    grid = fields.Grid(0.0, 8.0, 64)
    signs = _sign_a0(prof, g, grid)
    assert np.all(signs <= 0.0)
    assert np.any(signs < 0.0)


def test_sign_a0_against_finite_difference_oracle():
    g = 1.9
    kappa = 2.0 / (3.0 * g - 1.0)
    text = f"((exp(x/2)+exp(-x/2))/2)^(-0.7)"  # cosh-shaped positive profile
    prof = fields.EntropyProfile.from_expression(text)
    grid = fields.Grid(-4.0, 4.0, 128)
    signs = _sign_a0(prof, g, grid)
    # oracle: central second difference of m^(-kappa) sampled densely
    step = 1e-4
    w = lambda x: prof.m(x) ** (-kappa)
    w_xx = (w(grid.x + step) - 2.0 * w(grid.x) + w(grid.x - step)) / step**2
    mask = np.abs(w_xx) > 1e-8
    assert np.all(np.sign(signs[mask]) == -np.sign(w_xx[mask]))


# --- blowup measurement -----------------------------------------------------------


def test_threshold_certificate_soundness_empirical(gas3):
    """Certified data whose run satisfies the bounds must end in blowup."""
    grid = fields.Grid(0.0, 1.0, 256)
    state, _ = fields.build_initial("-0.2*sin(2*pi*x)", grid, gas3, m0=1.0, z0=1.0)
    bounds = _bounds(M3=1e-12, M4=1e-12)  # near-degenerate: N is tiny but positive
    cert = detector.certify_thm14(state, bounds, 0.01)
    assert cert.kind == "thm14_y"
    traj = solver.evolve(
        state, solver.SolverConfig(cfl=0.4, t_end=3.0, snapshot_stride=10, gradient_cap=30.0)
    )
    report = fields.validate_assumptions(traj.snapshots, bounds)
    bad = [c.name for c in report if not c.passed and c.name.startswith("z")]
    assert not bad  # the a-priori z bounds really held for this run
    assert traj.termination.kind == "gradient_blowup"


def test_detect_blowup_none_for_smooth_run(constant_traj):
    assert detector.detect_blowup(constant_traj, gradient_peaks(constant_traj)) is None


def test_detect_blowup_matches_riccati_oracle(gas3):
    grid = fields.Grid(0.0, 1.0, 256)
    state, _ = fields.build_initial("-0.2*sin(2*pi*x)", grid, gas3, m0=1.0, z0=1.0)
    y0 = riccati.diagnostics(state, ("y",))["y"]
    oracle = 1.0 / abs(float(np.min(y0)))
    cfg = solver.SolverConfig(cfl=0.4, t_end=1.5, snapshot_stride=10, gradient_cap=30.0)
    traj = solver.evolve(state, cfg)
    est = detector.detect_blowup(traj, gradient_peaks(traj))
    assert est is not None
    assert abs(est.t_blow - oracle) / oracle <= 0.05
    assert est.uncertainty < 0.1 * oracle


def test_detect_blowup_none_when_too_few_snapshots(gas3):
    grid = fields.Grid(0.0, 1.0, 64)
    state, _ = fields.build_initial("-0.2*sin(2*pi*x)", grid, gas3, m0=1.0, z0=1.0)
    cfg = solver.SolverConfig(cfl=0.4, t_end=1.5, snapshot_stride=1000, gradient_cap=10.0)
    traj = solver.evolve(state, cfg)
    assert traj.termination.kind == "gradient_blowup"
    assert len(traj.snapshots) < 5
    assert detector.detect_blowup(traj, gradient_peaks(traj)) is None


def _decaying_amplitude_traj(gas3):
    """Snapshots whose gradient peak falls with time, tagged as a blowup."""
    grid = fields.Grid(0.0, 1.0, 64)
    snapshots = []
    for k, amp in enumerate((0.2, 0.18, 0.16, 0.14, 0.12, 0.1)):
        state, _ = fields.build_initial(f"-{amp}*sin(2*pi*x)", grid, gas3, m0=1.0, z0=1.0)
        snapshots.append(dataclasses.replace(state, t=0.1 * k))
    n = len(snapshots)
    return solver.Trajectory(
        snapshots=snapshots,
        termination=solver.Termination("gradient_blowup", snapshots[-1].t, 0.25),
        conserved=solver.ConservedLog(np.zeros(n), np.zeros(n), np.zeros(n)),
    )


def test_detect_blowup_none_when_reciprocal_grows(gas3):
    traj = _decaying_amplitude_traj(gas3)
    assert detector.detect_blowup(traj, gradient_peaks(traj)) is None


def test_line_fit_matches_polyfit(gas3):
    # the closed-form fit against np.polyfit's least squares, on the
    # reciprocal peaks of a blowup run and of the decaying fixture, over the
    # whole series and each half, as detect_blowup fits its window
    grid = fields.Grid(0.0, 1.0, 256)
    state, _ = fields.build_initial("-0.2*sin(2*pi*x)", grid, gas3, m0=1.0, z0=1.0)
    cfg = solver.SolverConfig(cfl=0.4, t_end=1.5, snapshot_stride=10, gradient_cap=30.0)
    for traj in (solver.evolve(state, cfg), _decaying_amplitude_traj(gas3)):
        t = traj.times
        g = 1.0 / gradient_peaks(traj)
        half = len(t) // 2
        for sl in (slice(None), slice(None, half), slice(half, None)):
            expect = np.polyfit(t[sl], g[sl], 1)
            assert detector._fit_line(t[sl], g[sl]) == pytest.approx(tuple(expect), rel=1e-12)


def test_blowup_run_calls_no_lapack_least_squares(tmp_path, monkeypatch):
    def no_least_squares(*args, **kwargs):
        raise AssertionError("a LAPACK least-squares fit was called")

    # np.polyfit holds its own reference to lstsq, so both are replaced
    monkeypatch.setattr(np.linalg, "lstsq", no_least_squares)
    monkeypatch.setattr(np, "polyfit", no_least_squares)
    path = tmp_path / "run.cfg"
    path.write_text(LAX_CFG)
    assert cli.run_pipeline(config.load_config(path)) == 0
    lines = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    summary = dict(line.split(" = ") for line in lines if " = " in line)
    assert summary["termination"] == "gradient_blowup"
    assert summary["t_blow"] != "none"
