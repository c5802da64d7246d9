"""Acceptance suite: one test (and one printed PASS line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance below is fixed a priori; the expensive runs are
shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from steepen import charpath, detector, fields, riccati, solver
from steepen.riccati import RESIDUAL_KINDS

from conftest import gradient_peaks, make_gas, sampled_residual


def _report(criterion: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} {status}: {detail}")
    assert ok, f"{criterion}: {detail}"


# --- shared runs -----------------------------------------------------------------


@pytest.fixture(scope="module")
def lax_runs():
    """gamma=3, K=1/3, m=1, u0 = -0.2 sin(2 pi x), z0 = 1 on [0,1)."""
    gc = make_gas(3.0, 1.0 / 3.0)
    out = {}
    for n in (256, 512, 1024):
        grid = fields.Grid(0.0, 1.0, n)
        state, _ = fields.build_initial("-0.2*sin(2*pi*x)", grid, gc, m0=1.0, z0=1.0)
        cfg = solver.SolverConfig(cfl=0.4, t_end=1.5, snapshot_stride=10, gradient_cap=30.0)
        start = time.perf_counter()
        traj = solver.evolve(state, cfg)
        estimate = detector.detect_blowup(traj, gradient_peaks(traj))
        wall = time.perf_counter() - start
        out[n] = (state, traj, estimate, wall)
    return out


@pytest.fixture(scope="module")
def stationary_run():
    """u0 = 0, m0 = 1 + 0.3 tanh (periodically blended), z0 at constant p."""
    g = 5.0 / 3.0
    gc = make_gas(g, 1.0 / 15.0)
    grid = fields.Grid(0.0, 20.0, 512)
    m_expr = "1 + 0.3*tanh(1.5*sin(2*pi*(x - 10)/20))"
    z_expr = f"(1/(({m_expr})^2))^({(g - 1.0) / (2.0 * g)})"
    state, _ = fields.build_initial(0.0, grid, gc, m0=m_expr, z0=z_expr)
    cfg = solver.SolverConfig(cfl=0.4, t_end=2.0, snapshot_stride=10)
    return solver.evolve(state, cfg)


def _entropy_run(n, t_end, stride=5):
    gc = make_gas(5.0 / 3.0, 1.0 / 15.0)
    grid = fields.Grid(0.0, 1.0, n)
    state, _ = fields.build_initial(
        "-0.35*sin(2*pi*x)", grid, gc, m0="1 + 0.2*sin(2*pi*x)", z0=1.0
    )
    cfg = solver.SolverConfig(cfl=0.4, t_end=t_end, snapshot_stride=stride, gradient_cap=40.0)
    return solver.evolve(state, cfg)


@pytest.fixture(scope="module")
def entropy_runs():
    fine = _entropy_run(1024, 3.0)
    t_blow = detector.detect_blowup(fine, gradient_peaks(fine)).t_blow
    t_win = 0.8 * t_blow
    runs = {n: _entropy_run(n, t_win) for n in (256, 512, 1024)}
    for traj in runs.values():
        assert traj.termination.kind == "reached_t_end"
    return t_win, runs


@pytest.fixture(scope="module")
def profile49_run():
    """One-sided profile family, periodically blended, with gamma = 3."""
    gc = make_gas(3.0, 1.0 / 3.0)
    grid = fields.Grid(-10.0, 30.0, 1024)
    m_expr = "(1 + 0.05*(1 + cos(2*pi*x/40)))^(-4)"
    state, _ = fields.build_initial("-1.4*exp(-((x - 16)/2)^2)", grid, gc, m0=m_expr, z0=1.0)
    cert = detector.certify_thm15(state, A=10.0, bounds=None)
    cfg = solver.SolverConfig(cfl=0.4, t_end=4.0, snapshot_stride=2, gradient_cap=400.0)
    traj = solver.evolve(state, cfg)
    return state, cert, traj


# --- criterion 1: Lax-limit blowup oracle ------------------------------------------


def test_criterion_1_lax_limit_blowup(lax_runs):
    state0 = lax_runs[1024][0]
    y0 = riccati.diagnostics(state0, ("y",))["y"]
    oracle = 1.0 / abs(float(np.min(y0)))  # a0 = 0, a2 = -K_c = -1
    errors = {}
    for n, (_, traj, estimate, wall) in lax_runs.items():
        assert traj.termination.kind == "gradient_blowup"
        assert estimate is not None
        errors[n] = abs(estimate.t_blow - oracle) / oracle
        assert wall <= 60.0, f"n={n} took {wall:.1f}s"
    ok = errors[1024] <= 0.05 and errors[256] > errors[512] > errors[1024]
    _report(
        "1 (Lax-limit blowup oracle)",
        ok,
        f"oracle={oracle:.5f}, rel errors {errors[256]:.4f} > {errors[512]:.4f} > "
        f"{errors[1024]:.4f}, finest within 5%",
    )


# --- criterion 2: stationary-solution fidelity --------------------------------------


def test_criterion_2_stationary_fidelity(stationary_run):
    traj = stationary_run
    assert traj.termination.kind == "reached_t_end"
    max_u = max(float(np.max(np.abs(s.u))) for s in traj.snapshots)
    max_ab = 0.0
    for snap in traj.snapshots:
        d = riccati.diagnostics(snap, ("alpha", "beta"))
        max_ab = max(max_ab, float(np.max(np.abs(d["alpha"]))), float(np.max(np.abs(d["beta"]))))
    ok = max_u <= 1e-8 and max_ab <= 1e-7
    _report(
        "2 (stationary fidelity)",
        ok,
        f"max|u| = {max_u:.2e} <= 1e-8, max|alpha|,|beta| = {max_ab:.2e} <= 1e-7 "
        "over t in [0,2] at n=512",
    )


# --- criterion 3: residual convergence ----------------------------------------------


def test_criterion_3_residual_convergence(entropy_runs):
    t_win, runs = entropy_runs
    seeds = np.linspace(0.05, 0.95, 4)
    kinds = list(RESIDUAL_KINDS)
    maxima = {n: {k: 0.0 for k in kinds} for n in runs}
    for n, traj in runs.items():
        curves = 0
        for seed in seeds:
            for direction in ("forward", "backward"):
                curve = charpath.trace(traj, [seed], [direction]).column(0)
                curves += 1
                window = curve.t <= t_win
                for kind in kinds:
                    if RESIDUAL_KINDS[kind].direction != direction:
                        continue
                    res = sampled_residual(traj, curve, kind)
                    maxima[n][kind] = max(maxima[n][kind], float(np.max(np.abs(res[window]))))
        assert curves == 8
    orders = {}
    for kind in kinds:
        o1 = np.log2(maxima[256][kind] / maxima[512][kind])
        o2 = np.log2(maxima[512][kind] / maxima[1024][kind])
        orders[kind] = (o1, o2)
    ok = all(o1 >= 2.0 and o2 >= 2.0 for o1, o2 in orders.values())
    detail = ", ".join(f"{k}:({v[0]:.2f},{v[1]:.2f})" for k, v in orders.items())
    _report("3 (Riccati residual convergence)", ok, f"observed orders {detail} all >= 2")


# --- criterion 4: one-sided-profile blowup-time bound ---------------------------------


def test_criterion_4_one_sided_profile_bound(profile49_run):
    state, cert, traj = profile49_run
    assert cert.kind == "thm15_y"
    assert cert.t_star_bound is not None and cert.t_star_bound > 0.0
    assert traj.termination.kind == "gradient_blowup"
    estimate = detector.detect_blowup(traj, gradient_peaks(traj))
    ok = estimate.t_blow <= cert.t_star_bound * 1.05
    _report(
        "4 (one-sided profile T* bound)",
        ok,
        f"measured t_blow = {estimate.t_blow:.4f} <= 1.05 * T* = {1.05 * cert.t_star_bound:.4f} "
        f"(y0 = {cert.witness_value:.4f})",
    )


# --- criterion 5: pointwise identity suite --------------------------------------------


def _check_identities(traj):
    worst = {"sum": 0.0, "scale": 0.0, "a2": 0.0, "iso": 0.0}
    m, m_x, _ = traj.snapshots[0].m_arrays()
    isentropic = float(np.ptp(m)) == 0.0 and float(np.max(np.abs(m_x))) == 0.0
    first = traj.snapshots[0]
    gamma = first.gc.gamma
    w_xx = riccati.diagnostics(first, ("mu_G_xx",))["mu_G_xx"]
    gfac = (gamma - 1.0) / gamma
    for snap in traj.snapshots:
        d = riccati.diagnostics(snap, ("u_x", "z_x", "s_x", "r_x", "alpha", "beta", "y", "q", "y_tilde",
                                      "q_tilde", "a0", "a0_t", "a2", "mu_bar"))
        # machine precision relative to the operands entering the identity;
        # alpha, beta themselves can be pure cancellation noise (stationary
        # states) while their ingredients are O(1)
        scale = 2.0 * float(
            np.max(np.abs(d["u_x"])) + np.max(np.abs(m * d["z_x"])) + np.max(np.abs(gfac * m_x * snap.z))
        ) + 1e-300
        sum_err = float(np.max(np.abs(d["alpha"] + d["beta"] - 2.0 * d["u_x"])))
        worst["sum"] = max(worst["sum"], sum_err / scale)
        for a, b in (
            (d["y"], d["mu_bar"] * d["y_tilde"]),
            (d["q"], d["mu_bar"] * d["q_tilde"]),
            (d["a0"], d["mu_bar"] * d["a0_t"]),
        ):
            den = np.maximum(np.abs(a), 1e-300)
            worst["scale"] = max(worst["scale"], float(np.max(np.abs(a - b) / den)))
        assert np.all(d["a2"] < 0.0)
        a0_scale = float(np.max(np.abs(d["a0"])))
        if a0_scale > 0.0:
            mask = np.abs(d["a0"]) > 1e-10 * a0_scale
            assert np.all(np.sign(d["a0"][mask]) == -np.sign(w_xx[mask]))
        if isentropic:
            iso_scale = float(np.max(np.abs(d["s_x"])) + np.max(np.abs(d["r_x"]))) + 1e-300
            worst["iso"] = max(
                worst["iso"],
                float(np.max(np.abs(d["alpha"] - d["s_x"]))) / iso_scale,
                float(np.max(np.abs(d["beta"] - d["r_x"]))) / iso_scale,
            )
    return worst, isentropic


def test_criterion_5_pointwise_identities(lax_runs, stationary_run, entropy_runs, profile49_run):
    trajs = [lax_runs[n][1] for n in lax_runs]
    trajs.append(stationary_run)
    trajs.extend(entropy_runs[1].values())
    trajs.append(profile49_run[2])
    worst_sum = worst_scale = worst_iso = 0.0
    for traj in trajs:
        worst, isentropic = _check_identities(traj)
        worst_sum = max(worst_sum, worst["sum"])
        worst_scale = max(worst_scale, worst["scale"])
        worst_iso = max(worst_iso, worst["iso"])
    ok = worst_sum <= 1e-12 and worst_scale <= 1e-12 and worst_iso <= 1e-10
    _report(
        "5 (pointwise identity suite)",
        ok,
        f"alpha+beta=2u_x to {worst_sum:.1e}, scaling chain to {worst_scale:.1e}, "
        f"isentropic alpha=s_x to {worst_iso:.1e}; sign(a0) and a2<0 exact "
        f"over {sum(len(t.snapshots) for t in trajs)} snapshots",
    )


# --- criterion 6: invariant domain ----------------------------------------------------


def test_criterion_6_invariant_domain():
    # a0 >= 0 everywhere forces constant entropy on a periodic domain
    # (profile curvature integrates to zero), where it holds with equality;
    # positivity of y, q is tracked on the domain of determinacy of the
    # initially positive band, the only periodically realizable reading.
    gc = make_gas(2.0, 1.0 / 8.0)
    grid = fields.Grid(0.0, 1.0, 512)
    state, _ = fields.build_initial("0.25*sin(2*pi*x)", grid, gc, m0=1.0, z0=1.0)
    d0 = riccati.diagnostics(state, ("a0", "y", "q"))
    assert np.all(d0["a0"] == 0.0)
    half_width = 0.2
    dist = np.minimum(grid.x, 1.0 - grid.x)  # distance to the band center x=0
    band = dist < half_width
    assert np.all(d0["y"][band] > 0.0) and np.all(d0["q"][band] > 0.0)

    traj = solver.evolve(state, solver.SolverConfig(cfl=0.4, t_end=0.16, snapshot_stride=5))
    assert traj.termination.kind == "reached_t_end"
    c_max = max(float(np.max(riccati.diagnostics(s, ("c",))["c"])) for s in traj.snapshots)
    min_y = min_q = np.inf
    for snap in traj.snapshots:
        region = dist < half_width - c_max * snap.t
        assert np.any(region)
        d = riccati.diagnostics(snap, ("y", "q"))
        min_y = min(min_y, float(np.min(d["y"][region])))
        min_q = min(min_q, float(np.min(d["q"][region])))
    ok = min_y > 0.0 and min_q > 0.0
    _report(
        "6 (invariant domain)",
        ok,
        f"min y = {min_y:.4f} > 0 and min q = {min_q:.4f} > 0 on the domain of "
        "determinacy through the full run (a0 = 0 everywhere)",
    )


# --- criterion 7: threshold degeneration -----------------------------------------------


def test_criterion_7_threshold_degeneration(lax_runs):
    bounds = fields.AssumptionBounds(Z_L=0.2, Z_U=3.0, M1=0.5, M2=1.5, M3=0.0, M4=0.0)
    th = detector.thresholds(bounds, gamma=3.0, epsilon=0.01)
    exact_zero = th.N == 0.0 and th.N_tilde == 0.0

    # with N = 0 the certificate reduces to the pure sign test
    state_comp = lax_runs[256][0]
    d = riccati.diagnostics(state_comp, ("y", "q"))
    cert_comp = detector.certify_thm14(state_comp, bounds, 0.01)
    sign_test_comp = min(float(np.min(d["y"])), float(np.min(d["q"]))) < 0.0
    gc = state_comp.gc
    grid = fields.Grid(0.0, 1.0, 64)
    state_flat, _ = fields.build_initial(0.0, grid, gc, m0=1.0, z0=1.0)
    cert_flat = detector.certify_thm14(state_flat, bounds, 0.01)
    df = riccati.diagnostics(state_flat, ("y", "q"))
    sign_test_flat = min(float(np.min(df["y"])), float(np.min(df["q"]))) < 0.0

    agree = ((cert_comp.kind != "none") == sign_test_comp) and (
        (cert_flat.kind != "none") == sign_test_flat
    )
    ok = exact_zero and agree and cert_comp.kind == "thm14_y" and cert_flat.kind == "none"
    _report(
        "7 (threshold degeneration)",
        ok,
        f"N = {th.N}, N~ = {th.N_tilde} exactly zero; thm14 = sign test on "
        "isentropic data (fires iff min(y, q) < 0)",
    )


# --- criterion 8: conservation ----------------------------------------------------------


def test_criterion_8_conservation(lax_runs, stationary_run, entropy_runs, profile49_run):
    worst = 0.0
    runs = [
        ("lax-512", lax_runs[512][1]),
        ("lax-1024", lax_runs[1024][1]),
        ("stationary-512", stationary_run),
        ("entropy-512", entropy_runs[1][512]),
        ("entropy-1024", entropy_runs[1][1024]),
        ("profile49-1024", profile49_run[2]),
    ]
    details = []
    for name, traj in runs:
        assert traj.grid.n >= 512
        t_max = traj.termination.t_stop
        if traj.termination.kind == "gradient_blowup":
            t_max *= 0.8  # resolved pre-blowup window
        drift = solver.conserved_drift(traj, t_max=t_max)
        local = max(drift["int_u"], drift["int_tau"])
        worst = max(worst, local)
        details.append(f"{name}:{local:.1e}")
    ok = worst <= 1e-8
    _report("8 (conservation)", ok, "max relative drift " + ", ".join(details) + " <= 1e-8")
