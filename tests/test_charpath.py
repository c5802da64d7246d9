import weakref

import numpy as np
import pytest

from steepen import charpath, fields, riccati, solver
from steepen.expressions import parse_expression

from conftest import VARYING_M0, ghost_padded, make_gas


def test_trace_constant_state_straight_line(constant_traj):
    # gamma=3, z=2, m=1: c = K_c m z^2 = 4
    for direction, sign in (("forward", 1.0), ("backward", -1.0)):
        curve = charpath.trace(constant_traj, [0.25], [direction]).column(0)
        expect = 0.25 + sign * 4.0 * curve.t
        assert np.max(np.abs(curve.x_path - expect)) <= 1e-10


def test_forward_backward_coincide_only_at_start(constant_traj):
    bundle = charpath.trace(constant_traj, [0.5, 0.5], ["forward", "backward"])
    fw, bw = bundle.x_path.T
    assert fw[0] == bw[0]
    assert np.all(np.abs(fw[1:] - bw[1:]) > 0.0)


def test_trace_rejects_bad_direction_and_sparse_trajectory(constant_traj, gas3):
    with pytest.raises(ValueError):
        charpath.trace(constant_traj, [0.1], ["sideways"])
    with pytest.raises(ValueError):
        charpath.trace(constant_traj, [0.1, 0.2], ["forward", "sideways"])
    with pytest.raises(ValueError):  # one direction short: it would broadcast
        charpath.trace(constant_traj, [0.1, 0.2], ["backward"])
    with pytest.raises(ValueError):
        charpath.trace(constant_traj, 0.1, ["forward"])
    grid = fields.Grid(0.0, 1.0, 32)
    state, _ = fields.build_initial(0.0, grid, gas3, m0=1.0, z0=1.0)
    sparse = solver.Trajectory(
        snapshots=[state],
        termination=solver.Termination("reached_t_end", 0.0),
        conserved=solver.ConservedLog(np.zeros(1), np.zeros(1), np.zeros(1)),
    )
    with pytest.raises(ValueError):
        charpath.trace(sparse, [0.1], ["forward"])


def test_node_spacing_matches_local_speed(varying_traj):
    curve = charpath.trace(varying_traj, [0.3], ["forward"]).column(0)
    sampler = charpath.FieldSampler(varying_traj, ("z",))
    gc = varying_traj.snapshots[0].gc
    E_c = (gc.gamma + 1.0) / (gc.gamma - 1.0)
    m = parse_expression(VARYING_M0)
    dt = np.diff(curve.t)
    dx = np.diff(curve.x_path)
    worst = 0.0
    for i in range(0, len(dt), 7):
        t_mid = curve.t[i] + 0.5 * dt[i]
        x_mid = 0.5 * (curve.x_path[i] + curve.x_path[i + 1])
        m_mid = m(varying_traj.grid.wrap(x_mid))
        c_mid = gc.K_c * m_mid * float(sampler.sample(t_mid, x_mid)["z"]) ** E_c
        worst = max(worst, abs(dx[i] - c_mid * dt[i]) / dt[i] ** 3)
    assert worst <= 10.0  # |dx - c dt| = O(dt^3) with a modest constant


@pytest.mark.parametrize("directions", [
    ("forward",) * 4, ("backward",) * 4, ("forward", "backward", "backward", "forward"),
], ids=["forward", "backward", "mixed"])
def test_bundle_columns_equal_single_seed_traces(varying_traj, directions):
    seeds = [0.05, 0.3, 0.97, 0.3]
    names = ("z", "y", "q", "a0", "m_x")
    bundle = charpath.trace(varying_traj, seeds, directions)
    assert bundle.directions == directions
    assert bundle.x_path.shape == (len(bundle.t), len(seeds))
    samples = charpath.sample_along(bundle, varying_traj, names)  # one call samples every seed
    assert all(samples[name].shape == bundle.x.shape for name in names)
    for i, (seed, direction) in enumerate(zip(seeds, directions)):
        single = charpath.trace(varying_traj, [seed], [direction])
        assert single.x_path.shape == single.t.shape + (1,)
        charpath.sample_along(single, varying_traj, names)
        single = single.column(0)
        column = bundle.column(i)
        assert column.directions == single.directions == (direction,)
        assert np.array_equal(column.t, single.t)
        assert np.array_equal(column.x_path, single.x_path)
        assert np.array_equal(column.x, single.x)
        for name in names:
            assert np.array_equal(column.samples[name], single.samples[name]), name


def test_curve_calls_reject_a_bare_string(varying_traj):
    """A string is not taken for a sequence of one-letter names or directions."""
    with pytest.raises(ValueError, match="directions must be a sequence"):
        charpath.trace(varying_traj, 0.3, "forward")
    curve = charpath.trace(varying_traj, [0.3], ["forward"])
    with pytest.raises(ValueError, match="names must be a sequence"):
        charpath.sample_along(curve, varying_traj, "beta")
    with pytest.raises(ValueError, match="names must be a sequence"):
        charpath.FieldSampler(varying_traj, "c")
    assert not hasattr(charpath.FieldSampler, "add")  # its quantities are fixed


def _lagrange_reference(traj, name, tq, xq):
    """One point at a time: 4-point Lagrange in snapshot time over periodic
    6-point Lagrange in space, on grid nodes j-2 ... j+3 of the point's cell j."""
    times = traj.times
    n_t = len(times)
    k = min(max(int(np.searchsorted(times, tq, side="right")) - 1, 0), n_t - 2)
    j0 = min(max(k - 1, 0), max(n_t - 4, 0))
    tw = times[j0:min(j0 + 4, n_t)]
    grid = traj.grid
    s = (xq - grid.x0) / grid.h
    j = int(np.floor(s))
    offsets = range(-2, 4)
    total = None
    for jj in range(len(tw)):
        w = 1.0
        for ii in range(len(tw)):
            if ii != jj:
                w *= (tq - tw[ii]) / (tw[jj] - tw[ii])
        arr = riccati.diagnostics(traj.snapshots[j0 + jj], (name,))[name]
        at_snapshot = None
        for o in offsets:
            wx = 1.0
            for other in offsets:
                if other != o:
                    wx *= ((s - j) - other) / (o - other)
            term = wx * arr[(j + o) % grid.n]
            at_snapshot = term if at_snapshot is None else at_snapshot + term
        total = w * at_snapshot if total is None else total + w * at_snapshot
    return total


@pytest.mark.parametrize("n_snapshots", [None, 3, 2])
def test_values_equal_scalar_lagrange_spline_reference(varying_traj, n_snapshots):
    traj = varying_traj
    if n_snapshots is not None:
        traj = solver.Trajectory(
            snapshots=varying_traj.snapshots[:n_snapshots],
            termination=varying_traj.termination,
            conserved=varying_traj.conserved,
        )
    times = traj.times
    ts = np.array([
        0.0,
        times[1],  # a node time
        0.5 * (times[0] + times[1]),
        times[-1],
        0.3 * times[-2] + 0.7 * times[-1],  # inside the last window
    ])
    xs = np.array([0.0, 0.3, 1.7, -0.25, 0.999])  # 1.7 and -0.25 wrap
    rng = np.random.default_rng(7)
    ts = np.concatenate((ts, rng.uniform(0.0, times[-1], 40)))
    xs = np.concatenate((xs, rng.uniform(-1.0, 2.0, 40)))
    names = ("z", "y", "m_x")
    sampler = charpath.FieldSampler(traj, names)
    forward, backward = sampler.sample(ts, xs), sampler.sample(ts[::-1], xs[::-1])
    for name in names:
        expect = [_lagrange_reference(traj, name, t, x) for t, x in zip(ts, xs)]
        assert np.array_equal(forward[name], expect), name
        assert np.array_equal(backward[name], expect[::-1]), name


def _fixed_field_traj(gc, n, z):
    """Four snapshots at uneven times, each holding the field ``z(x)``."""
    grid = fields.Grid(0.0, 1.0, n)
    entropy = (np.ones(n), np.zeros(n), np.zeros(n))  # m = 1
    snapshots = [
        fields.StateField(grid=grid, t=t, z=z(grid.x), u=np.zeros(n), gc=gc, entropy=entropy)
        for t in (0.0, 0.1, 0.25, 0.3)
    ]
    log = solver.ConservedLog(np.zeros(4), np.zeros(4), np.zeros(4))
    return solver.Trajectory(snapshots, solver.Termination("reached_t_end", 0.3), log)


def test_space_interpolation_is_sixth_order(gas3):
    rng = np.random.default_rng(5)

    def quintic(x):
        return 2.0 + x * (1.0 - x) * (x - 0.3) * (x - 0.6) * (x + 0.5)

    traj = _fixed_field_traj(gas3, 64, quintic)
    h = traj.grid.h
    ts = rng.uniform(0.0, 0.3, 200)
    xs = rng.uniform(3.0 * h, 1.0 - 3.0 * h, 200)  # the stencil stays off the wrap
    got = charpath.FieldSampler(traj, ("z",)).sample(ts, xs)["z"]
    assert np.max(np.abs(got - quintic(xs))) <= 1e-14

    def error(n):
        def smooth(x):
            return 1.0 + 0.1 * np.sin(2.0 * np.pi * x)

        xs = rng.uniform(-1.0, 2.0, 400)
        got = charpath.FieldSampler(_fixed_field_traj(gas3, n, smooth), ("z",)).sample(ts[:1], xs)["z"]
        return np.max(np.abs(got - smooth(xs)))

    assert error(64) <= error(32) / 2.0**5.5


def test_residual_computes_each_snapshot_diagnostics_once(varying_traj, monkeypatch):
    traj = varying_traj
    real = riccati.diagnostics
    calls = []  # the state and names of every diagnostics call
    alive = []  # weak references to one array of every result

    def spy(state, names):
        # the sampler holds rows for one time window, 4 snapshots
        assert sum(ref() is not None for ref in alive) <= 4
        calls.append((state, tuple(names)))
        result = real(state, names)
        alive.append(weakref.ref(result[names[-1]]))  # a computed field, not the state's own
        return result

    monkeypatch.setattr(riccati, "diagnostics", spy)
    snapshot_ids = [id(s) for s in traj.snapshots]
    curve = charpath.trace(traj, [0.3], ["forward"]).column(0)
    assert {names for _, names in calls} == {("c",)}  # tracing needs the wave speed only
    assert [id(s) for s, _ in calls] == snapshot_ids
    calls.clear()
    charpath.sample_along(curve, traj, riccati.RESIDUAL_KINDS["ode_y"].sampled)  # y, a0, a2 in one pass
    assert [id(s) for s, _ in calls] == snapshot_ids
    assert {names for _, names in calls} == {("y", "a0", "a2")}
    riccati.residual(curve, "ode_y")  # every sample is on the curve already
    assert len(calls) == len(traj.snapshots)


def test_residual_names_a_missing_sample(constant_traj):
    curve = charpath.trace(constant_traj, [0.3], ["forward"]).column(0)
    charpath.sample_along(curve, constant_traj, ("y", "a0"))
    with pytest.raises(ValueError, match="ode_y needs a2 sampled"):
        riccati.residual(curve, "ode_y")


def test_sample_m_constant_entropy(constant_traj):
    curve = charpath.trace(constant_traj, [0.7], ["forward"]).column(0)
    m = charpath.sample_along(curve, constant_traj, ("m",))["m"]
    assert np.allclose(m, 1.0, rtol=0, atol=1e-12)
    assert "m" in curve.samples


def test_riemann_invariant_transported_along_forward_curves(gas3):
    """s = u + mz rides forward characteristics; variation shrinks at O(h^2)+."""
    variations = []
    for n in (128, 256):
        grid = fields.Grid(0.0, 1.0, n)
        state, _ = fields.build_initial("-0.2*sin(2*pi*x)", grid, gas3, m0=1.0, z0=1.0)
        traj = solver.evolve(state, solver.SolverConfig(cfl=0.4, t_end=0.4, snapshot_stride=5))
        worst = 0.0
        for seed in (0.1, 0.5, 0.9):
            curve = charpath.trace(traj, [seed], ["forward"]).column(0)
            s = charpath.sample_along(curve, traj, ("s",))["s"]
            worst = max(worst, float(np.ptp(s)))
        variations.append(worst)
    assert variations[1] <= variations[0] / 4.0
    assert variations[1] <= 5e-6


def test_pressure_constant_along_curves_in_stationary_solution(stationary_traj):
    for direction in ("forward", "backward"):
        curve = charpath.trace(stationary_traj, [4.0], [direction]).column(0)
        p = charpath.sample_along(curve, stationary_traj, ("p",))["p"]
        assert np.max(np.abs(p / p[0] - 1.0)) <= 1e-9


def test_every_contracted_quantity_is_sampleable(varying_traj):
    curve = charpath.trace(varying_traj, [0.5], ["forward"]).column(0)
    names = (
        "z", "u", "m", "m_x", "m_xx", "p", "c", "alpha", "beta",
        "y", "q", "y_tilde", "q_tilde", "a0", "a2", "k1", "k2",
    )
    for name, values in charpath.sample_along(curve, varying_traj, names).items():
        assert values.shape == curve.t.shape
        assert np.all(np.isfinite(values)), name


def test_unknown_quantity_rejected(constant_traj):
    curve = charpath.trace(constant_traj, [0.1], ["forward"]).column(0)
    with pytest.raises(ValueError):
        charpath.sample_along(curve, constant_traj, ("vorticity",))


def test_directional_derivative_requires_samples_and_nodes(constant_traj):
    curve = charpath.trace(constant_traj, [0.1], ["forward"]).column(0)
    with pytest.raises(ValueError):
        riccati.directional_derivative(curve, "z")
    charpath.sample_along(curve, constant_traj, ("z",))
    short = charpath.CharacteristicCurve(
        directions=("forward",),
        t=curve.t[:4],
        x=curve.x[:4],
        x_path=curve.x_path[:4],
        samples={"z": curve.samples["z"][:4]},
    )
    with pytest.raises(ValueError):
        riccati.directional_derivative(short, "z")


def _fornberg_reference(nodes, x0):
    """First-derivative weights at x0 over one window of nodes, one scalar at a time."""
    n = len(nodes)
    w = np.zeros((2, n))
    c1 = 1.0
    c4 = nodes[0] - x0
    w[0, 0] = 1.0
    for i in range(1, n):
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                w[1, i] = c1 * (w[0, i - 1] - c5 * w[1, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            w[1, j] = (c4 * w[1, j] - w[0, j]) / c3
            w[0, j] = c4 * w[0, j] / c3
        c1 = c2
    return w[1]


def test_directional_derivative_equals_per_node_reference():
    rng = np.random.default_rng(3)
    # uniform at the start (centred windows take the uniform stencil), then
    # nonuniform, so both branches and both one-sided ends are covered
    t = np.concatenate((0.01 * np.arange(8), 0.08 + np.cumsum(rng.uniform(0.005, 0.02, 25))))
    f = np.sin(7.0 * t) + rng.standard_normal(t.size) * 1e-3
    n = len(t)
    j0 = np.clip(np.arange(n) - 2, 0, n - 5)
    windows = t[j0[:, None] + np.arange(5)]
    expect_w = np.array([_fornberg_reference(tw, ti) for tw, ti in zip(windows, t)])
    assert np.array_equal(riccati._fd_weights(windows, t), expect_w)

    expect = np.empty(n)
    for i in range(n):
        tw, fw = windows[i], f[j0[i]:j0[i] + 5]
        dts = np.diff(tw)
        if i - j0[i] == 2 and np.all(np.abs(dts - dts[0]) <= 1e-12 * dts[0]):
            expect[i] = float(np.dot(np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0, fw)) / dts[0]
        else:
            expect[i] = float(np.dot(expect_w[i], fw))
    curve = charpath.CharacteristicCurve(("forward",), t, t, t, samples={"f": f})
    assert np.array_equal(riccati.directional_derivative(curve, "f"), expect)


def test_directional_derivative_zero_in_constant_state(constant_traj):
    curve = charpath.trace(constant_traj, [0.6], ["backward"]).column(0)
    charpath.sample_along(curve, constant_traj, ("u",))
    d = riccati.directional_derivative(curve, "u")
    assert np.max(np.abs(d)) <= 1e-10


def _zprime_error(n):
    gc = make_gas(5.0 / 3.0, 1.0 / 15.0)
    grid = fields.Grid(0.0, 1.0, n)
    state, _ = fields.build_initial(
        "-0.35*sin(2*pi*x)", grid, gc, m0="1 + 0.2*sin(2*pi*x)", z0=1.0
    )
    traj = solver.evolve(
        state, solver.SolverConfig(cfl=0.4, t_end=0.3, snapshot_stride=5, gradient_cap=100.0)
    )
    g = gc.gamma
    worst_z = worst_m = 0.0
    for seed in (0.12, 0.42, 0.77):
        curve = charpath.trace(traj, [seed], ["forward"]).column(0)
        charpath.sample_along(curve, traj, ("z", "beta", "m_x", "m", "c"))
        dz = riccati.directional_derivative(curve, "z")
        rhs = -gc.K_c * curve.samples["z"] ** ((g + 1.0) / (g - 1.0)) * (
            curve.samples["beta"] + (g - 1.0) / g * curve.samples["m_x"] * curve.samples["z"]
        )
        worst_z = max(worst_z, float(np.max(np.abs(dz - rhs))))
        dm = riccati.directional_derivative(curve, "m")
        worst_m = max(worst_m, float(np.max(np.abs(dm - curve.samples["c"] * curve.samples["m_x"]))))
    return worst_z, worst_m


def test_z_prime_identity_and_m_prime_chain_rule():
    e128 = _zprime_error(128)
    e256 = _zprime_error(256)
    # z' = -K_c z^((g+1)/(g-1)) (beta + ((g-1)/g) m_x z), converging >= O(h^2)
    assert e256[0] <= e128[0] / 4.0
    assert e256[0] <= 1e-3
    # m' = c m_x (entropy is stationary)
    assert e256[1] <= e128[1] / 4.0
    assert e256[1] <= 3e-6


@pytest.mark.parametrize("x_start, sign", [
    (0.3, 1.0), ([0.05, 0.3, 0.97], np.array([1.0, -1.0, 1.0])),
], ids=["one_seed", "mixed_bundle"])
def test_integrate_position_equals_per_stage_sampling(varying_traj, x_start, sign):
    """Stage time windows found up front give the positions of sampling
    each RK4 stage at its own time."""
    traj = varying_traj
    sampler = charpath.FieldSampler(traj, ("c",))

    def wave_speed(t, x):
        return sampler.sample(np.full(x.shape, t), x)["c"]

    t_nodes = charpath.trace(traj, [0.3], ["forward"]).t
    x = np.array(x_start, dtype=float)
    expect = [x]
    for ta, tb in zip(t_nodes[:-1], t_nodes[1:]):
        dt = tb - ta
        k1 = sign * wave_speed(ta, x)
        k2 = sign * wave_speed(ta + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = sign * wave_speed(ta + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = sign * wave_speed(tb, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        expect.append(x)
    assert np.array_equal(charpath.integrate_position(traj, x_start, t_nodes, sign), expect)


def test_reversibility(varying_traj):
    curve = charpath.trace(varying_traj, [0.3], ["forward"])
    back = charpath.integrate_position(varying_traj, curve.x_path[-1], curve.t[::-1], 1.0)
    assert abs(back[-1, 0] - 0.3) <= 1e-10


def test_operator_identity_recovers_partial_derivatives():
    """(f' + f`)/2 -> f_t and (f' - f`)/(2c) -> f_x at O(h^2)."""
    errs = {}
    for n in (128, 256):
        gc = make_gas(5.0 / 3.0, 1.0 / 15.0)
        grid = fields.Grid(0.0, 1.0, n)
        state, _ = fields.build_initial(
            "-0.35*sin(2*pi*x)", grid, gc, m0="1 + 0.2*sin(2*pi*x)", z0=1.0
        )
        traj = solver.evolve(
            state, solver.SolverConfig(cfl=0.4, t_end=0.3, snapshot_stride=5, gradient_cap=100.0)
        )
        m = state.m_arrays()[0]
        u_x = fields.derivative(ghost_padded(state.u), grid)
        z_x = fields.derivative(ghost_padded(state.z), grid)
        c = riccati.diagnostics(state, ("c",))["c"]
        worst_t = worst_x = 0.0
        for seed in (0.12, 0.42, 0.77):
            fw = charpath.trace(traj, [seed], ["forward"]).column(0)
            bw = charpath.trace(traj, [seed], ["backward"]).column(0)
            charpath.sample_along(fw, traj, ("z",))
            charpath.sample_along(bw, traj, ("z",))
            df = riccati.directional_derivative(fw, "z")
            db = riccati.directional_derivative(bw, "z")
            i = int(round(seed * n)) % n
            z_t = -(c[i] / m[i]) * u_x[i]
            worst_t = max(worst_t, abs(0.5 * (df[0] + db[0]) - z_t))
            worst_x = max(worst_x, abs((df[0] - db[0]) / (2.0 * c[i]) - z_x[i]))
        errs[n] = (worst_t, worst_x)
    assert errs[256][0] <= errs[128][0] / 3.0
    assert errs[256][1] <= errs[128][1] / 3.0
    assert errs[256][0] <= 2e-2
    assert errs[256][1] <= 5e-6
