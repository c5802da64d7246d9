import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from steepen import eos, fields, solver
from steepen.expressions import ExpressionError, parse_expression

from conftest import ghost_padded, make_gas


# --- grid -------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        fields.Grid(1.0, 0.0, 64)
    with pytest.raises(ValueError):
        fields.Grid(0.0, 1.0, 8)
    g = fields.Grid(-1.0, 3.0, 32)
    assert g.h == pytest.approx(0.125)
    assert g.x[0] == -1.0 and g.x[-1] == pytest.approx(3.0 - g.h)
    assert g.wrap(3.0) == pytest.approx(-1.0)
    assert g.wrap(-1.5) == pytest.approx(2.5)


# --- profiles ---------------------------------------------------------------


def test_parse_expression_constant_and_one_sided_family():
    one = parse_expression("1")
    assert one(17.0) == 1.0
    prof = parse_expression("(exp(-x)+1)^(-4)")
    x = np.linspace(0.0, 5.0, 21)
    assert np.allclose(prof(x), (np.exp(-x) + 1.0) ** -4, rtol=1e-14)


def test_parse_expression_syntax_error_offset():
    with pytest.raises(ExpressionError) as err:
        parse_expression("sin(+)")
    assert err.value.position == 4


def test_profile_analytic_derivatives():
    m = parse_expression("(exp(-x)+1)^(-4)")
    m_x, m_xx = m.derivative(1), m.derivative(2)
    x = np.linspace(-1.0, 4.0, 19)
    step = 1e-6
    fd1 = (m(x + step) - m(x - step)) / (2.0 * step)
    assert np.allclose(m_x(x), fd1, rtol=1e-7, atol=1e-10)
    fd2 = (m_x(x + step) - m_x(x - step)) / (2.0 * step)
    assert np.allclose(m_xx(x), fd2, rtol=1e-6, atol=1e-9)


def _profile_file(path, xs, vals):
    path.write_text("# profile\n" + "".join(f"{a:.12g},{b:.12g}\n" for a, b in zip(xs, vals)))
    return path


def test_sampled_profile_spline(tmp_path):
    xs = np.linspace(0.0, 6.0, 200)
    vals = 1.0 + 0.3 * np.tanh(xs - 3.0)
    samples = fields.read_samples(_profile_file(tmp_path / "prof.csv", xs, vals), positive=True)
    grid = fields.Grid(0.5, 5.5, 40)
    state, m = fields.build_initial(0.0, grid, make_gas(), m0=CubicSpline(*samples), z0=1.0)
    m_grid, m_x_grid, _ = state.m_arrays()
    probe = np.linspace(0.5, 5.5, 37)
    assert np.allclose(m(probe), 1.0 + 0.3 * np.tanh(probe - 3.0), atol=1e-7)
    assert np.allclose(m.derivative(1)(probe), 0.3 / np.cosh(probe - 3.0) ** 2, atol=1e-4)
    assert np.allclose(m_grid, 1.0 + 0.3 * np.tanh(grid.x - 3.0), atol=1e-7)
    assert np.allclose(m_x_grid, 0.3 / np.cosh(grid.x - 3.0) ** 2, atol=1e-4)


def test_sampled_profile_file_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1\n1,2\n")
    with pytest.raises(ValueError, match="bad.csv: missing"):
        fields.read_samples(bad, positive=True)
    with pytest.raises(ValueError, match="increasing"):
        fields.read_samples(_profile_file(bad, [0.0, 1.0, 0.5, 2.0], np.ones(4)), positive=True)
    with pytest.raises(ValueError, match="positive"):
        fields.read_samples(_profile_file(bad, np.linspace(0, 1, 5), [1, 1, -1, 1, 1.0]), positive=True)
    x, values = fields.read_samples(bad)  # any sign without ``positive``
    assert np.array_equal(values, [1, 1, -1, 1, 1.0]) and x.size == 5


# --- initial data -----------------------------------------------------------


def test_build_initial_constant_state():
    gc = make_gas(2.0, 0.5)  # prefactor 2 sqrt(K gamma)/(gamma-1) = 2
    grid = fields.Grid(0.0, 1.0, 32)
    state, prof = fields.build_initial(0.0, grid, gc, m0=1.0, tau0=1.0)
    assert np.allclose(state.z, 2.0, rtol=1e-14)
    assert np.all(state.u == 0.0)
    assert state.t == 0.0


def test_build_initial_stationary_pressure():
    g = 1.4
    gc = make_gas(g, 1.0)
    grid = fields.Grid(0.0, 10.0, 128)
    m_expr = "1 + 0.4*tanh(sin(2*pi*(x - 5)/10))"
    p_bar = 2.0
    z_expr = f"({p_bar}/({gc.K_p}*({m_expr})^2))^({(g - 1.0) / (2.0 * g)})"
    state, _ = fields.build_initial(0.0, grid, gc, m0=m_expr, z0=z_expr)
    p, _ = eos.thermo(state.z, state.m_arrays()[0], gc)
    assert np.max(np.abs(p / p_bar - 1.0)) <= 1e-10


def test_build_initial_vacuum_and_positivity_errors():
    gc = make_gas()
    grid = fields.Grid(0.0, 1.0, 32)
    with pytest.raises(eos.VacuumError):
        fields.build_initial(0.0, grid, gc, m0=1.0, tau0=-1.0)
    with pytest.raises(ValueError):
        fields.build_initial(0.0, grid, gc, m0="-1", z0=1.0)
    with pytest.raises(ValueError):
        fields.build_initial(0.0, grid, gc, m0=1.0)  # neither z0 nor tau0
    with pytest.raises(ValueError):
        fields.build_initial(0.0, grid, gc, m0=1.0, z0=1.0, tau0=1.0)


@pytest.mark.parametrize("z0", ["1/(x - x)", lambda x: np.where(x > 0.5, np.nan, 1.0)], ids=["inf", "nan"])
def test_build_initial_non_finite_z_is_not_vacuum(z0):
    grid = fields.Grid(0.0, 1.0, 32)
    with pytest.raises(ValueError, match="state arrays must be finite") as err:
        fields.build_initial(0.0, grid, make_gas(), z0=z0)
    assert not isinstance(err.value, eos.VacuumError)


def test_state_arrays_immutable(gas3):
    grid = fields.Grid(0.0, 1.0, 32)
    state, _ = fields.build_initial(0.0, grid, gas3, m0=1.0, z0=1.0)
    with pytest.raises(ValueError):
        state.z[0] = 2.0


# --- finite differences ------------------------------------------------------


def test_derivative_constant_is_zero(gas3):
    grid = fields.Grid(0.0, 1.0, 64)
    assert np.allclose(fields.derivative(ghost_padded(np.full(64, 3.0)), grid), 0.0, atol=1e-13)


def test_derivative_exact_for_quartics_away_from_wrap():
    grid = fields.Grid(0.0, 1.0, 64)
    x = grid.x
    f = 2.0 + x - 3.0 * x**2 + 0.5 * x**3 + 0.25 * x**4
    d1 = 1.0 - 6.0 * x + 1.5 * x**2 + x**3
    inner = slice(2, 62)
    assert np.allclose(fields.derivative(ghost_padded(f), grid)[inner], d1[inner], atol=1e-10)


def test_derivative_observed_order_at_least_3_8():
    errs = []
    for n in (32, 64, 128, 256):
        grid = fields.Grid(0.0, 2.0, n)
        k = 2.0 * np.pi / 2.0
        f = np.sin(k * grid.x)
        exact = k * np.cos(k * grid.x)
        errs.append(np.max(np.abs(fields.derivative(ghost_padded(f), grid) - exact)))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates >= 3.8), rates


def test_derivative_sawtooth_error_localized_at_jump():
    # a linear ramp is not periodic; the wrap cell sees the jump
    grid = fields.Grid(0.0, 1.0, 64)
    ramp = grid.x.copy()
    d1 = fields.derivative(ghost_padded(ramp), grid)
    inner = slice(2, 62)
    assert np.allclose(d1[inner], 1.0, atol=1e-10)
    assert np.max(np.abs(d1 - 1.0)) > 1.0  # wrap cells are polluted


def test_derivative_linearity():
    rng = np.random.default_rng(3)
    grid = fields.Grid(0.0, 1.0, 64)
    f = rng.normal(size=64)
    g = rng.normal(size=64)
    lhs = fields.derivative(ghost_padded(2.5 * f - 1.25 * g), grid)
    rhs = 2.5 * fields.derivative(ghost_padded(f), grid) - 1.25 * fields.derivative(ghost_padded(g), grid)
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-11 * np.max(np.abs(lhs)) + 1e-13)


@pytest.mark.parametrize("lead", [(), (2,), (2, 3)], ids=lambda s: f"lead{s}")
def test_ghost_views_copy_what_fill_ghosts_copies(lead):
    n = 16
    rng = np.random.default_rng(5)
    expect = rng.normal(size=(*lead, n + 4))
    got = expect.copy()
    fields.fill_ghosts(expect)
    ghosts, nodes = fields.ghost_views(got)
    ghosts[...] = nodes
    assert np.array_equal(got, expect)


def _assert_into_buffers_equals(f, grid, expect):
    # a stencil's out= and scratch= change where the result and the 8 f
    # product live, not one bit of the result
    padded_shape = (*np.shape(f)[:-1], grid.n + 4)
    for given in (("out",), ("scratch",), ("out", "scratch")):
        buffers = {name: np.full(padded_shape, np.nan) for name in given}
        got = fields.Stencil(f, grid, **buffers)()
        assert got.shape == expect.shape
        assert np.array_equal(got, expect)
        if "out" in buffers:
            assert np.shares_memory(got, buffers["out"])


@pytest.mark.parametrize("n", [16, 2048])
@pytest.mark.parametrize("rows", [1, 2, 4, (2, 3)])
def test_derivative_bitwise_equals_roll_reference(n, rows):
    # the ghost-padded stencil must give the np.roll formula bit for bit,
    # on one field and, row by row, on a stack such as the solver's (z, u)
    # or riccati.diagnostics' (u, z, u + m z, u - m z)
    grid = fields.Grid(0.0, 1.0, n)
    rng = np.random.default_rng(n + int(np.prod(rows)))
    shape = (*np.atleast_1d(rows), n)
    f = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    fp1, fp2, fm1, fm2 = (np.roll(f, shift, axis=-1) for shift in (-1, -2, 1, 2))
    ref = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * grid.h)
    if rows == 1:
        f, ref = f[0], ref[0]
    padded = ghost_padded(f)
    out = fields.derivative(padded, grid)
    assert out.shape == f.shape
    assert np.array_equal(out, ref)
    _assert_into_buffers_equals(padded, grid, ref)


@pytest.mark.parametrize("n", [16, 2048])
@pytest.mark.parametrize("rows", [1, 2, 4, (2, 3)])
def test_derivative_of_ghost_padded_values_equals_unpadded(n, rows):
    # rows whose ghost cells fill_ghosts wrote in place, as the solver's and
    # riccati's are, give the nodes' derivative bit for bit
    grid = fields.Grid(0.0, 1.0, n)
    rng = np.random.default_rng(n + int(np.prod(rows)))
    shape = (*np.atleast_1d(rows), n)
    f = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    if rows == 1:
        f = f[0]
    padded = np.empty((*f.shape[:-1], n + 4))
    padded[..., 2:-2] = f
    fields.fill_ghosts(padded)
    out = fields.derivative(padded, grid)
    assert out.shape == f.shape
    assert np.array_equal(out, fields.derivative(ghost_padded(f), grid))
    _assert_into_buffers_equals(padded, grid, out)
    for extra in (1, 2):
        with pytest.raises(ValueError, match="grid size"):
            fields.derivative(padded[..., : n + extra], grid)


@pytest.mark.parametrize("shape", [(16,), (2, 16), (2, 3, 16), ()], ids=str)
def test_derivative_rejects_rows_without_ghost_cells(shape):
    # n-wide rows are not padded on the caller's behalf, by a call or by a
    # stencil bound once
    grid = fields.Grid(0.0, 1.0, 16)
    with pytest.raises(ValueError, match="ghost-padded rows"):
        fields.derivative(np.zeros(shape), grid)
    with pytest.raises(ValueError, match="ghost-padded rows"):
        fields.Stencil(np.zeros(shape), grid)


def test_derivative_rejects_buffers_it_cannot_write_in_place():
    grid = fields.Grid(0.0, 1.0, 16)
    f = np.zeros((2, 20))
    for bad in (np.empty((2, 16)), np.empty((20, 2)).T, np.empty((2, 20), dtype=np.float32)):
        for name in ("out", "scratch"):
            with pytest.raises(ValueError, match="padded shape"):
                fields.Stencil(f, grid, **{name: bad})


def test_stencil_binds_views_of_its_rows_only():
    # a copy would go stale when the rows are rewritten, so the bound form
    # takes only rows it can view; derivative copies anything else first
    grid = fields.Grid(0.0, 1.0, 16)
    f = np.random.default_rng(3).normal(size=(2, 20))
    for bad in (f.tolist(), f.astype(np.float32), np.asfortranarray(f)):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            fields.Stencil(bad, grid)
        assert np.array_equal(fields.derivative(bad, grid), fields.derivative(np.array(bad, dtype=float), grid))


@pytest.mark.parametrize("n", [16, 2048])
@pytest.mark.parametrize("rows", [2, 4])
def test_stencil_equals_derivative_after_its_rows_are_rewritten(n, rows):
    # the solver's (z, u) and riccati's four-row stacks; a stencil holds
    # views, so each call reads what its rows hold then
    grid = fields.Grid(0.0, 1.0, n)
    rng = np.random.default_rng(n + rows)
    padded = np.empty((rows, n + 4))
    out, scratch = np.full((2, rows, n + 4), np.nan)
    bound = (fields.Stencil(padded, grid), fields.Stencil(padded, grid, out=out, scratch=scratch))
    for _ in range(3):
        padded[..., 2:-2] = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-8, 9, size=(rows, n))
        fields.fill_ghosts(padded)
        expect = fields.derivative(padded.copy(), grid)
        for stencil in bound:
            got = stencil()
            assert np.array_equal(got, expect)
            assert got is stencil()  # the same view of out, call after call
            assert fields.derivative(stencil, grid) is got
        assert np.shares_memory(bound[1](), out)
    assert bound[0].nbytes == padded.nbytes


@pytest.mark.parametrize(
    "first, second",
    [("out", "values"), ("scratch", "values"), ("scratch", "out")],
)
def test_derivative_refuses_buffers_that_share_memory(first, second):
    # buffers that share memory make the passes read what they have already
    # overwritten: on sin 2 pi x at n = 16 the three cases were off by up to
    # 7.5, 3.6 and 13.2 with no error, against a derivative peaking at 2 pi
    grid = fields.Grid(0.0, 1.0, 16)
    f = ghost_padded(np.sin(2.0 * np.pi * grid.x))
    buffers = {"values": f, "out": np.empty_like(f), "scratch": np.empty_like(f)}
    buffers[first] = buffers[second]
    given = {name: buffers[name] for name in ("out", "scratch")}
    with pytest.raises(ValueError, match=f"{first} shares memory with {second}"):
        fields.Stencil(f, grid, **given)


def test_stencil_takes_two_halves_of_one_array():
    # the solver's result rows and 8 f scratch are halves of one array
    grid = fields.Grid(0.0, 1.0, 16)
    f = ghost_padded(np.random.default_rng(4).normal(size=(2, 16)))
    out, scratch = np.empty((2, 2, 20))
    assert np.array_equal(fields.Stencil(f, grid, out=out, scratch=scratch)(), fields.derivative(f, grid))


def test_derivative_runs_a_stencil_only_as_it_was_bound():
    grid = fields.Grid(0.0, 1.0, 16)
    stencil = fields.Stencil(np.zeros((2, 20)), grid)
    assert np.array_equal(fields.derivative(stencil, fields.Grid(0.0, 1.0, 16)), np.zeros((2, 16)))
    with pytest.raises(ValueError, match="another grid"):
        fields.derivative(stencil, fields.Grid(0.0, 2.0, 16))


# --- assumption checking ------------------------------------------------------


def _bounds(**kw):
    base = dict(Z_L=0.5, Z_U=2.0, M1=0.5, M2=2.0, M3=1.0, M4=1.0)
    base.update(kw)
    return fields.AssumptionBounds(**base)


def test_validate_assumptions_pass(gas3):
    grid = fields.Grid(0.0, 1.0, 32)
    state, _ = fields.build_initial(0.0, grid, gas3, m0=1.0, z0=1.0)
    report = fields.validate_assumptions([state], _bounds())
    assert all(c.passed for c in report)
    by_name = {c.name: c for c in report}
    assert by_name["m_x_abs"].observed == 0.0
    assert by_name["m_xx_abs"].observed == 0.0


def test_validate_assumptions_zero_derivative_bounds_admit_a_constant_profile(gas3):
    grid = fields.Grid(0.0, 1.0, 32)
    state, _ = fields.build_initial(0.0, grid, gas3, m0=1.0, z0=1.0)
    checks = fields.validate_assumptions([state], _bounds(M3=0.0, M4=0.0))
    assert all(c.passed for c in checks)


def test_validate_assumptions_z_dip_recorded(gas3):
    # rarefying data: u_x > 0 drives z down; watch it cross a tight Z_L
    grid = fields.Grid(0.0, 1.0, 64)
    state, _ = fields.build_initial("0.8*sin(2*pi*x)", grid, gas3, m0=1.0, z0=1.0)
    traj = solver.evolve(state, solver.SolverConfig(cfl=0.4, t_end=0.12, snapshot_stride=4))
    report = fields.validate_assumptions(traj.snapshots, _bounds(Z_L=0.9))
    by_name = {c.name: c for c in report}
    check = by_name["z_lower"]
    assert not check.passed
    assert check.observed < 0.9
    assert check.t is not None and check.t > 0.0
    assert check.x is not None
    assert not all(c.passed for c in report)


def test_bounds_validation():
    with pytest.raises(ValueError):
        fields.AssumptionBounds(Z_L=1.0, Z_U=0.5, M1=0.5, M2=2.0, M3=1.0, M4=1.0)
    with pytest.raises(ValueError):
        fields.AssumptionBounds(Z_L=0.1, Z_U=0.5, M1=0.5, M2=2.0, M3=-1.0, M4=1.0)
    # zero M3, M4 allowed: constant-entropy limit
    b = _bounds(M3=0.0, M4=0.0)
    assert b.M3 == 0.0 and b.M4 == 0.0


def test_entropy_profile_frozen_through_run(constant_traj):
    first = constant_traj.snapshots[0].m_arrays()
    last = constant_traj.snapshots[-1].m_arrays()
    for a, b in zip(first, last):
        assert a is b  # same frozen arrays, bit-identical by construction
        assert not a.flags.writeable
