"""The block formatter behind fields.csv and curves.csv: exactly ``'%.16g' % v``."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from steepen import _g16, cli, riccati, solver
from steepen.config import build_config, make_initial, parse_kv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
COMMA = _g16.tail(",")
FMT = _g16.Formatter(cli._VALUES_PER_BLOCK)


def formatted(values) -> bytes:
    return _g16.text(FMT.slots(np.asarray(values, dtype=float), COMMA))


def reference(values) -> bytes:
    return "".join("%.16g," % v for v in np.asarray(values, dtype=float).tolist()).encode("ascii")


def carries():
    """Doubles just below a power of ten that ``%.16g`` rounds up to it."""
    out = []
    for k in range(-249, 250):
        a = float(f"1e{k}")
        for _ in range(2):
            num, den = a.as_integer_ratio()
            below = num * 10 ** max(-k, 0) < den * 10 ** max(k, 0)
            if below and "%.15e" % a == "1.000000000000000e%+03d" % k:
                out.append(a)
            a = math.nextafter(a, 0.0)
    return out


def edge_values():
    powers = [float(f"1e{k}") for k in range(-5, 18)]
    near = [math.nextafter(p, d) for p in powers for d in (0.0, math.inf)]
    tiny = [5e-324, 2.5e-323, 1e-310, 2.2250738585072014e-308, 2.2250738585072009e-308]
    fast_edges = [e * s for e in (1e-250, 1e250) for s in (1.0 - 2**-52, 1.0, 1.0 + 2**-52)]
    values = (
        [0.0, 9.3, 99999.99999999999, 2.0**50 + 0.5, 2.0**50 + 1.5, 9999999999999999.0,
         1e-5, 1e-4, 1e16, 1e100, 1e-100, 1.5e100, 1.5e-100, 0.1, 1.0 / 3.0, 1200.0,
         0.00012, 1e15, 123456789012345.6, math.nan, math.inf]
        + powers + near + tiny + fast_edges + carries()
    )
    return np.array(values + [-v for v in values])


def test_edge_values_match_percent_format():
    values = edge_values()
    assert formatted(values) == reference(values)
    # the carry to 10**16 (read as 1 and zeros, one decade up) is taken on
    # the fast path for the carries inside the fast range
    halves, _, undecided = FMT.decide(np.array(carries()))
    assert np.any((halves[0] == 10**8) & ~undecided)


def test_random_bit_patterns_match_percent_format():
    # every class of double: nan and inf, subnormals, both signs, all decades
    bits = np.random.default_rng(20260419).integers(0, 2**64, size=10**6, dtype=np.uint64)
    # and the infinities and nans of both signs, a payload nan among them
    specials = np.array([0x7FF << 52, 0xFFF << 52, 0x7FF8 << 48, 0xFFF8 << 48, (0x7FF << 52) + 1],
                        dtype=np.uint64)
    values = np.concatenate((bits, specials)).view(np.float64)
    assert np.isnan(values).sum() > 5 and np.isinf(values).sum() == 2
    for lo in range(0, values.size, 2**16):
        block = values[lo:lo + 2**16]
        assert formatted(block) == reference(block)


def test_scaled_normals_match_percent_format():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(2 * 10**5) * 10.0 ** rng.integers(-30, 30, 2 * 10**5)
    assert formatted(values) == reference(values)


def test_slots_take_the_shape_of_values_and_their_tails():
    values = np.array([[1.5, -0.0, np.nan], [1e300, 2.0**-1074, 1e-7]])
    tails = np.array([COMMA, COMMA, _g16.tail("\n")])
    slots = FMT.slots(values, tails)
    assert slots.shape == (2, 3, 4)
    assert _g16.text(slots) == b"1.5,-0,nan\n1e+300,4.940656458412465e-324,1e-07\n"
    assert _g16.text(_g16.words_of("seed0,forward,")) == b"seed0,forward,"


@pytest.mark.parametrize("name", ["lax_blowup", "one_sided_profile", "stationary"])
def test_fast_path_decides_every_value_of_the_demo_runs(name, tmp_path):
    kv = parse_kv((CONFIGS / f"{name}.cfg").read_text())
    kv["grid.n"] = "128"
    kv["output.directory"] = str(tmp_path)
    cfg = build_config(kv, CONFIGS)
    traj = solver.evolve(make_initial(cfg)[0], cfg.solver)
    first = traj.snapshots[0]
    columns = [first.grid.x, first.m_arrays()[0], traj.times]
    for snap in traj.snapshots:
        d = riccati.diagnostics(snap, cli.FIELDS_COLUMNS[2:])
        columns += list(d.values())
    values = np.concatenate(columns)
    for lo in range(0, values.size, FMT.size):
        undecided = FMT.decide(values[lo:lo + FMT.size])[2]
        assert not undecided.any(), values[lo:lo + FMT.size][undecided][:5]


#: the 18 gradient diagnostics of :func:`riccati.diagnostics`
DIAGNOSTIC_NAMES = ("u_x", "z_x", "s_x", "r_x", "alpha", "beta", "y", "q", "y_tilde", "q_tilde",
                    "k1", "k2", "a0", "a2", "a0_t", "a1_t", "a2_t", "mu_bar")


def test_snapshot_pass_memory_stays_near_the_diagnostics(tmp_path):
    kv = parse_kv((CONFIGS / "one_sided_profile.cfg").read_text())
    kv["grid.n"] = "4096"
    kv["output.directory"] = str(tmp_path)
    cfg = build_config(kv, CONFIGS)
    snap = make_initial(cfg)[0]
    traj = solver.Trajectory([snap], None, None)
    extrema = np.empty((3, 1))

    tracemalloc.start()
    riccati.diagnostics(snap, DIAGNOSTIC_NAMES)
    diagnostics = tracemalloc.get_traced_memory()[1]
    tracemalloc.reset_peak()
    fmt = _g16.Formatter(cli._VALUES_PER_BLOCK)
    with open(tmp_path / "fields.csv", "wb") as fh:
        for _ in cli._snapshot_pass(fh, fmt, traj, ("y",), extrema):
            pass
    # the formatter's tables and scratch are a mapping of their own, which
    # tracemalloc does not see
    traced = tracemalloc.get_traced_memory()[1]
    peak = traced + fmt.nbytes
    tracemalloc.stop()
    # the 18 diagnostics are 18 arrays of n doubles (576 kB, 805 kB at their
    # peak).  The pass computes only the fields it writes and samples; on
    # top of them sit the x and m slots (256 kB), the formatter's tables
    # (100 kB) and scratch (219 kB), and one snapshot's row buffer and a
    # write's bytes, freed before the next.  Row templates and
    # whole-snapshot tables would add about 700 kB at this n.
    assert diagnostics > 18 * 4096 * 8
    assert peak < diagnostics + 480 * 1024, (peak, diagnostics)
    # what the pass allocates stays below the 18 diagnostics: fields.csv's
    # columns and y need fewer fields than all of them
    assert traced < diagnostics, (traced, diagnostics)


def test_snapshot_pass_formats_the_frozen_columns_once(tmp_path, monkeypatch):
    kv = parse_kv((CONFIGS / "one_sided_profile.cfg").read_text())
    n = 500  # not a whole number of blocks of rows
    kv["grid.n"] = str(n)
    kv["solver.t_end"] = "0.2"
    kv["output.directory"] = str(tmp_path)
    cfg = build_config(kv, CONFIGS)
    traj = solver.evolve(make_initial(cfg)[0], cfg.solver)
    snapshots = len(traj.snapshots)
    assert snapshots > 2 and np.ptp(traj.snapshots[0].m_arrays()[0]) > 0  # m varies
    rows_per_block = cli._VALUES_PER_BLOCK // 8  # of the 8 changing columns
    assert n % rows_per_block
    counts = []  # the values of each slots call
    real = _g16.Formatter.slots

    def counting(self, values, tails, out=None):
        counts.append(np.size(values))
        return real(self, values, tails, out)

    monkeypatch.setattr(_g16.Formatter, "slots", counting)
    fmt = _g16.Formatter(cli._VALUES_PER_BLOCK)
    extrema = np.empty((3, snapshots))
    with open(tmp_path / "fields.csv", "wb") as fh:
        for _ in cli._snapshot_pass(fh, fmt, traj, ("y",), extrema):
            pass
    # x and m once per run, one t per snapshot, and the 8 changing columns
    # of every snapshot, by one call per block of rows
    assert sum(counts) == 2 * n + snapshots + 8 * n * snapshots
    assert len(counts) == 3 + snapshots * -(-n // rows_per_block)


def test_one_block_stays_within_its_bytes_per_value():
    # a full fields.csv block, assembled in its row buffer and written as
    # cli._write_fields_rows does: the 8 changing columns formatted into
    # slots 3 to 10, z and u moved one slot left, the t, x and m slots
    # copied in, and the rows' text written 128 rows at a time
    fmt = _g16.Formatter(cli._VALUES_PER_BLOCK)
    cols = len(cli._CHANGING_COLUMNS)
    rng = np.random.default_rng(11)
    values = rng.standard_normal((cli._VALUES_PER_BLOCK // cols, cols))
    t, x, m = 1.0 / 3.0, rng.standard_normal(len(values)), rng.standard_normal(len(values))
    t_slot, x_slots, m_slots = (FMT.slots(np.atleast_1d(a), COMMA) for a in (t, x, m))
    rows = np.zeros((len(values), len(cli.FIELDS_COLUMNS), 4), _g16.WORD)
    tails = np.full(cols, COMMA)
    tails[-1] = _g16.tail("\n")
    written = []  # the length of each write

    class Sink:
        def write(self, data):
            written.append(len(data))

    tracemalloc.start()
    fmt.slots(values, tails, out=rows[:, 3:])
    rows[:, 2] = rows[:, 3]
    rows[:, 3] = rows[:, 4]
    rows[:, 0] = t_slot[0]
    rows[:, 1] = x_slots
    rows[:, 4] = m_slots
    cli._write_rows(Sink(), rows)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    table = [[t, xi, z, u, mi, *rest] for xi, mi, (z, u, *rest) in zip(x, m, values.tolist())]
    text = "".join(",".join("%.16g" % v for v in row) + "\n" for row in table)
    assert _g16.text(rows) == text.encode("ascii")
    assert sum(written) == len(text)
    # the scratch the formatter owns, and what one block allocates on top
    # of it: numpy's buffer for the gather into the row buffer (a word a
    # value) and the text of each write's 128 rows, which bytes.translate
    # allocates at its input's size before cutting it down
    assert (fmt._pool.nbytes + fmt._flags.nbytes) / fmt.size <= 76
    assert fmt.nbytes <= 110 * 1024 + 76 * fmt.size
    assert peak / values.size <= 80, peak / values.size
