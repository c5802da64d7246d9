"""Command surface: validate / run / certify / sweep.

A run executes load (which validates) -> build -> evolve -> diagnostics
-> certify -> export and writes fields.csv, curves.csv, certificate.txt,
assumptions.txt, summary.txt (and SVG plots when enabled) into the
configured output directory.  Runs are deterministic: identical configs
produce byte-identical CSV outputs.

Exit codes: 0 success, 2 config error, 3 numeric failure (a vacuum or
CFL-collapse stop, whatever the certificate, or a non-finite state
before t_end without a blowup certificate; the outputs up to that point
are still written), 4 I/O error.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from steepen import _g16, charpath, detector, fields, riccati, solver, svg
from steepen.config import (
    ConfigError,
    RunConfig,
    build_config,
    is_config_leaf,
    load_config,
    make_initial,
)
from steepen.eos import VacuumError
from steepen.riccati import RESIDUAL_KINDS


def _fmt(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.16g}"
    return str(v)


def _write_kv(path: Path, title: str, pairs) -> None:
    with open(path, "w") as fh:
        fh.write(f"# {title}\n")
        for key, value in pairs:
            fh.write(f"{key} = {_fmt(value)}\n")


FIELDS_COLUMNS = ("t", "x", "z", "u", "m", "p", "c", "alpha", "beta", "y", "q")
# the columns that change from snapshot to snapshot, formatted per block;
# t, x and the frozen m are formatted once per run
_CHANGING_COLUMNS = ("z", "u", "p", "c", "alpha", "beta", "y", "q")


def _write_fields_rows(fh, fmt: _g16.Formatter, d: dict, t, x, m) -> None:
    """Write fields.csv's rows of one snapshot, ``d`` its grid fields by
    name and ``t``, ``x``, ``m`` the slots of its time, of the grid nodes
    and of the frozen entropy.  The rows are assembled per block in one
    buffer of slots: the changing columns formatted by one call into slots
    3 to 10, ``z`` and ``u`` moved one slot left, then ``t``, ``x`` and
    ``m`` copied in."""
    columns = [d[name] for name in _CHANGING_COLUMNS]
    n = len(x)
    # each column followed by a comma but q, which ends the row
    tails = np.full(len(columns), _g16.tail(","))
    tails[-1] = _g16.tail("\n")
    step = min(n, _g16.VALUES_PER_BLOCK // len(columns))
    values = np.empty((step, len(columns)))
    rows = np.empty((step, len(FIELDS_COLUMNS), 4), _g16.WORD)
    rows[:, 0] = t
    for lo in range(0, n, step):
        block = rows[:min(step, n - lo)]
        np.stack([col[lo:lo + step] for col in columns], axis=1, out=values[:len(block)])
        fmt.slots(values[:len(block)], tails, out=block[:, 3:])
        block[:, 2] = block[:, 3]
        block[:, 3] = block[:, 4]
        block[:, 1] = x[lo:lo + step]
        block[:, 4] = m[lo:lo + step]
        _g16.write(fh, block)


def _snapshot_pass(fh, fmt: _g16.Formatter, traj: solver.Trajectory, names: tuple, extrema: np.ndarray):
    """Walk the snapshots once, computing each one's grid fields once.

    For each snapshot ``k`` in turn, one :func:`riccati.diagnostics` call
    computes fields.csv's changing columns and ``names``; then write its
    block of fields.csv to the binary file ``fh``, record its ``min y``,
    ``min q`` and :func:`detector.gradient_peak` in ``extrema[:, k]``, and
    yield its grid rows of ``names`` (a :func:`charpath.sample_along` row
    source).  The other fields are dropped before the yield.

    fields.csv has one row per (snapshot, node), every value as
    ``%.16g`` (by ``fmt``).  ``t``, ``x`` and ``m`` (the frozen entropy
    every snapshot shares) are formatted once per run; the other 8
    columns are formatted per block of rows.
    """
    first = traj.snapshots[0]
    comma = _g16.tail(",")
    t = fmt.slots(traj.times, comma)
    x = fmt.slots(first.grid.x, comma)
    m = fmt.slots(first.m_arrays()[0], comma)
    fh.write(",".join(FIELDS_COLUMNS).encode("ascii") + b"\n")
    for k, snap in enumerate(traj.snapshots):
        d = riccati.diagnostics(snap, _CHANGING_COLUMNS + names)
        _write_fields_rows(fh, fmt, d, t[k], x, m)
        extrema[:, k] = np.min(d["y"]), np.min(d["q"]), detector.gradient_peak(d)
        rows = {name: d[name] for name in names}
        del d
        yield rows


def _curve_pairs(cfg: RunConfig, traj: solver.Trajectory) -> list:
    """The configured (seed index, direction) pairs, one bundle column each;
    none when the run stopped at its first state (nothing to interpolate
    between)."""
    if len(traj.snapshots) < 2:
        return []
    return [(si, direction) for si in range(len(cfg.diagnostics.seeds))
            for direction in cfg.diagnostics.directions]


def _residual_names(cfg: RunConfig) -> tuple:
    """The quantities the configured residuals sample on the curves."""
    return tuple(dict.fromkeys(
        name for kind in cfg.diagnostics.residuals for name in RESIDUAL_KINDS[kind].sampled
    ))


def _residuals(cfg: RunConfig, bundle, pairs, t_resolved: float):
    """Evaluate the selected residuals on every column of the sampled bundle.

    Returns the labelled curves, the curves.csv blocks ``(curve_id,
    direction, curve, values, residual)`` and the residual maxima on the
    resolved window [0, t_resolved] (``nan`` when a residual is).
    """
    blocks = []
    residual_max: dict = {}
    curves = []
    for column, (si, direction) in enumerate(pairs):
        curve = bundle.column(column)
        curves.append((f"seed{si}_{direction}", curve))
        window = curve.t <= t_resolved
        for name in cfg.diagnostics.residuals:
            kind = RESIDUAL_KINDS[name]
            if kind.direction != direction:
                continue
            res = riccati.residual(curve, name)
            if np.any(window):
                residual_max[name] = float(
                    np.maximum(residual_max.get(name, 0.0), np.max(np.abs(res[window])))
                )
            blocks.append((f"seed{si}_{name}", direction, curve, curve.samples[kind.measured], res))
    return curves, blocks, residual_max


def _write_curves_csv(path: Path, blocks, fmt: _g16.Formatter) -> None:
    """One row per curve node of each block, the numbers as ``%.16g`` (by
    ``fmt``), formatted per block of rows behind the block's
    ``curve_id,direction,`` words."""
    tails = np.array([_g16.tail(sep) for sep in ",,,\n"])
    step = _g16.VALUES_PER_BLOCK // 4
    with open(path, "wb") as fh:
        fh.write(b"curve_id,direction,t,x,value,residual\n")
        for cid, direction, curve, values, res in blocks:
            head = _g16.words_of(f"{cid},{direction},")
            columns = (curve.t, curve.x, values, res)
            rows = np.empty((min(len(curve.t), step), len(head) + 16), _g16.WORD)
            rows[:, :len(head)] = head
            cells = rows[:, len(head):].reshape(len(rows), 4, 4)
            table = np.empty((len(rows), 4))
            for lo in range(0, len(curve.t), step):
                k = min(step, len(curve.t) - lo)
                np.stack([col[lo:lo + step] for col in columns], axis=1, out=table[:k])
                fmt.slots(table[:k], tails, out=cells[:k])
                _g16.write(fh, rows[:k])


def _primary_certificate(cert14, cert15):
    """The certificate a run reports first: thm15 when it certifies, else
    thm14 when it was checked, else thm15 (None when neither was)."""
    if cert15 is not None and cert15.kind != "none":
        return cert15
    return cert14 if cert14 is not None else cert15


def _certificate_pairs(cfg: RunConfig, state0, ths, cert14, cert15):
    primary = _primary_certificate(cert14, cert15)
    pairs = []
    if primary is not None:
        pairs += [
            ("kind", primary.kind),
            ("threshold", primary.threshold),
            ("epsilon", cfg.certify.epsilon),
            ("witness_x", primary.witness_x),
            ("witness_value", primary.witness_value),
            ("t_star_bound", primary.t_star_bound),
            ("conditional_on_assumptions", primary.conditional),
        ]
    else:
        pairs += [("kind", "none"), ("conditional_on_assumptions", True)]
    if ths is not None:
        pairs += [("N", ths.N), ("N_tilde", ths.N_tilde), ("A1", ths.A1), ("A2", ths.A2)]
        m, m_x, m_xx = state0.m_arrays()
        disc = ths.A1 * m_x**2 + ths.A2 * m * m_xx
        pairs.append(("tilde_discriminant_negative_somewhere", bool(np.any(disc < 0.0))))
    if cert14 is not None:
        pairs += [
            ("thm14.kind", cert14.kind),
            ("thm14.threshold", cert14.threshold),
            ("thm14.witness_x", cert14.witness_x),
            ("thm14.witness_value", cert14.witness_value),
        ]
    if cert15 is not None:
        pairs += [
            ("thm15.kind", cert15.kind),
            ("thm15.witness_x", cert15.witness_x),
            ("thm15.witness_value", cert15.witness_value),
            ("thm15.t_star_bound", cert15.t_star_bound),
        ]
    if cfg.certify.bounds is not None:
        b = cfg.certify.bounds
        pairs += [(f"bounds.{k}", getattr(b, k)) for k in ("Z_L", "Z_U", "M1", "M2", "M3", "M4")]
    # the decoupled-ODE coefficients are only measurable along a completed
    # run; certificates are a-priori statements about the initial data
    pairs.append(("coefficients_measured_along_run", "a0,a2 sampled from the run, not predicted"))
    return pairs


def _assumption_pairs(checks: list):
    pairs = []
    for check in checks:
        pairs.append((f"{check.name}.observed", check.observed))
        pairs.append((f"{check.name}.bound", check.bound))
        pairs.append((f"{check.name}.passed", check.passed))
        if check.t is not None:
            pairs.append((f"{check.name}.t", check.t))
        if check.x is not None:
            pairs.append((f"{check.name}.x", check.x))
    pairs.append(("all_passed", all(check.passed for check in checks)))
    return pairs


def _initial_state(cfg: RunConfig):
    """Make the output directory and build the t = 0 state; None, after a
    ``stage build`` message, when the initial data cannot be built."""
    cfg.output.directory.mkdir(parents=True, exist_ok=True)
    try:
        return make_initial(cfg)[0]
    except (VacuumError, ValueError) as exc:
        print(f"stage build: {exc}", file=sys.stderr)
        return None


def _write_reports(cfg: RunConfig, state0, states, title: str):
    """Write certificate.txt for ``state0`` and, when the config has bounds,
    assumptions.txt (headed ``title``) over ``states``; returns the
    ``(cert14, cert15)`` certificates (None where not checked)."""
    bounds = cfg.certify.bounds
    ths = cert14 = cert15 = None
    if bounds is not None:
        ths = detector.thresholds(bounds, cfg.gas.gamma, cfg.certify.epsilon)
        cert14 = detector.certify_thm14(state0, bounds, cfg.certify.epsilon)
    if cfg.certify.A is not None:
        cert15 = detector.certify_thm15(state0, cfg.certify.A, bounds)
    out = cfg.output.directory
    _write_kv(out / "certificate.txt", "certificate report",
              _certificate_pairs(cfg, state0, ths, cert14, cert15))
    if bounds is not None:
        checks = fields.validate_assumptions(states, bounds)
        _write_kv(out / "assumptions.txt", title, _assumption_pairs(checks))
    return cert14, cert15


def run_pipeline(cfg: RunConfig) -> int:
    """Run ``cfg`` end to end, write its outputs and return the exit code."""
    return _run(cfg)[0]


def _run(cfg: RunConfig):
    """The pipeline behind :func:`run_pipeline`: ``(exit code, summary pairs)``.

    The pairs are those written to summary.txt, and empty when the run
    stops before writing it.
    """
    state0 = _initial_state(cfg)
    if state0 is None:
        return 3, []
    out = cfg.output.directory

    # the one formatter of both CSVs, made before the run's big allocations
    # and dropped once curves.csv is written
    fmt = _g16.Formatter()
    traj = solver.evolve(state0, cfg.solver)
    # past 0.8 t_stop of a blowup run the fields leave the grid's
    # resolution; residuals and drift are reported on the window before it
    t_stop = traj.termination.t_stop
    t_resolved = 0.8 * t_stop if traj.termination.kind == "gradient_blowup" else t_stop

    # every (seed, direction) pair is one column of a single traced bundle;
    # the one pass over the snapshots then writes fields.csv, records the
    # extrema and feeds the bundle's samples, so each snapshot's diagnostics
    # are computed once and dropped before the next
    pairs = _curve_pairs(cfg, traj)
    names = _residual_names(cfg)
    extrema = np.empty((3, len(traj.snapshots)))  # min y, min q, gradient peak
    try:
        bundle = None
        if pairs:
            seeds = cfg.diagnostics.seeds
            bundle = charpath.trace(traj, [seeds[si] for si, _ in pairs], [d for _, d in pairs])
        with open(out / "fields.csv", "wb") as fh:
            rows = _snapshot_pass(fh, fmt, traj, names, extrema)
            if bundle is not None:
                charpath.sample_along(bundle, traj, names, rows)
            for _ in rows:  # the snapshots no curve node needs
                pass
        curves, blocks, residual_max = _residuals(cfg, bundle, pairs, t_resolved)
    except ValueError as exc:
        print(f"stage diagnostics: {exc}", file=sys.stderr)
        return 3, []
    _write_curves_csv(out / "curves.csv", blocks, fmt)
    del fmt, blocks
    min_y, min_q, peak = extrema

    estimate = detector.detect_blowup(traj, peak)
    cert14, cert15 = _write_reports(cfg, state0, traj.snapshots, "assumption report")

    primary = _primary_certificate(cert14, cert15)
    primary_kind = "none" if primary is None else primary.kind
    drift = solver.conserved_drift(traj, t_max=t_resolved)
    summary = [
        ("termination", traj.termination.kind),
        ("t_stop", traj.termination.t_stop),
        ("x_loc", traj.termination.x_loc),
        ("steps", traj.steps_taken),
        ("min_y0", float(min_y[0])),
        ("min_q0", float(min_q[0])),
        ("t_blow", None if estimate is None else estimate.t_blow),
        ("t_blow_uncertainty", None if estimate is None else estimate.uncertainty),
        ("certificate", primary_kind),
        ("t_star_bound", None if cert15 is None else cert15.t_star_bound),
        ("int_u_drift", drift["int_u"]),
        ("int_tau_drift", drift["int_tau"]),
    ]
    summary += [(f"residual_max.{k}", v) for k, v in sorted(residual_max.items())]
    _write_kv(out / "summary.txt", "run summary", summary)

    if cfg.output.emit_svg:
        t_series = traj.times
        svg.line_plot(
            out / "yq_extrema.svg",
            [("min y", t_series, min_y), ("min q", t_series, min_q)],
            title="extrema of the scaled gradient diagnostics",
            xlabel="t", ylabel="min over x",
        )
        svg.line_plot(
            out / "characteristics.svg",
            [(cid, c.t, c.x_path) for cid, c in curves],
            title="traced characteristics",
            xlabel="t", ylabel="x (unwrapped)",
        )

    # under a certificate's hypotheses z stays in [Z_L, Z_U], so the wave
    # speed stays bounded: a CFL collapse or a vacuum stop is never the
    # certified blowup, whatever the certificate
    kind = traj.termination.kind
    if kind in ("cfl_collapse", "vacuum_guard") or (kind == "non_finite" and primary_kind == "none"):
        print(f"numeric failure: {kind} at t={traj.termination.t_stop:g}", file=sys.stderr)
        return 3, summary
    return 0, summary


def certify_only(cfg: RunConfig) -> int:
    """Certify the initial data of ``cfg`` without a run; the exit code."""
    if cfg.certify.bounds is None and cfg.certify.A is None:
        print("certify: config has no certify block", file=sys.stderr)
        return 2
    state0 = _initial_state(cfg)
    if state0 is None:
        return 3
    _write_reports(cfg, state0, [state0], "assumption report (initial data only)")
    return 0


SWEEP_COLUMNS = (
    "value", "status", "termination", "t_stop", "min_y0", "certificate",
    "t_star_bound", "t_blow", "residual_max",
)


def sweep(cfg_path: Path, axis: str, values: list[str]) -> int:
    base_cfg = load_config(cfg_path)
    base_kv = base_cfg.raw
    if not is_config_leaf(axis, base_kv):
        print(f"sweep: axis {axis!r} is not a config leaf", file=sys.stderr)
        return 2

    base_cfg.output.directory.mkdir(parents=True, exist_ok=True)
    lines = [",".join(("axis",) + SWEEP_COLUMNS)]
    for value in values:
        kv = dict(base_kv)
        kv[axis] = value
        sub = f"{axis.replace('.', '_')}={value}"
        kv["output.directory"] = str(Path(base_kv["output.directory"]) / sub)
        row = dict.fromkeys(SWEEP_COLUMNS, "")
        row.update(value=value, status="ok")
        try:
            cfg = build_config(kv, base_cfg.base_dir)
            code, pairs = _run(cfg)
            if code != 0:
                row["status"] = f"exit{code}"
            summary = {key: _fmt(v) for key, v in pairs}
            for col in ("termination", "t_stop", "min_y0", "certificate", "t_star_bound", "t_blow"):
                row[col] = summary.get(col, "")
            res = [f"{k.split('.', 1)[1]}:{v}" for k, v in summary.items() if k.startswith("residual_max.")]
            row["residual_max"] = ";".join(res)
        except Exception as exc:  # per-run failures recorded, sweep continues
            row["status"] = f"error: {exc}"
        lines.append(",".join([axis] + [str(row[c]).replace(",", ";") for c in SWEEP_COLUMNS]))

    text = "\n".join(lines) + "\n"
    (base_cfg.output.directory / "sweep_summary.csv").write_text(text)
    print(text, end="")
    return 0


def main(argv=None) -> int:
    import argparse  # only the command line needs it, not run_pipeline

    parser = argparse.ArgumentParser(
        prog="steepen",
        description="smooth-wave steepening laboratory for 1-D Lagrangian gas dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("validate", "run", "certify"):
        p = sub.add_parser(name)
        p.add_argument("config", type=Path)
    p = sub.add_parser("sweep")
    p.add_argument("config", type=Path)
    p.add_argument("--axis", required=True)
    p.add_argument("--values", required=True, help="comma-separated leaf values")
    args = parser.parse_args(argv)

    try:
        if args.command == "validate":
            load_config(args.config)
            print("config ok")
            return 0
        if args.command == "run":
            cfg = load_config(args.config)
            return run_pipeline(cfg)
        if args.command == "certify":
            cfg = load_config(args.config)
            return certify_only(cfg)
        values = [v.strip() for v in args.values.split(",") if v.strip()]
        return sweep(args.config, args.axis, values)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except (VacuumError, ValueError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
