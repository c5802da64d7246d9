"""Command surface: validate / run / certify / sweep.

A run executes validate -> build -> evolve -> diagnostics -> certify ->
export and writes fields.csv, curves.csv, certificate.txt,
assumptions.txt, summary.txt (and SVG plots when enabled) into the
configured output directory.  Runs are deterministic: identical configs
produce byte-identical CSV outputs.

Exit codes: 0 success, 2 config error, 3 numeric failure (a vacuum or
CFL-collapse stop, whatever the certificate, or a non-finite state
before t_end without a blowup certificate; the outputs up to that point
are still written), 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from steepen import charpath, detector, fields, riccati, solver, svg
from steepen.config import (
    ConfigError,
    RunConfig,
    build_config,
    is_config_leaf,
    load_config,
    make_initial,
)
from steepen.eos import VacuumError
from steepen.expressions import parse_expression
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


def _expressions_of(cfg: RunConfig):
    ini = cfg.initial
    return [v for v in (ini.u0, ini.z0, ini.tau0, ini.m0) if v is not None and not v.startswith("file:")]


def validate_config(cfg: RunConfig) -> None:
    """Static checks beyond schema: expression syntax and identifiers."""
    for text in _expressions_of(cfg):
        try:
            parse_expression(text, cfg.params)
        except ValueError as exc:
            raise ConfigError(f"initial block: bad expression {text!r}: {exc}") from None


FIELDS_COLUMNS = ("t", "x", "z", "u", "m", "p", "c", "alpha", "beta", "y", "q")
# fields.csv rows formatted by one ``%``: a whole snapshot's block is about
# 200 kB at n = 1024, past glibc's mmap threshold, and making and freeing
# it once per snapshot let the heap shrink and grow back each time (8.5k
# more page faults on one_sided_profile); blocks of 256 rows stay below
_ROWS_PER_FORMAT = 256


def _snapshot_pass(fh, traj: solver.Trajectory, names, extrema: np.ndarray):
    """Walk the snapshots once, computing each one's diagnostics once.

    For each snapshot ``k`` in turn: write its block of fields.csv to
    ``fh``, record its ``min y``, ``min q`` and
    :func:`detector.gradient_peak` in ``extrema[:, k]``, and yield its
    grid rows of ``names`` (a :func:`charpath.sample_along` row source).
    The diagnostics are dropped before the next snapshot.

    fields.csv has one row per (snapshot, node), every value as
    ``%.16g``.  ``x`` and ``m`` (frozen by :func:`solver.evolve`) are
    formatted once per run into a row template per node, and ``t`` once
    per snapshot; the other 8 columns are formatted by one ``%`` per
    ``_ROWS_PER_FORMAT`` flattened rows.
    """
    first = traj.snapshots[0]
    m = first.m_arrays()[0]
    # node j's row after its t: ",x,%.16g,%.16g,m,%.16g,...\n"; joined with a
    # snapshot's t as separator behind an empty piece, they give the format
    # of a block of rows
    templates = [
        ",%.16g,%%.16g,%%.16g,%.16g" % (x, mj) + ",%.16g" * 6 + "\n"
        for x, mj in zip(first.grid.x.tolist(), m.tolist())
    ]
    step = _ROWS_PER_FORMAT
    blocks = [[""] + templates[lo:lo + step] for lo in range(0, len(templates), step)]
    fh.write(",".join(FIELDS_COLUMNS) + "\n")
    for k, snap in enumerate(traj.snapshots):
        d = riccati.diagnostics(snap)
        p, c = snap.thermo()
        table = np.column_stack((snap.z, snap.u, p, c, d.alpha, d.beta, d.y, d.q))
        t = "%.16g" % snap.t
        for lo, pieces in zip(range(0, len(table), step), blocks):
            fh.write(t.join(pieces) % tuple(table[lo:lo + step].ravel().tolist()))
        extrema[:, k] = np.min(d.y), np.min(d.q), detector.gradient_peak(d)
        yield riccati.grid_quantities(snap, names, d)


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
        name for kind in cfg.diagnostics.residuals for name in RESIDUAL_KINDS[kind][2]
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
        for kind in cfg.diagnostics.residuals:
            need_dir, measured, _ = RESIDUAL_KINDS[kind]
            if need_dir != direction:
                continue
            res = riccati.residual(curve, kind)
            if np.any(window):
                residual_max[kind] = float(
                    np.maximum(residual_max.get(kind, 0.0), np.max(np.abs(res[window])))
                )
            blocks.append((f"seed{si}_{kind}", direction, curve, curve.samples[measured], res))
    return curves, blocks, residual_max


def _write_curves_csv(path: Path, blocks) -> None:
    """One row per curve node of each block, the numbers as ``%.16g``,
    each block formatted by one ``%`` over its columns."""
    with open(path, "w") as fh:
        fh.write("curve_id,direction,t,x,value,residual\n")
        for cid, direction, curve, values, res in blocks:
            row = f"{cid},{direction}," + "%.16g,%.16g,%.16g,%.16g\n"
            table = np.column_stack((curve.t, curve.x, values, res))
            fh.write((row * len(table)) % tuple(table.ravel().tolist()))


def _certificates(cfg: RunConfig, state0):
    cert14 = cert15 = None
    ths = None
    if cfg.certify.bounds is not None:
        ths = detector.thresholds(cfg.certify.bounds, cfg.gas.gamma, cfg.certify.epsilon)
        cert14 = detector.certify_thm14(state0, cfg.certify.bounds, cfg.certify.epsilon)
    if cfg.certify.A is not None:
        cert15 = detector.certify_thm15(state0, cfg.certify.A, cfg.certify.bounds)
    return ths, cert14, cert15


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


def _assumption_pairs(report: fields.AssumptionReport):
    pairs = []
    for check in report:
        pairs.append((f"{check.name}.observed", check.observed))
        pairs.append((f"{check.name}.bound", check.bound))
        pairs.append((f"{check.name}.passed", check.passed))
        if check.t is not None:
            pairs.append((f"{check.name}.t", check.t))
        if check.x is not None:
            pairs.append((f"{check.name}.x", check.x))
    pairs.append(("all_passed", report.all_passed))
    return pairs


def run_pipeline(cfg: RunConfig) -> int:
    """Run ``cfg`` end to end, write its outputs and return the exit code."""
    return _run(cfg)[0]


def _run(cfg: RunConfig):
    """The pipeline behind :func:`run_pipeline`: ``(exit code, summary pairs)``.

    The pairs are those written to summary.txt, and empty when the run
    stops before writing it.
    """
    validate_config(cfg)
    out = cfg.output.directory
    out.mkdir(parents=True, exist_ok=True)

    try:
        state0 = make_initial(cfg)[0]
    except (VacuumError, ValueError) as exc:
        print(f"stage build: {exc}", file=sys.stderr)
        return 3, []

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
        with open(out / "fields.csv", "w") as fh:
            rows = _snapshot_pass(fh, traj, names, extrema)
            if bundle is not None:
                charpath.sample_along(bundle, traj, names, rows)
            for _ in rows:  # the snapshots no curve node needs
                pass
        curves, blocks, residual_max = _residuals(cfg, bundle, pairs, t_resolved)
    except ValueError as exc:
        print(f"stage diagnostics: {exc}", file=sys.stderr)
        return 3, []
    min_y, min_q, peak = extrema

    ths, cert14, cert15 = _certificates(cfg, state0)
    estimate = detector.detect_blowup(traj, peak)
    report = None
    if cfg.certify.bounds is not None:
        report = fields.validate_assumptions(traj.snapshots, cfg.certify.bounds)

    _write_curves_csv(out / "curves.csv", blocks)
    _write_kv(out / "certificate.txt", "certificate report",
              _certificate_pairs(cfg, state0, ths, cert14, cert15))
    if report is not None:
        _write_kv(out / "assumptions.txt", "assumption report", _assumption_pairs(report))

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
    validate_config(cfg)
    if cfg.certify.bounds is None and cfg.certify.A is None:
        print("certify: config has no certify block", file=sys.stderr)
        return 2
    out = cfg.output.directory
    out.mkdir(parents=True, exist_ok=True)
    try:
        state0 = make_initial(cfg)[0]
    except (VacuumError, ValueError) as exc:
        print(f"stage build: {exc}", file=sys.stderr)
        return 3
    ths, cert14, cert15 = _certificates(cfg, state0)
    _write_kv(out / "certificate.txt", "certificate report",
              _certificate_pairs(cfg, state0, ths, cert14, cert15))
    if cfg.certify.bounds is not None:
        report = fields.validate_assumptions([state0], cfg.certify.bounds)
        _write_kv(out / "assumptions.txt", "assumption report (initial data only)",
                  _assumption_pairs(report))
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
    rows = []
    for value in values:
        kv = dict(base_kv)
        kv[axis] = value
        sub = f"{axis.replace('.', '_')}={value}"
        kv["output.directory"] = str(Path(base_kv["output.directory"]) / sub)
        row = {"value": value, "status": "ok", "termination": "", "t_stop": "",
               "min_y0": "", "certificate": "", "t_star_bound": "", "t_blow": "",
               "residual_max": ""}
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
        rows.append(row)

    table_path = base_cfg.output.directory / "sweep_summary.csv"
    header = ["axis"] + list(SWEEP_COLUMNS)
    with open(table_path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join([axis] + [str(row[c]).replace(",", ";") for c in SWEEP_COLUMNS]) + "\n")
    print(table_path.read_text(), end="")
    return 0


def main(argv=None) -> int:
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
            cfg = load_config(args.config)
            validate_config(cfg)
            print("config ok")
            return 0
        if args.command == "run":
            cfg = load_config(args.config)
            return run_pipeline(cfg)
        if args.command == "certify":
            cfg = load_config(args.config)
            return certify_only(cfg)
        values = [v for v in args.values.split(",") if v.strip()]
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
