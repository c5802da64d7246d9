"""Benchmark workloads: which ``configs/`` file, what it must produce, and
how a workload seed turns it into a run configuration.

A seed translates the whole problem along x by a whole number of grid
cells: the grid ends, every ``x`` in the initial-data expressions, the
curve seeds and the one-sided certificate's ``A`` all move together.  The
cell width of every workload is a power-of-two fraction, so the shifted
grid nodes and ``x - shift`` are exact and the physics (the exact
``t_blow``, every certificate kind, the work done) is that of seed 0,
while the inputs and every ``x`` column of the outputs differ.  Seed 0
leaves the file as it is, apart from the output directory.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # file under configs/
    termination: str
    certificate: str
    exact_t_blow: bool  # isentropic gamma = 3: t_blow = 1/|min y0|
    t_star_check: bool  # t_blow must not exceed the certificate's T* bound
    overrides: dict = field(default_factory=dict)  # key -> value, None deletes the line


WORKLOADS = {
    w.name: w
    for w in (
        # The demo users run: the only one with both an exact t_blow and traced
        # curves.  Time splits across evolve, trace plus residuals and
        # fields.csv.  The default stride keeps the time-interpolation defect
        # in residual_max visible.
        Workload("lax_blowup", "lax_blowup.cfg", "gradient_blowup", "thm14_y",
                 exact_t_blow=True, t_star_check=False),
        # The only thm15 certificate with a T* bound, varying entropy, stride 2:
        # splines, residuals and a 27 MB fields.csv dominate, evolve is ~5%.
        Workload("one_sided_profile", "one_sided_profile.cfg", "gradient_blowup", "thm15_y",
                 exact_t_blow=False, t_star_check=True),
        # The lax_blowup physics at the fine end of the n sweep: almost all
        # solver and fields.derivative, so tracing and writer changes should
        # not move it.  One short curve with one residual and the SVG plots
        # keep those layers' times measured (near zero) rather than a
        # constant 0.
        Workload("evolve_fine", "lax_blowup.cfg", "gradient_blowup", "thm14_y",
                 exact_t_blow=True, t_star_check=False,
                 overrides={"grid.n": "2048", "solver.snapshot_stride": "200",
                            "diagnostics.seeds": "0.0", "diagnostics.directions": "forward",
                            "diagnostics.residuals": "ode_y"}),
    )
}

_X = re.compile(r"\bx\b")
_LINE = re.compile(r"^(\s*)([A-Za-z_][\w.]*)(\s*=\s*)(.*?)(\s*)$")


def shift_cells(seed: int, n: int) -> int:
    """Number of cells the seed translates the problem by (0 for seed 0)."""
    return 0 if seed == 0 else random.Random(seed).randrange(1, n)


def _num(value: float) -> str:
    return repr(float(value))


def render_config(text: str, workload: Workload, seed: int, out_dir: str) -> str:
    """The run configuration for ``workload`` at ``seed``, writing to ``out_dir``."""
    lines = [(line, *line.partition("#")) for line in text.splitlines()]
    kv = {m.group(2): m.group(4) for _, body, _, _ in lines if (m := _LINE.match(body))}
    overrides = dict(workload.overrides)
    overrides["output.directory"] = out_dir
    n = int(overrides.get("grid.n") or kv["grid.n"])
    x0, x1 = float(kv["grid.x0"]), float(kv["grid.x1"])
    shift = shift_cells(seed, n) * (x1 - x0) / n

    def moved(key: str, value: str) -> str:
        if shift == 0.0:
            return value
        if key in ("grid.x0", "grid.x1", "certify.A"):
            return _num(float(value) + shift)
        if key == "diagnostics.seeds":
            return ", ".join(_num(float(s) + shift) for s in value.split(",") if s.strip())
        if key.startswith("initial.") and not value.startswith("file:"):
            return _X.sub(f"(x - {_num(shift)})", value)
        return value

    out = []
    for line, body, hash_, comment in lines:
        m = _LINE.match(body)
        if m is None:
            out.append(line)
            continue
        indent, key, eq, value, trail = m.groups()
        if key in overrides:
            value = overrides.pop(key)
            if value is None:
                continue
        out.append(f"{indent}{key}{eq}{moved(key, value)}{trail}{hash_}{comment}")
    out += [f"{key} = {moved(key, value)}" for key, value in overrides.items() if value is not None]
    return "\n".join(out) + "\n"
