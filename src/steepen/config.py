"""Flat key-value run configuration with dotted section names.

Format: one `section.key = value` per line, `#` starts a comment, blank
lines ignored.  Values are numbers, booleans, comma-separated lists,
profile expressions, or `file:relative/path` references (checked for
existence at load time).  The `params` section declares named numeric
constants usable inside initial-data expressions, which also makes them
sweepable leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from steepen import eos
from steepen.eos import GasConstants
from steepen.fields import AssumptionBounds, EntropyProfile, Grid, StateField, build_initial, read_samples
from steepen.riccati import RESIDUAL_KINDS
from steepen.solver import SolverConfig


class ConfigError(ValueError):
    """Unusable run configuration; the message names the failing block."""


@dataclass
class InitialSpec:
    u0: str
    m0: str = "1"
    z0: str | None = None
    tau0: str | None = None


@dataclass
class DiagnosticsSpec:
    seeds: list = field(default_factory=list)
    directions: list = field(default_factory=lambda: ["forward", "backward"])
    residuals: list | None = None  # None: every kind of the configured directions

    def __post_init__(self):
        if self.residuals is None:
            self.residuals = [k for k, spec in RESIDUAL_KINDS.items() if spec[0] in self.directions]


@dataclass
class CertifySpec:
    bounds: AssumptionBounds | None = None
    epsilon: float = 0.01
    A: float | None = None


@dataclass
class OutputSpec:
    directory: Path
    emit_svg: bool = False


@dataclass
class RunConfig:
    gas: GasConstants
    grid: Grid
    initial: InitialSpec
    solver: SolverConfig
    diagnostics: DiagnosticsSpec
    certify: CertifySpec
    output: OutputSpec
    params: dict
    base_dir: Path
    raw: dict


def parse_kv(text: str) -> dict:
    """Parse the flat key-value syntax into an ordered {dotted key: string}."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = body.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or "." not in key:
            raise ConfigError(f"line {lineno}: keys must look like 'section.name'")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _take(kv: dict, block: str) -> dict:
    prefix = block + "."
    return {k[len(prefix):]: v for k, v in kv.items() if k.startswith(prefix)}


def _float(block: str, name: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{block} block: {name} must be a number, got {raw!r}") from None


def _int(block: str, name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{block} block: {name} must be an integer, got {raw!r}") from None


def _bool(block: str, name: str, raw: str) -> bool:
    if raw.lower() in ("true", "yes", "1"):
        return True
    if raw.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(f"{block} block: {name} must be true or false, got {raw!r}")


_KNOWN = {
    "gas": {"gamma", "K"},
    "grid": {"x0", "x1", "n"},
    "initial": {"u0", "z0", "tau0", "m0"},
    "solver": {"cfl", "t_end", "gradient_cap", "snapshot_stride", "dt_min"},
    "diagnostics": {"seeds", "directions", "residuals"},
    "certify": {"Z_L", "Z_U", "M1", "M2", "M3", "M4", "epsilon", "A"},
    "output": {"directory", "emit_svg"},
    "params": None,  # free-form numeric leaves
}


def is_config_leaf(key: str, kv: dict) -> bool:
    """A key present in ``kv``, a params leaf, or a key of the schema."""
    if key in kv or key.startswith("params."):
        return True
    if "." not in key:
        return False
    block, leaf = key.split(".", 1)
    known = _KNOWN.get(block)
    return known is not None and leaf in known


def build_config(kv: dict, base_dir: Path) -> RunConfig:
    """Materialize a :class:`RunConfig`, re-validating all numeric constraints."""
    for key in kv:
        block = key.split(".", 1)[0]
        if block not in _KNOWN:
            raise ConfigError(f"unknown config block {block!r} (key {key!r})")
        known = _KNOWN[block]
        if known is not None and key.split(".", 1)[1] not in known:
            raise ConfigError(f"{block} block: unknown key {key!r}")

    gas_kv = _take(kv, "gas")
    for req in ("gamma", "K"):
        if req not in gas_kv:
            raise ConfigError(f"gas block: missing required key {req!r}")
    try:
        gas = eos.make_constants(
            _float("gas", "gamma", gas_kv["gamma"]),
            _float("gas", "K", gas_kv["K"]),
        )
    except ValueError as exc:
        raise ConfigError(f"gas block: {exc}") from None

    grid_kv = _take(kv, "grid")
    for req in ("x0", "x1", "n"):
        if req not in grid_kv:
            raise ConfigError(f"grid block: missing required key {req!r}")
    try:
        grid = Grid(
            _float("grid", "x0", grid_kv["x0"]),
            _float("grid", "x1", grid_kv["x1"]),
            _int("grid", "n", grid_kv["n"]),
        )
    except ValueError as exc:
        raise ConfigError(f"grid block: {exc}") from None

    params = {name: _float("params", name, raw) for name, raw in _take(kv, "params").items()}

    ini_kv = _take(kv, "initial")
    if "u0" not in ini_kv:
        raise ConfigError("initial block: missing required key 'u0'")
    if ("z0" in ini_kv) == ("tau0" in ini_kv):
        raise ConfigError("initial block: provide exactly one of z0 or tau0")
    initial = InitialSpec(**ini_kv)
    for name in ("u0", "z0", "tau0", "m0"):
        raw = getattr(initial, name)
        if raw is not None and raw.startswith("file:"):
            ref = base_dir / raw[len("file:"):]
            if not ref.exists():
                raise ConfigError(f"initial block: {name} file {ref} does not exist")

    sol_kv = _take(kv, "solver")
    if "t_end" not in sol_kv:
        raise ConfigError("solver block: missing required key 't_end'")
    try:
        solver_cfg = SolverConfig(**{
            name: (_int if name == "snapshot_stride" else _float)("solver", name, raw)
            for name, raw in sol_kv.items()
        })
    except ValueError as exc:
        raise ConfigError(f"solver block: {exc}") from None

    dia_kv = {name: [v.strip() for v in raw.split(",") if v.strip()]
              for name, raw in _take(kv, "diagnostics").items()}
    if "seeds" in dia_kv:
        dia_kv["seeds"] = [_float("diagnostics", "seeds", s) for s in dia_kv["seeds"]]
        if not all(map(math.isfinite, dia_kv["seeds"])):
            raise ConfigError("diagnostics block: seeds must be finite")
    for d in dia_kv.get("directions", ()):
        if d not in ("forward", "backward"):
            raise ConfigError(f"diagnostics block: unknown direction {d!r}")
    diagnostics = DiagnosticsSpec(**dia_kv)
    for r in diagnostics.residuals:
        if r not in RESIDUAL_KINDS:
            raise ConfigError(f"diagnostics block: unknown residual {r!r}")
        if RESIDUAL_KINDS[r][0] not in diagnostics.directions:
            raise ConfigError(
                f"diagnostics block: residual {r!r} needs {RESIDUAL_KINDS[r][0]} in directions"
            )

    cert_kv = _take(kv, "certify")
    certify = CertifySpec()
    bound_names = ("Z_L", "Z_U", "M1", "M2", "M3", "M4")
    present = [b for b in bound_names if b in cert_kv]
    if present and len(present) != len(bound_names):
        missing = sorted(set(bound_names) - set(present))
        raise ConfigError(f"certify block: incomplete bounds, missing {missing}")
    if present:
        try:
            certify.bounds = AssumptionBounds(
                **{b: _float("certify", b, cert_kv[b]) for b in bound_names}
            )
        except ValueError as exc:
            raise ConfigError(f"certify block: {exc}") from None
    if "epsilon" in cert_kv:
        certify.epsilon = _float("certify", "epsilon", cert_kv["epsilon"])
        if not 0.0 <= certify.epsilon < math.inf:
            raise ConfigError("certify block: epsilon must be finite and nonnegative")
    if "A" in cert_kv:
        certify.A = _float("certify", "A", cert_kv["A"])
        if not math.isfinite(certify.A):
            raise ConfigError("certify block: A must be finite")
        if certify.bounds is None and gas.gamma != 3.0:  # Theorem 15's T* bound needs them
            raise ConfigError("certify block: A needs the bounds Z_L ... M4 unless gas.gamma = 3")

    out_kv = _take(kv, "output")
    if "directory" not in out_kv:
        raise ConfigError("output block: missing required key 'directory'")
    output = OutputSpec(
        directory=(base_dir / out_kv["directory"]).resolve(),
        **{name: _bool("output", name, raw) for name, raw in out_kv.items() if name != "directory"},
    )

    return RunConfig(
        gas=gas,
        grid=grid,
        initial=initial,
        solver=solver_cfg,
        diagnostics=diagnostics,
        certify=certify,
        output=output,
        params=params,
        base_dir=base_dir,
        raw=dict(kv),
    )


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    return build_config(parse_kv(path.read_text()), path.parent.resolve())


def make_initial(cfg: RunConfig) -> tuple[StateField, EntropyProfile]:
    """Build the t=0 state from a loaded configuration."""

    def resolve(raw: str | None):
        if raw is None:
            return None
        if raw.startswith("file:"):
            from scipy.interpolate import CubicSpline  # only sampled inputs need scipy

            return CubicSpline(*read_samples(cfg.base_dir / raw[len("file:"):]))
        return raw

    m0 = cfg.initial.m0
    if m0.startswith("file:"):
        profile = EntropyProfile.from_file(cfg.base_dir / m0[len("file:"):])
    else:
        profile = EntropyProfile.from_expression(m0, cfg.params)

    return build_initial(
        resolve(cfg.initial.u0),
        cfg.grid,
        cfg.gas,
        m0=profile,
        z0=resolve(cfg.initial.z0),
        tau0=resolve(cfg.initial.tau0),
        constants=cfg.params,
    )

