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
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from steepen import eos
from steepen.eos import GasConstants
from steepen.expressions import parse_expression
from steepen.fields import AssumptionBounds, EntropyProfile, Grid, StateField, build_initial, read_spline
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


#: every config key and the type of its value: a number, an integer, a
#: boolean, a string, or a comma list of numbers or strings; a
#: ``params.<name>`` key is a number.  Defaults live in the dataclasses.
_KEYS = {
    "gas.gamma": float, "gas.K": float,
    "grid.x0": float, "grid.x1": float, "grid.n": int,
    "initial.u0": str, "initial.z0": str, "initial.tau0": str, "initial.m0": str,
    "solver.cfl": float, "solver.t_end": float, "solver.gradient_cap": float,
    "solver.snapshot_stride": int, "solver.dt_min": float,
    "diagnostics.seeds": [float], "diagnostics.directions": [str], "diagnostics.residuals": [str],
    "certify.Z_L": float, "certify.Z_U": float, "certify.M1": float, "certify.M2": float,
    "certify.M3": float, "certify.M4": float, "certify.epsilon": float, "certify.A": float,
    "output.directory": str, "output.emit_svg": bool,
}
_REQUIRED = ("gas.gamma", "gas.K", "grid.x0", "grid.x1", "grid.n", "initial.u0", "solver.t_end",
             "output.directory")
_BLOCKS = {key.split(".", 1)[0] for key in _KEYS} | {"params"}
_BOUNDS = ("Z_L", "Z_U", "M1", "M2", "M3", "M4")
_MUST_BE = {float: "a number", int: "an integer", bool: "true or false"}
_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


@contextmanager
def _in_block(block: str):
    """Report a ValueError raised inside as a ConfigError naming ``block``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{block} block: {exc}") from None


def _value(key: str, raw: str):
    """``raw`` read as the type ``_KEYS`` gives ``key``."""
    kind = _KEYS.get(key, float)
    if isinstance(kind, list):
        return [_item(key, kind[0], v.strip()) for v in raw.split(",") if v.strip()]
    return _item(key, kind, raw)


def _item(key: str, kind: type, raw: str):
    """One value of ``key`` as ``kind``; a number must be finite."""
    block, name = key.split(".", 1)
    try:
        value = _BOOLS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{block} block: {name} must be {_MUST_BE[kind]}, got {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{block} block: {name} must be finite")
    return value


def is_config_leaf(key: str, kv: dict) -> bool:
    """A key present in ``kv``, a params leaf, or a key of the schema."""
    return key in kv or key in _KEYS or key.startswith("params.")


def build_config(kv: dict, base_dir: Path) -> RunConfig:
    """Materialize a :class:`RunConfig`, re-validating all numeric constraints."""
    for key in kv:
        block = key.split(".", 1)[0]
        if block not in _BLOCKS:
            raise ConfigError(f"unknown config block {block!r} (key {key!r})")
        if block != "params" and key not in _KEYS:
            raise ConfigError(f"{block} block: unknown key {key!r}")
    for key in _REQUIRED:
        if key not in kv:
            block, name = key.split(".", 1)
            raise ConfigError(f"{block} block: missing required key {name!r}")
    values = {block: {} for block in _BLOCKS}
    for key, raw in kv.items():
        block, name = key.split(".", 1)
        values[block][name] = _value(key, raw)

    with _in_block("gas"):
        gas = eos.make_constants(**values["gas"])
    with _in_block("grid"):
        grid = Grid(**values["grid"])

    ini = values["initial"]
    if ("z0" in ini) == ("tau0" in ini):
        raise ConfigError("initial block: provide exactly one of z0 or tau0")
    initial = InitialSpec(**ini)
    for name, raw in ini.items():
        if raw.startswith("file:"):
            ref = base_dir / raw[len("file:"):]
            if not ref.exists():
                raise ConfigError(f"initial block: {name} file {ref} does not exist")
            continue
        try:
            parse_expression(raw, values["params"])
        except ValueError as exc:
            raise ConfigError(f"initial block: bad expression {raw!r}: {exc}") from None

    with _in_block("solver"):
        solver_cfg = SolverConfig(**values["solver"])

    diagnostics = DiagnosticsSpec(**values["diagnostics"])
    for d in diagnostics.directions:
        if d not in ("forward", "backward"):
            raise ConfigError(f"diagnostics block: unknown direction {d!r}")
    for r in diagnostics.residuals:
        if r not in RESIDUAL_KINDS:
            raise ConfigError(f"diagnostics block: unknown residual {r!r}")
        if RESIDUAL_KINDS[r][0] not in diagnostics.directions:
            raise ConfigError(
                f"diagnostics block: residual {r!r} needs {RESIDUAL_KINDS[r][0]} in directions"
            )

    cert = values["certify"]
    bounds = {b: cert.pop(b) for b in _BOUNDS if b in cert}
    if bounds and len(bounds) != len(_BOUNDS):
        missing = sorted(set(_BOUNDS) - set(bounds))
        raise ConfigError(f"certify block: incomplete bounds, missing {missing}")
    with _in_block("certify"):
        certify = CertifySpec(bounds=AssumptionBounds(**bounds) if bounds else None, **cert)
    if certify.epsilon < 0.0:
        raise ConfigError("certify block: epsilon must be nonnegative")
    if certify.A is not None and certify.bounds is None and gas.gamma != 3.0:
        # Theorem 15's T* bound needs them
        raise ConfigError("certify block: A needs the bounds Z_L ... M4 unless gas.gamma = 3")

    out = values["output"]
    output = OutputSpec(directory=(base_dir / out.pop("directory")).resolve(), **out)

    return RunConfig(
        gas=gas,
        grid=grid,
        initial=initial,
        solver=solver_cfg,
        diagnostics=diagnostics,
        certify=certify,
        output=output,
        params=values["params"],
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
        if raw is not None and raw.startswith("file:"):
            return read_spline(cfg.base_dir / raw[len("file:"):])
        return raw

    m0 = cfg.initial.m0
    if m0.startswith("file:"):
        m0 = EntropyProfile.from_file(cfg.base_dir / m0[len("file:"):])

    return build_initial(
        resolve(cfg.initial.u0),
        cfg.grid,
        cfg.gas,
        m0=m0,
        z0=resolve(cfg.initial.z0),
        tau0=resolve(cfg.initial.tau0),
        constants=cfg.params,
    )
