"""Flat key/value run configuration.

The on-disk format is a plain text file of ``section.key = value`` lines
(``#`` starts a comment).  Every recognized key lives in one registry with
its type, default, constraint, and help text; parsing, ``--set`` overrides,
serialization, and the CLI help are all driven from that single table, so
the accepted key set and the documented key set cannot drift apart.

Unknown keys are rejected, and every error names the offending key path.
``serialize_values`` always writes the complete key set in registry order,
which makes the emitted config a self-contained record of a run:
``parse_config(cfg.serialize())`` reproduces ``cfg`` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .bath import BathParams, ResiduePrescription, SigmaMode
from .dynamics import TimeGrid
from .errors import ConfigError, ParameterError
from .model import ModelParams, build_hamiltonian, diagonalize, highest_excited_state
from .output import fmt
from .spectrum import SEARCH_DEPTH


@dataclass(frozen=True)
class KeySpec:
    """One registry entry: how to parse, check, and print a config key."""

    name: str
    kind: str          # int | float | opt_float | bool | str | choice | float_list
    default: object
    help: str
    choices: tuple[str, ...] = ()
    check: Callable[[object], bool] | None = None
    constraint: str = ""

    def parse(self, raw: str) -> object:
        raw = raw.strip()
        try:
            if self.kind == "int":
                if raw.lower() in ("inf", "nan") or any(c in raw for c in ".eE"):
                    raise ValueError
                value: object = int(raw)
            elif self.kind == "float":
                value = float(raw)
            elif self.kind == "opt_float":
                value = None if raw.lower() == fmt(None) else float(raw)
            elif self.kind == "bool":
                low = raw.lower()
                if low not in ("true", "false"):
                    raise ValueError
                value = low == "true"
            elif self.kind in ("str", "choice"):
                value = raw
            elif self.kind == "float_list":
                if not raw:
                    raise ValueError
                value = tuple(float(part) for part in raw.split(","))
            else:  # pragma: no cover - registry construction bug
                raise AssertionError(f"bad kind {self.kind}")
        except ValueError:
            raise ConfigError(
                f"{self.name}: expected {self._kind_label()}, got {raw!r}") from None
        # opt_float alone may be infinite: an open search-window bound.
        if self.kind in ("float", "float_list") and not np.all(np.isfinite(value)):
            raise ConfigError(f"{self.name}: must be finite; got {raw!r}")
        if self.kind == "choice" and value not in self.choices:
            raise ConfigError(
                f"{self.name}: must be one of {', '.join(self.choices)}; got {raw!r}")
        if self.check is not None and not self.check(value):
            raise ConfigError(f"{self.name}: {self.constraint}; got {raw!r}")
        return value

    def _kind_label(self) -> str:
        return {
            "int": "an integer",
            "float": "a number",
            "opt_float": f"a number or '{fmt(None)}'",
            "bool": "true or false",
            "str": "a string",
            "choice": "one of " + ", ".join(self.choices),
            "float_list": "a comma-separated number list",
        }[self.kind]


def _positive(v) -> bool:
    return v > 0


#: The figure-data bundles ``fig.bundle`` names, besides "all".
BUNDLES = ("fig1", "fig2", "fig3", "figA1", "figA2")


_MODEL, _BATH = ModelParams(), BathParams()

_KEYS = [
    KeySpec("model.N", "int", _MODEL.N, "number of lattice sites",
            check=lambda v: v >= 2, constraint="must be >= 2"),
    KeySpec("model.lam", "float", _MODEL.lam, "hopping amplitude"),
    KeySpec("model.Delta", "float", _MODEL.Delta, "onsite potential strength"),
    KeySpec("model.a", "float", _MODEL.a, "potential deformation, |a| < 1",
            check=lambda v: abs(v) < 1.0, constraint="must satisfy |a| < 1"),
    KeySpec("model.beta", "float", _MODEL.beta,
            "incommensurate wavenumber of the onsite modulation"),
    KeySpec("model.phi", "float", _MODEL.phi, "phase offset of the onsite modulation"),
    KeySpec("bath.eta", "float", _BATH.eta, "system-bath coupling strength",
            check=lambda v: v >= 0, constraint="must be >= 0"),
    KeySpec("bath.omega_c", "float", _BATH.omega_c, "bath cutoff frequency",
            check=_positive, constraint="must be > 0"),
    KeySpec("bath.s", "float", _BATH.s, "bath spectral exponent",
            check=_positive, constraint="must be > 0"),
    KeySpec("grid.dt", "float", 0.01, "time step",
            check=_positive, constraint="must be > 0"),
    KeySpec("grid.t_max", "float", 200.0, "evolution horizon",
            check=_positive, constraint="must be > 0"),
]
_KEYS += [
    KeySpec("init.state", "str", "es",
            "initial state: es (highest excited), uniform, or site:<n>"),
    KeySpec("poles.prescription", "choice", "half",
            "residue weight of the on-shell bath response",
            choices=tuple(p.value for p in ResiduePrescription)),
    KeySpec("poles.sigma_mode", "choice", "auto",
            "self-energy evaluation at complex energy",
            choices=tuple(m.value for m in SigmaMode)),
    KeySpec("poles.re_min", "opt_float", None,
            "search window lower Re bound (none = auto around the band top)"),
    KeySpec("poles.re_max", "opt_float", None,
            "search window upper Re bound (none = auto)"),
    KeySpec("poles.im_min", "float", -SEARCH_DEPTH, "search window lower Im bound",
            check=lambda v: v < 0, constraint="must be < 0"),
    KeySpec("poles.im_max", "float", 0.0, "search window upper Im bound",
            check=lambda v: v <= 0, constraint="must be <= 0"),
    KeySpec("poles.report_all", "bool", False,
            "report every pole in the window instead of the two highest"),
    KeySpec("oracle.modes", "int", 2000, "number of sampled bath modes",
            check=lambda v: v >= 2, constraint="must be >= 2"),
    KeySpec("oracle.omega_max", "float", 80.0, "bath sampling cutoff",
            check=_positive, constraint="must be > 0"),
    KeySpec("oracle.threshold", "float", 1e-3,
            "max allowed |SP difference| between solver and reference",
            check=_positive, constraint="must be > 0"),
    KeySpec("oracle.t_max", "float", 50.0, "comparison horizon",
            check=_positive, constraint="must be > 0"),
    # Any numeric key a trajectory reads: the model.*, bath.* and grid.*
    # keys, all listed before this block.
    KeySpec("sweep.parameter", "choice", "model.Delta",
            "config key swept by the sweep command",
            choices=tuple(spec.name for spec in _KEYS if spec.kind in ("int", "float")
                          and spec.name.partition(".")[0] in ("model", "bath", "grid"))),
    KeySpec("sweep.values", "float_list", (1.0, 2.5, 6.0),
            "comma-separated sweep values"),
    KeySpec("output.dir", "str", "gaah-out", "output directory"),
    KeySpec("fig.bundle", "choice", "fig1", "figure-data bundle to emit",
            choices=(*BUNDLES, "all")),
    KeySpec("fig.full", "bool", False,
            "emit full-length trajectories (t=1200, dt=0.01) instead of the scaled runs"),
]

REGISTRY: dict[str, KeySpec] = {spec.name: spec for spec in _KEYS}


def default_values() -> dict[str, object]:
    return {spec.name: spec.default for spec in _KEYS}


def _assignment(text: str, where: str, form: str) -> tuple[str, object]:
    """The key and parsed value of one assignment ``text``.  Errors about its
    ``form`` or its key start with ``where``; those about its value name the
    key."""
    key, eq, raw = (part.strip() for part in text.partition("="))
    if not eq:
        raise ConfigError(f"{where}: expected {form}, got {text!r}")
    if key not in REGISTRY:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    return key, REGISTRY[key].parse(raw)


def parse_config_text(text: str, source: str = "<config>") -> dict[str, object]:
    """Parse ``key = value`` lines into a complete, validated value map."""
    values = default_values()
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        where = f"{source}:{lineno}"
        key, value = _assignment(body, where, "'key = value'")
        if key in seen:
            raise ConfigError(f"{where}: duplicate config key {key!r}")
        seen.add(key)
        values[key] = value
    return values


def apply_overrides(values: dict[str, object], assignments: list[str]) -> dict[str, object]:
    """Apply ``key=value`` override strings (CLI --set) on top of a value map."""
    out = dict(values)
    for item in assignments:
        key, value = _assignment(item, "override", "key=value")
        out[key] = value
    return out


def serialize_values(values: dict[str, object]) -> str:
    """Emit the full key set in registry order, one section per block."""
    lines = []
    section = None
    for spec in _KEYS:
        head = spec.name.split(".", 1)[0]
        if head != section:
            if section is not None:
                lines.append("")
            section = head
        lines.append(f"{spec.name} = {fmt(values[spec.name])}")
    return "\n".join(lines) + "\n"


def registry_help() -> str:
    """Key table for --help: every accepted key with type and default."""
    width = max(len(spec.name) for spec in _KEYS)
    lines = ["configuration keys (file lines or --set key=value):"]
    for spec in _KEYS:
        lines.append(f"  {spec.name:<{width}}  {spec.help} [default: {fmt(spec.default)}]")
    return "\n".join(lines)


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration with typed views onto every module."""

    values: dict[str, object] = field(repr=False)
    model: ModelParams = field(init=False)
    bath: BathParams = field(init=False)
    grid: TimeGrid = field(init=False)

    def __post_init__(self):
        v = self.values
        try:
            for section, cls in (("model", ModelParams), ("bath", BathParams)):
                object.__setattr__(self, section, cls(**{
                    f.name: v[f"{section}.{f.name}"] for f in fields(cls)}))
            object.__setattr__(self, "grid",
                               TimeGrid.from_t_max(v["grid.dt"], v["grid.t_max"]))
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc
        self._init_site()
        if v["poles.im_min"] >= v["poles.im_max"]:
            raise ConfigError("poles.im_min: must be below poles.im_max")
        re_min, re_max = v["poles.re_min"], v["poles.re_max"]
        if (re_min is None) != (re_max is None):
            raise ConfigError("poles.re_min and poles.re_max: set both or neither")
        if re_min is not None and re_min >= re_max:
            raise ConfigError("poles.re_min: must be below poles.re_max")

    def _init_site(self) -> int | None:
        """The 0-based site of a ``site:<n>`` initial state, None for es and
        uniform; any other ``init.state`` is a ConfigError."""
        state = self.values["init.state"]
        if state in ("es", "uniform"):
            return None
        if not state.startswith("site:"):
            raise ConfigError(
                f"init.state: expected es, uniform, or site:<n>; got {state!r}")
        try:
            n = int(state[5:])
        except ValueError:
            raise ConfigError(
                f"init.state: site index must be an integer, got {state!r}") from None
        if not 1 <= n <= self.model.N:
            raise ConfigError(f"init.state: site index {n} outside 1..{self.model.N}")
        return n - 1

    # typed accessors ----------------------------------------------------

    @property
    def prescription(self) -> ResiduePrescription:
        return ResiduePrescription(self.values["poles.prescription"])

    @property
    def sigma_mode(self) -> SigmaMode:
        return SigmaMode(self.values["poles.sigma_mode"])

    def initial_state(self) -> np.ndarray:
        state = self.values["init.state"]
        if state == "es":
            return highest_excited_state(diagonalize(build_hamiltonian(self.model)))
        if state == "uniform":
            return np.full(self.model.N, 1.0 / math.sqrt(self.model.N), dtype=complex)
        vec = np.zeros(self.model.N, dtype=complex)
        vec[self._init_site()] = 1.0
        return vec

    def serialize(self) -> str:
        return serialize_values(self.values)


def parse_config(text: str, source: str = "<config>",
                 overrides: list[str] | None = None) -> RunConfig:
    values = parse_config_text(text, source)
    if overrides:
        values = apply_overrides(values, overrides)
    return RunConfig(values=values)
