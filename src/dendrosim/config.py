"""Run configuration: flat `key = value` files with bracketed sections.

Grammar: `[section]` headers, `key = value` pairs, `#` comments.  Each key is
declared once, in the table ``_KEYS``; parsing, the unknown- and missing-key
checks and ``serialize_config`` (the canonical form, which parses back to an
equal RunConfig) all walk it.  Unknown sections or keys are hard errors, and
every physical parameter is mandatory; there are no silent physics defaults.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

import numpy as np

from .grid import GridSpec
from .model import ModelParams

__all__ = [
    "ConfigError", "UnknownKeyError", "MissingKeyError", "InvalidValueError",
    "InitialCondition", "RunConfig",
    "parse_config", "load_config", "serialize_config",
]


class ConfigError(ValueError):
    """Base class for configuration problems."""


class UnknownKeyError(ConfigError):
    """A section or key the schema does not define."""


class MissingKeyError(ConfigError):
    """A mandatory key is absent."""


class InvalidValueError(ConfigError):
    """A key parsed but its value is out of range or malformed."""


@dataclass(frozen=True)
class InitialCondition:
    """Named initial-condition presets.

    ``case2_tanh``: phi = tanh((r0 - ((x-x0)^2 + (y-y0)^2)) / eps0),
    T = -phi/2.  ``dendrite_seed``: same phi, T = 0 inside the seed
    (phi > 0) and ``undercool`` outside.
    """

    preset: str
    r0: float
    eps0: float
    x0: float = 0.0
    y0: float = 0.0
    undercool: float = -0.6

    PRESETS = ("case2_tanh", "dendrite_seed")

    def __post_init__(self):
        if self.preset not in self.PRESETS:
            raise InvalidValueError(
                f"initial.preset must be one of {self.PRESETS}, got {self.preset!r}"
            )
        for name in ("r0", "eps0", "x0", "y0", "undercool"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidValueError(
                    f"initial.{name} must be a finite number, got {getattr(self, name)!r}")
        if not self.r0 > 0.0:
            raise InvalidValueError(f"initial.r0 must be positive, got {self.r0}")
        if not self.eps0 > 0.0:
            raise InvalidValueError(f"initial.eps0 must be positive, got {self.eps0}")

    def build(self, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
        x, y = grid.mesh()
        phi = np.tanh((self.r0 - ((x - self.x0) ** 2 + (y - self.y0) ** 2)) / self.eps0)
        if self.preset == "case2_tanh":
            temp = -0.5 * phi
        else:
            temp = np.where(phi > 0.0, 0.0, self.undercool)
        return phi, temp


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation needs, including output policy.  A run is
    ``n_steps`` whole steps, level n at t = n*tau; ``n_steps`` is read when a
    run starts, not here, so a driver may replace tau or t_end first."""

    grid: GridSpec
    scheme: str
    tau: float
    t_end: float
    params: ModelParams
    initial: InitialCondition
    ledger: str = "ledger.csv"
    prefix: str = "run"
    snapshot_every: int = 0
    snapshot_times: tuple[float, ...] = ()
    strict_energy: bool = False
    check_identity: bool = True
    # externally supplied forcing, one snapshot file per time level
    source_phi_dir: str = ""
    source_phi_prefix: str = "s_phi"
    source_temp_dir: str = ""
    source_temp_prefix: str = "s_temp"

    def __post_init__(self):
        if self.scheme not in ("bdf1", "bdf2"):
            raise InvalidValueError(f"time.scheme must be bdf1 or bdf2, got {self.scheme!r}")
        for name in ("tau", "t_end"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidValueError(f"time.{name}: not a finite number: {value!r}")
        if not self.tau > 0.0:
            raise InvalidValueError(f"time.tau must be positive, got {self.tau}")
        if self.t_end < self.tau:
            raise InvalidValueError(
                f"time.t_end={self.t_end} must be at least one step tau={self.tau}"
            )
        if not math.isfinite(self.t_end / self.tau):
            raise InvalidValueError(
                f"time.t_end={self.t_end} / time.tau={self.tau}: the step count "
                "is not a finite number"
            )
        if self.snapshot_every < 0:
            raise InvalidValueError("output.snapshot_every must be >= 0")

    @property
    def n_steps(self) -> int:
        """The run's step count round(t_end/tau); InvalidValueError unless
        those steps end within 1e-9 t_end of t_end."""
        steps = round(self.t_end / self.tau)
        if abs(steps * self.tau - self.t_end) > 1e-9 * self.t_end:
            raise InvalidValueError(
                f"time.tau={self.tau!r} does not divide time.t_end={self.t_end!r}: "
                f"its {steps} steps end at t={steps * self.tau:g}")
        return steps


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _parse_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _parse_times(raw: str) -> tuple[float, ...]:
    return tuple(_parse_float(part) for part in raw.split(",") if part.strip())


def _format(value) -> str:
    """Inverse of the parsers: the text that reads back to ``value``."""
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value).lower() if isinstance(value, bool) else str(value)


# (section, key) -> (RunConfig attribute, parser, required).  Attributes of
# the nested GridSpec, ModelParams and InitialCondition are dotted.  An absent
# optional key keeps its dataclass default.  serialize_config keeps this order.
_KEYS: dict[tuple[str, str], tuple[str, Callable[[str], object], bool]] = {
    ("grid", "nx"): ("grid.nx", int, True),
    ("grid", "ny"): ("grid.ny", int, True),
    ("grid", "x0"): ("grid.x0", _parse_float, True),
    ("grid", "x1"): ("grid.x1", _parse_float, True),
    ("grid", "y0"): ("grid.y0", _parse_float, True),
    ("grid", "y1"): ("grid.y1", _parse_float, True),
    ("time", "scheme"): ("scheme", str.lower, True),
    ("time", "tau"): ("tau", _parse_float, True),
    ("time", "t_end"): ("t_end", _parse_float, True),
    ("model", "eps"): ("params.eps", _parse_float, True),
    ("model", "lambda"): ("params.lam", _parse_float, True),
    ("model", "diff"): ("params.diff", _parse_float, True),
    ("model", "latent"): ("params.latent", _parse_float, True),
    ("model", "sigma"): ("params.sigma", _parse_float, True),
    ("model", "mobility"): ("params.mobility", _parse_float, True),
    ("model", "s1"): ("params.s1", _parse_float, True),
    ("model", "s2"): ("params.s2", _parse_float, True),
    ("model", "s3"): ("params.s3", _parse_float, True),
    ("model", "s4"): ("params.s4", _parse_float, True),
    ("model", "bconst"): ("params.bconst", _parse_float, True),
    ("initial", "preset"): ("initial.preset", str, True),
    ("initial", "r0"): ("initial.r0", _parse_float, True),
    ("initial", "eps0"): ("initial.eps0", _parse_float, True),
    ("initial", "x0"): ("initial.x0", _parse_float, False),
    ("initial", "y0"): ("initial.y0", _parse_float, False),
    ("initial", "undercool"): ("initial.undercool", _parse_float, False),
    ("output", "ledger"): ("ledger", str, False),
    ("output", "prefix"): ("prefix", str, False),
    ("output", "snapshot_every"): ("snapshot_every", int, False),
    ("output", "snapshot_times"): ("snapshot_times", _parse_times, False),
    ("output", "strict_energy"): ("strict_energy", _parse_bool, False),
    ("solver", "check_identity"): ("check_identity", _parse_bool, False),
    ("sources", "phi_dir"): ("source_phi_dir", str, False),
    ("sources", "phi_prefix"): ("source_phi_prefix", str, False),
    ("sources", "temp_dir"): ("source_temp_dir", str, False),
    ("sources", "temp_prefix"): ("source_temp_prefix", str, False),
}

# nested dataclass attribute -> (class, section named when it rejects a value)
_PARTS = {"grid": (GridSpec, "grid"), "params": (ModelParams, "model"),
          "initial": (InitialCondition, "initial")}


def parse_config(text: str) -> RunConfig:
    """Parse configuration text into a validated RunConfig."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc

    sections = {section for section, _ in _KEYS}
    for section in cp.sections():
        if section not in sections:
            raise UnknownKeyError(f"unknown section [{section}]")
        for key in cp[section]:
            if (section, key) not in _KEYS:
                raise UnknownKeyError(f"unknown key {section}.{key}")

    values: dict[str, dict[str, object]] = {"": {}, **{part: {} for part in _PARTS}}
    for (section, key), (attr, parse, required) in _KEYS.items():
        if not cp.has_option(section, key):
            if required:
                raise MissingKeyError(f"missing mandatory key {section}.{key}")
            continue
        part, _, field = attr.rpartition(".")
        try:
            values[part][field] = parse(cp[section][key])
        except ValueError as exc:
            raise InvalidValueError(f"{section}.{key}: {exc}") from exc

    run = values.pop("")
    for part, (cls, section) in _PARTS.items():
        try:
            run[part] = cls(**values[part])
        except ConfigError:
            raise
        except ValueError as exc:
            raise InvalidValueError(f"{section}: {exc}") from exc
    return RunConfig(**run)


def load_config(path) -> RunConfig:
    """Parse the configuration file ``path``, read as UTF-8 whatever the
    locale; a file that is not UTF-8 raises ConfigError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_config(text)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) equals c."""
    if cfg.params.mobility_tanh != 0.0:
        raise ConfigError("only constant mobility is representable in config files")
    blocks: dict[str, list[str]] = {}
    for (section, key), (attr, _, _) in _KEYS.items():
        value = _format(attrgetter(attr)(cfg))
        blocks.setdefault(section, [f"[{section}]\n"]).append(f"{key} = {value}\n")
    return "\n".join("".join(lines) for lines in blocks.values())

