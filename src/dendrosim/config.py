"""Run configuration: flat `key = value` files with bracketed sections.

Grammar: `[section]` headers, `key = value` pairs, `#` comments.  Unknown
sections or keys are hard errors, and every physical parameter is
mandatory; there are no silent physics defaults.  ``serialize_config``
writes the canonical form, which parses back to an equal RunConfig.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec
from .model import ConstantMobility, ModelParams

__all__ = [
    "ConfigError",
    "UnknownKeyError",
    "MissingKeyError",
    "InvalidValueError",
    "StabilizerBoundError",
    "InitialCondition",
    "RunConfig",
    "parse_config",
    "load_config",
    "serialize_config",
    "case1_params",
    "case2_params",
    "dendrite_params",
    "case2_initial",
    "dendrite_initial",
]


class ConfigError(ValueError):
    """Base class for configuration problems."""


class UnknownKeyError(ConfigError):
    """A section or key the schema does not define."""


class MissingKeyError(ConfigError):
    """A mandatory key is absent."""


class InvalidValueError(ConfigError):
    """A key parsed but its value is out of range or malformed."""


class StabilizerBoundError(ConfigError):
    """s1 must stay strictly below (1 - sigma)^2 when positive."""


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
    """Everything one simulation needs, including output policy."""

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
    cg_tol: float = 1e-10
    cg_maxit: int = 500
    # externally supplied forcing, one snapshot file per time level
    source_phi_dir: str = ""
    source_phi_prefix: str = "s_phi"
    source_temp_dir: str = ""
    source_temp_prefix: str = "s_temp"

    def __post_init__(self):
        if self.scheme not in ("bdf1", "bdf2"):
            raise InvalidValueError(f"time.scheme must be bdf1 or bdf2, got {self.scheme!r}")
        if not self.tau > 0.0:
            raise InvalidValueError(f"time.tau must be positive, got {self.tau}")
        if self.t_end < self.tau:
            raise InvalidValueError(
                f"time.t_end={self.t_end} must be at least one step tau={self.tau}"
            )
        if self.snapshot_every < 0:
            raise InvalidValueError("output.snapshot_every must be >= 0")

    @property
    def n_steps(self) -> int:
        return max(1, round(self.t_end / self.tau))


_SCHEMA: dict[str, dict[str, bool]] = {
    # section -> {key: required}
    "grid": {"nx": True, "ny": True, "x0": True, "x1": True, "y0": True, "y1": True},
    "time": {"scheme": True, "tau": True, "t_end": True},
    "model": {
        "eps": True, "lambda": True, "diff": True, "latent": True, "sigma": True,
        "mobility": True, "s1": True, "s2": True, "s3": True, "s4": True,
        "bconst": True, "mode": False, "grad_reg": False,
    },
    "initial": {
        "preset": True, "r0": True, "eps0": True,
        "x0": False, "y0": False, "undercool": False,
    },
    "output": {
        "ledger": False, "prefix": False, "snapshot_every": False,
        "snapshot_times": False, "strict_energy": False,
    },
    "solver": {"cg_tol": False, "cg_maxit": False, "check_identity": False},
    "sources": {
        "phi_dir": False, "phi_prefix": False,
        "temp_dir": False, "temp_prefix": False,
    },
}


def _to_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise InvalidValueError(f"{section}.{key}: not a number: {raw!r}") from exc


def _to_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidValueError(f"{section}.{key}: not an integer: {raw!r}") from exc


def _to_bool(section: str, key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise InvalidValueError(f"{section}.{key}: not a boolean: {raw!r}")


def parse_config(text: str) -> RunConfig:
    """Parse configuration text into a validated RunConfig."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc

    for section in cp.sections():
        if section not in _SCHEMA:
            raise UnknownKeyError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise UnknownKeyError(f"unknown key {section}.{key}")
    for section, keys in _SCHEMA.items():
        required = [k for k, req in keys.items() if req]
        if required and section not in cp:
            raise MissingKeyError(f"missing section [{section}]")
        for key in required:
            if not cp.has_option(section, key):
                raise MissingKeyError(f"missing mandatory key {section}.{key}")

    g = cp["grid"]
    try:
        grid = GridSpec(
            nx=_to_int("grid", "nx", g["nx"]),
            ny=_to_int("grid", "ny", g["ny"]),
            x0=_to_float("grid", "x0", g["x0"]),
            x1=_to_float("grid", "x1", g["x1"]),
            y0=_to_float("grid", "y0", g["y0"]),
            y1=_to_float("grid", "y1", g["y1"]),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise InvalidValueError(f"grid: {exc}") from exc

    m = cp["model"]
    sigma = _to_float("model", "sigma", m["sigma"])
    s1 = _to_float("model", "s1", m["s1"])
    if not 0.0 <= sigma < 1.0:
        raise InvalidValueError(f"model.sigma must lie in [0, 1), got {sigma}")
    if s1 > 0.0 and s1 >= (1.0 - sigma) ** 2:
        raise StabilizerBoundError(
            f"model.s1={s1} must stay below (1-sigma)^2={(1.0 - sigma) ** 2}"
        )
    mobility = _to_float("model", "mobility", m["mobility"])
    if not mobility > 0.0:
        raise InvalidValueError(f"model.mobility must be positive, got {mobility}")
    try:
        params = ModelParams(
            eps=_to_float("model", "eps", m["eps"]),
            lam=_to_float("model", "lambda", m["lambda"]),
            diff=_to_float("model", "diff", m["diff"]),
            latent=_to_float("model", "latent", m["latent"]),
            sigma=sigma,
            mobility=ConstantMobility(mobility),
            s1=s1,
            s2=_to_float("model", "s2", m["s2"]),
            s3=_to_float("model", "s3", m["s3"]),
            s4=_to_float("model", "s4", m["s4"]),
            bconst=_to_float("model", "bconst", m["bconst"]),
            mode=_to_int("model", "mode", m.get("mode", "4")),
            grad_reg=_to_float("model", "grad_reg", m.get("grad_reg", "1e-12")),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise InvalidValueError(f"model: {exc}") from exc

    i = cp["initial"]
    try:
        initial = InitialCondition(
            preset=i["preset"].strip(),
            r0=_to_float("initial", "r0", i["r0"]),
            eps0=_to_float("initial", "eps0", i["eps0"]),
            x0=_to_float("initial", "x0", i.get("x0", "0.0")),
            y0=_to_float("initial", "y0", i.get("y0", "0.0")),
            undercool=_to_float("initial", "undercool", i.get("undercool", "-0.6")),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise InvalidValueError(f"initial: {exc}") from exc

    t = cp["time"]
    o = dict(cp["output"]) if cp.has_section("output") else {}
    s = dict(cp["solver"]) if cp.has_section("solver") else {}
    src = dict(cp["sources"]) if cp.has_section("sources") else {}
    snapshot_times = tuple(
        _to_float("output", "snapshot_times", part)
        for part in o.get("snapshot_times", "").split(",") if part.strip()
    )
    try:
        return RunConfig(
            grid=grid,
            scheme=t["scheme"].strip().lower(),
            tau=_to_float("time", "tau", t["tau"]),
            t_end=_to_float("time", "t_end", t["t_end"]),
            params=params,
            initial=initial,
            ledger=o.get("ledger", "ledger.csv").strip(),
            prefix=o.get("prefix", "run").strip(),
            snapshot_every=_to_int("output", "snapshot_every", o.get("snapshot_every", "0")),
            snapshot_times=snapshot_times,
            strict_energy=_to_bool("output", "strict_energy", o.get("strict_energy", "false")),
            check_identity=_to_bool("solver", "check_identity", s.get("check_identity", "true")),
            cg_tol=_to_float("solver", "cg_tol", s.get("cg_tol", "1e-10")),
            cg_maxit=_to_int("solver", "cg_maxit", s.get("cg_maxit", "500")),
            source_phi_dir=src.get("phi_dir", "").strip(),
            source_phi_prefix=src.get("phi_prefix", "s_phi").strip(),
            source_temp_dir=src.get("temp_dir", "").strip(),
            source_temp_prefix=src.get("temp_prefix", "s_temp").strip(),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise InvalidValueError(str(exc)) from exc


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) equals c."""
    if not isinstance(cfg.params.mobility, ConstantMobility):
        raise ConfigError("only constant mobility is representable in config files")
    out = io.StringIO()
    p, g, i = cfg.params, cfg.grid, cfg.initial
    out.write("[grid]\n")
    out.write(f"nx = {g.nx}\nny = {g.ny}\n")
    out.write(f"x0 = {g.x0!r}\nx1 = {g.x1!r}\ny0 = {g.y0!r}\ny1 = {g.y1!r}\n\n")
    out.write("[time]\n")
    out.write(f"scheme = {cfg.scheme}\ntau = {cfg.tau!r}\nt_end = {cfg.t_end!r}\n\n")
    out.write("[model]\n")
    out.write(f"eps = {p.eps!r}\nlambda = {p.lam!r}\ndiff = {p.diff!r}\n")
    out.write(f"latent = {p.latent!r}\nsigma = {p.sigma!r}\n")
    out.write(f"mobility = {p.mobility.rho!r}\n")
    out.write(f"s1 = {p.s1!r}\ns2 = {p.s2!r}\ns3 = {p.s3!r}\ns4 = {p.s4!r}\n")
    out.write(f"bconst = {p.bconst!r}\nmode = {p.mode}\ngrad_reg = {p.grad_reg!r}\n\n")
    out.write("[initial]\n")
    out.write(f"preset = {i.preset}\nr0 = {i.r0!r}\neps0 = {i.eps0!r}\n")
    out.write(f"x0 = {i.x0!r}\ny0 = {i.y0!r}\nundercool = {i.undercool!r}\n\n")
    out.write("[output]\n")
    out.write(f"ledger = {cfg.ledger}\nprefix = {cfg.prefix}\n")
    out.write(f"snapshot_every = {cfg.snapshot_every}\n")
    out.write(f"snapshot_times = {','.join(repr(t) for t in cfg.snapshot_times)}\n")
    out.write(f"strict_energy = {str(cfg.strict_energy).lower()}\n\n")
    out.write("[solver]\n")
    out.write(f"cg_tol = {cfg.cg_tol!r}\ncg_maxit = {cfg.cg_maxit}\n")
    out.write(f"check_identity = {str(cfg.check_identity).lower()}\n\n")
    out.write("[sources]\n")
    out.write(f"phi_dir = {cfg.source_phi_dir}\nphi_prefix = {cfg.source_phi_prefix}\n")
    out.write(f"temp_dir = {cfg.source_temp_dir}\ntemp_prefix = {cfg.source_temp_prefix}\n")
    return out.getvalue()


def case1_params() -> ModelParams:
    """Manufactured-solution accuracy test parameters (Case-I)."""
    return ModelParams(
        eps=0.1, lam=0.1, diff=2.25e-2, latent=0.01, sigma=0.05,
        mobility=ConstantMobility(4e3),
        s1=0.9, s2=10.0, s3=0.0, s4=0.0, bconst=1e4,
    )


def case2_params(s1: float = 0.9, s2: float = 10.0, s3: float = 0.0, s4: float = 0.0) -> ModelParams:
    """Self-convergence / stability test parameters (Case-II)."""
    return ModelParams(
        eps=0.1, lam=1.0, diff=5e-2, latent=0.1, sigma=0.05,
        mobility=ConstantMobility(1e3),
        s1=s1, s2=s2, s3=s3, s4=s4, bconst=5e3,
    )


def dendrite_params(latent: float = 0.6) -> ModelParams:
    """Fourfold dendritic growth parameters; the latent heat varies per run."""
    return ModelParams(
        eps=0.015, lam=4e2, diff=2.5e-3, latent=latent, sigma=0.1,
        mobility=ConstantMobility(1e3),
        s1=0.6, s2=10.0, s3=4.0, s4=4.0, bconst=4e5,
    )


def case2_initial() -> InitialCondition:
    return InitialCondition(preset="case2_tanh", r0=0.25, eps0=0.1)


def dendrite_initial() -> InitialCondition:
    return InitialCondition(preset="dendrite_seed", r0=9e-4, eps0=1.8e-4, undercool=-0.6)
