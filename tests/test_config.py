import math
import re
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from dendrosim.config import (
    _KEYS,
    ConfigError,
    InitialCondition,
    InvalidValueError,
    MissingKeyError,
    RunConfig,
    UnknownKeyError,
    load_config,
    parse_config,
    serialize_config,
)
from dendrosim.grid import GridSpec
from dendrosim.model import ModelParams

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"

MINIMAL = """
[grid]
nx = 8
ny = 8
x0 = -1.0
x1 = 1.0
y0 = -1.0
y1 = 1.0

[time]
scheme = bdf1
tau = 0.1
t_end = 1.0

[model]
eps = 0.1
lambda = 1.0
diff = 5e-2
latent = 0.1
sigma = 0.05
mobility = 1e3
s1 = 0.9
s2 = 10.0
s3 = 0.0
s4 = 0.0
bconst = 5e3

[initial]
preset = case2_tanh
r0 = 0.25
eps0 = 0.1
"""


class TestShippedConfigs:
    def test_case2_matches_reference_parameters(self):
        cfg = load_config(CONFIG_DIR / "case2.cfg")
        p = cfg.params
        assert (p.mobility, p.mobility_tanh) == (1e3, 0.0)
        assert p.eps == 0.1
        assert p.sigma == 0.05
        assert p.lam == 1.0
        assert p.diff == 5e-2
        assert p.latent == 0.1
        assert (p.s1, p.s2, p.s3, p.s4) == (0.9, 10.0, 0.0, 0.0)
        assert p.bconst == 5e3
        assert cfg.initial.preset == "case2_tanh"
        assert cfg.initial.r0 == 0.25
        assert cfg.initial.eps0 == 0.1
        assert (cfg.initial.x0, cfg.initial.y0) == (0.0, 0.0)

    def test_case1_matches_reference_parameters(self):
        p = load_config(CONFIG_DIR / "case1.cfg").params
        assert p.mobility == 4e3
        assert p.lam == 0.1
        assert p.diff == 2.25e-2
        assert p.latent == 0.01
        assert p.bconst == 1e4

    def test_dendrite_matches_reference_parameters(self):
        cfg = load_config(CONFIG_DIR / "dendrite.cfg")
        p = cfg.params
        assert p.eps == 0.015
        assert p.lam == 4e2
        assert p.diff == 2.5e-3
        assert p.sigma == 0.1
        assert (p.s1, p.s2, p.s3, p.s4) == (0.6, 10.0, 4.0, 4.0)
        assert p.bconst == 4e5
        assert cfg.tau == 0.01
        assert cfg.grid.nx == 256
        assert cfg.initial.preset == "dendrite_seed"
        assert cfg.initial.r0 == 9e-4
        assert cfg.initial.eps0 == 1.8e-4
        assert cfg.initial.undercool == -0.6


class TestValidation:
    def test_negative_tau_names_key(self):
        bad = MINIMAL.replace("tau = 0.1", "tau = -1")
        with pytest.raises(InvalidValueError, match="tau"):
            parse_config(bad)

    def test_unknown_key(self):
        bad = MINIMAL.replace("tau = 0.1", "tau = 0.1\nwhatever = 3")
        with pytest.raises(UnknownKeyError, match="whatever"):
            parse_config(bad)

    def test_unknown_section(self):
        with pytest.raises(UnknownKeyError, match="extras"):
            parse_config(MINIMAL + "\n[extras]\nfoo = 1\n")

    def test_missing_mandatory_key_named(self):
        bad = MINIMAL.replace("bconst = 5e3\n", "")
        with pytest.raises(MissingKeyError, match="model.bconst"):
            parse_config(bad)

    def test_missing_section(self):
        bad = MINIMAL.split("[initial]")[0]
        with pytest.raises(MissingKeyError, match="initial"):
            parse_config(bad)

    def test_stabilizer_bound(self):
        bad = MINIMAL.replace("s1 = 0.9", "s1 = 0.95")
        # ModelParams alone holds the bound; parse_config names its section
        with pytest.raises(InvalidValueError, match=r"^model: s1=0\.95 must stay below"):
            parse_config(bad)

    def test_bad_scheme(self):
        bad = MINIMAL.replace("scheme = bdf1", "scheme = euler")
        with pytest.raises(InvalidValueError, match="scheme"):
            parse_config(bad)

    def test_non_numeric_value(self):
        bad = MINIMAL.replace("eps = 0.1", "eps = tiny")
        with pytest.raises(InvalidValueError, match="eps"):
            parse_config(bad)

    def test_malformed_text(self):
        with pytest.raises(ConfigError):
            parse_config("tau = 1\n")

    def test_bad_preset(self):
        bad = MINIMAL.replace("preset = case2_tanh", "preset = mystery")
        with pytest.raises(InvalidValueError, match="preset"):
            parse_config(bad)

    def test_t_end_shorter_than_tau(self):
        bad = MINIMAL.replace("t_end = 1.0", "t_end = 0.01")
        with pytest.raises(InvalidValueError, match="t_end"):
            parse_config(bad)

    @pytest.mark.parametrize("line, bad, name", [
        ("t_end = 1.0", "t_end = inf", "time.t_end"),
        ("mobility = 1e3", "mobility = inf", "model.mobility"),
        ("bconst = 5e3", "bconst = nan", "model.bconst"),
        ("x1 = 1.0", "x1 = inf", "grid.x1"),
    ])
    def test_non_finite_number_names_key(self, line, bad, name):
        with pytest.raises(InvalidValueError, match=rf"^{re.escape(name)}: not a finite number"):
            parse_config(MINIMAL.replace(line, bad))

    @pytest.mark.parametrize("line, bad, message", [
        ("eps0 = 0.1", "eps0 = 0", "initial.eps0 must be positive, got 0.0"),
        ("eps0 = 0.1", "eps0 = 0.1\n[output]\nsnapshot_every = -1",
         "output.snapshot_every must be >= 0"),
        ("eps0 = 0.1", "eps0 = 0.1\n[output]\nstrict_energy = maybe",
         "output.strict_energy: not a boolean: 'maybe'"),
        ("eps = 0.1", "eps = 0", "model: eps must be positive"),
        ("diff = 5e-2", "diff = 0", "model: diff must be positive"),
        ("s3 = 0.0", "s3 = -1", "model: s3 must be >= 0"),
        ("bconst = 5e3", "bconst = 0", "model: bconst must be positive"),
    ], ids=["eps0-zero", "snapshot_every-negative", "strict_energy-not-boolean", "eps-zero",
            "diff-zero", "s3-negative", "bconst-zero"])
    def test_out_of_range_value_names_key(self, line, bad, message):
        with pytest.raises(InvalidValueError, match=f"^{re.escape(message)}$"):
            parse_config(MINIMAL.replace(line, bad))

    def test_tau_must_divide_t_end(self):
        # a run is a whole number of steps; the count is read when a run
        # starts, so a configuration whose tau a driver replaces still parses
        cfg = parse_config(MINIMAL.replace("tau = 0.1", "tau = 0.3"))
        with pytest.raises(InvalidValueError, match=re.escape(
                "time.tau=0.3 does not divide time.t_end=1.0: its 3 steps end at t=0.9")):
            cfg.n_steps
        assert parse_config(MINIMAL).n_steps == 10
        # a quotient within 1e-9 of a whole number of steps is that number
        assert parse_config(MINIMAL.replace("t_end = 1.0", "t_end = 0.7000000001")).n_steps == 7


class TestRoundTrip:
    def test_minimal(self):
        cfg = parse_config(MINIMAL)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_shipped_files(self):
        for name in ("case1.cfg", "case2.cfg", "dendrite.cfg"):
            cfg = load_config(CONFIG_DIR / name)
            assert parse_config(serialize_config(cfg)) == cfg

    def test_optional_fields_survive(self):
        text = MINIMAL + (
            "x0 = 0.125\ny0 = -0.25\nundercool = -0.4\n"
            "\n[output]\nledger = custom.csv\nprefix = probe\n"
            "snapshot_every = 7\nsnapshot_times = 0.5,1.0\n"
            "strict_energy = true\n"
            "\n[solver]\ncheck_identity = false\n"
            "\n[sources]\nphi_dir = forcing/phi\nphi_prefix = sp\n"
            "temp_dir = forcing/temp\ntemp_prefix = st\n"
        )
        cfg = parse_config(text)
        assert (cfg.initial.x0, cfg.initial.y0, cfg.initial.undercool) == (0.125, -0.25, -0.4)
        assert cfg.ledger == "custom.csv"
        assert cfg.prefix == "probe"
        assert cfg.snapshot_every == 7
        assert cfg.snapshot_times == (0.5, 1.0)
        assert cfg.strict_energy is True
        assert cfg.check_identity is False
        assert (cfg.source_phi_dir, cfg.source_phi_prefix) == ("forcing/phi", "sp")
        assert (cfg.source_temp_dir, cfg.source_temp_prefix) == ("forcing/temp", "st")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_comments_ignored(self):
        cfg = parse_config(MINIMAL.replace("tau = 0.1", "tau = 0.1  # step size"))
        assert cfg.tau == 0.1


class TestInitialConditions:
    def test_case2_profile(self, grid16):
        phi, temp = InitialCondition(preset="case2_tanh", r0=0.25, eps0=0.1).build(grid16)
        assert temp == pytest.approx(-0.5 * phi)
        assert phi.max() <= 1.0 and phi.min() >= -1.0

    def test_dendrite_profile(self, grid16):
        ic = InitialCondition(preset="dendrite_seed", r0=0.25, eps0=0.1, undercool=-0.6)
        phi, temp = ic.build(grid16)
        assert set(map(float, {t for t in temp.ravel()})) <= {0.0, -0.6}
        assert temp[phi > 0].max() == 0.0 if (phi > 0).any() else True
        assert temp[phi <= 0].min() == -0.6

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(InvalidValueError, match="r0"):
            InitialCondition(preset="case2_tanh", r0=0.0, eps0=0.1)

    @pytest.mark.parametrize("name", ["r0", "eps0", "x0", "y0", "undercool"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_values(self, name, value):
        # the Python API refuses what _parse_float refuses in a file
        kwargs = dict(preset="dendrite_seed", r0=0.25, eps0=0.1)
        kwargs[name] = value
        with pytest.raises(InvalidValueError,
                           match=rf"^initial\.{name} must be a finite number"):
            InitialCondition(**kwargs)


class TestKeyTable:
    def test_every_field_set_by_exactly_one_key(self):
        nested = {"grid": GridSpec, "params": ModelParams, "initial": InitialCondition}
        expected = [f"{part}.{f.name}" for part, cls in nested.items() for f in fields(cls)]
        expected += [f.name for f in fields(RunConfig) if f.name not in nested]
        # no key sets the tanh mobility weight yet: serialize_config refuses
        # a non-zero one, so a config file always means weight 0
        expected.remove("params.mobility_tanh")
        attrs = Counter(attr for attr, _, _ in _KEYS.values())
        assert attrs == Counter(expected)

    def test_readme_lists_the_keys(self):
        # README rows: | `[section]` | `required keys` | `optional keys` |
        rows = re.findall(r"^\| `\[(\w+)\]` +\|(.*)\|(.*)\|$",
                          (ROOT / "README.md").read_text(), re.MULTILINE)
        documented = {
            section: tuple(set(" ".join(re.findall(r"`([^`]*)`", cell)).split())
                           for cell in (required, optional))
            for section, required, optional in rows
        }
        declared = {section: (set(), set()) for section, _ in _KEYS}
        for (section, key), (_, _, required) in _KEYS.items():
            declared[section][0 if required else 1].add(key)
        assert documented == declared
