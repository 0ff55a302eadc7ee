"""Config parsing, validation, refinement and presets."""

import dataclasses
import math

import numpy as np
import pytest

from radgas.config import (
    BACKWARD_EULER,
    CONTACT_SAFETY,
    CRANK_NICOLSON,
    MAX_FILTER_COEFF,
    PRESET_NAMES,
    ConfigError,
    RunConfig,
    parse_config,
    preset,
    refine_config,
)
from radgas.integrator import run
from radgas.state import support_radius

MINIMAL = """
eps = 1e-3
kappa = 1.0
r_max = 40.0
n_cells = 400
t_end = 5.0
"""

FULL = """
# full configuration with every key spelled out
eps = 0.01
kappa = 0.5        # conduction strength
r_max = 30.0
n_cells = 300
t_end = 2.0
init_family = compact-bump
cfl = 0.3
output_every = 4
diffusion_scheme = crank-nicolson
filter_coeff = 0.005
diag_max_k = 3
seed = 42
run_id = full-example
"""


class TestParseConfig:
    def test_minimal_document_fills_defaults(self):
        config = parse_config(MINIMAL)
        assert config.eps == 1e-3
        assert config.kappa == 1.0
        assert config.r_max == 40.0
        assert config.n_cells == 400
        assert config.t_end == 5.0
        assert config.init_family == "gaussian-bump"
        assert config.cfl == 0.25
        assert config.output_every == 20
        assert config.diffusion_scheme == BACKWARD_EULER
        assert config.filter_coeff == 0.0
        assert config.diag_max_k == 2
        assert config.seed == 0
        assert config.run_id == "run"

    def test_full_document(self):
        config = parse_config(FULL)
        assert config.init_family == "compact-bump"
        assert config.cfl == 0.3
        assert config.output_every == 4
        assert config.diffusion_scheme == CRANK_NICOLSON
        assert config.filter_coeff == 0.005
        assert config.diag_max_k == 3
        assert config.seed == 42
        assert config.run_id == "full-example"

    def test_comments_and_blank_lines_ignored(self):
        noisy = "# leading comment\n\n" + MINIMAL + "\n   # trailing comment\n"
        assert parse_config(noisy) == parse_config(MINIMAL)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'pressure'"):
            parse_config(MINIMAL + "pressure = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key 'eps'"):
            parse_config(MINIMAL + "eps = 2e-3\n")

    def test_missing_required_key(self):
        without_kappa = "\n".join(
            line for line in MINIMAL.splitlines() if not line.startswith("kappa")
        )
        with pytest.raises(ConfigError, match="missing required keys: kappa"):
            parse_config(without_kappa)

    def test_line_without_equals(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config(MINIMAL + "just some words\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_config(MINIMAL + "run_id =\n")

    def test_non_numeric_float(self):
        text = MINIMAL.replace("eps = 1e-3", "eps = tiny")
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config(text)

    def test_non_integer_int(self):
        text = MINIMAL.replace("n_cells = 400", "n_cells = 400.5")
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config(text)

    def test_negative_kappa_rejected(self):
        text = MINIMAL.replace("kappa = 1.0", "kappa = -1.0")
        with pytest.raises(ConfigError, match="kappa"):
            parse_config(text)

    def test_keys_are_exactly_the_run_config_fields(self):
        names = {f.name for f in dataclasses.fields(RunConfig)}
        keys = {line.split("=")[0].strip() for line in FULL.splitlines() if "=" in line}
        assert keys == names  # FULL sets every field, and parses
        assert parse_config(FULL).run_id == "full-example"
        for name in ("validate", "contact_bound"):  # attributes, not fields
            with pytest.raises(ConfigError, match=f"unknown key '{name}'"):
                parse_config(MINIMAL + f"{name} = 1\n")

    def test_required_keys_are_the_fields_without_defaults(self):
        required = [
            f.name
            for f in dataclasses.fields(RunConfig)
            if f.default is dataclasses.MISSING
        ]
        assert required == ["eps", "kappa", "r_max", "n_cells", "t_end"]
        parse_config(MINIMAL)  # exactly these keys
        for name in required:
            text = "\n".join(
                line for line in MINIMAL.splitlines() if not line.startswith(name)
            )
            with pytest.raises(ConfigError, match=f"missing required keys: {name}$"):
                parse_config(text)

    def test_boundary_no_contact_enforced(self):
        # waves from the origin would cross r_max = 10 long before t = 1000
        text = """
        eps = 1e-3
        kappa = 1.0
        r_max = 10.0
        n_cells = 100
        t_end = 1000.0
        """
        with pytest.raises(ConfigError, match="boundary-no-contact"):
            parse_config(text)


class TestValidate:
    def base(self, **overrides):
        fields = dict(eps=1e-3, kappa=1.0, r_max=40.0, n_cells=400, t_end=5.0)
        fields.update(overrides)
        return RunConfig(**fields)

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"eps": 1.5}, "eps"),
            ({"eps": -0.1}, "eps"),
            ({"kappa": -1.0}, "kappa"),
            ({"kappa": math.inf}, "kappa"),
            ({"r_max": 0.0}, "r_max"),
            ({"n_cells": 4}, "n_cells"),
            ({"t_end": 0.0}, "t_end"),
            ({"cfl": 0.0}, "cfl"),
            ({"cfl": 1.5}, "cfl"),
            ({"output_every": 0}, "output_every"),
            ({"init_family": "square-wave"}, "init_family"),
            ({"diffusion_scheme": "forward-euler"}, "diffusion_scheme"),
            ({"filter_coeff": -0.01}, "filter_coeff"),
            ({"diag_max_k": 9}, "diag_max_k"),
        ],
    )
    def test_rejects_bad_field(self, overrides, fragment):
        with pytest.raises(ConfigError, match=fragment):
            self.base(**overrides).validate()

    def test_valid_config_passes(self):
        self.base().validate()

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            # nan > 0 is False, so a nan coefficient used to switch the filter off
            ({"filter_coeff": math.nan}, "filter_coeff"),
            ({"filter_coeff": math.inf}, "filter_coeff"),
            # above the 1/16 stability bound: 0.5 breaches within ten steps
            ({"filter_coeff": 0.5}, "filter_coeff"),
            ({"filter_coeff": 0.0625001}, "filter_coeff"),
            # an infinite domain used to escape from build_grid as a traceback
            ({"r_max": math.inf}, "r_max"),
            ({"r_max": math.nan}, "r_max"),
            # a nan horizon used to run zero steps and report time-complete
            ({"t_end": math.nan}, "t_end"),
        ],
    )
    def test_rejects_non_finite_or_unstable(self, overrides, fragment):
        with pytest.raises(ConfigError, match=fragment):
            self.base(**overrides).validate()

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            # int() in build_grid used to run this on 96 cells
            ({"n_cells": 96.7}, "n_cells"),
            ({"n_cells": math.nan}, "n_cells"),
            # the step counter's modulo used to record every 5th step
            ({"output_every": 2.5}, "output_every"),
            # used to validate, then end the run with a TypeError
            ({"diag_max_k": 1.5}, "diag_max_k"),
        ],
    )
    def test_rejects_non_integral_counts(self, overrides, fragment):
        with pytest.raises(ConfigError, match=f"{fragment} must be an integer"):
            self.base(**overrides).validate()
        # run() validates before it builds anything
        with pytest.raises(ConfigError, match=f"{fragment} must be an integer"):
            run(self.base(t_end=0.01, **overrides))

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            # each used to escape validate as a TypeError, so run() reported
            # an "error" (exit 1) instead of a config error (exit 3)
            ({"eps": "0.001"}, "eps must be a real number"),
            ({"cfl": None}, "cfl must be a real number"),
            ({"kappa": [1.0]}, "kappa must be a real number"),
            ({"t_end": "5"}, "t_end must be a real number"),
            ({"n_cells": "400"}, "n_cells must be an integer"),
            # a config file cannot hold it: int("1.5") fails
            ({"seed": 1.5}, "seed must be an integer"),
        ],
    )
    def test_rejects_wrong_types(self, overrides, fragment):
        with pytest.raises(ConfigError, match=fragment):
            self.base(**overrides).validate()
        with pytest.raises(ConfigError, match=fragment):
            run(self.base(**{"t_end": 0.01, **overrides}))

    @pytest.mark.parametrize(
        "run_id", ["a#b", "#", "a\nb", "a\r", " run", "run ", "\trun", "a\u2028b"]
    )
    def test_rejects_run_id_a_config_file_cannot_hold(self, run_id):
        # parse_config strips comments, splits lines and trims values
        with pytest.raises(ConfigError, match="run_id"):
            self.base(run_id=run_id).validate()

    @pytest.mark.parametrize(
        "run_id", ["", ".", "..", "../escaped", "a/b", "/abs", "a\\b", "a\0b"]
    )
    def test_rejects_path_like_run_id(self, run_id):
        # a sweep names each member directory after its run_id
        with pytest.raises(ConfigError, match="run_id"):
            self.base(run_id=run_id).validate()

    def test_plain_run_ids_pass(self):
        for run_id in ("run", "..a", "sweep-base-eps-0.001", "x1.5"):
            self.base(run_id=run_id).validate()

    def test_numpy_integers_pass(self):
        self.base(
            n_cells=np.int64(400), output_every=np.int32(3), diag_max_k=np.int16(2)
        ).validate()

    def test_filter_stability_bound_is_inclusive(self):
        self.base(filter_coeff=MAX_FILTER_COEFF).validate()
        assert MAX_FILTER_COEFF == 1.0 / 16.0

    @pytest.mark.parametrize(
        "old, new",
        [
            ("t_end = 5.0", "t_end = 5.0\nfilter_coeff = nan"),
            ("r_max = 40.0", "r_max = inf"),
        ],
    )
    def test_parse_rejects_non_finite(self, old, new):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace(old, new))

    def test_contact_bound_formula(self):
        config = self.base()
        signal = math.sqrt(2.0 * (1.0 + config.eps)) + config.eps
        expected = (
            support_radius(config.init_family)
            + CONTACT_SAFETY * signal * config.t_end
        )
        assert config.contact_bound() == pytest.approx(expected, rel=1e-15)

    def test_frozen(self):
        config = self.base()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.eps = 0.5


class TestRefineConfig:
    def test_doubles_cells_and_tags_run_id(self):
        base = parse_config(MINIMAL)
        fine = refine_config(base)
        assert fine.n_cells == 2 * base.n_cells
        assert fine.run_id == f"{base.run_id}-x2"
        assert fine.r_max == base.r_max
        assert fine.t_end == base.t_end


def small_data_global(n_cells, run_id):
    """Every field of the small-data-global run, spelled out."""
    return RunConfig(
        eps=1e-3,
        kappa=1.0,
        r_max=100.0,
        n_cells=n_cells,
        t_end=50.0,
        init_family="gaussian-bump",
        cfl=0.25,
        output_every=20,
        diffusion_scheme=CRANK_NICOLSON,
        filter_coeff=0.01,
        diag_max_k=2,
        seed=0,
        run_id=run_id,
    )


class TestPresets:
    # Each preset is pinned field by field: the golden output hashes and the
    # acceptance criteria were taken with exactly these runs.
    def test_small_data_global(self):
        config = preset("small-data-global")
        assert config == small_data_global(4000, "small-data-global")
        config.validate()

    def test_no_conduction_steepening(self):
        config = preset("no-conduction-steepening")
        assert config == RunConfig(
            eps=0.3,
            kappa=0.0,
            r_max=56.0,
            n_cells=2800,
            t_end=20.0,
            init_family="gaussian-bump",
            cfl=0.4,
            output_every=10,
            diffusion_scheme=BACKWARD_EULER,
            filter_coeff=0.0,
            diag_max_k=2,
            seed=0,
            run_id="no-conduction-steepening",
        )
        config.validate()

    def test_entropy_audit(self):
        config = preset("entropy-audit")
        assert config == RunConfig(
            eps=1e-3,
            kappa=1.0,
            r_max=24.0,
            n_cells=1920,
            t_end=10.0,
            init_family="gaussian-bump",
            cfl=0.25,
            output_every=5,
            diffusion_scheme=CRANK_NICOLSON,
            filter_coeff=0.01,
            diag_max_k=2,
            seed=0,
            run_id="entropy-audit",
        )
        config.validate()

    def test_convergence_study_is_pair(self):
        configs = preset("convergence-study")
        assert configs == [
            small_data_global(4000, "convergence-study-h0"),
            small_data_global(8000, "convergence-study-h1"),
        ]
        for config in configs:
            config.validate()

    def test_all_names_resolve(self):
        for name in PRESET_NAMES:
            preset(name)

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset("does-not-exist")
