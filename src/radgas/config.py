"""Run configuration: strict key=value parsing, validation and presets."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .state import INIT_FAMILIES, support_radius

BACKWARD_EULER = "backward-euler"
CRANK_NICOLSON = "crank-nicolson"
DIFFUSION_SCHEMES = (BACKWARD_EULER, CRANK_NICOLSON)

#: Safety factor on the signal-speed estimate in the boundary-contact bound.
CONTACT_SAFETY = 1.2

MAX_DIAG_K = 6

#: Largest fourth-difference filter coefficient: the filter damps the
#: checkerboard mode by the factor 1 - 16 * coeff, which must not go negative.
MAX_FILTER_COEFF = 1.0 / 16.0

PRESET_NAMES = (
    "small-data-global",
    "no-conduction-steepening",
    "entropy-audit",
    "convergence-study",
)


class ConfigError(ValueError):
    """Raised for malformed, incomplete or physically inconsistent configs."""


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one run.

    The defaults match the plain small-amplitude use case; every field can
    be set from a config file.  ``seed`` is carried for randomized state
    utilities and reproducibility bookkeeping; the solver itself is
    deterministic and does not consume it.
    """

    eps: float
    kappa: float
    r_max: float
    n_cells: int
    t_end: float
    init_family: str = "gaussian-bump"
    cfl: float = 0.25
    output_every: int = 20
    diffusion_scheme: str = BACKWARD_EULER
    filter_coeff: float = 0.0
    diag_max_k: int = 2
    seed: int = 0
    run_id: str = "run"

    def signal_speed_bound(self) -> float:
        """A-priori bound |u| + sqrt(2 (1 + theta)) <= eps + sqrt(2 (1 + eps))."""
        return math.sqrt(2.0 * (1.0 + self.eps)) + self.eps

    def contact_bound(self) -> float:
        """Radius the data can influence by t_end, with safety factor."""
        r_support = support_radius(self.init_family, self.eps)
        return r_support + CONTACT_SAFETY * self.signal_speed_bound() * self.t_end

    def validate(self) -> None:
        problems: list[str] = []
        if not (0.0 <= self.eps < 1.0):
            problems.append(f"eps must lie in [0, 1), got {self.eps}")
        if self.kappa < 0.0 or not math.isfinite(self.kappa):
            problems.append(f"kappa must be finite and >= 0, got {self.kappa}")
        if not (0.0 < self.r_max < math.inf):
            problems.append(f"r_max must be positive and finite, got {self.r_max}")
        if self.n_cells < 8:
            problems.append(f"n_cells must be at least 8, got {self.n_cells}")
        if not (0.0 < self.t_end < math.inf):
            problems.append(f"t_end must be positive and finite, got {self.t_end}")
        if not (0.0 < self.cfl <= 1.0):
            problems.append(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.output_every < 1:
            problems.append(f"output_every must be >= 1, got {self.output_every}")
        if self.init_family not in INIT_FAMILIES:
            problems.append(
                f"init_family must be one of {INIT_FAMILIES}, got {self.init_family!r}"
            )
        if self.diffusion_scheme not in DIFFUSION_SCHEMES:
            problems.append(
                "diffusion_scheme must be one of "
                f"{DIFFUSION_SCHEMES}, got {self.diffusion_scheme!r}"
            )
        if not (0.0 <= self.filter_coeff <= MAX_FILTER_COEFF):
            problems.append(
                f"filter_coeff must lie in [0, {MAX_FILTER_COEFF}], "
                f"got {self.filter_coeff}"
            )
        if not (0 <= self.diag_max_k <= MAX_DIAG_K):
            problems.append(
                f"diag_max_k must lie in [0, {MAX_DIAG_K}], got {self.diag_max_k}"
            )
        if not problems and self.init_family in INIT_FAMILIES:
            bound = self.contact_bound()
            if bound > self.r_max:
                problems.append(
                    "boundary-no-contact violated: support radius plus "
                    f"{CONTACT_SAFETY} * signal speed * t_end = {bound:.3f} "
                    f"exceeds r_max = {self.r_max}; enlarge r_max or shorten t_end"
                )
        if problems:
            raise ConfigError("; ".join(problems))


_FLOAT_KEYS = ("eps", "kappa", "r_max", "t_end", "cfl", "filter_coeff")
_INT_KEYS = ("n_cells", "output_every", "diag_max_k", "seed")
_STR_KEYS = ("init_family", "diffusion_scheme", "run_id")
_ALL_KEYS = _FLOAT_KEYS + _INT_KEYS + _STR_KEYS
_REQUIRED_KEYS = ("eps", "kappa", "r_max", "n_cells", "t_end")


def parse_config(text: str) -> RunConfig:
    """Parse a line-oriented ``key = value`` document into a RunConfig.

    Comments start with '#', blank lines are skipped, unknown or duplicate
    keys are errors, and the resulting config is validated (including the
    boundary-no-contact requirement) before being returned.
    """
    found: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in found:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for key {key!r}")
        found[key] = value

    missing = [key for key in _REQUIRED_KEYS if key not in found]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    kwargs: dict[str, object] = {}
    for key, value in found.items():
        if key in _FLOAT_KEYS:
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise ConfigError(f"key {key!r}: expected a number, got {value!r}")
        elif key in _INT_KEYS:
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise ConfigError(f"key {key!r}: expected an integer, got {value!r}")
        else:
            kwargs[key] = value

    config = RunConfig(**kwargs)  # type: ignore[arg-type]
    config.validate()
    return config


def refine_config(config: RunConfig, factor: int = 2) -> RunConfig:
    """Halve the mesh width (the CFL step then halves along with it)."""
    refined = replace(
        config,
        n_cells=config.n_cells * factor,
        run_id=f"{config.run_id}-x{factor}",
    )
    refined.validate()
    return refined


def preset(name: str) -> RunConfig | list[RunConfig]:
    """Named run configurations.

    small-data-global        : eps = 1e-3, kappa = 1, long horizon; the
                               decay-to-background scenario.
    no-conduction-steepening : eps = 0.3, kappa = 0; gradient steepening probe.
    entropy-audit            : small-amplitude Crank-Nicolson run on a fine
                               mesh for auditing the entropy/Lyapunov balance.
    convergence-study        : the small-data run plus its mesh refinement,
                               returned as a two-element list.
    """
    if name == "small-data-global":
        config = RunConfig(
            eps=1e-3,
            kappa=1.0,
            r_max=100.0,
            n_cells=4000,
            t_end=50.0,
            cfl=0.25,
            output_every=20,
            diffusion_scheme=CRANK_NICOLSON,
            filter_coeff=0.01,
            diag_max_k=2,
            run_id="small-data-global",
        )
    elif name == "no-conduction-steepening":
        config = RunConfig(
            eps=0.3,
            kappa=0.0,
            r_max=56.0,
            n_cells=2800,
            t_end=20.0,
            cfl=0.4,
            output_every=10,
            filter_coeff=0.0,
            diag_max_k=2,
            run_id="no-conduction-steepening",
        )
    elif name == "entropy-audit":
        config = RunConfig(
            eps=1e-3,
            kappa=1.0,
            r_max=24.0,
            n_cells=1920,
            t_end=10.0,
            cfl=0.25,
            output_every=5,
            diffusion_scheme=CRANK_NICOLSON,
            filter_coeff=0.01,
            diag_max_k=2,
            run_id="entropy-audit",
        )
    elif name == "convergence-study":
        base = preset("small-data-global")
        assert isinstance(base, RunConfig)
        base = replace(base, run_id="convergence-study-h0")
        fine = replace(refine_config(base), run_id="convergence-study-h1")
        base.validate()
        fine.validate()
        return [base, fine]
    else:
        raise ConfigError(
            f"unknown preset {name!r}; expected one of {PRESET_NAMES}"
        )
    config.validate()
    return config


TERMINATION_REASONS = (
    "time-complete",
    "positivity-breach",
    "boundary-contact",
    "error",
)


@dataclass(frozen=True)
class RunSummary:
    """End-of-run report, produced for every run including aborted ones.

    ``peaks`` maps each scalar diagnostics field to the largest absolute
    value it attained over the emitted records; the shock indicator entry is
    tracked per step rather than per record so transient gradient spikes
    between output times are not missed.  ``error`` is None except for runs
    that failed with an unexpected exception inside a sweep.
    """

    run_id: str
    termination_reason: str
    steps: int
    t_final: float
    wall_clock_seconds: float
    peaks: dict[str, float] = field(default_factory=dict)
    final_e_k1: tuple[float, ...] = ()
    final_e_k2: tuple[float, ...] = ()
    error: str | None = None
