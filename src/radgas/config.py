"""Run configuration: strict key=value parsing, validation and presets."""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields, replace

from .diagnostics import MAX_DIAG_ORDER
from .grid import MIN_CELLS
from .state import INIT_FAMILIES, support_radius

BACKWARD_EULER = "backward-euler"
CRANK_NICOLSON = "crank-nicolson"
DIFFUSION_SCHEMES = (BACKWARD_EULER, CRANK_NICOLSON)

#: Safety factor on the signal-speed estimate in the boundary-contact bound.
CONTACT_SAFETY = 1.2

#: Largest fourth-difference filter coefficient: the filter damps the
#: checkerboard mode by the factor 1 - 16 * coeff, which must not go negative.
MAX_FILTER_COEFF = 1.0 / 16.0

class ConfigError(ValueError):
    """Raised for malformed, incomplete or physically inconsistent configs."""


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one run.

    The defaults match the plain small-amplitude use case; every field can
    be set from a config file.  ``seed`` is bookkeeping only: the solver is
    deterministic, and nothing in the package consumes it.
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
        r_support = support_radius(self.init_family)
        return r_support + CONTACT_SAFETY * self.signal_speed_bound() * self.t_end

    def validate(self) -> None:
        problems = [
            f"{name} must be {noun}, got {getattr(self, name)!r}"
            for name, (_, _, kind, noun) in _KEYS.items()
            if not isinstance(getattr(self, name), kind)
        ]
        if problems:  # the range checks below would raise TypeError
            raise ConfigError("; ".join(problems))
        if not (0.0 <= self.eps < 1.0):
            problems.append(f"eps must lie in [0, 1), got {self.eps}")
        if self.kappa < 0.0 or not math.isfinite(self.kappa):
            problems.append(f"kappa must be finite and >= 0, got {self.kappa}")
        if not (0.0 < self.r_max < math.inf):
            problems.append(f"r_max must be positive and finite, got {self.r_max}")
        if self.n_cells < MIN_CELLS:
            problems.append(f"n_cells must be at least {MIN_CELLS}, got {self.n_cells}")
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
        if not (0 <= self.diag_max_k <= MAX_DIAG_ORDER):
            problems.append(
                f"diag_max_k must lie in [0, {MAX_DIAG_ORDER}], got {self.diag_max_k}"
            )
        # run_id names the member directory under a sweep's output root, and
        # a config file must hold it: one line, no '#', no surrounding space
        if (
            not isinstance(self.run_id, str)
            or self.run_id in ("", ".", "..")
            or any(c in self.run_id for c in "/\\\0#")
            or self.run_id.strip().splitlines() != [self.run_id]
        ):
            problems.append(f"run_id must be a plain file name, got {self.run_id!r}")
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


#: Per RunConfig field type: the parser of a config-file value and the noun
#: that completes its "expected ..." error, then the type validate() requires
#: and the noun that completes its "... must be ..." error.  str fields are
#: checked by value.
_KEY_TYPES = {
    "float": (float, "a number", numbers.Real, "a real number"),
    "int": (int, "an integer", numbers.Integral, "an integer"),
    "str": (str, "", object, ""),
}

#: Every config key, one per RunConfig field, in field order.
_KEYS = {f.name: _KEY_TYPES[f.type] for f in fields(RunConfig)}
_REQUIRED_KEYS = tuple(f.name for f in fields(RunConfig) if f.default is MISSING)


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
        if key not in _KEYS:
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
        parse, noun, _, _ = _KEYS[key]
        try:
            kwargs[key] = parse(value)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected {noun}, got {value!r}")

    config = RunConfig(**kwargs)  # type: ignore[arg-type]
    config.validate()
    return config


def refine_config(config: RunConfig) -> RunConfig:
    """Halve the mesh width (the CFL step then halves along with it)."""
    refined = replace(
        config,
        n_cells=config.n_cells * 2,
        run_id=f"{config.run_id}-x2",
    )
    refined.validate()
    return refined


#: Named runs: the values that differ from RunConfig's defaults.  Each
#: config's run_id is its preset name.
_PRESETS: dict[str, dict[str, object]] = {
    "small-data-global": dict(
        eps=1e-3,
        kappa=1.0,
        r_max=100.0,
        n_cells=4000,
        t_end=50.0,
        diffusion_scheme=CRANK_NICOLSON,
        filter_coeff=0.01,
    ),
    "no-conduction-steepening": dict(
        eps=0.3,
        kappa=0.0,
        r_max=56.0,
        n_cells=2800,
        t_end=20.0,
        cfl=0.4,
        output_every=10,
    ),
    "entropy-audit": dict(
        eps=1e-3,
        kappa=1.0,
        r_max=24.0,
        n_cells=1920,
        t_end=10.0,
        output_every=5,
        diffusion_scheme=CRANK_NICOLSON,
        filter_coeff=0.01,
    ),
}
_PRESETS["convergence-study"] = _PRESETS["small-data-global"]

PRESET_NAMES = tuple(_PRESETS)


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
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; expected one of {PRESET_NAMES}"
        )
    config = RunConfig(**_PRESETS[name], run_id=name)  # type: ignore[arg-type]
    config.validate()
    if name != "convergence-study":
        return config
    base = replace(config, run_id=f"{name}-h0")
    return [base, replace(refine_config(base), run_id=f"{name}-h1")]


@dataclass(frozen=True)
class RunSummary:
    """End-of-run report, produced for every run including aborted ones.

    ``peaks`` maps each scalar diagnostics field to the largest absolute
    value it attained over the emitted records; the shock indicator entry is
    tracked per step rather than per record so transient gradient spikes
    between output times are not missed.  ``error`` is None except for runs
    that failed with an unexpected exception (see ``output.run_to_dir``).
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
