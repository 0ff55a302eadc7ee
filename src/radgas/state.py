"""Perturbation state (a, u, theta) around the constant background (1, 0, 1).

Density is 1 + a, temperature is 1 + theta, and u is the scalar radial
velocity component (the velocity vector is u(r) * x/|x|), so a and theta
extend evenly across the origin while u extends oddly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import RadialGrid

GAUSSIAN_BUMP = "gaussian-bump"
COMPACT_BUMP = "compact-bump"
ZERO = "zero"

#: Radius of the polynomial bump used by the compact family.
BUMP_RADIUS = 4.0

#: Radius beyond which exp(-r^2) has decayed below 1e-14 of its peak; used
#: as the effective support radius of the Gaussian family.
GAUSSIAN_SUPPORT_RADIUS = math.sqrt(math.log(1e14))

#: Initial-data family -> (support radius, length scale, shape p): a = theta
#: = eps * p(x) and u = (eps * x) * p(x), with x = r / scale.
_FAMILIES = {
    GAUSSIAN_BUMP: (GAUSSIAN_SUPPORT_RADIUS, 1.0, lambda x: np.exp(-(x**2))),
    COMPACT_BUMP: (
        BUMP_RADIUS,
        BUMP_RADIUS,
        lambda x: np.where(x < 1.0, (1.0 - np.minimum(x, 1.0) ** 2) ** 3, 0.0),
    ),
    ZERO: (0.0, 1.0, np.zeros_like),
}
INIT_FAMILIES = tuple(_FAMILIES)


class StateValidityError(ValueError):
    """Raised when an operation requires a valid state but got a breached one."""


@dataclass(frozen=True)
class PhysParams:
    """Physical constants of the model.

    The gas constant and the specific heat are fixed to 1 (so the effective
    adiabatic index is 2 and the background sound speed is sqrt(2)); the heat
    conductivity kappa is the one exposed knob, kappa = 0 switching off
    conduction entirely.
    """

    kappa: float = 1.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.kappa) or self.kappa < 0.0:
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")


@dataclass(frozen=True)
class State:
    """Immutable snapshot of the three perturbation fields at time t.

    Construction only enforces shape and finite dtype handling; positivity
    of 1 + a and 1 + theta is reported by :func:`validate` so that a breached
    state can still be returned to the caller for inspection.
    """

    a: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    t: float
    params: PhysParams
    # Memos set through vars(), not fields: the validity report, and (dr, du/dr,
    # da/dr, max |du/dr|) at width dr, which only the step sets; records read it.
    _validity = None
    _derivs = (None, None, None, None)

    def __post_init__(self) -> None:
        for name in ("a", "u", "theta"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a 1-D array, got ndim={arr.ndim}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.u.shape != self.a.shape or self.theta.shape != self.a.shape:
            raise ValueError(
                "field shapes differ: "
                f"a={self.a.shape}, u={self.u.shape}, theta={self.theta.shape}"
            )
        object.__setattr__(self, "t", float(self.t))

    @classmethod
    def _adopt(cls, a, u, theta, t, params, validity, derivs=_derivs) -> State:
        """The step kernel's result: its arrays locked, not copied, and checked."""
        for arr in (a, u, theta):
            arr.setflags(write=False)
        state = object.__new__(cls)
        vars(state).update(a=a, u=u, theta=theta, t=float(t), params=params)
        vars(state).update(_validity=validity, _derivs=derivs)
        return state


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of a positivity/finiteness check of a state.

    ``min_density`` and ``min_temperature`` are min(1 + a) and min(1 + theta).
    """

    ok: bool
    min_density: float
    min_temperature: float
    all_finite: bool


def check_fields(a, u, theta, rows=None) -> ValidityReport:
    """Array kernel of :func:`validate`: positivity of 1 + a and 1 + theta
    and finiteness of the three fields, from their mins and maxes (NaN
    spreads).  ``rows``, a (3, n) view whose rows are a, u and theta, lets
    two row-wise reductions read them in place; by default they are stacked."""
    rows = (a, u, theta) if rows is None else rows
    lo_a, lo_u, lo_theta = np.minimum.reduce(rows, axis=1).tolist()
    hi = np.maximum.reduce(rows, axis=1).tolist()
    finite = all(map(math.isfinite, (lo_a, lo_u, lo_theta, *hi)))
    if finite:
        min_density, min_temperature = 1.0 + lo_a, 1.0 + lo_theta
    else:
        min_density = min_temperature = float("nan")
    ok = finite and min_density > 0.0 and min_temperature > 0.0
    return ValidityReport(
        ok=ok,
        min_density=min_density,
        min_temperature=min_temperature,
        all_finite=finite,
    )


def validate(state: State) -> ValidityReport:
    """Check positivity of density and temperature and finiteness, once per state."""
    if state._validity is None:
        vars(state)["_validity"] = check_fields(state.a, state.u, state.theta)
    return state._validity


def _family(family: str) -> tuple:
    if family not in _FAMILIES:
        raise ValueError(
            f"unknown init family {family!r}; expected one of {INIT_FAMILIES}"
        )
    return _FAMILIES[family]


def support_radius(family: str) -> float:
    """Effective support radius of an initial-data family.

    For the Gaussian family the cutoff is relative (where the profile drops
    to 1e-14 of its amplitude), so the radius does not depend on eps.
    """
    return _family(family)[0]


def make_initial_state(
    grid: RadialGrid,
    family: str,
    eps: float,
    params: PhysParams | None = None,
) -> State:
    """Build initial data of the given family and amplitude at t = 0.

    Families
    --------
    gaussian-bump : a = theta = eps * exp(-r^2), u = eps * r * exp(-r^2)
    compact-bump  : same roles with a C^2 polynomial bump of radius BUMP_RADIUS
    zero          : all fields identically zero

    eps must lie in [0, 1) so the initial density and temperature stay
    positive with a uniform margin.
    """
    eps = float(eps)
    if not np.isfinite(eps) or eps < 0.0 or eps >= 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    _, scale, shape = _family(family)
    if params is None:
        params = PhysParams()
    x = grid.r / scale
    profile = shape(x)
    a = eps * profile
    return State(a=a, u=eps * x * profile, theta=a, t=0.0, params=params)
