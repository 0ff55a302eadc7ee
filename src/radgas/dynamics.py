"""Convective right-hand side, wave speeds and the symmetric-system view.

The evolution system for (a, u, theta) around the background (1, 0, 1) is

    a_t     = -(u a_r + (1 + a) div u)
    u_t     = -(u u_r + theta_r + ((1 + theta) / (1 + a)) a_r)
    theta_t = -(u theta_r + (1 + theta) div u) + kappa * lap(theta) / (1 + a)

with div u = u_r + 2u/r and lap the radial Laplacian.  This module provides
the convective (non-diffusive) tendency, the quasilinear wave speeds
u, u +- sqrt(2(1 + theta)), and the symmetric-hyperbolic matrices of the
Cartesian momentum subsystem used for structural checks.

The density tendency is assembled in conservative flux form, which is
algebraically identical to the transport form above but makes the
volume-weighted total of a telescope to the outer-boundary flux, so total
mass is preserved to rounding as long as the fields vanish near r_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import RadialGrid
from .operators import EVEN, ODD, derivative_array
from .state import State, StateValidityError, validate


@dataclass(frozen=True)
class SymSystem:
    """Symmetrized quasilinear form A0 q_t + sum_j Aj d_j q = F.

    q = (a, u1, u2, u3) for the density/momentum subsystem; the temperature
    gradient enters through the source vector F = (0, (1 + a) grad theta).
    A0 is diagonal positive definite and every Aj is symmetric on the valid
    regime 1 + a > 0, 1 + theta > 0.
    """

    a0: np.ndarray
    a_dirs: np.ndarray
    f: np.ndarray


def flux_divergence(m: np.ndarray, grid: RadialGrid, out=None) -> np.ndarray:
    """Conservative radial divergence (1/r^2) d/dr (r^2 m) of a flux profile.

    Face values are arithmetic averages of the neighboring cells.  Both
    boundary faces carry zero flux: the origin face because r^2 vanishes
    there, the outer face as a rigid wall.  The w-weighted sum of the output
    is therefore exactly zero for any input, which is the property the mass
    update relies on.  ``out`` is a pair of buffers for the result and the
    n + 1 face fluxes; by default they are new arrays.
    """
    m = np.asarray(m, dtype=float)
    out, flux = out or (np.empty(m.shape[0]), np.empty(m.shape[0] + 1))
    inner = flux[1:-1]
    np.add(m[:-1], m[1:], out=inner)
    inner *= 0.5
    inner *= grid.face_area[1:-1]
    flux[0] = flux[-1] = 0.0
    np.subtract(flux[1:], flux[:-1], out=out)
    out /= grid.w
    return out


def convective_rhs_arrays(
    a: np.ndarray, u: np.ndarray, theta: np.ndarray, grid: RadialGrid,
    du=None, da=None, out=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array kernel of :func:`convective_rhs`, un-negated: (-da_dt, -du_dt,
    -dtheta_dt).  ``du`` and ``da`` are du/dr of u and da/dr of a if the
    caller has them.  ``out`` holds six buffers, apart from the inputs: the
    results, then scratch for 1 + a, 1 + theta and the n + 1 face fluxes;
    by default they are new arrays.

    It does not check the state; the caller vouches that 1 + a > 0.
    """
    dr, n = grid.dr, a.shape[0]
    if out is None:
        out = [np.empty(n) for _ in range(5)] + [np.empty(n + 1)]
    a_sum, u_sum, theta_sum, rho, temp, flux = out
    np.add(1.0, a, out=rho)
    np.add(1.0, theta, out=temp)
    if du is None:
        du = derivative_array(u, ODD, dr)
    dtheta = derivative_array(theta, EVEN, dr)
    if da is None:
        da = derivative_array(a, EVEN, dr)
    # u du + dtheta + temp / rho * da, then u dtheta + temp (du + 2 u / r), in
    # place with the operands in order for NaN bits; theta_sum is the scratch
    np.multiply(u, du, out=u_sum)
    u_sum += dtheta
    np.divide(temp, rho, out=theta_sum)
    theta_sum *= da
    u_sum += theta_sum
    np.multiply(2.0, u, out=theta_sum)
    theta_sum /= grid.r
    np.add(du, theta_sum, out=theta_sum)
    temp *= theta_sum
    np.multiply(u, dtheta, out=theta_sum)
    theta_sum += temp
    a_sum = flux_divergence(np.multiply(rho, u, out=rho), grid, (a_sum, flux))
    return a_sum, u_sum, theta_sum


def convective_rhs(
    state: State, grid: RadialGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convective tendency (da_dt, du_dt, dtheta_dt) of a valid state;
    conduction is handled elsewhere."""
    report = validate(state)
    if not report.ok:
        raise StateValidityError(
            "convective_rhs requires a valid state: "
            f"min density {report.min_density}, "
            f"min temperature {report.min_temperature}, "
            f"finite={report.all_finite}"
        )
    return tuple(-x for x in convective_rhs_arrays(state.a, state.u, state.theta, grid))


def assemble_sym_system(
    a: float,
    u_vec: np.ndarray,
    theta: float,
    grad_theta: np.ndarray | None = None,
) -> SymSystem:
    """Assemble A0, the three Aj and F at one state point.

    grad_theta defaults to zero; it only enters the source term F.
    """
    a = float(a)
    theta = float(theta)
    if 1.0 + a <= 0.0 or 1.0 + theta <= 0.0:
        raise ValueError(
            f"state outside the valid regime: 1+a={1.0 + a}, 1+theta={1.0 + theta}"
        )
    u_vec = np.asarray(u_vec, dtype=float)
    if u_vec.shape != (3,):
        raise ValueError(f"u_vec must have shape (3,), got {u_vec.shape}")
    if grad_theta is None:
        grad_theta = np.zeros(3)
    else:
        grad_theta = np.asarray(grad_theta, dtype=float)
        if grad_theta.shape != (3,):
            raise ValueError(f"grad_theta must have shape (3,), got {grad_theta.shape}")

    rho = 1.0 + a
    temp = 1.0 + theta
    a0 = np.diag([temp / rho, rho, rho, rho])
    a_dirs = np.zeros((3, 4, 4))
    for j in range(3):
        aj = a_dirs[j]
        aj[0, 0] = temp / rho * u_vec[j]
        aj[0, j + 1] = temp
        aj[j + 1, 0] = temp
        for i in range(3):
            aj[i + 1, i + 1] = rho * u_vec[j]
    f = np.concatenate(([0.0], rho * grad_theta))
    return SymSystem(a0=a0, a_dirs=a_dirs, f=f)


def sound_speed(theta: float | np.ndarray) -> float | np.ndarray:
    """Adiabatic sound speed sqrt(2 (1 + theta)) of the full convective system."""
    return np.sqrt(2.0 * (1.0 + np.asarray(theta, dtype=float)))


def characteristic_speeds(a, u, theta):
    """Wave speeds (u - c, u, u + c) with c = sqrt(2 (1 + theta)).

    These are the eigenvalues of the radial convective Jacobian
    [[u, 1+a, 0], [(1+theta)/(1+a), u, 1], [0, 1+theta, u]]; the closed form
    is pinned against a numeric eigenvalue oracle in the test suite.
    Accepts scalars or arrays of matching shape.
    """
    a = np.asarray(a, dtype=float)
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(1.0 + a <= 0.0) or np.any(1.0 + theta <= 0.0):
        raise ValueError(
            "state outside the valid regime: "
            f"min(1+a)={float(np.min(1.0 + a))}, "
            f"min(1+theta)={float(np.min(1.0 + theta))}"
        )
    c = sound_speed(theta)
    if u.ndim == 0 and theta.ndim == 0:
        return (float(u - c), float(u), float(u + c))
    u_b, c_b = np.broadcast_arrays(u, c)
    return (u_b - c_b, u_b.copy(), u_b + c_b)


def cfl_dt_arrays(u: np.ndarray, theta: np.ndarray, dr: float, cfl: float) -> float:
    """Array kernel of :func:`cfl_dt`; it checks neither the state nor cfl."""
    speed = float(np.maximum.reduce(np.abs(u) + sound_speed(theta)))
    return cfl * dr / speed


def cfl_dt(state: State, grid: RadialGrid, cfl: float) -> float:
    """Convective CFL time step cfl * dr / max(|u| + sqrt(2 (1 + theta)))."""
    cfl = float(cfl)
    if not np.isfinite(cfl) or cfl <= 0.0 or cfl > 1.0:
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
    report = validate(state)
    if not report.ok:
        raise StateValidityError("cfl_dt requires a valid state")
    return cfl_dt_arrays(state.u, state.theta, grid.dr, cfl)
