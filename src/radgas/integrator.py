"""IMEX time stepping: explicit SSP-RK2 convection, implicit heat conduction.

One step is a Strang composition: a half step of implicit conduction, a
full explicit step of convection, and a second conduction half step.  The
convective substep is two-stage strong-stability-preserving Runge-Kutta;
each stage is a forward-Euler update whose density part is in conservative
flux form, so the convex combination preserves total mass to rounding.
Each conduction half step integrates kappa * lap(theta) / (1 + a)
implicitly (backward Euler by default, Crank-Nicolson on request) with the
1/(1 + a) coefficient frozen at the substep entry state; the tridiagonal
system is strictly diagonally dominant for any dt > 0, so the implicit
update is unconditionally solvable.  It goes straight to LAPACK's dgtsv
through :func:`radgas.tridiag.tridiagonal_solve`.  The symmetric
composition keeps the splitting error at O(dt^2) when the Crank-Nicolson
halves are used.

Inside a step the fields stay plain arrays: the input state is validated
once, every later stage is checked once on its arrays, and only the result
is wrapped in a State.

Both ends of the domain are closed: zero flux at the origin by parity and
an insulated rigid wall at r_max.  Mass is then conserved to rounding no
matter what reaches the boundary, and the conduction substep conserves the
volume integral of (1 + a) * theta exactly.

Stability note: centered differences leave wave-like modes undamped, and
explicit RK2 amplifies them by about (cfl^4 / 8) per step.  Backward-Euler
conduction wipes out grid-scale temperature modes and with them the
amplification; Crank-Nicolson barely damps those modes, and their coupling
back into the explicit pressure gradient can grow, so runs using it should
enable the fourth-difference filter (a coefficient of about 0.01 removes
16% of the checkerboard mode per step, far above the parasitic growth
rate, while perturbing smooth fields only at third order in dr).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import (
    BACKWARD_EULER,
    CRANK_NICOLSON,
    MAX_FILTER_COEFF,
    RunConfig,
    RunSummary,
)
from .diagnostics import DiagnosticsCollector, DiagnosticsSink
# The array kernels go by the names of the public functions whose jobs they
# do, so that perfbench's per-layer tracer, which wraps integrator.cfl_dt and
# integrator.convective_rhs, keeps attributing their time.
from .dynamics import cfl_dt_arrays as cfl_dt
from .dynamics import convective_rhs_arrays as convective_rhs
from .grid import RadialGrid, build_grid
from .operators import EVEN, ODD, ParityError, ParityField, derivative_array
from .state import (
    PhysParams,
    State,
    StateValidityError,
    ValidityReport,
    check_fields,
    make_initial_state,
    validate,
)
from .tridiag import tridiagonal_matvec, tridiagonal_solve


@dataclass(frozen=True)
class StepReport:
    """Bookkeeping for one time step."""

    dt_used: float
    validity: ValidityReport
    max_abs_du_dr: float
    implicit_solve_residual: float


def _diffusion_solve_arrays(
    theta_star: np.ndarray,
    a_frozen: np.ndarray,
    grid: RadialGrid,
    dt: float,
    kappa: float,
    scheme: str,
) -> tuple[np.ndarray, float]:
    """Implicit conduction update; returns (theta_new, relative residual).

    The rows of M theta = kappa * lap(theta) / (1 + a) are in flux form with
    zero-flux closures at both boundary faces: the origin face by even
    symmetry, the outer face as an insulated wall.  Conductive fluxes then
    telescope, so the update conserves the volume integral of (1 + a) theta
    exactly.  The system I - weight * M has diag = 1 + weight * (|lower| +
    |upper|) row by row, so it is strictly diagonally dominant whenever
    1 + a > 0; the solver's dominance guard checks that precondition.
    """
    area = grid.face_area.copy()
    area[-1] = 0.0  # insulated wall: no conductive flux through the outer face
    c = kappa / ((1.0 + a_frozen) * grid.w * grid.dr)
    m_lower = c * area[:-1]
    m_upper = c * area[1:]
    m_diag = -(m_lower + m_upper)
    m_lower[0] = 0.0  # origin face area vanishes anyway; keep the invariant explicit
    if scheme == BACKWARD_EULER:
        weight = dt
        rhs = theta_star
    elif scheme == CRANK_NICOLSON:
        weight = 0.5 * dt
        m_theta = tridiagonal_matvec(m_lower, m_diag, m_upper, theta_star)
        rhs = theta_star + 0.5 * dt * m_theta
    else:
        raise ValueError(f"unknown diffusion scheme {scheme!r}")
    return tridiagonal_solve(
        -weight * m_lower, 1.0 - weight * m_diag, -weight * m_upper, rhs
    )


def solve_diffusion(
    theta_star: ParityField | np.ndarray,
    a: ParityField | np.ndarray,
    grid: RadialGrid,
    dt: float,
    scheme: str = BACKWARD_EULER,
    kappa: float = 1.0,
) -> ParityField:
    """Advance theta through the conduction term over one implicit step.

    theta_star is the post-convection temperature field and ``a`` the frozen
    density perturbation entering the 1/(1 + a) coefficient.  Both even.
    """
    if isinstance(theta_star, ParityField):
        if theta_star.parity != EVEN:
            raise ParityError("solve_diffusion expects an even temperature field")
        theta_values = theta_star.values
    else:
        theta_values = np.asarray(theta_star, dtype=float)
    if isinstance(a, ParityField):
        if a.parity != EVEN:
            raise ParityError("solve_diffusion expects an even density field")
        a_values = a.values
    else:
        a_values = np.asarray(a, dtype=float)
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if kappa < 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if np.min(1.0 + a_values) <= 0.0:
        raise StateValidityError("solve_diffusion requires 1 + a > 0")
    if kappa == 0.0:
        return ParityField(values=theta_values, parity=EVEN)
    theta_new, _ = _diffusion_solve_arrays(
        theta_values, a_values, grid, dt, kappa, scheme
    )
    return ParityField(values=theta_new, parity=EVEN)


def _fourth_difference_filter(
    a: np.ndarray,
    u: np.ndarray,
    theta: np.ndarray,
    grid: RadialGrid,
    coeff: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damp odd-even oscillations with a fourth-difference smoother.

    The density is filtered in conservative flux form (face third
    differences) with the wall face closed, so total mass stays exact no
    matter what reaches the boundary; u and theta use the plain five-point
    stencil with parity ghosts at the origin, left untouched in the two
    outermost cells where the stencil would need wall ghosts.
    Stability requires coeff <= 1/16.
    """

    def extend(f: np.ndarray, sign: float) -> np.ndarray:
        return np.concatenate(([sign * f[1], sign * f[0]], f, [0.0, 0.0]))

    def fourth_diff(f: np.ndarray, sign: float) -> np.ndarray:
        g = extend(f, sign)
        out = g[4:] - 4.0 * g[3:-1] + 6.0 * g[2:-2] - 4.0 * g[1:-3] + g[:-4]
        out[-2:] = 0.0
        return out

    ga = extend(a, 1.0)
    # Face third differences: G[j] couples cells j-2 .. j+1 and vanishes at
    # the origin face by parity, so the update telescopes in the w measure.
    third = ga[3:] - 3.0 * ga[2:-1] + 3.0 * ga[1:-2] - ga[:-3]
    face_flux = grid.face_area * grid.dr * third[: grid.n_cells + 1]
    face_flux[-1] = 0.0  # no filter flux through the wall
    a_new = a - coeff * (face_flux[1:] - face_flux[:-1]) / grid.w
    u_new = u - coeff * fourth_diff(u, -1.0)
    theta_new = theta - coeff * fourth_diff(theta, 1.0)
    return a_new, u_new, theta_new


def step(
    state: State,
    grid: RadialGrid,
    dt: float,
    scheme: str = BACKWARD_EULER,
    filter_coeff: float = 0.0,
) -> tuple[State, StepReport]:
    """Advance one Strang-split step; on a positivity breach the offending
    state is returned together with a failing validity report instead of
    raising."""
    if dt <= 0.0 or not np.isfinite(dt):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not 0.0 <= filter_coeff <= MAX_FILTER_COEFF:
        raise ValueError(
            f"filter_coeff must lie in [0, {MAX_FILTER_COEFF}], got {filter_coeff}"
        )
    if not validate(state).ok:
        raise StateValidityError("step requires a valid input state")

    kappa = state.params.kappa
    a, u, theta = state.a, state.u, state.theta

    def finish(a_new, u_new, theta_new, validity, residual):
        du_dr = derivative_array(u_new, ODD, grid.dr)
        new_state = State(
            a=a_new, u=u_new, theta=theta_new, t=state.t + dt, params=state.params
        )
        return new_state, StepReport(
            dt_used=dt,
            validity=validity,
            max_abs_du_dr=float(np.max(np.abs(du_dr))),
            implicit_solve_residual=residual,
        )

    # First conduction half step (density coefficient frozen at entry).
    residual = 0.0
    th0 = theta
    if kappa > 0.0:
        th0, residual = _diffusion_solve_arrays(
            theta, a, grid, 0.5 * dt, kappa, scheme
        )
        if not (np.isfinite(th0).all() and np.min(1.0 + th0) > 0.0):
            return finish(a, u, th0, check_fields(a, u, th0), residual)

    # Convective substep, stage 1: forward Euler.
    da_dt, du_dt, dth_dt = convective_rhs(a, u, th0, grid)
    a1 = a + dt * da_dt
    u1 = u + dt * du_dt
    th1 = th0 + dt * dth_dt
    validity = check_fields(a1, u1, th1)
    if not validity.ok:
        return finish(a1, u1, th1, validity, residual)

    # Stage 2: average with a forward-Euler step from stage 1.
    da_dt, du_dt, dth_dt = convective_rhs(a1, u1, th1, grid)
    a2 = 0.5 * (a + a1 + dt * da_dt)
    u2 = 0.5 * (u + u1 + dt * du_dt)
    th2 = 0.5 * (th0 + th1 + dt * dth_dt)
    validity = check_fields(a2, u2, th2)
    if not validity.ok:
        return finish(a2, u2, th2, validity, residual)

    # Second conduction half step, frozen at the post-convection density.
    if kappa > 0.0:
        th2, res2 = _diffusion_solve_arrays(th2, a2, grid, 0.5 * dt, kappa, scheme)
        residual = max(residual, res2)

    if filter_coeff > 0.0:
        a2, u2, th2 = _fourth_difference_filter(a2, u2, th2, grid, filter_coeff)

    return finish(a2, u2, th2, check_fields(a2, u2, th2), residual)


_PEAK_FIELDS = (
    "mass",
    "momentum_scalar",
    "energy",
    "entropy_total",
    "entropy_dissipation",
    "lyapunov",
    "shock_indicator",
)

#: Width (in cells) of the outer guard band watched for boundary contact.
_GUARD_CELLS = 4


def _boundary_contact(state: State, threshold: float) -> bool:
    band = slice(-_GUARD_CELLS, None)
    reach = max(
        float(np.max(np.abs(state.a[band]))),
        float(np.max(np.abs(state.u[band]))),
        float(np.max(np.abs(state.theta[band]))),
    )
    return reach > threshold


def run(config: RunConfig, sink: DiagnosticsSink | None = None) -> RunSummary:
    """Execute a configured run, emitting diagnostics at the output cadence.

    Terminates with reason "time-complete", "positivity-breach" (the
    offending state is handed to the sink) or "boundary-contact" (the
    perturbation reached the outer guard band, so the artificial boundary
    would start to pollute the interior).
    """
    config.validate()
    start = time.perf_counter()
    grid = build_grid(config.r_max, config.n_cells)
    state = make_initial_state(
        grid, config.init_family, config.eps, PhysParams(kappa=config.kappa)
    )
    collector = DiagnosticsCollector(grid, config.diag_max_k)
    if sink is None:
        sink = DiagnosticsSink()

    # The guard watches for the hyperbolic front (which arrives at O(eps))
    # while ignoring the exponentially small conduction tail that spreads
    # ahead of it and is absorbed harmlessly by the outer background ghost.
    contact_threshold = 1e-4 * config.eps + 1e-300
    peaks = {name: 0.0 for name in _PEAK_FIELDS}
    record = collector.update(state)
    sink.on_record(record)
    for name in _PEAK_FIELDS:
        peaks[name] = max(peaks[name], abs(getattr(record, name)))

    reason = "time-complete"
    steps = 0
    peak_indicator_steps = record.shock_indicator
    time_tol = 1e-12 * config.t_end
    cfl = float(config.cfl)
    while state.t < config.t_end - time_tol:
        # No state check here: the initial state is valid by construction
        # and every later one passed the breach check below.
        dt = min(cfl_dt(state.u, state.theta, grid.dr, cfl), config.t_end - state.t)
        state, step_report = step(
            state,
            grid,
            dt,
            scheme=config.diffusion_scheme,
            filter_coeff=config.filter_coeff,
        )
        steps += 1
        peak_indicator_steps = max(peak_indicator_steps, step_report.max_abs_du_dr)
        if not step_report.validity.ok:
            reason = "positivity-breach"
            sink.on_breach(state, step_report)
            break
        at_cadence = steps % config.output_every == 0
        finished = state.t >= config.t_end - time_tol
        if at_cadence or finished:
            if _boundary_contact(state, contact_threshold):
                reason = "boundary-contact"
            record = collector.update(state)
            sink.on_record(record)
            for name in _PEAK_FIELDS:
                peaks[name] = max(peaks[name], abs(getattr(record, name)))
            if reason == "boundary-contact":
                break

    peaks["shock_indicator"] = max(peaks["shock_indicator"], peak_indicator_steps)
    return RunSummary(
        run_id=config.run_id,
        termination_reason=reason,
        steps=steps,
        t_final=float(state.t),
        wall_clock_seconds=time.perf_counter() - start,
        peaks=peaks,
        final_e_k1=record.e_k1,
        final_e_k2=record.e_k2,
    )
