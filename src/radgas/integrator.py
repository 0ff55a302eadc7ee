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
update is unconditionally solvable; a scalar precondition vouches for it
in floating point, and the system goes straight to LAPACK's dgtsv through
:func:`radgas.tridiag.tridiagonal_solve`.  The symmetric composition keeps
the splitting error at O(dt^2) when the Crank-Nicolson halves are used.

Inside a step the fields stay plain arrays: every stage is checked once on
its arrays, and the result is a State that owns the final arrays and keeps
their check, so neither the next step nor the diagnostics check it again.

Finite-propagation window: without conduction the system is symmetric
hyperbolic, and the explicit update moves data a few cells per step.  A
kappa = 0 step therefore runs on the first min(n, s + _REACH) cells, s being
the input's support (derivation at _REACH), and copies the zero tail, with
the full mesh's bytes.  With kappa > 0 the implicit solve fills every cell.

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
    DIFFUSION_SCHEMES,
    MAX_FILTER_COEFF,
    RunConfig,
    RunSummary,
)
from .diagnostics import (
    SCALAR_FIELDS,
    DiagnosticsCollector,
    DiagnosticsRecord,
    DiagnosticsSink,
)
# The array kernels go by the names of the public functions whose jobs they
# do, so that perfbench's per-layer tracer, which wraps integrator.cfl_dt and
# integrator.convective_rhs, keeps attributing their time.
from .dynamics import cfl_dt_arrays as cfl_dt
from .dynamics import convective_rhs_arrays as convective_rhs
from .grid import RadialGrid, build_grid
from .operators import EVEN, ODD, derivative_array
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

    validity: ValidityReport
    max_abs_du_dr: float


def _check_scheme(scheme: str) -> None:
    # Checked on entry: with kappa = 0 the conduction solve never runs, so
    # it cannot be the place that rejects an unknown scheme.
    if scheme not in DIFFUSION_SCHEMES:
        raise ValueError(
            f"unknown diffusion scheme {scheme!r}; expected one of {DIFFUSION_SCHEMES}"
        )


def _diffusion_solve_arrays(
    theta_star: np.ndarray,
    a_frozen: np.ndarray,
    grid: RadialGrid,
    dt: float,
    kappa: float,
    scheme: str,
) -> np.ndarray:
    """Implicit conduction update; returns theta_new.

    The rows of M theta = kappa * lap(theta) / (1 + a) are in flux form with
    zero-flux closures at both boundary faces: the origin face by even
    symmetry, the outer face as an insulated wall.  Conductive fluxes then
    telescope, so the update conserves the volume integral of (1 + a) theta
    exactly.  The system I - weight * M has diag = 1 + weight * (|lower| +
    |upper|) row by row, so it is strictly diagonally dominant whenever
    1 + a > 0 and ``scheme`` is one of DIFFUSION_SCHEMES, which the caller
    guarantees.  Raises ValueError where rounding could lose dominance.
    """
    c = kappa / ((1.0 + a_frozen) * grid.w * grid.dr)
    m_lower = c * grid.face_area[:-1]
    m_upper = c * grid.face_area[1:]
    m_upper[-1] = 0.0  # insulated wall: no conductive flux through the outer face
    m_diag = -(m_lower + m_upper)
    m_lower[0] = 0.0  # origin face area vanishes anyway; keep the invariant explicit
    if scheme == BACKWARD_EULER:
        weight = dt
        rhs = theta_star
    else:
        weight = 0.5 * dt
        m_theta = tridiagonal_matvec(m_lower, m_diag, m_upper, theta_star)
        rhs = theta_star + 0.5 * dt * m_theta
    # Dominance in floating point: with m_lower, m_upper >= 0 and q =
    # fl(weight * (m_lower + m_upper)) <= 2**48 in a row, the rounded diag is
    # >= (1 + q)(1 - u) and |lower| + |upper| <= q (1 + u)**2 / (1 - u)**2,
    # u = 2**-53, so every coefficient is finite and the slack is >= 1 - u -
    # 5.01 u q >= 0.84.  NaN and inf fail the comparison.
    if not weight * -float(m_diag.min()) <= 2.0**48:
        raise ValueError("conduction system may lose diagonal dominance")
    return tridiagonal_solve(
        -weight * m_lower, 1.0 - weight * m_diag, -weight * m_upper, rhs
    )


def solve_diffusion(
    theta_star: np.ndarray,
    a: np.ndarray,
    grid: RadialGrid,
    dt: float,
    scheme: str = BACKWARD_EULER,
    kappa: float = 1.0,
) -> np.ndarray:
    """Advance theta through the conduction term over one implicit step.

    theta_star is the post-convection temperature field and ``a`` the frozen
    density perturbation entering the 1/(1 + a) coefficient; both are even
    across the origin.  Returns the new temperature field.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    a = np.asarray(a, dtype=float)
    _check_scheme(scheme)
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if kappa < 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if np.min(1.0 + a) <= 0.0:
        raise StateValidityError("solve_diffusion requires 1 + a > 0")
    if kappa == 0.0:
        return theta_star.copy()
    return _diffusion_solve_arrays(theta_star, a, grid, dt, kappa, scheme)


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

    def extend(f: np.ndarray, parity: float) -> np.ndarray:
        return np.concatenate(([parity * f[1], parity * f[0]], f, [0.0, 0.0]))

    def fourth_diff(f: np.ndarray, parity: float) -> np.ndarray:
        g = extend(f, parity)
        out = g[4:] - 4.0 * g[3:-1] + 6.0 * g[2:-2] - 4.0 * g[1:-3] + g[:-4]
        out[-2:] = 0.0
        return out

    ga = extend(a, EVEN)
    # Face third differences: G[j] couples cells j-2 .. j+1 and vanishes at
    # the origin face by parity, so the update telescopes in the w measure.
    third = ga[3:] - 3.0 * ga[2:-1] + 3.0 * ga[1:-2] - ga[:-3]
    face_flux = grid.face_area * grid.dr * third[: grid.n_cells + 1]
    face_flux[-1] = 0.0  # no filter flux through the wall
    a_new = a - coeff * (face_flux[1:] - face_flux[:-1]) / grid.w
    u_new = u - coeff * fourth_diff(u, ODD)
    theta_new = theta - coeff * fourth_diff(theta, EVEN)
    return a_new, u_new, theta_new


#: Cells beyond the input's support [0, s) that a kappa = 0 step reaches:
#: each RK stage widens it by one cell (centered stencils) and the filter by
#: two.  On the window the filter leaves u and theta in cells m-2, m-1 as
#: they are, where the full mesh uses cells m-4 .. m, so the stage-2 support
#: s+2 must end by m-4: R = 6.  The one-sided derivative and the closed wall
#: faces then see only zeros, and the final one-sided du/dr at m-1 reads only
#: cell m-3, giving the full mesh's |du/dr| at m-2 (same maximum).
_REACH = 6


def _window(state: State, n: int) -> int:
    """min(n, s + _REACH), s one past the last cell where a, u or theta is
    not +0.0.  NaN, inf and -0.0 count as data: the update keeps a run of
    +0.0 cells bitwise fixed, but not every signed zero."""
    bits = state.a.view(np.uint64) | state.u.view(np.uint64)
    bits |= state.theta.view(np.uint64)
    nonzero = (bits != 0)[::-1]
    last = int(nonzero.argmax())
    return min(n, (n - last if nonzero[last] else 0) + _REACH)


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
    _check_scheme(scheme)
    if not 0.0 <= filter_coeff <= MAX_FILTER_COEFF:
        raise ValueError(
            f"filter_coeff must lie in [0, {MAX_FILTER_COEFF}], got {filter_coeff}"
        )
    n = grid.n_cells
    if state.a.shape[0] != n:
        raise ValueError(f"state has {state.a.shape[0]} cells, grid has {n}")
    if not validate(state).ok:
        raise StateValidityError("step requires a valid input state")

    kappa = state.params.kappa
    m = n if kappa > 0.0 else _window(state, n)
    if m < n:  # a grid of the first m cells, views of the full one's arrays
        faces, area = grid.faces[: m + 1], grid.face_area[: m + 1]
        grid = RadialGrid(faces[-1], m, grid.dr, grid.r[:m], faces, grid.w[:m], area)
    a, u, theta = state.a[:m], state.u[:m], state.theta[:m]

    def finish(a_new, u_new, theta_new, report):
        # the window's last cells stay 0 (_REACH): its check is the mesh's
        du_dr = derivative_array(u_new, ODD, grid.dr)
        if m < n:
            tail = np.zeros(n - m)
            a_new, u_new, theta_new = (
                np.concatenate((f, tail)) for f in (a_new, u_new, theta_new)
            )
        new = State._adopt(a_new, u_new, theta_new, state.t + dt, state.params, report)
        return new, StepReport(
            validity=report,
            max_abs_du_dr=float(np.max(np.abs(du_dr))),
        )

    # First conduction half step (density coefficient frozen at entry).
    th0 = theta
    if kappa > 0.0:
        th0 = _diffusion_solve_arrays(theta, a, grid, 0.5 * dt, kappa, scheme)
        if not (np.isfinite(th0).all() and np.min(1.0 + th0) > 0.0):
            return finish(a, u, th0, check_fields(a, u, th0))

    # Convective substep, stage 1: forward Euler.
    da_dt, du_dt, dth_dt = convective_rhs(a, u, th0, grid)
    a1 = a + dt * da_dt
    u1 = u + dt * du_dt
    th1 = th0 + dt * dth_dt
    validity = check_fields(a1, u1, th1)
    if not validity.ok:
        return finish(a1, u1, th1, validity)

    # Stage 2: average with a forward-Euler step from stage 1.
    da_dt, du_dt, dth_dt = convective_rhs(a1, u1, th1, grid)
    a2 = 0.5 * (a + a1 + dt * da_dt)
    u2 = 0.5 * (u + u1 + dt * du_dt)
    th2 = 0.5 * (th0 + th1 + dt * dth_dt)
    validity = check_fields(a2, u2, th2)
    if not validity.ok:
        return finish(a2, u2, th2, validity)

    # Second conduction half step, frozen at the post-convection density.
    if kappa > 0.0:
        th2 = _diffusion_solve_arrays(th2, a2, grid, 0.5 * dt, kappa, scheme)

    if filter_coeff > 0.0:
        a2, u2, th2 = _fourth_difference_filter(a2, u2, th2, grid, filter_coeff)

    return finish(a2, u2, th2, check_fields(a2, u2, th2))


#: Width (in cells) of the outer guard band watched for boundary contact.
_GUARD_CELLS = 4


def _boundary_contact(state: State, threshold: float) -> bool:
    # Run after every step, so it reads the band's 12 values as Python
    # floats instead of paying for three numpy reductions.
    band = slice(-_GUARD_CELLS, None)
    values = state.a[band].tolist() + state.u[band].tolist()
    return max(map(abs, values + state.theta[band].tolist())) > threshold


def run(config: RunConfig, sink: DiagnosticsSink | None = None) -> RunSummary:
    """Execute a configured run, emitting diagnostics at the output cadence.

    Terminates with reason "time-complete", "positivity-breach" (the
    offending state is handed to the sink) or "boundary-contact" (after
    some step the perturbation reached the outer guard band, so the
    artificial boundary would start to pollute the interior; that state's
    record is the last one emitted).
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
    peaks = dict.fromkeys(SCALAR_FIELDS, 0.0)

    def emit(state: State) -> DiagnosticsRecord:
        record = collector.update(state)
        sink.on_record(record)
        for name in SCALAR_FIELDS:
            peaks[name] = max(peaks[name], abs(getattr(record, name)))
        return record

    # The guard watches for the hyperbolic front (which arrives at O(eps))
    # while ignoring the exponentially small conduction tail that spreads
    # ahead of it and is absorbed harmlessly by the outer background ghost.
    contact_threshold = 1e-4 * config.eps + 1e-300
    record = emit(state)

    reason = "time-complete"
    steps = 0
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
        # The shock indicator peaks over every step, not only the records.
        shock = max(peaks["shock_indicator"], step_report.max_abs_du_dr)
        peaks["shock_indicator"] = shock
        if not step_report.validity.ok:
            reason = "positivity-breach"
            sink.on_breach(state)
            break
        if _boundary_contact(state, contact_threshold):
            reason = "boundary-contact"
            record = emit(state)
            break
        if steps % config.output_every == 0 or state.t >= config.t_end - time_tol:
            record = emit(state)

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
