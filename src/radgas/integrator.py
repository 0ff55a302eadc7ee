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

Finite-propagation window: a step computes every cell of the grid it is
given, and run() alone keeps the state and grid cut to s + reach + slack
cells, s being the support (derivation at _REACH), recuts when data reaches
the last reach cells, and pads for records.  With kappa > 0 a windowed step
counts only if both half-solves certify that the full mesh gives the same
bytes (certifies_prefix); else run() redoes it on the full mesh, for good.

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

import math
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
from .operators import EVEN, ODD, aligned, derivative_array
from .state import (
    PhysParams,
    State,
    StateValidityError,
    ValidityReport,
    check_fields,
    make_initial_state,
    validate,
)
from .tridiag import PREFIX_ROWS, certifies_prefix, tridiagonal_solve


@dataclass(frozen=True)
class StepReport:
    """Bookkeeping for one time step."""

    validity: ValidityReport
    max_abs_du_dr: float
    #: Whether a longer grid, +0.0 past this one, gives these cells too (run()).
    certified: bool = True


def _check_step_args(dt: float, scheme: str) -> None:
    # The scheme is checked on entry: with kappa = 0 the conduction solve
    # never runs, so it cannot be the place that rejects an unknown scheme.
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if scheme not in DIFFUSION_SCHEMES:
        raise ValueError(
            f"unknown diffusion scheme {scheme!r}; expected one of {DIFFUSION_SCHEMES}"
        )


def _diffusion_solve_arrays(
    theta_star: np.ndarray, a_frozen: np.ndarray, grid: RadialGrid, dt: float,
    kappa: float, scheme: str, out=None,
) -> tuple[np.ndarray, bool]:
    """Implicit conduction update; returns theta_new and its certificate.

    The rows of M theta = kappa * lap(theta) / (1 + a) are in flux form with
    zero-flux closures at both boundary faces: the origin face by even
    symmetry, the outer face as an insulated wall.  Conductive fluxes then
    telescope, so the update conserves the volume integral of (1 + a) theta
    exactly.  The system I - weight * M has diag = 1 + weight * (|lower| +
    |upper|) row by row, so it is strictly diagonally dominant whenever
    1 + a > 0 and ``scheme`` is one of DIFFUSION_SCHEMES, which the caller
    guarantees.  Raises ValueError where rounding could lose dominance.
    ``out`` holds five buffers for the result (apart from theta_star), the
    diagonals, which dgtsv overwrites, and the Crank-Nicolson products, then
    the certificate; by default new.
    """
    # Built in place; each operation keeps its operands, or swaps a
    # product's two factors, so the bits stay the same.
    rhs, c, m_lower, m_diag, tail = out or [np.empty_like(theta_star) for _ in range(5)]
    np.add(1.0, a_frozen, out=c)
    c *= grid.w
    c *= grid.dr
    np.divide(kappa, c, out=c)
    np.multiply(c, grid.face_area[:-1], out=m_lower)
    m_upper = np.multiply(c, grid.face_area[1:], out=c)
    m_upper[-1] = 0.0  # insulated wall: no conductive flux through the outer face
    np.add(m_lower, m_upper, out=m_diag)
    np.negative(m_diag, out=m_diag)
    m_lower[0] = 0.0  # origin face area vanishes anyway; keep the invariant explicit
    if scheme == BACKWARD_EULER:
        weight = dt
        np.copyto(rhs, theta_star)
    else:
        weight = 0.5 * dt
        np.multiply(m_diag, theta_star, out=rhs)  # M theta*, a neighbour at a time
        rhs[1:] += np.multiply(m_lower[1:], theta_star[:-1], out=tail[:-1])
        rhs[:-1] += np.multiply(m_upper[:-1], theta_star[1:], out=tail[:-1])
        rhs *= 0.5 * dt
        np.add(theta_star, rhs, out=rhs)
    # Dominance in floating point: with m_lower, m_upper >= 0 and q =
    # fl(weight * (m_lower + m_upper)) <= 2**48 in a row, the rounded diag is
    # >= (1 + q)(1 - u) and |lower| + |upper| <= q (1 + u)**2 / (1 - u)**2,
    # u = 2**-53, so every coefficient is finite and the slack is >= 1 - u -
    # 5.01 u q >= 0.84.  NaN and inf fail the comparison.
    if not weight * -float(m_diag.min()) <= 2.0**48:
        raise ValueError("conduction system may lose diagonal dominance")
    m_lower *= -weight
    m_diag *= weight
    np.subtract(1.0, m_diag, out=m_diag)
    m_upper *= -weight
    k = PREFIX_ROWS
    if zero_rhs := rhs[-k:].tobytes() == bytes(8 * k):
        np.copyto(tail[: k - 1], m_lower[1 - k :])  # dgtsv overwrites m_lower
    x = tridiagonal_solve(m_lower, m_diag, m_upper, rhs, True)
    # Past a window the data is +0.0: no interchange (a row's lower is below
    # the upper before it), pivots >= 1, rhs +0.0.  Rows i >= 1 there hold
    # kappa (A_i + A_i+1) / (w_i dr) <= (15/7) kappa / dr^2, which rounding
    # keeps below 3 kappa / dr^2; so the window meets the guard as the mesh if:
    dominant = weight * 3.0 * kappa <= 2.0**48 * grid.dr * grid.dr
    return x, zero_rhs and dominant and certifies_prefix(tail[: k - 1], m_diag, x)


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
    _check_step_args(dt, scheme)
    PhysParams(kappa=kappa)  # raises unless kappa is finite and >= 0
    if np.min(1.0 + a) <= 0.0:
        raise StateValidityError("solve_diffusion requires 1 + a > 0")
    if kappa == 0.0:
        return theta_star.copy()
    return _diffusion_solve_arrays(theta_star, a, grid, dt, kappa, scheme)[0]


def _fourth_difference_filter(
    a: np.ndarray, u: np.ndarray, theta: np.ndarray, grid: RadialGrid, coeff: float,
    out,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damp odd-even oscillations with a fourth-difference smoother.

    The density is filtered in conservative flux form (face third
    differences) with the wall face closed, so total mass stays exact no
    matter what reaches the boundary; u and theta use the plain five-point
    stencil with parity ghosts at the origin, left untouched in the two
    outermost cells where the stencil would need wall ghosts.
    Stability requires coeff <= 1/16.  ``out`` holds six buffers, apart
    from the inputs: the results, then scratch of n + 4, n + 4 and n + 1
    cells.
    """
    n = grid.n_cells
    a_new, u_new, theta_new, g, gk, third = out
    g[-2:] = 0.0  # past the wall; the first two cells take ghosts by parity

    def filtered(f: np.ndarray, parity: float, res: np.ndarray) -> np.ndarray:
        # f - coeff * (g[4:] - 4 g[3:-1] + 6 g[2:-2] - 4 g[1:-3] + g[:-4]) in
        # place and in order; one product 4 g (3 g below) serves two slices
        np.multiply(parity, f[1::-1], out=g[:2])
        g[2:-2] = f
        np.multiply(4.0, g, out=gk)
        np.subtract(g[4:], gk[3:-1], out=res)
        res += np.multiply(6.0, f, out=third[:n])
        res -= gk[1:-3]
        res += g[:-4]
        res[-2:] = 0.0
        res *= coeff
        return np.subtract(f, res, out=res)

    np.multiply(EVEN, a[1::-1], out=g[:2])
    g[2:-2] = a
    np.multiply(3.0, g, out=gk)
    # Face third differences: G[j] couples cells j-2 .. j+1 and vanishes at
    # the origin face by parity, so the update telescopes in the w measure.
    np.subtract(g[3:], gk[2:-1], out=third)
    third += gk[1:-2]
    third -= g[:-3]
    face_flux = np.multiply(grid.face_area, grid.dr, out=gk[:-3])
    face_flux *= third
    face_flux[-1] = 0.0  # no filter flux through the wall
    np.subtract(face_flux[1:], face_flux[:-1], out=a_new)
    np.multiply(coeff, a_new, out=a_new)
    a_new /= grid.w
    np.subtract(a, a_new, out=a_new)
    return a_new, filtered(u, ODD, u_new), filtered(theta, EVEN, theta_new)


#: Cells beyond the input's support [0, s) that a kappa = 0 step reaches:
#: each RK stage widens it by one cell (centered stencils) and the filter by
#: two.  On the window the filter leaves u and theta in cells m-2, m-1 as
#: they are, where the full mesh uses cells m-4 .. m, so the stage-2 support
#: s+2 must end by m-4: R = 6.  The one-sided derivative and the closed wall
#: faces then see only zeros, and the final one-sided du/dr at m-1 reads only
#: cell m-3, giving the full mesh's |du/dr| at m-2 (same maximum), on any m.
_REACH = 6
#: Spare cells a window may hold past s + _REACH, so run() regrows it rarely.
_SLACK = 16
#: Zero cells a kappa > 0 window keeps: PREFIX_ROWS and 24, as a smooth-decay
#: step after the first widens the support by 15 cells at most (BE: 19).
_HEAT_REACH = PREFIX_ROWS + 24


def _zero_tail(state: State, k: int) -> bool:
    """Whether a, u and theta all end in k cells of +0.0 (bitwise)."""
    return state.rows[:, -k:].tobytes() == bytes(24 * k)


def _support(state: State) -> int:
    """One past the last cell where a, u or theta is not +0.0 (NaN, inf and
    -0.0 are data: the update keeps +0.0 cells bitwise, not every -0.0)."""
    rows = state.rows
    if not _zero_tail(state, 1):
        return rows.shape[1]
    nonzero = (np.bitwise_or.reduce(rows.view(np.uint64)) != 0)[::-1]
    last = int(nonzero.argmax())
    return rows.shape[1] - last if nonzero[last] else 0


def _crop_grid(grid: RadialGrid, m: int) -> RadialGrid:
    """The grid of the first m cells, views of the full one's arrays.  Its
    scratch is a prefix of the full one's set (as aligned; never used at once)."""
    if m == grid.n_cells:
        return grid
    if not grid.scratch:
        grid.scratch.append(_scratch(grid.n_cells))
    faces, area = grid.faces[: m + 1], grid.face_area[: m + 1]
    window = RadialGrid(faces[-1], m, grid.dr, grid.r[:m], faces, grid.w[:m], area)
    window.scratch.append(_prefix(grid.scratch[-1], grid.n_cells - m))
    return window


def _prefix(group, cut: int):
    """A scratch set (lists and tuples of arrays) with ``cut`` fewer cells."""
    if isinstance(group, np.ndarray):
        return group[..., : group.shape[-1] - cut]
    return type(group)(_prefix(g, cut) for g in group)


def _rows(count: int, n: int) -> np.ndarray:
    """A (count, n) view of one aligned block, its rows n rounded up to 8
    cells apart, so that each starts on a 64-byte line."""
    k = -(-n // 8) * 8
    return aligned(count * k).reshape(count, k)[:, :n]


def _resize(state: State, m: int, into=None) -> State:
    """The state cut or padded with +0.0 to m cells, in the rows of ``into``
    or of a new block.  It keeps its check, which +0.0 cells at its end
    (_REACH) do not change."""
    width = state.rows.shape[1]
    if m == width:
        return state
    rows = _rows(3, m) if into is None else into
    rows[:, :width], rows[:, width:] = state.rows[:, :m], 0.0
    return State._adopt(rows, state.t, state.params, state._validity)


def _scratch(n: int) -> tuple:
    """A step's aligned buffers on an n-cell grid, kernel by kernel (see step)."""
    cells = [aligned(n) for _ in range(10)]  # cells[4]: the certificate, |du/dr|
    work = (*cells[5:7], aligned(n + 1, 1), *(aligned(n, 1) for _ in range(3)))
    filter_ = (aligned(n + 4, 2), aligned(n + 4), aligned(n + 1))
    return cells[:5], _rows(3, n), work, cells[7:], cells[4], filter_


def step(
    state: State,
    grid: RadialGrid,
    dt: float,
    scheme: str = BACKWARD_EULER,
    filter_coeff: float = 0.0,
) -> tuple[State, StepReport]:
    """Advance one Strang-split step on every cell of ``grid``; on a
    positivity breach the offending state is returned together with a
    failing validity report instead of raising.  The first m >= _support(state)
    + _REACH cells of the state and grid (a prefix window) give the first m
    cells of the full-mesh step and its report, if certified at kappa > 0.

    It works in scratch buffers that it takes off ``grid.scratch`` (or
    makes) and puts back, so steps run at once on one grid never share."""
    _check_step_args(dt, scheme)
    if not 0.0 <= filter_coeff <= MAX_FILTER_COEFF:
        raise ValueError(
            f"filter_coeff must lie in [0, {MAX_FILTER_COEFF}], got {filter_coeff}"
        )
    n = grid.n_cells
    if state.a.shape[0] != n:
        raise ValueError(f"state has {state.a.shape[0]} cells, grid has {n}")
    if not validate(state).ok:
        raise StateValidityError("step requires a valid input state")
    try:
        scratch = grid.scratch.pop()
    except IndexError:
        scratch = _scratch(n)
    solve, rows1, work, results2, abs_du, filter_ = scratch

    kappa = state.params.kappa
    a, u, theta = state.a, state.u, state.theta
    # du/dr and da/dr of the input, if it has them at this cell width: the
    # first conduction half step changes neither u nor a
    memo_dr, du, da, _ = state._derivs
    if memo_dr != grid.dr:
        du = da = None
    # The result's arrays, and its du/dr and da/dr (out[1:-1] aligned), are
    # rows of one block: the last pass of the step writes them, and a breach
    # copies into them, so no State holds scratch.
    block = _rows(5, n + 7)
    rows, memo = block[:3, :n], block[3:, 7:]
    out = tuple(rows)

    def finish(fields, report=None):
        for f, g in zip(out, fields):
            if f is not g:  # a breach, or theta from the second solve
                np.copyto(f, g)
        if report is None:
            report = check_fields(rows)
        du_dr = derivative_array(out[1], ODD, grid.dr, memo[0])
        t, params = state.t + dt, state.params
        max_du = float(np.maximum.reduce(np.abs(du_dr, out=abs_du)))
        grid.scratch.append(scratch)  # the step is done with its scratch
        da_dr = derivative_array(out[0], EVEN, grid.dr, memo[1])
        new = State._adopt(rows, t, params, report, (grid.dr, du_dr, da_dr, max_du))
        return new, StepReport(report, max_du, exact)

    # First conduction half step (density coefficient frozen at entry).
    th0, exact, half = theta, True, 0.5 * dt
    if kappa > 0.0:
        th0, exact = _diffusion_solve_arrays(theta, a, grid, half, kappa, scheme, solve)
        # fl(1 + x) is nondecreasing; a NaN propagates to both ends
        lo, hi = np.minimum.reduce(th0), np.maximum.reduce(th0)
        if not (math.isfinite(hi) and 1.0 + lo > 0.0):
            return finish((a, u, th0))

    # Convective substep.  The kernel returns (-da/dt, -du/dt, -dtheta/dt),
    # and f + dt * (-x) is f - dt * x bit for bit.  Stage 1: forward Euler.
    a1, u1, th1 = convective_rhs(a, u, th0, grid, du, da, (*rows1, *work))
    for f, f1 in zip((a, u, th0), (a1, u1, th1)):
        np.subtract(f, np.multiply(f1, dt, out=f1), out=f1)
    validity = check_fields(rows1)
    if not validity.ok:
        return finish((a1, u1, th1), validity)

    # Stage 2: average with a forward-Euler step from stage 1.  With no filter
    # it writes the result's rows (finish copies the second solve's theta in),
    # else stage 1's, once its right-hand side has read them.
    rhs2 = convective_rhs(a1, u1, th1, grid, None, None, (*results2, *work))
    last, last_rows = (out, rows) if filter_coeff == 0.0 else ((a1, u1, th1), rows1)
    a2, u2, th2 = map(np.add, (a, u, th0), (a1, u1, th1), last)
    for f, r in zip((a2, u2, th2), rhs2):
        f -= np.multiply(r, dt, out=r)
        f *= 0.5
    validity = check_fields(last_rows)
    if not validity.ok:
        return finish((a2, u2, th2), validity)

    # Second conduction half step, frozen at the post-convection density.
    if kappa > 0.0:
        th2, second = _diffusion_solve_arrays(th2, a2, grid, half, kappa, scheme, solve)
        exact = exact and second

    if filter_coeff > 0.0:
        into = (*out, *filter_)
        a2, u2, th2 = _fourth_difference_filter(a2, u2, th2, grid, filter_coeff, into)

    return finish((a2, u2, th2))


#: Width (in cells) of the outer guard band watched for boundary contact.
_GUARD_CELLS = 4


def _boundary_contact(state: State, threshold: float) -> bool:
    # Run after every step, so it reads the band's 12 values as Python
    # floats instead of paying for three numpy reductions.  `>` and `>=`
    # differ only when a band value equals the threshold exactly, so no test
    # tells them apart: the threshold only has to sit far below the front.
    values = state.rows[:, -_GUARD_CELLS:].ravel().tolist()
    return max(map(abs, values)) > threshold


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

    # Zero cells a window keeps, spare cells a recut adds.  At kappa > 0 the
    # first step takes the full mesh: its solve spreads the data far.
    n, window_grid, kappa = grid.n_cells, grid, config.kappa
    reach, slack = (_REACH, _SLACK) if kappa == 0.0 else (_HEAT_REACH, 4 * _SLACK)
    m = n if kappa > 0.0 else _support(state) + reach + slack
    # The run's own rows for a record's window padded to n cells; the CFL
    # step takes two of them as scratch between records.
    pad = _rows(3, n)

    reason = "time-complete"
    steps = 0
    time_tol = 1e-12 * config.t_end
    cfl = float(config.cfl)
    while state.t < config.t_end - time_tol:
        if m != state.a.shape[0]:
            m = n if m > n - _GUARD_CELLS else m
            state, window_grid = _resize(state, m), _crop_grid(grid, m)
        # No state check here: the initial state is valid by construction
        # and every later one passed the breach check below.
        dt = cfl_dt(state.u, state.theta, grid.dr, cfl, (pad[0, :m], pad[1, :m]))
        dt = min(dt, config.t_end - state.t)
        if state.t + dt == state.t:  # validate() bounds the first step only
            raise RuntimeError(f"dt = {dt} no longer advances t = {state.t}")
        args = (dt, config.diffusion_scheme, config.filter_coeff)
        new, step_report = step(state, window_grid, *args)
        if not step_report.certified and m < n:  # the full mesh, for good
            m, window_grid = n, grid
            new, step_report = step(_resize(state, n), grid, *args)
        state = new
        steps += 1
        # The shock indicator peaks over every step, not only the records.
        shock = max(peaks["shock_indicator"], step_report.max_abs_du_dr)
        peaks["shock_indicator"] = shock
        if not step_report.validity.ok:
            reason = "positivity-breach"
            sink.on_breach(_resize(state, n))
            break
        if m < n and not _zero_tail(state, reach) or kappa > 0.0 and steps == 1:
            m = _support(state) + reach + slack
        if state.a.shape[0] == n and _boundary_contact(state, contact_threshold):
            reason = "boundary-contact"
            record = emit(state)
            break
        if steps % config.output_every == 0 or state.t >= config.t_end - time_tol:
            record = emit(_resize(state, n, pad))

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
