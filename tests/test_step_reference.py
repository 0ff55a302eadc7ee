"""The step kernel against the pre-kernel step composition, byte for byte.

``reference_step`` below is the Strang step as it was composed before the
array kernel: banded LAPACK through ``solve_banded`` with a separate
dominance guard, the convective right-hand side validating its state, and a
``State`` with a ``validate`` call for every stage.  The kernel must do the
same floating-point operations in the same order, so every field and every
report entry has to come out bitwise equal, including on the breach path.
"""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from radgas import integrator
from radgas.config import BACKWARD_EULER, CRANK_NICOLSON, RunConfig
from radgas.diagnostics import SCALAR_FIELDS, DiagnosticsCollector, ListSink
from radgas.dynamics import cfl_dt, convective_rhs, flux_divergence
from radgas.grid import build_grid
from radgas.integrator import StepReport, run, step
from radgas.operators import EVEN, ODD, derivative_array
from radgas.state import (
    PhysParams,
    State,
    StateValidityError,
    make_initial_state,
    validate,
)

# ---------------------------------------------------------------------------
# The reference composition.


def reference_convective_rhs(state, grid):
    report = validate(state)
    if not report.ok:
        raise StateValidityError("convective_rhs requires a valid state")
    a, u, theta, dr = state.a, state.u, state.theta, grid.dr
    da_dt = -flux_divergence((1.0 + a) * u, grid)
    du = derivative_array(u, ODD, dr)
    dtheta = derivative_array(theta, EVEN, dr)
    da = derivative_array(a, EVEN, dr)
    du_dt = -(u * du + dtheta + (1.0 + theta) / (1.0 + a) * da)
    div_u = derivative_array(u, ODD, grid.dr) + 2.0 * u / grid.r
    dtheta_dt = -(u * dtheta + (1.0 + theta) * div_u)
    return da_dt, du_dt, dtheta_dt


def reference_cfl_dt(state, grid, cfl):
    assert validate(state).ok
    speed = float(np.max(np.abs(state.u) + np.sqrt(2.0 * (1.0 + state.theta))))
    return cfl * grid.dr / speed


def _apply_tridiagonal(lower, diag, upper, x):
    out = diag * x
    out[1:] += lower[1:] * x[:-1]
    out[:-1] += upper[:-1] * x[1:]
    return out


def conduction_rows(a_frozen, grid, kappa):
    """(lower, diag, upper) of M in M theta = kappa * lap(theta) / (1 + a),
    zero flux through the origin and wall faces; the kernel's rows bit for bit."""
    area = grid.face_area.copy()
    area[-1] = 0.0
    c = kappa / ((1.0 + a_frozen) * grid.w * grid.dr)
    m_lower = c * area[:-1]
    m_upper = c * area[1:]
    m_diag = -(m_lower + m_upper)
    m_lower[0] = 0.0
    return m_lower, m_diag, m_upper


def reference_diffusion(theta_star, a_frozen, grid, dt, kappa, scheme):
    m_lower, m_diag, m_upper = conduction_rows(a_frozen, grid, kappa)
    if scheme == BACKWARD_EULER:
        weight = dt
        rhs = theta_star
    else:
        weight = 0.5 * dt
        rhs = theta_star + 0.5 * dt * _apply_tridiagonal(
            m_lower, m_diag, m_upper, theta_star
        )
    lower, diag, upper = -weight * m_lower, 1.0 - weight * m_diag, -weight * m_upper
    slack = np.abs(diag) - (np.abs(lower) + np.abs(upper))
    assert np.all(slack > 0.0)
    ab = np.zeros((3, diag.shape[0]))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    return solve_banded((1, 1), ab, rhs)


def reference_filter(a, u, theta, grid, coeff):
    def extend(f, sign):
        return np.concatenate(([sign * f[1], sign * f[0]], f, [0.0, 0.0]))

    def fourth_diff(f, sign):
        g = extend(f, sign)
        out = g[4:] - 4.0 * g[3:-1] + 6.0 * g[2:-2] - 4.0 * g[1:-3] + g[:-4]
        out[-2:] = 0.0
        return out

    ga = extend(a, 1.0)
    third = ga[3:] - 3.0 * ga[2:-1] + 3.0 * ga[1:-2] - ga[:-3]
    face_flux = grid.face_area * grid.dr * third[: grid.n_cells + 1]
    face_flux[-1] = 0.0
    a_new = a - coeff * (face_flux[1:] - face_flux[:-1]) / grid.w
    u_new = u - coeff * fourth_diff(u, -1.0)
    theta_new = theta - coeff * fourth_diff(theta, 1.0)
    return a_new, u_new, theta_new


def reference_step(state, grid, dt, scheme, filter_coeff):
    assert validate(state).ok
    kappa = state.params.kappa
    t_new = state.t + dt

    def finish(a, u, theta):
        new = State(a=a, u=u, theta=theta, t=t_new, params=state.params)
        return new, StepReport(
            validity=validate(new),
            max_abs_du_dr=float(np.max(np.abs(derivative_array(u, ODD, grid.dr)))),
        )

    th0 = state.theta
    if kappa > 0.0:
        th0 = reference_diffusion(th0, state.a, grid, 0.5 * dt, kappa, scheme)
        if not (np.isfinite(th0).all() and np.min(1.0 + th0) > 0.0):
            return finish(state.a, state.u, th0)
    half = State(a=state.a, u=state.u, theta=th0, t=state.t, params=state.params)

    da_dt, du_dt, dth_dt = reference_convective_rhs(half, grid)
    stage1 = State(
        a=state.a + dt * da_dt,
        u=state.u + dt * du_dt,
        theta=th0 + dt * dth_dt,
        t=t_new,
        params=state.params,
    )
    if not validate(stage1).ok:
        return finish(stage1.a, stage1.u, stage1.theta)

    da_dt, du_dt, dth_dt = reference_convective_rhs(stage1, grid)
    a2 = 0.5 * (state.a + stage1.a + dt * da_dt)
    u2 = 0.5 * (state.u + stage1.u + dt * du_dt)
    th2 = 0.5 * (th0 + stage1.theta + dt * dth_dt)
    stage2 = State(a=a2, u=u2, theta=th2, t=t_new, params=state.params)
    if not validate(stage2).ok:
        return finish(a2, u2, th2)

    if kappa > 0.0:
        th2 = reference_diffusion(th2, a2, grid, 0.5 * dt, kappa, scheme)
    if filter_coeff > 0.0:
        a2, u2, th2 = reference_filter(a2, u2, th2, grid, filter_coeff)
    return finish(a2, u2, th2)


# ---------------------------------------------------------------------------
# Comparisons.


def field_bytes(state):
    return (state.a.tobytes(), state.u.tobytes(), state.theta.tobytes(), state.t)


def report_bytes(report):
    """Every StepReport entry, floats as bytes so that NaN equals NaN."""
    v = report.validity

    def b(x):
        return np.float64(x).tobytes()

    return (
        v.ok,
        b(v.min_density),
        b(v.min_temperature),
        v.all_finite,
        b(report.max_abs_du_dr),
    )


def lockstep(state, grid, scheme, filter_coeff, cfl, max_steps):
    """Step kernel and reference side by side; returns (steps, breached)."""
    ref = state
    for n in range(1, max_steps + 1):
        dt = cfl_dt(state, grid, cfl)
        ref_dt = reference_cfl_dt(ref, grid, cfl)
        assert np.float64(dt).tobytes() == np.float64(ref_dt).tobytes()
        state, report = step(state, grid, dt, scheme, filter_coeff)
        ref, ref_report = reference_step(ref, grid, dt, scheme, filter_coeff)
        assert field_bytes(state) == field_bytes(ref), f"fields differ at step {n}"
        assert report_bytes(report) == report_bytes(ref_report), f"report, step {n}"
        if not report.validity.ok:
            return n, True
    return max_steps, False


@pytest.mark.parametrize("family", ["gaussian-bump", "compact-bump"])
@pytest.mark.parametrize("kappa", [0.0, 1.0])
@pytest.mark.parametrize("filter_coeff", [0.0, 0.01])
@pytest.mark.parametrize("scheme", [BACKWARD_EULER, CRANK_NICOLSON])
def test_step_bitwise_equal_to_reference(scheme, filter_coeff, kappa, family):
    grid = build_grid(20.0, 400)
    state = make_initial_state(grid, family, 0.05, PhysParams(kappa=kappa))
    steps, breached = lockstep(state, grid, scheme, filter_coeff, cfl=0.3, max_steps=60)
    assert steps == 60 and not breached


def test_breach_bitwise_equal_to_reference():
    # without conduction the 0.3-amplitude wave steepens until the centered
    # scheme crosses the positivity floor; both routes must breach at the
    # same step with the same offending state
    grid = build_grid(34.0, 680)
    state = make_initial_state(grid, "gaussian-bump", 0.3, PhysParams(kappa=0.0))
    steps, breached = lockstep(
        state, grid, BACKWARD_EULER, 0.0, cfl=0.4, max_steps=3000
    )
    assert breached
    assert steps > 50


def first_half_breach():
    # Crank-Nicolson barely damps a hot cell's grid-scale mode, so with a
    # long first half step the cell overshoots to 1 + theta = -0.60
    grid = build_grid(10.0, 100)
    theta, zero = np.zeros(100), np.zeros(100)
    theta[50] = 2.0
    state = State(a=zero, u=zero, theta=theta, t=0.0, params=PhysParams(kappa=1.0))
    return state, grid, 1.0, CRANK_NICOLSON


def stage2_breach():
    # rough data whose stage 1 stays valid and whose stage 2 does not
    grid = build_grid(4.0, 40)
    a, u, theta = 0.9 * np.random.default_rng(86).uniform(-1.0, 1.0, (3, 40))
    state = State(a=a, u=u, theta=theta, t=0.0, params=PhysParams(kappa=0.0))
    return state, grid, 0.2 * grid.dr, BACKWARD_EULER


@pytest.mark.parametrize("case, stages", [(first_half_breach, 0), (stage2_breach, 2)])
def test_early_breach_exit_bitwise_equal_to_reference(case, stages, monkeypatch):
    # step() leaves after the first conduction half step or after either
    # convective stage; which one fired is told by the convective_rhs calls
    calls = []
    kernel = integrator.convective_rhs

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(integrator, "convective_rhs", counted)
    state, grid, dt, scheme = case()
    new, report = step(state, grid, dt, scheme)
    ref, ref_report = reference_step(state, grid, dt, scheme, 0.0)
    assert not report.validity.ok and len(calls) == stages
    assert field_bytes(new) == field_bytes(ref)
    assert report_bytes(report) == report_bytes(ref_report)


def test_convective_rhs_bitwise_equal_to_reference():
    grid = build_grid(20.0, 400)
    state = make_initial_state(grid, "gaussian-bump", 0.2, PhysParams(kappa=1.0))
    for _ in range(5):
        new = convective_rhs(state, grid)
        ref = reference_convective_rhs(state, grid)
        assert [x.tobytes() for x in new] == [x.tobytes() for x in ref]
        state, _ = step(state, grid, cfl_dt(state, grid, 0.3))


def test_run_records_match_reference_loop():
    # run() takes dt from the CFL speed kernel; its records must equal those
    # of a loop over the reference step with the pre-kernel cfl_dt
    config = RunConfig(
        eps=1e-3, kappa=1.0, r_max=12.0, n_cells=120, t_end=0.5, cfl=0.25,
        output_every=5, diffusion_scheme=CRANK_NICOLSON, filter_coeff=0.01,
    )
    sink = ListSink()
    summary = run(config, sink)

    grid = build_grid(config.r_max, config.n_cells)
    state = make_initial_state(grid, config.init_family, config.eps, PhysParams())
    collector = DiagnosticsCollector(grid, config.diag_max_k)
    records = [collector.update(state)]
    steps = 0
    tol = 1e-12 * config.t_end
    while state.t < config.t_end - tol:
        dt = min(reference_cfl_dt(state, grid, config.cfl), config.t_end - state.t)
        state, _ = reference_step(
            state, grid, dt, config.diffusion_scheme, config.filter_coeff
        )
        steps += 1
        if steps % config.output_every == 0 or state.t >= config.t_end - tol:
            records.append(collector.update(state))
    assert summary.steps == steps
    assert sink.records == records


def reference_run(config):
    """run() as a loop over the reference step on the full mesh: records,
    steps, reason, peaks, final time and the breached state, if any."""
    grid = build_grid(config.r_max, config.n_cells)
    params = PhysParams(kappa=config.kappa)
    state = make_initial_state(grid, config.init_family, config.eps, params)
    collector = DiagnosticsCollector(grid, config.diag_max_k)
    records = [collector.update(state)]
    shock, steps, reason, breached = 0.0, 0, "time-complete", None
    threshold = 1e-4 * config.eps + 1e-300
    tol = 1e-12 * config.t_end
    while state.t < config.t_end - tol:
        dt = min(reference_cfl_dt(state, grid, config.cfl), config.t_end - state.t)
        state, report = reference_step(
            state, grid, dt, config.diffusion_scheme, config.filter_coeff
        )
        steps += 1
        shock = max(shock, report.max_abs_du_dr)
        if not report.validity.ok:
            reason, breached = "positivity-breach", state
            break
        band = [f[-4:] for f in (state.a, state.u, state.theta)]
        if np.abs(np.concatenate(band)).max() > threshold:
            reason = "boundary-contact"
            records.append(collector.update(state))
            break
        if steps % config.output_every == 0 or state.t >= config.t_end - tol:
            records.append(collector.update(state))
    peaks = {
        name: max(abs(getattr(record, name)) for record in records)
        for name in SCALAR_FIELDS
    }
    peaks["shock_indicator"] = max(peaks["shock_indicator"], shock)
    return records, steps, reason, peaks, state.t, breached


#: Conduction-free runs: config values and the expected termination reason.
RUN_CASES = {
    # kappa = 0: the run keeps its state on a window well inside the mesh
    "kappa0-window": (
        dict(eps=1e-3, kappa=0.0, init_family="compact-bump", r_max=24.0,
             n_cells=240, diffusion_scheme=CRANK_NICOLSON, filter_coeff=0.01),
        "time-complete",
    ),
    # kappa = 0: a steepening wave breaches while the state is on a window
    "kappa0-breach": (
        dict(eps=0.3, kappa=0.0, r_max=48.0, n_cells=960, t_end=10.0, cfl=0.4,
             output_every=10),
        "positivity-breach",
    ),
    # kappa = 0: the window grows into the guard band, the run takes the
    # full mesh and then meets the wall (the contact bound is switched off)
    "kappa0-contact": (
        dict(eps=1e-3, kappa=0.0, init_family="compact-bump", r_max=8.0,
             n_cells=80, t_end=4.0, filter_coeff=0.01),
        "boundary-contact",
    ),
}


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_conduction_free_run_matches_reference_loop(case, monkeypatch):
    # with kappa = 0, run() keeps its state cut to a window between records;
    # its records, summary and breached state must equal those of the
    # full-mesh reference loop
    values, expected_reason = RUN_CASES[case]
    defaults = dict(r_max=12.0, n_cells=120, t_end=0.5, cfl=0.25, output_every=5)
    config = RunConfig(**{**defaults, **values})
    if expected_reason == "boundary-contact":
        monkeypatch.setattr(RunConfig, "validate", lambda self: None)
    sink = ListSink()
    summary = run(config, sink)

    records, steps, reason, peaks, t_final, breached = reference_run(config)
    assert reason == summary.termination_reason == expected_reason
    assert summary.steps == steps
    assert summary.t_final == t_final
    assert summary.peaks == peaks
    assert sink.records == records
    if breached is None:
        assert sink.breach_state is None
    else:
        assert sink.breach_state.a.shape == (config.n_cells,)
        assert field_bytes(sink.breach_state) == field_bytes(breached)
