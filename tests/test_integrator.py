"""Time stepping: implicit conduction, the split step and full runs."""

import dataclasses
import math

import numpy as np
import pytest

from radgas.config import BACKWARD_EULER, CRANK_NICOLSON, RunConfig
from radgas.diagnostics import SCALAR_FIELDS, ListSink
from radgas.dynamics import cfl_dt
from radgas.grid import build_grid
from radgas import integrator
from radgas.integrator import (
    _boundary_contact,
    _diffusion_solve_arrays,
    run,
    solve_diffusion,
    step,
)
from radgas.output import format_record, timeseries_header
from radgas.state import PhysParams, State, StateValidityError, make_initial_state

SCHEMES = (BACKWARD_EULER, CRANK_NICOLSON)


def sup(arr):
    return float(np.max(np.abs(arr)))


def dense_heat_matrix(a, grid, kappa):
    """Dense flux-form conduction operator, built independently for oracles."""
    n = grid.n_cells
    area = grid.face_area.copy()
    area[-1] = 0.0
    m = np.zeros((n, n))
    c = kappa / ((1.0 + a) * grid.w * grid.dr)
    for i in range(n):
        if i > 0:
            m[i, i - 1] = c[i] * area[i]
        if i < n - 1:
            m[i, i + 1] = c[i] * area[i + 1]
        m[i, i] = -c[i] * (area[i] + area[i + 1])
    return m


class TestSolveDiffusion:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_zero_field_fixed_point(self, scheme):
        grid = build_grid(8.0, 160)
        zero = np.zeros(grid.n_cells)
        out = solve_diffusion(zero, zero, grid, dt=0.05, scheme=scheme)
        assert np.array_equal(out, zero)

    def test_gaussian_against_dense_oracle(self):
        grid = build_grid(10.0, 200)
        theta_star = np.exp(-grid.r**2)
        a = np.zeros(grid.n_cells)
        dt = 0.01
        out = solve_diffusion(theta_star, a, grid, dt, scheme=BACKWARD_EULER)
        m = dense_heat_matrix(a, grid, kappa=1.0)
        expected = np.linalg.solve(np.eye(grid.n_cells) - dt * m, theta_star)
        assert sup(out - expected) <= 1e-12

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_random_systems_against_dense_oracle(self, scheme):
        rng = np.random.default_rng(11)
        grid = build_grid(6.0, 120)
        n = grid.n_cells
        for kappa in (0.3, 2.0):
            a = rng.uniform(-0.4, 0.6, size=n)
            theta_star = rng.standard_normal(n)
            dt = 0.02
            out = solve_diffusion(theta_star, a, grid, dt, scheme=scheme, kappa=kappa)
            m = dense_heat_matrix(a, grid, kappa)
            lhs = np.eye(n) - (dt if scheme == BACKWARD_EULER else 0.5 * dt) * m
            rhs = theta_star if scheme == BACKWARD_EULER else (
                theta_star + 0.5 * dt * (m @ theta_star)
            )
            expected = np.linalg.solve(lhs, rhs)
            assert sup(out - expected) <= 1e-12 * max(1.0, sup(expected))

    def test_backward_euler_max_principle(self):
        rng = np.random.default_rng(5)
        grid = build_grid(8.0, 160)
        for dt in (1e-3, 0.1, 100.0):
            theta_star = rng.uniform(-0.5, 0.8, size=grid.n_cells)
            out = solve_diffusion(
                theta_star, np.zeros(grid.n_cells), grid, dt, scheme=BACKWARD_EULER
            )
            assert out.max() <= theta_star.max() + 1e-14
            assert out.min() >= theta_star.min() - 1e-14

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_conserves_weighted_heat(self, scheme):
        # zero-flux closures at both faces make sum w (1+a) theta exact
        rng = np.random.default_rng(2)
        grid = build_grid(8.0, 160)
        a = rng.uniform(-0.3, 0.5, size=grid.n_cells)
        theta_star = rng.uniform(-0.2, 0.9, size=grid.n_cells)
        before = float(grid.w @ ((1.0 + a) * theta_star))
        out = solve_diffusion(theta_star, a, grid, dt=0.5, scheme=scheme)
        after = float(grid.w @ ((1.0 + a) * out))
        assert after == pytest.approx(before, rel=1e-13)

    def test_smooths_gradients(self):
        grid = build_grid(8.0, 320)
        theta_star = np.exp(-grid.r**2)
        out = solve_diffusion(theta_star, np.zeros(grid.n_cells), grid, dt=0.1)
        assert sup(np.diff(out)) < sup(np.diff(theta_star))

    def test_kappa_zero_is_identity(self):
        grid = build_grid(8.0, 64)
        theta_star = np.exp(-grid.r**2)
        out = solve_diffusion(theta_star, np.zeros(grid.n_cells), grid, 0.1, kappa=0.0)
        assert np.array_equal(out, theta_star)

    def test_takes_and_returns_plain_arrays(self):
        # array-likes in, a fresh float array out, the inputs left as they were
        grid = build_grid(8.0, 64)
        theta_star = np.exp(-grid.r**2)
        kept = theta_star.copy()
        out = solve_diffusion(list(theta_star), [0.0] * grid.n_cells, grid, dt=0.05)
        assert type(out) is np.ndarray and out.dtype == float
        assert out.shape == theta_star.shape
        same = solve_diffusion(theta_star, np.zeros(grid.n_cells), grid, dt=0.05)
        assert same.tobytes() == out.tobytes()
        assert np.array_equal(theta_star, kept)
        for kappa in (0.0, 1.0):
            out = solve_diffusion(theta_star, np.zeros(grid.n_cells), grid, 0.05, kappa=kappa)
            assert out is not theta_star

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_kernel_leaves_its_inputs_and_the_grid_as_they_were(self, scheme):
        # the kernel builds its system in place, but only in arrays it made
        grid = build_grid(8.0, 64)
        theta_star = np.exp(-grid.r**2)
        a_frozen = 0.1 * np.cos(grid.r)
        inputs = (theta_star, a_frozen, grid.r, grid.faces, grid.w, grid.face_area)
        kept = [x.tobytes() for x in inputs]
        out, _ = _diffusion_solve_arrays(theta_star, a_frozen, grid, 0.05, 1.0, scheme)
        assert [x.tobytes() for x in inputs] == kept
        assert not any(np.shares_memory(out, x) for x in inputs)

    def test_rejects_bad_arguments(self):
        grid = build_grid(8.0, 64)
        zero = np.zeros(grid.n_cells)
        with pytest.raises(ValueError):
            solve_diffusion(zero, zero, grid, dt=0.0)
        with pytest.raises(ValueError):
            solve_diffusion(zero, zero, grid, dt=-0.1)
        with pytest.raises(ValueError):
            solve_diffusion(zero, zero, grid, dt=0.1, kappa=-1.0)
        with pytest.raises(ValueError):
            solve_diffusion(zero, zero, grid, dt=0.1, scheme="leapfrog")
        with pytest.raises(StateValidityError):
            solve_diffusion(zero, np.full(grid.n_cells, -1.5), grid, dt=0.1)

    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_non_finite_dt_as_step_does(self, dt, kappa):
        # dt = nan with kappa = 0 used to return theta unchanged
        grid = build_grid(8.0, 64)
        state = make_initial_state(grid, "gaussian-bump", 1e-3)
        with pytest.raises(ValueError) as from_step:
            step(state, grid, dt)
        with pytest.raises(ValueError) as from_solve:
            solve_diffusion(state.theta, state.a, grid, dt, kappa=kappa)
        assert str(from_solve.value) == str(from_step.value)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf])
    def test_rejects_non_finite_kappa_as_params_do(self, kappa):
        grid = build_grid(8.0, 64)
        zero = np.zeros(grid.n_cells)
        with pytest.raises(ValueError) as from_params:
            PhysParams(kappa=kappa)
        with pytest.raises(ValueError) as from_solve:
            solve_diffusion(zero, zero, grid, dt=0.1, kappa=kappa)
        assert str(from_solve.value) == str(from_params.value)

    def test_rejects_unknown_scheme_without_conduction(self):
        # with kappa = 0 no solve runs, so the scheme is checked on entry
        grid = build_grid(8.0, 64)
        zero = np.zeros(grid.n_cells)
        with pytest.raises(ValueError, match="leapfrog"):
            solve_diffusion(zero, zero, grid, dt=0.1, scheme="leapfrog", kappa=0.0)


class TestStep:
    def test_zero_state_exact_fixed_point(self):
        grid = build_grid(10.0, 200)
        state = make_initial_state(grid, "zero", 0.0, PhysParams(kappa=1.0))
        new, report = step(state, grid, dt=0.01, filter_coeff=0.01)
        assert np.array_equal(new.a, state.a)
        assert np.array_equal(new.u, state.u)
        assert np.array_equal(new.theta, state.theta)
        assert new.t == pytest.approx(0.01)
        assert report.validity.ok

    @pytest.mark.parametrize("filter_coeff", [0.0, 0.01])
    def test_single_step_mass_exact(self, filter_coeff):
        grid = build_grid(20.0, 400)
        state = make_initial_state(grid, "gaussian-bump", 1e-3, PhysParams(kappa=1.0))
        mass0 = float(grid.w @ state.a)
        new, report = step(state, grid, dt=5e-3, filter_coeff=filter_coeff)
        assert report.validity.ok
        mass1 = float(grid.w @ new.a)
        assert abs(mass1 - mass0) <= 1e-13 * abs(mass0)

    def test_filter_conserves_mass_with_boundary_junk(self):
        # the conservative filter stencil is closed at the wall face too
        grid = build_grid(20.0, 400)
        rng = np.random.default_rng(9)
        a = 1e-3 * np.exp(-grid.r**2)
        a[-8:] += 1e-5 * rng.standard_normal(8)
        state = State(
            a=a,
            u=np.zeros_like(a),
            theta=np.zeros_like(a),
            t=0.0,
            params=PhysParams(kappa=0.0),
        )
        mass0 = float(grid.w @ state.a)
        new, _ = step(state, grid, dt=5e-3, filter_coeff=0.01)
        assert float(grid.w @ new.a) == pytest.approx(mass0, rel=1e-13)

    def test_rejects_bad_dt(self):
        grid = build_grid(10.0, 100)
        state = make_initial_state(grid, "gaussian-bump", 1e-3)
        for dt in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(ValueError):
                step(state, grid, dt)

    def test_rejects_bad_filter_coeff(self):
        # nan used to disable the filter silently; above 1/16 it is unstable
        grid = build_grid(10.0, 100)
        state = make_initial_state(grid, "gaussian-bump", 1e-3)
        for coeff in (math.nan, math.inf, 0.5, -0.01):
            with pytest.raises(ValueError, match="filter_coeff"):
                step(state, grid, 0.01, filter_coeff=coeff)
        step(state, grid, 0.01, filter_coeff=1.0 / 16.0)

    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    def test_rejects_unknown_scheme(self, kappa):
        # with kappa = 0 the conduction solve never runs, so the scheme is
        # checked on entry
        grid = build_grid(10.0, 100)
        state = make_initial_state(grid, "gaussian-bump", 1e-3, PhysParams(kappa=kappa))
        with pytest.raises(ValueError, match="leapfrog"):
            step(state, grid, 0.01, scheme="leapfrog")

    def test_rejects_invalid_input_state(self):
        grid = build_grid(10.0, 100)
        state = State(
            a=np.full(grid.n_cells, -2.0),
            u=np.zeros(grid.n_cells),
            theta=np.zeros(grid.n_cells),
            t=0.0,
            params=PhysParams(),
        )
        with pytest.raises(StateValidityError):
            step(state, grid, dt=0.01)

    def test_breach_returned_not_raised(self):
        # a strong rarefaction drains the near-vacuum center within one
        # oversized step, so the density floor is crossed
        grid = build_grid(10.0, 100)
        r = grid.r
        state = State(
            a=-0.95 * np.exp(-(r**2)),
            u=5.0 * r * np.exp(-(r**2)),
            theta=np.zeros_like(r),
            t=0.0,
            params=PhysParams(kappa=0.0),
        )
        new, report = step(state, grid, dt=0.5)
        assert not report.validity.ok
        assert report.validity.min_density <= 0.0 or not report.validity.all_finite
        assert new.t == pytest.approx(0.5)

    def test_local_order_by_richardson(self):
        # one dt step versus two dt/2 steps; the defect contracts at
        # 2^(p+1) for local order p: design orders are 2, 2, 1 (a, u, theta)
        grid = build_grid(16.0, 800)
        state = make_initial_state(grid, "gaussian-bump", 0.1, PhysParams(kappa=1.0))

        def defect(dt):
            one, rep1 = step(state, grid, dt)
            assert rep1.validity.ok
            half, _ = step(state, grid, dt / 2.0)
            two, rep2 = step(half, grid, dt / 2.0)
            assert rep2.validity.ok
            return (
                sup(one.a - two.a),
                sup(one.u - two.u),
                sup(one.theta - two.theta),
            )

        coarse = defect(2e-3)
        fine = defect(1e-3)
        orders = [math.log2(c / f) - 1.0 for c, f in zip(coarse, fine)]
        assert orders[0] >= 1.9
        assert orders[1] >= 1.9
        assert orders[2] >= 0.9

    def test_time_reversible_without_conduction(self):
        # with kappa = 0 and no filter the dynamics is invariant under
        # (u, t) -> (-u, -t); stepping forward, flipping u, stepping forward
        # again and flipping back must return the start to O(dt^3)
        grid = build_grid(16.0, 800)
        state = make_initial_state(grid, "gaussian-bump", 0.1, PhysParams(kappa=0.0))

        def round_trip_defect(dt):
            fwd, report = step(state, grid, dt)
            assert report.validity.ok
            back, _ = step(dataclasses.replace(fwd, u=-fwd.u), grid, dt)
            returned = dataclasses.replace(back, u=-back.u)
            return max(
                sup(returned.a - state.a),
                sup(returned.u - state.u),
                sup(returned.theta - state.theta),
            )

        d_coarse = round_trip_defect(8e-3)
        d_fine = round_trip_defect(4e-3)
        assert d_coarse <= 1e-6
        assert d_coarse / d_fine >= 6.0

    def test_conduction_step_dissipates_gradient(self):
        grid = build_grid(12.0, 600)
        state = make_initial_state(grid, "gaussian-bump", 0.05, PhysParams(kappa=5.0))
        new, report = step(state, grid, dt=2e-3)
        assert report.validity.ok
        assert sup(np.diff(new.theta)) < sup(np.diff(state.theta))


class TestBoundaryGuard:
    def make_state(self, grid, band_value):
        a = 1e-3 * np.exp(-grid.r**2)
        a[-2] += band_value
        return State(
            a=a,
            u=np.zeros_like(a),
            theta=np.zeros_like(a),
            t=0.0,
            params=PhysParams(),
        )

    def test_detects_band_excursion(self):
        grid = build_grid(40.0, 400)
        assert _boundary_contact(self.make_state(grid, 1e-5), threshold=1e-7)

    def test_ignores_quiet_band(self):
        grid = build_grid(40.0, 400)
        assert not _boundary_contact(self.make_state(grid, 0.0), threshold=1e-7)


def tiny_config(**overrides):
    fields = dict(
        eps=1e-3,
        kappa=1.0,
        r_max=12.0,
        n_cells=120,
        t_end=0.5,
        cfl=0.25,
        output_every=5,
        diag_max_k=2,
        run_id="tiny",
    )
    fields.update(overrides)
    return RunConfig(**fields)


class TestRun:
    def test_zero_data_stays_on_background(self):
        sink = ListSink()
        summary = run(tiny_config(eps=0.0, init_family="zero"), sink)
        assert summary.termination_reason == "time-complete"
        assert summary.t_final == pytest.approx(0.5, rel=1e-12)
        for record in sink.records:
            assert record.mass == 0.0
            assert record.energy == 0.0
            assert record.entropy_total == 0.0
            assert record.lyapunov == 0.0
            assert record.shock_indicator == 0.0
        assert all(v == 0.0 for v in summary.peaks.values())

    def test_run_lands_on_t_end(self):
        # Zero data keeps the CFL step dt constant, so t_end = 40 dt (1 + 5e-7)
        # leaves a 41st step of about 2e-5 dt, 5e-7 t_end: a run that stopped
        # within 1e-6 t_end of t_end would skip it and end short.
        config = tiny_config(eps=0.0, init_family="zero")
        grid = build_grid(config.r_max, config.n_cells)
        dt = cfl_dt(make_initial_state(grid, "zero", 0.0), grid, config.cfl)
        t_end = 40 * dt * (1.0 + 5e-7)
        summary = run(dataclasses.replace(config, t_end=t_end))
        assert summary.steps == 41
        assert abs(summary.t_final - t_end) <= 1e-12 * t_end

    def test_record_cadence_and_summary(self):
        sink = ListSink()
        config = tiny_config()
        summary = run(config, sink)
        assert summary.termination_reason == "time-complete"
        assert summary.run_id == "tiny"
        assert summary.steps > 0
        cadence_records = summary.steps // config.output_every
        tail = 1 if summary.steps % config.output_every else 0
        assert len(sink.records) == 1 + cadence_records + tail
        times = [record.t for record in sink.records]
        assert times == sorted(times)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(config.t_end, rel=1e-12)
        assert summary.wall_clock_seconds > 0.0
        assert len(summary.final_e_k1) == config.diag_max_k + 1
        assert len(summary.final_e_k2) == config.diag_max_k
        assert summary.peaks["mass"] > 0.0
        assert summary.error is None

    def test_peaks_are_the_csv_scalar_columns(self):
        summary = run(tiny_config())
        assert list(summary.peaks) == timeseries_header(0).split(",")[1:-1]

    def test_contact_between_output_times_ends_the_run(self):
        # kappa = 5 carries the conduction tail over the guard band at a step
        # between two output times: the run stops at that step, as a run
        # recording every step does, and that state's record is the last one
        config = tiny_config(kappa=5.0, t_end=3.0, output_every=50)
        every_step, sparse = ListSink(), ListSink()
        reference = run(dataclasses.replace(config, output_every=1), every_step)
        assert reference.termination_reason == "boundary-contact"
        assert reference.steps % config.output_every != 0
        summary = run(config, sparse)
        assert summary.termination_reason == "boundary-contact"
        assert (summary.steps, summary.t_final) == (reference.steps, reference.t_final)
        times = [0.0, every_step.records[50].t, summary.t_final]
        assert [r.t for r in sparse.records] == times
        assert sparse.records[-1].energy == every_step.records[-1].energy

    @pytest.mark.parametrize(
        "scheme, filter_coeff", [(CRANK_NICOLSON, 0.01), (BACKWARD_EULER, 0.0)]
    )
    def test_a_record_does_not_change_the_run(self, monkeypatch, scheme, filter_coeff):
        # a record reads du/dr from the state and leaves da/dr there for the
        # next step, so recording every step or every 7th must give the same
        # steps: the same t and scalar columns at the shared times (the
        # accumulators integrate over the record times, so they differ) and
        # the same final fields
        config = tiny_config(
            eps=1e-2, diffusion_scheme=scheme, filter_coeff=filter_coeff
        )
        real_step, rows, finals = integrator.step, {}, {}

        def spy(*args, **kwargs):
            new, report = real_step(*args, **kwargs)
            finals[every] = new
            return new, report

        monkeypatch.setattr(integrator, "step", spy)
        for every in (1, 7):
            sink = ListSink()
            summary = run(dataclasses.replace(config, output_every=every), sink)
            assert summary.termination_reason == "time-complete"
            columns = (format_record(r).split(",") for r in sink.records)
            rows[every] = [c[: 1 + len(SCALAR_FIELDS)] for c in columns]
        dense = {row[0]: row for row in rows[1]}
        assert len(rows[7]) > 3 and len(rows[1]) > len(rows[7])
        for row in rows[7]:
            assert row == dense[row[0]]
        for name in ("a", "u", "theta"):
            assert getattr(finals[1], name).tobytes() == getattr(finals[7], name).tobytes()

    def test_energy_accumulators_nondecreasing(self):
        sink = ListSink()
        run(tiny_config(), sink)
        for earlier, later in zip(sink.records, sink.records[1:]):
            for k in range(3):
                assert later.e_k1[k] >= earlier.e_k1[k] - 1e-18
            for k in range(2):
                assert later.e_k2[k] >= earlier.e_k2[k] - 1e-18

    def test_deterministic_records(self):
        first, second = ListSink(), ListSink()
        run(tiny_config(), first)
        run(tiny_config(), second)
        assert first.records == second.records

    def test_breach_reported_with_state(self):
        # without conduction a 0.3-amplitude wave steepens into a shock and
        # the centered scheme crosses the positivity floor; the run must
        # stop and deliver the offending state to the sink
        config = tiny_config(
            eps=0.3,
            kappa=0.0,
            r_max=34.0,
            n_cells=680,
            t_end=12.0,
            cfl=0.4,
            output_every=10,
        )
        sink = ListSink()
        summary = run(config, sink)
        assert summary.termination_reason == "positivity-breach"
        assert summary.t_final < 12.0
        assert sink.breach_state is not None
        breached = min(
            1.0 + float(sink.breach_state.a.min()),
            1.0 + float(sink.breach_state.theta.min()),
        )
        assert breached <= 0.0 or not np.isfinite(
            sink.breach_state.a
        ).all()

    def test_global_convergence_under_refinement(self):
        # halving dr and dt together shrinks the final-time error by at
        # least 1.8x against a twice-refined reference
        t_end = 0.5
        states = {}
        for n in (100, 200, 400):
            grid = build_grid(12.0, n)
            state = make_initial_state(
                grid, "gaussian-bump", 0.05, PhysParams(kappa=1.0)
            )
            dt = 0.02 * 100 / n
            for _ in range(int(round(t_end / dt))):
                state, report = step(state, grid, dt)
                assert report.validity.ok
            states[n] = state

        def restrict(values, factor):
            return values.reshape(-1, factor).mean(axis=1)

        for name in ("a", "u", "theta"):
            reference = getattr(states[400], name)
            err_coarse = sup(getattr(states[100], name) - restrict(reference, 4))
            err_fine = sup(getattr(states[200], name) - restrict(reference, 2))
            assert err_coarse / err_fine >= 1.8
