"""Initial data families, state validation, and physical parameters."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from radgas import PhysParams, State, build_grid, make_initial_state, support_radius, validate
from radgas import integrator
from radgas import state as state_module
from radgas.config import RunConfig
from radgas.integrator import run, step
from radgas.state import (
    BUMP_RADIUS,
    COMPACT_BUMP,
    GAUSSIAN_BUMP,
    GAUSSIAN_SUPPORT_RADIUS,
    StateValidityError,
    ZERO,
    check_fields,
)


@pytest.fixture
def grid():
    return build_grid(r_max=12.0, n_cells=480)


def test_gaussian_profile_values(grid):
    eps = 1e-2
    s = make_initial_state(grid, GAUSSIAN_BUMP, eps)
    shape = np.exp(-(grid.r**2))
    np.testing.assert_allclose(s.a, eps * shape, rtol=1e-14)
    np.testing.assert_allclose(s.theta, eps * shape, rtol=1e-14)
    np.testing.assert_allclose(s.u, eps * grid.r * shape, rtol=1e-14)
    assert s.t == 0.0


def test_gaussian_mass_against_quadrature(grid):
    # grid sum of w*a versus an independent quadrature of the same profile
    eps = 1e-3
    s = make_initial_state(grid, GAUSSIAN_BUMP, eps)
    mass_grid = float(np.sum(grid.w * s.a))
    mass_quad, _ = quad(lambda r: 4.0 * np.pi * r**2 * eps * np.exp(-(r**2)), 0.0, grid.r_max)
    assert mass_grid == pytest.approx(mass_quad, rel=3e-4)  # midpoint rule at dr=0.025
    # and the closed form over the whole space: eps * pi^{3/2}
    assert mass_quad == pytest.approx(eps * 5.568327996831708, rel=1e-12)


def test_compact_bump_support(grid):
    s = make_initial_state(grid, COMPACT_BUMP, 0.1)
    outside = grid.r >= BUMP_RADIUS
    assert np.all(s.a[outside] == 0.0)
    assert np.all(s.u[outside] == 0.0)
    assert np.all(s.theta[outside] == 0.0)
    assert s.a.max() > 0.05  # actually carries data inside


def test_compact_bump_edge_smoothness():
    """The cubic bump vanishes with two continuous derivatives at its edge."""
    g = build_grid(r_max=6.0, n_cells=3000)
    s = make_initial_state(g, COMPACT_BUMP, 0.2)
    near_edge = (g.r > BUMP_RADIUS - 5 * g.dr) & (g.r < BUMP_RADIUS)
    # value, slope and curvature all shrink like (edge distance)^k
    assert np.max(np.abs(s.a[near_edge])) < 0.2 * (5 * g.dr / BUMP_RADIUS) ** 3 * 8


def test_zero_family(grid):
    s = make_initial_state(grid, ZERO, 0.5)
    assert np.all(s.a == 0.0)
    assert np.all(s.u == 0.0)
    assert np.all(s.theta == 0.0)


def test_support_radius_values():
    assert support_radius(GAUSSIAN_BUMP) == pytest.approx(5.67769242755511, rel=1e-12)
    assert GAUSSIAN_SUPPORT_RADIUS == pytest.approx(np.sqrt(np.log(1e14)), rel=1e-14)
    assert support_radius(COMPACT_BUMP) == BUMP_RADIUS
    assert support_radius(ZERO) == 0.0
    with pytest.raises(ValueError):
        support_radius("no-such-family")


def test_eps_validation(grid):
    with pytest.raises(ValueError):
        make_initial_state(grid, GAUSSIAN_BUMP, -0.1)
    with pytest.raises(ValueError):
        make_initial_state(grid, GAUSSIAN_BUMP, 1.0)
    with pytest.raises(ValueError):
        make_initial_state(grid, "unknown", 0.1)


def test_params_validation():
    assert PhysParams().kappa == 1.0
    assert PhysParams(kappa=0.0).kappa == 0.0
    with pytest.raises(ValueError):
        PhysParams(kappa=-1.0)
    with pytest.raises(ValueError):
        PhysParams(kappa=float("nan"))


def test_state_arrays_are_copied_and_locked(grid):
    a = np.zeros(grid.n_cells)
    s = State(a=a, u=a.copy(), theta=a.copy(), t=0.0, params=PhysParams())
    a[0] = 5.0  # mutating the source array must not reach the state
    assert s.a[0] == 0.0
    with pytest.raises((ValueError, RuntimeError)):
        s.a[0] = 1.0


def test_state_shape_mismatch(grid):
    a = np.zeros(grid.n_cells)
    with pytest.raises(ValueError):
        State(a=a, u=np.zeros(3), theta=a, t=0.0, params=PhysParams())
    for field in (np.zeros((2, 3)), np.float64(0.0)):  # of one shape, not 1-D
        with pytest.raises(ValueError, match="1-D"):
            State(a=field, u=field, theta=field, t=0.0, params=PhysParams())


@pytest.mark.parametrize("kappa, filter_coeff", [(1.0, 0.0), (0.0, 0.01)])
def test_every_state_is_the_read_only_rows_of_one_array(kappa, filter_coeff):
    # built by the constructor, stepped (unfiltered stage 2 writes the
    # result's rows, filtered stage 2 its stage-1 rows), cut and padded
    grid = build_grid(20.0, 400)
    n = grid.n_cells
    built = make_initial_state(grid, GAUSSIAN_BUMP, 1e-3, PhysParams(kappa=kappa))
    stepped, _ = step(built, grid, dt=0.01, filter_coeff=filter_coeff)
    cut = integrator._resize(stepped, n - 100)
    pad = integrator._rows(3, n)
    padded = integrator._resize(cut, n, pad)
    for s in (built, stepped, cut, padded):
        assert s.rows.shape == (3, s.a.shape[0]) and not s.rows.flags.writeable
        for row, field in zip(s.rows, (s.a, s.u, s.theta)):
            assert field.ctypes.data == row.ctypes.data and field.shape == row.shape
            assert field.strides == row.strides and np.shares_memory(field, s.rows)
            assert not field.flags.writeable
    # run() writes its pad rows again after a record reads the padded state
    assert np.shares_memory(padded.rows, pad) and pad.flags.writeable
    np.testing.assert_array_equal(padded.rows[:, n - 100 :], 0.0)
    np.testing.assert_array_equal(padded.rows[:, : n - 100], stepped.rows[:, : n - 100])


def test_validate_reports_breach(grid):
    n = grid.n_cells
    a = np.full(n, -1.5)
    s = State(a=a, u=np.zeros(n), theta=np.zeros(n), t=0.0, params=PhysParams())
    rep = validate(s)
    assert not rep.ok
    assert rep.min_density == pytest.approx(-0.5)  # 1 + a
    assert rep.all_finite

    good = make_initial_state(grid, GAUSSIAN_BUMP, 1e-3)
    rep2 = validate(good)
    assert rep2.ok
    assert rep2.min_density > 0.0
    assert rep2.min_temperature > 0.0


def test_validate_flags_nonfinite(grid):
    n = grid.n_cells
    u = np.zeros(n)
    u[3] = np.nan
    s = State(a=np.zeros(n), u=u, theta=np.zeros(n), t=0.0, params=PhysParams())
    rep = validate(s)
    assert not rep.ok
    assert not rep.all_finite


@pytest.mark.parametrize("name", ["a", "theta"])
def test_minus_one_exactly_is_a_breach(name):
    # 1 + a = 0 is vacuum and 1 + theta = 0 zero absolute temperature: both
    # fail, as any value below -1 does
    fields = {key: np.zeros(8) for key in ("a", "u", "theta")}
    fields[name][3] = -1.0
    report = check_fields(np.stack([fields[key] for key in ("a", "u", "theta")]))
    assert report.all_finite
    assert not report.ok
    assert min(report.min_density, report.min_temperature) == 0.0


def test_replace_returns_new_state(grid):
    # dataclasses.replace re-runs the constructor: new state, arrays locked
    s = make_initial_state(grid, GAUSSIAN_BUMP, 1e-2)
    s2 = dataclasses.replace(s, t=1.5)
    assert s2.t == 1.5
    assert s.t == 0.0
    np.testing.assert_array_equal(s2.a, s.a)
    s3 = dataclasses.replace(s, u=-s.u)
    np.testing.assert_array_equal(s3.u, -s.u)
    assert not s3.u.flags.writeable


def count_checks(monkeypatch):
    """Count check_fields calls, through validate and from the step kernel."""
    calls = []

    def counting(rows):
        calls.append(rows.shape[1])
        return check_fields(rows)

    monkeypatch.setattr(state_module, "check_fields", counting)
    monkeypatch.setattr(integrator, "check_fields", counting)
    return calls


def rarefaction_breach():
    """(result, report) of a step whose strong rarefaction drains the
    near-vacuum center (as in test_integrator's breach test)."""
    grid = build_grid(10.0, 100)
    r = grid.r
    state = State(
        a=-0.95 * np.exp(-(r**2)),
        u=5.0 * r * np.exp(-(r**2)),
        theta=np.zeros_like(r),
        t=0.0,
        params=PhysParams(kappa=0.0),
    )
    return step(state, grid, dt=0.5)


class TestCheckOnce:
    @pytest.mark.parametrize("kappa, filter_coeff", [(1.0, 0.0), (0.0, 0.01)])
    def test_run_checks_each_state_once(self, monkeypatch, kappa, filter_coeff):
        # the initial state once, then the two convective stages and the
        # result of each step; the next step and the records reuse the check
        calls = count_checks(monkeypatch)
        config = RunConfig(
            eps=1e-3, kappa=kappa, r_max=12.0, n_cells=120, t_end=0.5, cfl=0.25,
            output_every=1, filter_coeff=filter_coeff, run_id="check-once",
        )
        summary = run(config)
        assert summary.termination_reason == "time-complete"
        assert len(calls) == 3 * summary.steps + 1

    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    def test_kernel_state_is_read_only(self, kappa):
        grid = build_grid(20.0, 400)
        state = make_initial_state(grid, "gaussian-bump", 1e-3, PhysParams(kappa=kappa))
        new, _ = step(state, grid, dt=0.01, filter_coeff=0.01)
        breached, _ = rarefaction_breach()
        for s in (new, breached):
            for name in ("a", "u", "theta"):
                field = getattr(s, name)
                assert not field.flags.writeable
                with pytest.raises(ValueError):
                    field[0] = 1.0

    def test_replace_and_constructor_check_again(self, monkeypatch):
        grid = build_grid(12.0, 120)
        state = make_initial_state(grid, "gaussian-bump", 1e-3)
        new, report = step(state, grid, dt=0.01)
        calls = count_checks(monkeypatch)
        assert validate(new) is report.validity
        assert calls == []
        bad = dataclasses.replace(new, a=np.full(grid.n_cells, -2.0))
        assert not validate(bad).ok
        assert len(calls) == 1
        copy = State(a=new.a, u=new.u, theta=new.theta, t=new.t, params=new.params)
        assert copy.a is not new.a
        assert validate(copy) == report.validity
        assert validate(copy) == report.validity
        assert len(calls) == 2

    def test_breached_kernel_state_keeps_the_failing_report(self, monkeypatch):
        breached, report = rarefaction_breach()
        calls = count_checks(monkeypatch)
        assert not report.validity.ok
        assert validate(breached) is report.validity
        assert calls == []
        assert report.validity == check_fields(breached.rows)
        with pytest.raises(StateValidityError):
            step(breached, build_grid(10.0, 100), dt=0.01)
