"""Diagnostics against quadrature oracles and closed forms."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from radgas.diagnostics import (
    DiagnosticsCollector,
    ListSink,
    shock_indicator,
    taylor_remainder,
)
from radgas.grid import build_grid
from radgas.operators import EVEN, derivative_array
from radgas.state import PhysParams, State, StateValidityError, make_initial_state

SPHERE = 4.0 * math.pi


def gaussian_state(grid, eps, kappa=1.0):
    return make_initial_state(grid, "gaussian-bump", eps, PhysParams(kappa=kappa))


def record_of(state, grid, max_k=2):
    """The first record of a fresh collector."""
    return DiagnosticsCollector(grid, max_k).update(state)


def conserved(record):
    return record.mass, record.momentum_scalar, record.energy


def entropy(record):
    return record.entropy_total, record.entropy_dissipation


def quad_volume(fn, r_max):
    value, _ = quad(lambda r: fn(r) * r**2, 0.0, r_max)
    return SPHERE * value


class TestConservedQuantities:
    def test_gaussian_against_quadrature(self):
        eps = 1e-3
        grid = build_grid(12.0, 1200)
        state = gaussian_state(grid, eps)
        mass, momentum, energy = conserved(record_of(state, grid))

        prof = lambda r: eps * np.exp(-(r**2))
        q_mass = quad_volume(prof, grid.r_max)
        q_momentum = quad_volume(
            lambda r: (1.0 + prof(r)) * r * prof(r), grid.r_max
        )
        q_energy = quad_volume(
            lambda r: (1.0 + prof(r)) * (r * prof(r)) ** 2 / 2.0
            + prof(r) ** 2
            + prof(r),
            grid.r_max,
        )
        assert mass == pytest.approx(q_mass, rel=1e-4)
        assert momentum == pytest.approx(q_momentum, rel=1e-4)
        assert energy == pytest.approx(q_energy, rel=1e-4)
        # mass is dominated by the eps * pi^(3/2) closed form
        assert q_mass == pytest.approx(eps * math.pi**1.5, rel=1e-10)

    def test_zero_state_all_zero(self):
        grid = build_grid(8.0, 64)
        state = make_initial_state(grid, "zero", 0.0)
        assert conserved(record_of(state, grid)) == (0.0, 0.0, 0.0)

    def test_velocity_free_state_has_no_momentum(self):
        grid = build_grid(8.0, 200)
        r = grid.r
        state = State(
            a=0.1 * np.exp(-(r**2)),
            u=np.zeros_like(r),
            theta=0.2 * np.exp(-(r**2)),
            t=0.0,
            params=PhysParams(),
        )
        mass, momentum, energy = conserved(record_of(state, grid))
        assert momentum == 0.0
        assert mass > 0.0
        assert energy > 0.0


class TestEntropyFunctionals:
    def test_uniform_temperature_closed_form(self):
        grid = build_grid(6.0, 300)
        c = 0.2
        state = State(
            a=np.zeros(grid.n_cells),
            u=np.zeros(grid.n_cells),
            theta=np.full(grid.n_cells, c),
            t=0.0,
            params=PhysParams(),
        )
        total, dissipation = entropy(record_of(state, grid))
        volume = SPHERE / 3.0 * grid.r_max**3
        assert total == pytest.approx(volume * math.log1p(c), rel=1e-14)
        # the one-sided edge stencil leaves only a rounding-level residue
        assert dissipation <= 1e-25

    def test_equal_fields_cancel(self):
        # a == theta makes the relative-entropy density vanish identically
        grid = build_grid(10.0, 500)
        state = gaussian_state(grid, 1e-2)
        total, dissipation = entropy(record_of(state, grid))
        assert total == 0.0
        assert dissipation > 0.0

    def test_dissipation_against_quadrature(self):
        eps = 1e-3
        grid = build_grid(12.0, 1200)
        state = gaussian_state(grid, eps)
        _, dissipation = entropy(record_of(state, grid))
        prof = lambda r: eps * np.exp(-(r**2))
        dprof = lambda r: -2.0 * r * eps * np.exp(-(r**2))
        q = quad_volume(lambda r: dprof(r) ** 2 / (1.0 + prof(r)) ** 2, grid.r_max)
        assert dissipation == pytest.approx(q, rel=1e-4)

    def test_rejects_breached_state(self):
        grid = build_grid(4.0, 32)
        state = State(
            a=np.full(grid.n_cells, -1.5),
            u=np.zeros(grid.n_cells),
            theta=np.zeros(grid.n_cells),
            t=0.0,
            params=PhysParams(),
        )
        with pytest.raises(StateValidityError):
            entropy(record_of(state, grid))


class TestLyapunovFunctional:
    def test_zero_on_background(self):
        grid = build_grid(8.0, 64)
        state = make_initial_state(grid, "zero", 0.0)
        assert record_of(state, grid).lyapunov == 0.0

    def test_velocity_only_is_kinetic_energy(self):
        # with a = theta = 0 every entropy term vanishes and L = int u^2/2
        grid = build_grid(12.0, 1200)
        u = 1e-3 * grid.r * np.exp(-grid.r**2)
        state = State(
            a=np.zeros_like(u), u=u, theta=np.zeros_like(u), t=0.0, params=PhysParams()
        )
        lyap = record_of(state, grid).lyapunov
        assert lyap == 0.5 * float(grid.w @ (u**2))
        q = quad_volume(lambda r: (1e-3 * r * np.exp(-(r**2))) ** 2 / 2.0, grid.r_max)
        assert lyap == pytest.approx(q, rel=1e-4)

    def test_positive_and_quadratic_in_amplitude(self):
        grid = build_grid(12.0, 1200)
        scaled = {}
        for eps in (1e-3, 1e-4):
            lyap = record_of(gaussian_state(grid, eps), grid).lyapunov
            assert lyap > 0.0
            scaled[eps] = lyap / eps**2
        # leading order is quadratic, so L / eps^2 is nearly amplitude-free
        assert scaled[1e-3] == pytest.approx(scaled[1e-4], rel=1e-3)

    def test_rejects_breached_state(self):
        grid = build_grid(4.0, 32)
        state = State(
            a=np.zeros(grid.n_cells),
            u=np.zeros(grid.n_cells),
            theta=np.full(grid.n_cells, -2.0),
            t=0.0,
            params=PhysParams(),
        )
        with pytest.raises(StateValidityError):
            record_of(state, grid).lyapunov


class TestTaylorRemainder:
    def test_antisymmetric_to_the_bit(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-0.3, 0.3, size=2000)
        y = rng.uniform(-0.3, 0.3, size=2000)
        fwd = taylor_remainder(x, y)
        rev = taylor_remainder(y, x)
        assert np.array_equal(fwd, -rev)

    def test_vanishes_on_the_diagonal(self):
        x = np.linspace(-0.3, 0.3, 101)
        assert np.array_equal(taylor_remainder(x, x), np.zeros_like(x))

    def test_cubic_bound_on_square(self):
        a, th = np.meshgrid(
            np.linspace(-0.3, 0.3, 100), np.linspace(-0.3, 0.3, 100)
        )
        r = taylor_remainder(a, th)
        assert np.all(np.abs(r) <= 2.0 * (np.abs(a) ** 3 + np.abs(th) ** 3))

    def test_frozen_reference_value(self):
        # 40-digit arithmetic gives log(1.1) - 0.1 + 0.005 =
        # 3.101798043248600439521233e-4
        assert taylor_remainder(0.1, 0.0) == pytest.approx(
            3.1017980432486004e-4, abs=1e-18
        )

    def test_cubic_scaling_toward_zero(self):
        # r(h, 0) = h^3/3 - h^4/4 + ..., so r/h^3 -> 1/3 at rate O(h)
        for h in (1e-2, 1e-3):
            assert taylor_remainder(h, 0.0) / h**3 == pytest.approx(
                1.0 / 3.0, abs=h
            )

    def test_scalar_in_scalar_out(self):
        out = taylor_remainder(0.05, -0.04)
        assert isinstance(out, float)

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            taylor_remainder(-1.0, 0.0)
        with pytest.raises(ValueError):
            taylor_remainder(0.0, -1.5)


class TestShockIndicator:
    def test_zero_state(self):
        grid = build_grid(8.0, 64)
        assert shock_indicator(make_initial_state(grid, "zero", 0.0), grid) == 0.0

    def test_linear_velocity_exact(self):
        grid = build_grid(8.0, 320)
        state = State(
            a=np.zeros(grid.n_cells),
            u=-0.7 * grid.r,
            theta=np.zeros(grid.n_cells),
            t=0.0,
            params=PhysParams(),
        )
        assert shock_indicator(state, grid) == pytest.approx(0.7, rel=1e-12)

    def test_gaussian_velocity_peak_at_origin(self):
        grid = build_grid(8.0, 800)
        u = grid.r * np.exp(-grid.r**2)
        state = State(
            a=np.zeros_like(u), u=u, theta=np.zeros_like(u), t=0.0, params=PhysParams()
        )
        # d/dr [r exp(-r^2)] attains its maximum 1 at r = 0
        assert shock_indicator(state, grid) == pytest.approx(1.0, abs=2e-3)


class TestSobolevAccumulator:
    def test_initial_energy_matches_quadrature(self):
        eps = 1e-3
        grid = build_grid(12.0, 2400)
        record = record_of(gaussian_state(grid, eps), grid)
        prof = lambda r: eps * np.exp(-(r**2))
        q = quad_volume(
            lambda r: 2.0 * prof(r) ** 2 + (r * prof(r)) ** 2, grid.r_max
        )
        assert abs(record.e_k1[0] - q) <= 1e-10

    def test_static_history_semantics(self):
        # sup terms are constant; the time integrals grow exactly linearly
        grid = build_grid(10.0, 400)
        base = gaussian_state(grid, 1e-2)
        collector = DiagnosticsCollector(grid, 2)
        snapshots = {}
        for t in (0.0, 5.0, 10.0):
            record = collector.update(replace(base, t=t))
            snapshots[t] = (np.array(record.e_k1), np.array(record.e_k2))
        first_delta_1 = snapshots[5.0][0] - snapshots[0.0][0]
        second_delta_1 = snapshots[10.0][0] - snapshots[5.0][0]
        np.testing.assert_allclose(second_delta_1, first_delta_1, rtol=1e-13)
        assert np.all(first_delta_1 > 0.0)
        first_delta_2 = snapshots[5.0][1] - snapshots[0.0][1]
        second_delta_2 = snapshots[10.0][1] - snapshots[5.0][1]
        np.testing.assert_allclose(second_delta_2, first_delta_2, rtol=1e-13)

    def test_accumulators_nondecreasing(self):
        grid = build_grid(10.0, 300)
        rng = np.random.default_rng(3)
        collector = DiagnosticsCollector(grid, 2)
        prev_1 = prev_2 = None
        for t in np.linspace(0.0, 1.0, 6):
            amp = float(rng.uniform(0.2, 1.0))
            state = replace(gaussian_state(grid, 1e-2 * amp), t=float(t))
            record = collector.update(state)
            e1, e2 = np.array(record.e_k1), np.array(record.e_k2)
            if prev_1 is not None:
                assert np.all(e1 >= prev_1 - 1e-15)
                assert np.all(e2 >= prev_2 - 1e-15)
            prev_1, prev_2 = e1, e2

    def test_orders_are_cumulative(self):
        grid = build_grid(10.0, 400)
        record = record_of(gaussian_state(grid, 1e-2), grid, max_k=3)
        e1 = record.e_k1
        assert len(e1) == 4
        assert len(record.e_k2) == 3
        assert all(e1[k] <= e1[k + 1] for k in range(3))

    def test_rejects_time_regression(self):
        grid = build_grid(10.0, 200)
        collector = DiagnosticsCollector(grid, 1)
        collector.update(replace(gaussian_state(grid, 1e-2), t=1.0))
        with pytest.raises(ValueError, match="nondecreasing"):
            collector.update(replace(gaussian_state(grid, 1e-2), t=0.5))

    @pytest.mark.parametrize("cells", [80, 120])
    def test_rejects_a_state_of_another_length(self, cells):
        # the collector's buffers have the grid's length; the error names both
        grid = build_grid(10.0, 100)
        state = gaussian_state(build_grid(10.0, cells), 1e-2)
        with pytest.raises(ValueError, match=f"state has {cells} cells, grid has 100"):
            DiagnosticsCollector(grid, 2).update(state)

    def test_rejects_bad_order(self):
        grid = build_grid(10.0, 200)
        with pytest.raises(ValueError):
            DiagnosticsCollector(grid, -1)
        with pytest.raises(ValueError):
            DiagnosticsCollector(grid, 7)

    def test_history_fold_matches_accumulator(self):
        # e_k1[0] is the running sup of |a|^2 + |u|^2 + |theta|^2 plus the
        # trapezoid-in-time integral of the records' grad_theta_sq
        grid = build_grid(10.0, 300)
        w = grid.w
        history = [
            replace(gaussian_state(grid, eps), t=t)
            for eps, t in ((1e-2, 0.0), (3e-2, 0.3), (2e-2, 0.9))
        ]
        collector = DiagnosticsCollector(grid, 2)
        sup = integral = 0.0
        prev = None
        for state in history:
            record = collector.update(state)
            norms = [float(w @ (f**2)) for f in (state.a, state.u, state.theta)]
            sup = max(sup, norms[0] + norms[1] + norms[2])
            if prev is not None:
                integral += 0.5 * (state.t - prev.t) * (
                    prev.grad_theta_sq + record.grad_theta_sq
                )
            assert record.e_k1[0] == sup + integral
            prev = record


class TestDiagnosticsCollector:
    def test_record_consistent_with_direct_calls(self):
        grid = build_grid(12.0, 600)
        r = grid.r
        state = State(
            a=0.1 * np.exp(-(r**2)),
            u=0.05 * r * np.exp(-(r**2)),
            theta=0.2 * np.exp(-(r**2) / 2.0),
            t=0.0,
            params=PhysParams(),
        )
        record = DiagnosticsCollector(grid, 2).update(state)

        w, a, u, theta = grid.w, state.a, state.u, state.theta
        kinetic = (1.0 + a) * u**2 / 2.0
        log_ratio = np.log1p(theta) - np.log1p(a)
        dtheta = derivative_array(theta, EVEN, grid.dr)
        assert record.t == 0.0
        assert record.mass == float(w @ a)
        assert record.momentum_scalar == float(w @ ((1.0 + a) * u))
        direct = {
            "energy": w @ (kinetic + a * theta + theta),
            "entropy_total": w @ ((1.0 + a) * log_ratio),
            "entropy_dissipation": w @ (dtheta**2 / (1.0 + theta) ** 2),
            "lyapunov": w @ (kinetic - (1.0 + a) * log_ratio - a + a * theta + theta),
            "grad_theta_sq": w @ dtheta**2,
        }
        for name, value in direct.items():
            assert getattr(record, name) == pytest.approx(float(value), rel=1e-12), name
        assert record.shock_indicator == shock_indicator(state, grid)
        assert len(record.e_k1) == 3
        assert len(record.e_k2) == 2

    def test_list_sink_collects(self):
        grid = build_grid(12.0, 600)
        collector = DiagnosticsCollector(grid, 2)
        sink = ListSink()
        for t in (0.0, 0.1):
            sink.on_record(collector.update(replace(gaussian_state(grid, 1e-3), t=t)))
        assert [rec.t for rec in sink.records] == [0.0, 0.1]
