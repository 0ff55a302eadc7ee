"""End-to-end acceptance gates for the solver and its diagnostics.

One test per criterion; each prints through the terminal-summary hook in
conftest.py as `CRITERION k: PASS/FAIL`.  All tolerances are frozen numbers:
structural identities carry round-off-level bounds, run-level bounds were
pinned from pilot runs of the shipped presets and hold with wide margins
(noted inline).  The heavyweight preset runs are shared across criteria
through module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from radgas.cli import main
from radgas.config import preset, refine_config
from radgas.diagnostics import ListSink, shock_indicator, taylor_remainder
from radgas.dynamics import assemble_sym_system, characteristic_speeds
from radgas.grid import build_grid
from radgas.integrator import run, solve_diffusion, step
from radgas.state import PhysParams, make_initial_state
from radgas.sweep import sweep


def run_with_records(config):
    sink = ListSink()
    summary = run(config, sink)
    return summary, sink.records


def cumulative_trapezoid(values, times):
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    increments = 0.5 * (values[1:] + values[:-1]) * np.diff(times)
    return np.concatenate([[0.0], np.cumsum(increments)])


@pytest.fixture(scope="module")
def small_data_runs():
    """Long small-amplitude run plus its mesh refinement (criteria 2/3/6/8)."""
    base = preset("small-data-global")
    fine = refine_config(base)
    return {
        "base": (base, *run_with_records(base)),
        "fine": (fine, *run_with_records(fine)),
    }


@pytest.fixture(scope="module")
def audit_runs():
    """Entropy-audit run plus refinement (criterion 4)."""
    base = preset("entropy-audit")
    fine = refine_config(base)
    return {
        "base": (base, *run_with_records(base)),
        "fine": (fine, *run_with_records(fine)),
    }


@pytest.fixture(scope="module")
def dichotomy_runs():
    """The 0.3-amplitude profile with and without conduction (criterion 7)."""
    base = preset("no-conduction-steepening")
    with_kappa0, with_kappa1 = sweep(base, "kappa", [0.0, 1.0], parallelism=2)
    grid = build_grid(base.r_max, base.n_cells)
    initial = make_initial_state(grid, base.init_family, base.eps)
    return base, shock_indicator(initial, grid), with_kappa0, with_kappa1


def test_criterion_1_symmetric_structure():
    """Symmetrizer and characteristic speeds on 1000 random states."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        a = rng.uniform(-0.5, 0.5)
        theta = rng.uniform(-0.5, 0.5)
        u_vec = rng.uniform(-1.0, 1.0, size=3)
        u_vec *= rng.uniform(0.0, 1.0) / max(1.0, float(np.linalg.norm(u_vec)))

        system = assemble_sym_system(a, u_vec, theta)
        for j in range(3):
            assert np.array_equal(system.a_dirs[j], system.a_dirs[j].T)
        floor = min((1.0 + theta) / (1.0 + a), 1.0 + a)
        assert np.linalg.eigvalsh(system.a0).min() >= floor - 1e-12

        u = float(u_vec[0])
        jacobian = np.array(
            [
                [u, 1.0 + a, 0.0],
                [(1.0 + theta) / (1.0 + a), u, 1.0],
                [0.0, 1.0 + theta, u],
            ]
        )
        numeric = np.sort(np.linalg.eigvals(jacobian).real)
        closed = np.sort(characteristic_speeds(a, u, theta))
        assert np.max(np.abs(numeric - closed)) <= 1e-12
    assert time.perf_counter() - start < 5.0


def test_criterion_2_conservation(small_data_runs):
    """Exact mass conservation; energy drift vanishes under refinement."""
    _, summary_b, records_b = small_data_runs["base"]
    _, summary_f, records_f = small_data_runs["fine"]
    assert summary_b.termination_reason == "time-complete"
    assert summary_f.termination_reason == "time-complete"

    mass = np.array([r.mass for r in records_b])
    drift = np.max(np.abs(mass - mass[0])) / abs(mass[0])
    assert drift <= 1e-12  # pilot: 6.7e-15

    def energy_drift(records):
        energy = np.array([r.energy for r in records])
        return float(np.max(np.abs(energy - energy[0])))

    factor = energy_drift(records_b) / energy_drift(records_f)
    assert factor >= 1.8  # pilot: 4.0


def test_criterion_3_entropy_monotonic(small_data_runs):
    """Entropy nondecreasing up to a truncation-sized tolerance per unit
    time; tolerance-normalized violations shrink at observed order >= 1."""
    tolerance_constant = 1e-3  # pinned from pilots; 5.8x margin at base

    def normalized_violation(config, records):
        times = np.array([r.t for r in records])
        entropy = np.array([r.entropy_total for r in records])
        rates = np.diff(entropy) / np.diff(times)
        violation = max(0.0, -float(rates.min()))
        dr = config.r_max / config.n_cells
        dt = config.cfl * dr / config.signal_speed_bound()
        tolerance = tolerance_constant * (dr**2 + dt)
        return violation, tolerance

    config_b, _, records_b = small_data_runs["base"]
    config_f, _, records_f = small_data_runs["fine"]
    violation_b, tol_b = normalized_violation(config_b, records_b)
    violation_f, tol_f = normalized_violation(config_f, records_f)

    assert violation_b <= tol_b  # pilot: 8.7e-7 vs 5.0e-6
    order = math.log2((violation_b / tol_b) / (violation_f / tol_f))
    assert order >= 1.0  # pilot: 2.65


def test_criterion_4_lyapunov_identity(audit_runs):
    """L(t) - L(0) + integral of kappa * dissipation stays within a small
    fraction of L(0), and the residual shrinks at order >= 1."""

    def residual(config, records):
        times = np.array([r.t for r in records])
        lyap = np.array([r.lyapunov for r in records])
        dissipation = np.array([r.entropy_dissipation for r in records])
        balance = lyap - lyap[0] + config.kappa * cumulative_trapezoid(
            dissipation, times
        )
        return float(np.max(np.abs(balance))), float(lyap[0])

    config_b, summary_b, records_b = audit_runs["base"]
    config_f, summary_f, records_f = audit_runs["fine"]
    assert summary_b.termination_reason == "time-complete"
    assert summary_f.termination_reason == "time-complete"

    residual_b, lyap0 = residual(config_b, records_b)
    residual_f, _ = residual(config_f, records_f)
    tolerance = 1e-2 * max(abs(lyap0), config_b.eps**2)
    assert residual_b <= tolerance  # pilot: 7.8e-10 vs 2.7e-8
    assert math.log2(residual_b / residual_f) >= 1.0  # pilot: 2.0


def test_criterion_5_cubic_remainder_bound():
    """Pointwise cubic bound and a frozen high-precision reference value."""
    start = time.perf_counter()
    a, theta = np.meshgrid(
        np.linspace(-0.3, 0.3, 100), np.linspace(-0.3, 0.3, 100)
    )
    remainder = taylor_remainder(a, theta)
    assert np.all(np.abs(remainder) <= 2.0 * (np.abs(a) ** 3 + np.abs(theta) ** 3))
    # 40-digit reference for r(0.1, 0): 3.101798043248600439521233e-4
    assert abs(taylor_remainder(0.1, 0.0) - 3.1017980432486004e-4) <= 1e-9
    assert time.perf_counter() - start < 1.0


def test_criterion_6_no_shock_small_data(small_data_runs):
    """Small-amplitude conductive run stays smooth over the full horizon:
    bounded energy growth and no gradient blow-up."""
    _, summary, records = small_data_runs["base"]
    assert summary.termination_reason == "time-complete"

    e01 = np.array([r.e_k1[0] for r in records])
    assert np.all(e01 <= 4.0 * e01[0])  # pilot: peaks at 1.51x

    shock0 = records[0].shock_indicator
    assert summary.peaks["shock_indicator"] < 3.0 * shock0  # pilot: 1.27x


def test_criterion_7_conduction_dichotomy(dichotomy_runs):
    """Identical 0.3-amplitude data: without conduction the velocity
    gradient blows up; with conduction it never leaves O(initial)."""
    base, shock0, without, with_conduction = dichotomy_runs
    assert shock0 > 0.0

    assert without.t_final <= base.t_end
    assert without.peaks["shock_indicator"] >= 10.0 * shock0  # pilot: 438x

    assert with_conduction.termination_reason == "time-complete"
    assert with_conduction.peaks["shock_indicator"] < 3.0 * shock0  # pilot: 1.18x


def test_criterion_8_dissipation_integrable(small_data_runs):
    """The accumulated squared temperature-gradient integral saturates:
    concave-trending growth with a negligible tail contribution."""
    _, _, records = small_data_runs["base"]
    times = np.array([r.t for r in records])
    grad_sq = np.array([r.grad_theta_sq for r in records])
    accumulated = cumulative_trapezoid(grad_sq, times)
    total = accumulated[-1]
    assert total > 0.0

    cut = np.searchsorted(times, times[0] + 0.8 * (times[-1] - times[0]))
    tail_fraction = (total - accumulated[cut]) / total
    assert tail_fraction < 0.1  # pilot: 8.2e-4

    quarter_marks = [
        np.searchsorted(times, times[0] + q * (times[-1] - times[0]) / 4.0)
        for q in range(5)
    ]
    increments = [
        accumulated[b] - accumulated[a]
        for a, b in zip(quarter_marks, quarter_marks[1:])
    ]
    assert all(
        later < earlier for earlier, later in zip(increments, increments[1:])
    )  # pilot: 2.7e-6, 3.1e-8, 7.5e-9, 3.1e-9


def test_criterion_9_solver_correctness(tmp_path):
    """Dense-oracle agreement of the implicit solve, exact zero fixed
    point, and bit-identical repeat runs through the command line."""
    # implicit conduction vs a dense direct solve on random right-hand sides
    rng = np.random.default_rng(99)
    grid = build_grid(6.0, 150)
    n = grid.n_cells
    area = grid.face_area.copy()
    area[-1] = 0.0
    for trial in range(5):
        a = rng.uniform(-0.4, 0.6, size=n)
        rhs = rng.standard_normal(n)
        dt = float(rng.uniform(0.005, 0.05))
        coeff = 1.0 / ((1.0 + a) * grid.w * grid.dr)
        dense = np.zeros((n, n))
        for i in range(n):
            if i > 0:
                dense[i, i - 1] = coeff[i] * area[i]
            if i < n - 1:
                dense[i, i + 1] = coeff[i] * area[i + 1]
            dense[i, i] = -coeff[i] * (area[i] + area[i + 1])
        expected = np.linalg.solve(np.eye(n) - dt * dense, rhs)
        solved = solve_diffusion(rhs, a, grid, dt)
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(solved - expected)) <= 1e-12 * scale

    # the background is an exact fixed point of the full step
    zero_state = make_initial_state(grid, "zero", 0.0, PhysParams(kappa=1.0))
    stepped, report = step(zero_state, grid, dt=0.01, filter_coeff=0.01)
    assert report.validity.ok
    assert np.array_equal(stepped.a, zero_state.a)
    assert np.array_equal(stepped.u, zero_state.u)
    assert np.array_equal(stepped.theta, zero_state.theta)

    # two consecutive harness runs of one config are bit-identical
    config_path = tmp_path / "repeat.txt"
    config_path.write_text(
        "eps = 1e-3\nkappa = 1.0\nr_max = 12.0\nn_cells = 96\n"
        "t_end = 0.4\ncfl = 0.25\noutput_every = 4\nseed = 7\n"
        "run_id = repeat\n"
    )
    outputs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
        outputs.append((out_dir / "timeseries.csv").read_bytes())
    assert outputs[0] == outputs[1]
