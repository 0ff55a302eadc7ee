"""The lean step: rewritten kernels keep their bytes, and the savings stay.

``check_fields``, ``derivative_array`` and ``flux_divergence`` reduce and
write in place; the ``reference_*`` copies below are their earlier bodies.
Every output has to match bit for bit, NaN and signed zeros included.  The
last tests pin what a step and a run no longer repeat: a step reads the
du/dr and da/dr that the previous step left on its State, a record reads
them too, and a conduction-free run keeps its CFL step on the window
between records.  The final one pins the one place where a step's bytes
may differ from the reference composition: the sign of a NaN born where a
tendency overflows.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from radgas import diagnostics, dynamics, integrator  # noqa: E402
from radgas.config import CRANK_NICOLSON, RunConfig  # noqa: E402
from radgas.diagnostics import DiagnosticsSink  # noqa: E402
from radgas.dynamics import flux_divergence  # noqa: E402
from radgas.grid import MIN_CELLS, build_grid  # noqa: E402
from radgas.operators import EVEN, ODD, derivative_array  # noqa: E402
from radgas.state import (  # noqa: E402
    PhysParams,
    State,
    ValidityReport,
    check_fields,
    make_initial_state,
)
from test_step_reference import reference_step, report_bytes  # noqa: E402


def reference_check_fields(a, u, theta):
    finite = bool(
        np.isfinite(a).all() and np.isfinite(u).all() and np.isfinite(theta).all()
    )
    if finite:
        min_density = float(1.0 + a.min())
        min_temperature = float(1.0 + theta.min())
    else:
        min_density = float("nan")
        min_temperature = float("nan")
    ok = finite and min_density > 0.0 and min_temperature > 0.0
    return ValidityReport(
        ok=ok,
        min_density=min_density,
        min_temperature=min_temperature,
        all_finite=finite,
    )


def reference_derivative_array(values, parity, dr):
    n = values.shape[0]
    out = np.empty(n)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * dr)
    out[0] = (values[1] - parity * values[0]) / (2.0 * dr)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dr)
    return out


def reference_flux_divergence(m, grid):
    n = m.shape[0]
    m_face = np.empty(n + 1)
    m_face[0] = 0.0
    m_face[1:-1] = 0.5 * (m[:-1] + m[1:])
    m_face[-1] = 0.0
    flux = grid.face_area * m_face
    return (flux[1:] - flux[:-1]) / grid.w


SPECIAL = [
    np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0,
    5e-324, -5e-324, 2.2e-308, 1e308, -1e308,
]


@st.composite
def fields(draw, n):
    """A float field of n cells, with special values at edge cells too."""
    values = st.one_of(st.floats(), st.sampled_from(SPECIAL))
    f = draw(arrays(float, n, elements=values))
    cells = st.sampled_from([0, 1, 2, n - 3, n - 2, n - 1])
    for cell in draw(st.lists(cells, max_size=4)):
        f[cell] = draw(st.sampled_from(SPECIAL))
    return f


def bits(x):
    return np.float64(x).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 40).flatmap(lambda n: st.tuples(*[fields(n)] * 3)))
def test_check_fields_gives_the_reference_report(abc):
    a, u, theta = abc
    with np.errstate(all="ignore"):
        new, ref = check_fields(a, u, theta), reference_check_fields(a, u, theta)
    assert (new.ok, new.all_finite) == (ref.ok, ref.all_finite)
    assert bits(new.min_density) == bits(ref.min_density)
    assert bits(new.min_temperature) == bits(ref.min_temperature)


def six_reduction_check_fields(a, u, theta):
    lo, hi = np.minimum.reduce, np.maximum.reduce
    lo_a, lo_theta = float(lo(a)), float(lo(theta))
    finite = all(map(math.isfinite, (lo_a, lo_theta, hi(a), hi(theta), lo(u), hi(u))))
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


@st.composite
def field_rows(draw):
    """a, u and theta as rows of one aligned block, as a step checks them:
    finite values with a few special cells, on n cells (often not a
    multiple of 8, so the rows do not abut)."""
    n = draw(st.integers(1, 40))
    rows = integrator._rows(3, n)
    rows[:] = draw(arrays(float, (3, n), elements=st.floats(-2.0, 2.0)))
    cells = st.tuples(st.integers(0, 2), st.integers(0, n - 1))
    special = st.sampled_from(SPECIAL + [-1.0, -1.0, 1.0])
    for cell in draw(st.lists(cells, max_size=3)):
        rows[cell] = draw(special)
    return rows


@settings(max_examples=500, deadline=None)
@given(field_rows())
def test_two_row_reductions_give_the_six_reduction_report(rows):
    # min(1 + a) reads the same whichever signed zero or NaN a reduction
    # picks: 1 + -0.0 is 1 + 0.0, and a NaN anywhere reports NaN
    with np.errstate(all="ignore"):
        ref = six_reduction_check_fields(*rows)
        for new in (check_fields(*rows, rows), check_fields(*rows)):
            assert (new.ok, new.all_finite) == (ref.ok, ref.all_finite)
            assert bits(new.min_density) == bits(ref.min_density)
            assert bits(new.min_temperature) == bits(ref.min_temperature)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(3, 40).flatmap(fields),
    st.sampled_from([EVEN, ODD]),
    st.one_of(st.floats(1e-300, 1e300), st.sampled_from([5e-324, 0.05, 1.0])),
)
def test_derivative_array_gives_the_reference_bytes(values, parity, dr):
    with np.errstate(all="ignore"):
        new = derivative_array(values, parity, dr)
        ref = reference_derivative_array(values, parity, dr)
    assert new.tobytes() == ref.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(MIN_CELLS, 40).flatmap(lambda n: st.tuples(st.just(n), fields(n))),
    st.floats(0.5, 100.0),
)
def test_flux_divergence_gives_the_reference_bytes(n_m, r_max):
    n, m = n_m
    grid = build_grid(r_max, n)
    with np.errstate(all="ignore"):
        new, ref = flux_divergence(m, grid), reference_flux_divergence(m, grid)
    assert new.tobytes() == ref.tobytes()


def test_a_step_reuses_the_du_dr_of_the_previous_step(monkeypatch):
    # stage 1 reads u and a unchanged by conduction, so after the first step
    # a kappa > 0 step takes 6 derivatives: 1 + 3 in the stages, 2 at the end
    calls = []

    def counted(values, parity, dr, out=None):
        calls.append(values.shape[0])
        return derivative_array(values, parity, dr, out)

    monkeypatch.setattr(integrator, "derivative_array", counted)
    monkeypatch.setattr(dynamics, "derivative_array", counted)
    grid = build_grid(20.0, 200)
    state = make_initial_state(grid, "gaussian-bump", 1e-2, PhysParams(kappa=1.0))
    counts = []
    for _ in range(3):
        calls.clear()
        state, report = integrator.step(state, grid, 0.01, CRANK_NICOLSON, 0.01)
        assert report.validity.ok
        counts.append(len(calls))
    assert counts == [8, 6, 6]


def test_a_step_and_its_record_take_eleven_derivatives(monkeypatch):
    # at K = 2 the record reads du/dr and da/dr from the step's memo and
    # takes a'', u'' and theta' .. theta''': 6 + 5 per step after the first
    calls = []

    def counted(values, parity, dr, out=None):
        calls.append(values.shape[0])
        return derivative_array(values, parity, dr, out)

    for module in (integrator, dynamics, diagnostics):
        monkeypatch.setattr(module, "derivative_array", counted)

    class CountingSink(DiagnosticsSink):
        def __init__(self):
            self.totals = []

        def on_record(self, record):
            self.totals.append(len(calls))

    config = RunConfig(
        eps=1e-3, kappa=1.0, r_max=12.0, n_cells=120, t_end=0.2, output_every=1,
        diffusion_scheme=CRANK_NICOLSON, filter_coeff=0.01, diag_max_k=2,
    )
    sink = CountingSink()
    summary = integrator.run(config, sink)
    assert summary.steps > 5
    # the initial record derives all 3K + 1; the first step takes 8
    assert sink.totals[0] == 7
    per_step = np.diff(sink.totals).tolist()
    assert per_step == [13] + [11] * (summary.steps - 1)


def test_conduction_free_run_keeps_its_cfl_step_on_the_window(monkeypatch):
    # the support stays well inside the mesh, so between records run()
    # never widens the state to the n cells of the mesh
    config = RunConfig(
        eps=1e-3, kappa=0.0, init_family="compact-bump", r_max=24.0, n_cells=240,
        t_end=0.5, output_every=5, diffusion_scheme=CRANK_NICOLSON,
        filter_coeff=0.01,
    )
    lengths = []

    def spy(u, theta, dr, cfl, out=None):
        lengths.append(u.shape[0])
        return dynamics.cfl_dt_arrays(u, theta, dr, cfl, out)

    monkeypatch.setattr(integrator, "cfl_dt", spy)
    summary = integrator.run(config)
    assert summary.termination_reason == "time-complete"
    assert len(lengths) == summary.steps > 20
    assert max(lengths) < config.n_cells


def test_overflow_breach_differs_from_the_reference_only_in_nan_signs():
    # The stages compute f - dt * x where the reference composition forms
    # f + dt * (-x).  The two agree bit for bit unless x is NaN, which a
    # tendency becomes only when it overflows; such a state fails its check,
    # and its NaNs carry the other sign bit.
    grid = build_grid(20.0, 40)
    bump = 1e200 * np.exp(-np.linspace(0.0, 4.0, 40) ** 2)
    state = State(a=bump, u=bump, theta=bump, t=0.0, params=PhysParams(kappa=0.0))
    with np.errstate(all="ignore"):
        new, report = integrator.step(state, grid, 1e-3)
        ref, ref_report = reference_step(state, grid, 1e-3, "backward-euler", 0.0)
    assert not report.validity.ok
    assert report_bytes(report) == report_bytes(ref_report)
    pairs = [(new.a, ref.a), (new.u, ref.u), (new.theta, ref.theta)]
    assert any(np.isnan(f).any() for f, _ in pairs)
    for f, g in pairs:
        assert np.abs(f).tobytes() == np.abs(g).tobytes()
        assert f[~np.isnan(f)].tobytes() == g[~np.isnan(g)].tobytes()
