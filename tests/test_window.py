"""The finite-propagation window of a run.

A step computes every cell of the grid it is given; run() alone cuts a run
to a prefix window and pads it back for records.  Stepped on the first s +
_REACH cells, s being one past the last cell of its input that is not +0.0,
a conduction-free step must give the bytes of the full-mesh composition in
``tests/test_step_reference.py``, breach path included.  The window must be
exactly that wide: one cell narrower gives other bytes.  With conduction a
windowed step counts only if both half-solves certify that the full mesh
gives the same bytes (``tests/test_prefix_certificate.py``).  run() takes
the first step of a kappa > 0 run on the full mesh, because that solve
spreads the initial data hundreds of cells, then keeps the kernels on a
window; a step whose certificate declines (a factor above 1/2, as backward
Euler has on a fine mesh) is redone on the full mesh, which the run keeps.
"""

import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from radgas import integrator  # noqa: E402
from radgas.config import (  # noqa: E402
    BACKWARD_EULER,
    DIFFUSION_SCHEMES,
    MAX_FILTER_COEFF,
    RunConfig,
)
from radgas.diagnostics import ListSink  # noqa: E402
from radgas.dynamics import cfl_dt  # noqa: E402
from radgas.grid import MIN_CELLS, build_grid  # noqa: E402
from radgas.state import PhysParams, State  # noqa: E402
from test_step_reference import (  # noqa: E402
    field_bytes,
    reference_run,
    reference_step,
    report_bytes,
)


@st.composite
def supported_states(draw):
    """(grid, state) with kappa = 0 and data on [0, s), s in {0, ..., n}.

    Cells of the support may hold subnormals and zeros of either sign.  The
    zero tail may hold a few -0.0 cells: the full-mesh update does not map
    every signed zero to +0.0, so the window has to count them as data.
    """
    n = draw(st.integers(MIN_CELLS, 80))
    grid = build_grid(draw(st.floats(1.0, 50.0)), n)
    near_end = st.integers(max(0, n - integrator._REACH - 2), n)
    s = draw(st.one_of(st.integers(0, n), near_end))
    amp = draw(st.sampled_from([1e-3, 0.05, 0.4]))
    values = st.one_of(
        st.floats(-amp, amp),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    )
    a, u, theta = (
        np.concatenate((draw(arrays(float, s, elements=values)), np.zeros(n - s)))
        for _ in range(3)
    )
    if s < n:
        cells = st.tuples(st.sampled_from([a, u, theta]), st.integers(s, n - 1))
        for field, cell in draw(st.lists(cells, max_size=2)):
            field[cell] = -0.0
    return grid, State(a=a, u=u, theta=theta, t=0.0, params=PhysParams(kappa=0.0))


@settings(max_examples=300, deadline=None)
@given(
    supported_states(),
    st.sampled_from(DIFFUSION_SCHEMES),
    st.one_of(st.just(0.0), st.floats(0.0, MAX_FILTER_COEFF)),
    st.floats(0.05, 0.5),
    st.integers(1, 4),
)
def test_window_steps_equal_full_mesh(grid_state, scheme, coeff, cfl, steps):
    # each step runs on the narrowest window run() steps on
    grid, state = grid_state
    n = grid.n_cells
    ref = state
    for _ in range(steps):
        dt = cfl_dt(state, grid, cfl)
        m = min(n, integrator._support(state) + integrator._REACH)
        window = integrator._resize(state, m)
        new, report = integrator.step(
            window, integrator._crop_grid(grid, m), dt, scheme, coeff
        )
        state = integrator._resize(new, n)
        ref, ref_report = reference_step(ref, grid, dt, scheme, coeff)
        assert field_bytes(state) == field_bytes(ref)
        assert report_bytes(report) == report_bytes(ref_report)
        if not report.validity.ok:
            break


@st.composite
def tailed_states(draw):
    """A State whose fields each end in their own run of +0.0 cells (maybe
    none, maybe all), before which they hold any floats, -0.0, NaN and
    subnormals included."""
    n = draw(st.integers(1, 40))
    values = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.sampled_from([0.0, -0.0, np.nan, 5e-324, -5e-324, 2.0**-1030]),
    )
    a, u, theta = (
        np.concatenate((draw(arrays(float, s, elements=values)), np.zeros(n - s)))
        for s in draw(st.lists(st.integers(0, n), min_size=3, max_size=3))
    )
    return State(a=a, u=u, theta=theta, t=0.0, params=PhysParams(kappa=0.0))


def support_reference(state):
    """One past the last index where a, u or theta has nonzero bits."""
    end = 0
    for i in range(state.a.shape[0]):
        cells = (float(f[i]) for f in (state.a, state.u, state.theta))
        if any(struct.pack("<d", x) != bytes(8) for x in cells):
            end = i + 1
    return end


@settings(max_examples=300, deadline=None)
@given(tailed_states())
def test_support_is_one_past_the_last_nonzero_bits(state):
    assert integrator._support(state) == support_reference(state)


def compact_state(n, s, kappa):
    r = np.arange(n, dtype=float)
    bump = np.where(r < s, 1e-3 * (1.0 + r), 0.0)
    return State(a=bump, u=bump, theta=bump, t=0.0, params=PhysParams(kappa=kappa))


def windowed_step_bytes(state, grid, m):
    new, _ = integrator.step(
        integrator._resize(state, m),
        integrator._crop_grid(grid, m),
        0.01,
        filter_coeff=0.01,
    )
    return field_bytes(integrator._resize(new, grid.n_cells))


def test_window_is_tight():
    # support 50: 56 cells give the full mesh's bytes, 55 do not
    grid = build_grid(20.0, 200)
    state = compact_state(200, 50, 0.0)
    ref, _ = reference_step(state, grid, 0.01, BACKWARD_EULER, 0.01)
    assert windowed_step_bytes(state, grid, 50 + integrator._REACH) == field_bytes(ref)
    assert windowed_step_bytes(state, grid, 55) != field_bytes(ref)


def spy_kernels(monkeypatch):
    """Cell counts that convective_rhs and the filter are called on."""
    lengths = []

    def spy(kernel):
        def call(a, *args):
            lengths.append(a.shape[0])
            return kernel(a, *args)

        return call

    monkeypatch.setattr(integrator, "convective_rhs", spy(integrator.convective_rhs))
    monkeypatch.setattr(
        integrator,
        "_fourth_difference_filter",
        spy(integrator._fourth_difference_filter),
    )
    return lengths


def window_config(kappa, **values):
    # the first conduction solve spreads data of 1e-3 over about 800 cells
    return RunConfig(**{
        **dict(eps=1e-3, kappa=kappa, r_max=240.0, n_cells=2400, t_end=0.5,
               init_family="compact-bump", output_every=5, filter_coeff=0.01),
        **values,
    })


@pytest.mark.parametrize("slack", range(5))
def test_run_bytes_do_not_depend_on_the_slack(monkeypatch, slack):
    # _SLACK only sets how often run() recuts.  A filtered step widens the
    # support by four cells, so with 3 spare cells the first step's result
    # ends in five +0.0 cells: one short of _REACH, and run() must recut
    monkeypatch.setattr(integrator, "_SLACK", slack)
    config = window_config(0.0)
    sink = ListSink()
    summary = integrator.run(config, sink)
    records, steps, reason, _, t_final, _ = reference_run(config)
    assert (summary.termination_reason, summary.steps) == (reason, steps)
    assert summary.t_final == t_final
    assert sink.records == records


@pytest.mark.parametrize("kappa", [0.0, 1.0])
def test_run_keeps_the_kernels_on_the_window(monkeypatch, kappa):
    # the support stays far from the wall, so the steps run on a prefix
    # window: at kappa > 0 every step after the first, whose conduction
    # solve spreads the data, and the windowed steps' solves certify them
    lengths = spy_kernels(monkeypatch)
    config = window_config(kappa)
    summary = integrator.run(config)
    assert summary.termination_reason == "time-complete"
    assert len(lengths) == 3 * summary.steps > 3
    first = 3 if kappa > 0.0 else 0
    assert lengths[:first] == [config.n_cells] * first
    assert max(lengths[first:]) < config.n_cells


def test_a_declined_window_leaves_the_full_mesh_for_good(monkeypatch):
    # backward Euler at this cell width has tail factors of 0.59: the
    # second step, on the window cut after the first, cannot certify its
    # solves and is redone on the full mesh, where the run stays; its bytes
    # are the full-mesh reference loop's
    lengths = spy_kernels(monkeypatch)
    config = window_config(1.0, r_max=60.0, diffusion_scheme=BACKWARD_EULER)
    sink = ListSink()
    summary = integrator.run(config, sink)
    n = config.n_cells
    assert len(lengths) == 3 * summary.steps + 3
    windowed = [cells < n for cells in lengths[:9]]
    assert windowed == [False] * 3 + [True] * 3 + [False] * 3
    assert set(lengths[6:]) == {n}
    records, steps, reason, peaks, t_final, _ = reference_run(config)
    assert (summary.termination_reason, summary.steps) == (reason, steps)
    assert (summary.t_final, summary.peaks) == (t_final, peaks)
    assert sink.records == records


def test_step_computes_every_cell_it_is_given(monkeypatch):
    # a direct kappa = 0 step on a full mesh with a long zero tail cuts
    # nothing: the window is run()'s to choose
    lengths = spy_kernels(monkeypatch)
    grid = build_grid(20.0, 200)
    state = compact_state(200, 50, 0.0)
    new, report = integrator.step(state, grid, 0.01, filter_coeff=0.01)
    assert report.validity.ok
    assert lengths == [200] * 3
    assert new.a.shape == (200,)
