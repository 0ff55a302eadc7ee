"""The finite-propagation window of a conduction-free step.

With kappa = 0 a step computes only the first s + 6 cells (all n cells when
that would leave out at most 16), s being one past the last cell of its
input that is not +0.0.  It must give the
bytes of the full-mesh composition in ``tests/test_step_reference.py``,
breach path included, and the window must be exactly that wide: no
narrower at kappa = 0 (wrong bytes) and not used at kappa > 0.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from radgas import integrator  # noqa: E402
from radgas.config import DIFFUSION_SCHEMES, MAX_FILTER_COEFF  # noqa: E402
from radgas.dynamics import cfl_dt  # noqa: E402
from radgas.grid import MIN_CELLS, build_grid  # noqa: E402
from radgas.state import PhysParams, State  # noqa: E402
from test_step_reference import (  # noqa: E402
    field_bytes,
    reference_step,
    report_bytes,
)

#: Cells a conduction-free step reaches beyond the support of its input.
REACH = 6


@st.composite
def supported_states(draw):
    """(grid, state) with kappa = 0 and data on [0, s), s in {0, ..., n}.

    Cells of the support may hold subnormals and zeros of either sign.  The
    zero tail may hold a few -0.0 cells: the full-mesh update does not map
    every signed zero to +0.0, so the window has to count them as data.
    """
    n = draw(st.integers(MIN_CELLS, 80))
    grid = build_grid(draw(st.floats(1.0, 50.0)), n)
    s = draw(st.one_of(st.integers(0, n), st.integers(max(0, n - REACH - 2), n)))
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
    grid, state = grid_state
    ref = state
    for _ in range(steps):
        dt = cfl_dt(state, grid, cfl)
        state, report = integrator.step(state, grid, dt, scheme, coeff)
        ref, ref_report = reference_step(ref, grid, dt, scheme, coeff)
        assert field_bytes(state) == field_bytes(ref)
        assert report_bytes(report) == report_bytes(ref_report)
        if not report.validity.ok:
            break


def compact_state(n, s, kappa):
    r = np.arange(n, dtype=float)
    bump = np.where(r < s, 1e-3 * (1.0 + r), 0.0)
    return State(a=bump, u=bump, theta=bump, t=0.0, params=PhysParams(kappa=kappa))


@pytest.mark.parametrize(
    "kappa, s, expected",
    [
        (0.0, 50, 50 + REACH),
        (0.0, 0, REACH),
        (0.0, 195, 200),
        (0.0, 177, 177 + REACH),  # cuts off 17 cells
        (0.0, 178, 200),  # would cut off 16 cells: not worth a cut
        (1.0, 50, 200),
    ],
)
def test_kernels_see_the_window(monkeypatch, kappa, s, expected):
    # kappa = 0: the kernels run on min(n, s + REACH) cells; kappa > 0: the
    # implicit half-solve reaches every cell, so they run on the full mesh
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
    grid = build_grid(20.0, 200)
    state = compact_state(200, s, kappa)
    new, report = integrator.step(state, grid, 0.01, filter_coeff=0.01)
    assert report.validity.ok
    assert lengths == [expected] * 3
    assert new.a.shape == (200,)

