"""Property tests of the structural identities over random inputs.

The parity ghost of the derivative kernel, the telescoping w-weighted sums
of the mass flux divergence and of the filter's density update, and the
background as an exact fixed point of the step.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from radgas.config import DIFFUSION_SCHEMES, MAX_FILTER_COEFF  # noqa: E402
from radgas.dynamics import flux_divergence  # noqa: E402
from radgas.grid import MIN_CELLS, build_grid  # noqa: E402
from radgas.integrator import _fourth_difference_filter, step  # noqa: E402
from radgas.operators import EVEN, ODD, derivative_array  # noqa: E402
from radgas.state import PhysParams, make_initial_state  # noqa: E402

EPS = np.finfo(float).eps
#: The smallest subnormal, 2**-1074.  In the underflow range a rounded
#: operation is fl(x op y) = (x op y)(1 + d) + e with |e| <= 2**-1075
#: (Higham, Accuracy and Stability of Numerical Algorithms, section 2.1);
#: no multiple of eps times the result bounds e.
TINY = np.finfo(float).smallest_subnormal
VALUES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def profiles(draw):
    """(grid, values) for a random mesh and a random cell-centered profile."""
    n = draw(st.integers(MIN_CELLS, 200))
    r_max = draw(st.floats(0.5, 100.0))
    return build_grid(r_max, n), draw(arrays(float, n, elements=VALUES))


@settings(max_examples=200, deadline=None)
@given(profiles(), st.sampled_from([EVEN, ODD]))
def test_derivative_origin_cell_uses_the_mirrored_ghost(profile, parity):
    grid, f = profile
    ghost = f[0] if parity == EVEN else -f[0]
    df = derivative_array(f, parity, grid.dr)
    assert df[0] == (f[1] - ghost) / (2.0 * grid.dr)
    central = (f[2:] - f[:-2]) / (2.0 * grid.dr)
    assert df[1:-1].tobytes() == central.tobytes()


def underflow_slack(n, *factors):
    """Absolute error allowance of an n-term sum whose terms each take up
    to four underflow errors e, each magnified by at most 1 + the largest
    grid factor the term passes through."""
    scale = 1.0 + sum(float(np.max(np.abs(f))) for f in factors)
    return (2.0 * n * scale) * TINY


#: Here |sum| is 1.5e-323 while 64 eps sum|terms| underflows to 0.
SUBNORMAL_PROFILE = (build_grid(2.0, 8), np.full(8, 2.22507386e-313))


@settings(max_examples=200, deadline=None)
@given(profiles())
@example(SUBNORMAL_PROFILE)
def test_flux_divergence_weighted_sum_vanishes(profile):
    grid, m = profile
    terms = grid.w * flux_divergence(m, grid)
    bound = 64 * EPS * float(np.sum(np.abs(terms))) + underflow_slack(
        grid.n_cells, grid.face_area, grid.w
    )
    assert abs(float(np.sum(terms))) <= bound


@settings(max_examples=200, deadline=None)
@given(profiles(), st.floats(0.0, MAX_FILTER_COEFF))
@example(SUBNORMAL_PROFILE, 0.01)
def test_filter_density_update_weighted_sum_vanishes(profile, coeff):
    grid, a = profile
    zero = np.zeros_like(a)
    a_new, _, _ = _fourth_difference_filter(a, zero, zero, grid, coeff)
    terms = grid.w * (a_new - a)
    bound = 64 * EPS * (
        float(np.sum(np.abs(terms))) + float(grid.w @ np.abs(a))
    ) + underflow_slack(grid.n_cells, grid.face_area * grid.dr, grid.w)
    assert abs(float(np.sum(terms))) <= bound


@settings(max_examples=60, deadline=None)
@given(
    st.integers(MIN_CELLS, 200),
    st.floats(0.0, 10.0),
    st.sampled_from(DIFFUSION_SCHEMES),
    st.floats(0.0, MAX_FILTER_COEFF),
    st.floats(1e-4, 1.0),
)
def test_zero_state_is_an_exact_fixed_point(n, kappa, scheme, coeff, dt):
    grid = build_grid(10.0, n)
    state = make_initial_state(grid, "zero", 0.0, PhysParams(kappa=kappa))
    new, report = step(state, grid, dt, scheme=scheme, filter_coeff=coeff)
    assert report.validity.ok
    assert report.implicit_solve_residual == 0.0
    for name in ("a", "u", "theta"):
        assert np.array_equal(getattr(new, name), getattr(state, name))
