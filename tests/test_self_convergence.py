"""Self-convergence of the full nonlinear step on a mesh ladder.

The exact-mode oracle (test_exact_mode.py) linearises about the background,
so it cannot see the quadratic terms, the kappa = 0 path or the filter.
Here compact-bump data at eps = 0.1 runs to t = 1 on n = 60 .. 960 cells
with dt proportional to dr, and each level is compared with the next finer
one.  Two choices matter (Roache, J. Fluids Eng. 124, 2002):

- the fine level is coarsened by the plain mean of each cell pair, which
  samples at the coarse centre to O(dr^2); an r^2-weighted mean shifts the
  sample point by O(dr) next to the origin and shows order 1 on correct code;
- the error is the sup norm of (a, u, theta) over r < R/2, because the
  r^2-weighted L2 norm hides a one-cell defect at the origin.

By t = 1 the data has not reached r = R/2, so the wall does not enter.
"""

import math

import numpy as np
import pytest

from radgas import dynamics
from radgas.config import BACKWARD_EULER, CRANK_NICOLSON
from radgas.grid import build_grid
from radgas.integrator import step
from radgas.operators import EVEN
from radgas.state import PhysParams, make_initial_state

R_MAX = 12.0
EPS = 0.1
T_END = 1.0
LADDER = (60, 120, 240, 480, 960)


def solve(n, kappa, scheme, filter_coeff):
    grid = build_grid(R_MAX, n)
    state = make_initial_state(grid, "compact-bump", EPS, PhysParams(kappa=kappa))
    n_steps = math.ceil(T_END / (0.2 * grid.dr / math.sqrt(2.0 * (1.0 + EPS))))
    for _ in range(n_steps):
        state, report = step(state, grid, T_END / n_steps, scheme, filter_coeff)
        assert report.validity.ok
    return grid, (state.a, state.u, state.theta)


def sup_errors(kappa, scheme, filter_coeff):
    """Sup-norm difference of each level from the next finer one, r < R/2."""
    levels = [solve(n, kappa, scheme, filter_coeff) for n in LADDER]
    errors = []
    for (grid, coarse), (_, fine) in zip(levels, levels[1:]):
        inner = grid.r < R_MAX / 2
        errors.append(
            max(
                float(np.max(np.abs(c - 0.5 * (f[0::2] + f[1::2]))[inner]))
                for c, f in zip(coarse, fine)
            )
        )
    return errors


def assert_order(errors, min_order):
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert min(orders) >= min_order, f"order {orders} below {min_order}: {errors}"


@pytest.mark.parametrize(
    "kappa, scheme, filter_coeff, min_order",
    [
        (1.0, CRANK_NICOLSON, 0.0, 1.8),
        (1.0, BACKWARD_EULER, 0.0, 1.0),
        (1.0, CRANK_NICOLSON, 0.01, 1.8),
        (0.0, CRANK_NICOLSON, 0.01, 1.8),
        pytest.param(
            0.0,
            CRANK_NICOLSON,
            0.0,
            1.8,
            marks=pytest.mark.xfail(
                strict=True,
                reason="unfiltered kappa = 0 grows a grid-scale theta mode at "
                "the origin cell: order 0.23 at the finest pair",
            ),
        ),
    ],
)
def test_nonlinear_step_self_converges(kappa, scheme, filter_coeff, min_order):
    assert_order(sup_errors(kappa, scheme, filter_coeff), min_order)


def test_the_ladder_sees_a_wrong_origin_ghost(monkeypatch):
    # give u the even origin ghost inside the convective right-hand side
    kernel = dynamics.derivative_array
    monkeypatch.setattr(
        dynamics, "derivative_array", lambda v, parity, dr: kernel(v, EVEN, dr)
    )
    with pytest.raises(AssertionError, match="order"):
        assert_order(sup_errors(1.0, CRANK_NICOLSON, 0.0), 1.8)
