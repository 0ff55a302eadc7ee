"""An outgoing shell that breaks without conduction and stays smooth with it.

Criterion 7's kappa = 0 blow-up is the origin grid mode, so this is the
suite's contrast against a real shock.  The shell is a simple wave:
a = theta = 0.3 exp(-((r - 15)/1.5)^2) and u = 2(sqrt(2(1 + theta)) -
sqrt(2)), which makes the incoming Riemann invariant constant, so the
shell travels outward and steepens (Lax 1964; John 1974; Sideris 1985).

Without conduction the time at which max |du/dr| first passes three times
its initial value converges under refinement, and the peak by t = 8 doubles
with n: a discontinuity held at grid scale.  With kappa = 1 the gradient
never grows much past its initial value.  The state is stepped with the
public ``step`` and ``cfl_dt`` on the full mesh (measured: onsets 2.601,
2.487, 2.459 at n = 1400, 2800, 5600, order 2.06; peaks 2.71, 5.48,
10.50; kappa = 1 peaks 1.046 times the initial value).
"""

import math

import numpy as np
import pytest

from radgas import (
    BACKWARD_EULER,
    CRANK_NICOLSON,
    ODD,
    PhysParams,
    State,
    build_grid,
    cfl_dt,
    step,
)
from radgas.operators import derivative_array


def shell_run(n, kappa, t_end, scheme=CRANK_NICOLSON, coeff=0.01):
    """(onset, peak, initial) max |du/dr| of the shell stepped to t_end; the
    onset is the first t with max |du/dr| above three times the initial."""
    grid = build_grid(56.0, n)
    theta = 0.3 * np.exp(-(((grid.r - 15.0) / 1.5) ** 2))
    u = 2.0 * (np.sqrt(2.0 * (1.0 + theta)) - math.sqrt(2.0))
    state = State(a=theta, u=u, theta=theta, t=0.0, params=PhysParams(kappa=kappa))
    initial = float(np.max(np.abs(derivative_array(u, ODD, grid.dr))))
    onset, peak = None, initial
    while state.t < t_end:
        dt = min(cfl_dt(state, grid, 0.4), t_end - state.t)
        state, report = step(state, grid, dt, scheme, coeff)
        assert report.validity.ok
        peak = max(peak, report.max_abs_du_dr)
        if onset is None and peak > 3.0 * initial:
            onset = state.t
    return onset, peak, initial


def test_without_conduction_the_shell_breaks_at_a_converging_time():
    runs = [shell_run(n, 0.0, 8.0) for n in (1400, 2800, 5600)]
    (t1, p1, _), (t2, p2, _), (t3, p3, _) = runs
    assert None not in (t1, t2, t3)
    # successive differences shrink by 2**order per doubling
    assert (t1 - t2) > 0.0 and (t2 - t3) > 0.0
    assert math.log2((t1 - t2) / (t2 - t3)) >= 1.0
    # a jump held at grid scale: the peak gradient doubles with n
    assert p2 >= 1.8 * p1 and p3 >= 1.8 * p2


@pytest.mark.parametrize(
    "scheme, coeff", [(CRANK_NICOLSON, 0.01), (BACKWARD_EULER, 0.0)]
)
def test_with_conduction_the_shell_stays_smooth(scheme, coeff):
    onset, peak, initial = shell_run(1400, 1.0, 10.0, scheme, coeff)
    assert onset is None and peak < 1.5 * initial
