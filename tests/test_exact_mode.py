"""Convergence of the step to an exact linear mode of the closed ball.

Linearised about the background, the system is a_t = -div u,
u_t = -(a + theta)_r and theta_t = -div u + kappa lap theta.  With j1(kR) = 0
it has the standing modes

    a = A j0(kr) e^{lt},  u = -(l A / k) j1(kr) e^{lt},
    theta = l A / (l + kappa k^2) j0(kr) e^{lt},

where l solves l^3 + kappa k^2 l^2 + 2 k^2 l + kappa k^4 = 0.  They satisfy
the solver's wall exactly (u = 0, a_r = theta_r = 0 at r = R), so the only
error left is the scheme's.  The real part of the complex (acoustic) root's
mode is a real solution; at eps = 1e-7 the nonlinear terms are negligible.
For kappa > 0 every root has a negative real part, the linear face of the
dissipation behind global existence.
"""

import math

import numpy as np
import pytest
from scipy.special import spherical_jn

from radgas.config import BACKWARD_EULER, CRANK_NICOLSON
from radgas.grid import build_grid
from radgas.integrator import step
from radgas.state import PhysParams, State

R_MAX = 12.0
K_R = 7.725251836937707  # the second positive zero of j1
EPS = 1e-7
T_END = 3.0
KAPPA = 1.0
LADDER = (60, 120, 240, 480)


def acoustic_root(kappa, k):
    roots = np.roots([1.0, kappa * k**2, 2.0 * k**2, kappa * k**4])
    return roots[np.argmax(roots.imag)]


def mode(grid, t, kappa):
    """(a, u, theta) of the exact mode at time t on the cell centres."""
    k = K_R / R_MAX
    lam = acoustic_root(kappa, k)
    growth = EPS * np.exp(lam * t)
    j0 = spherical_jn(0, k * grid.r)
    j1 = spherical_jn(1, k * grid.r)
    a = (growth * j0).real
    u = (-(lam / k) * growth * j1).real
    theta = (lam / (lam + kappa * k**2) * growth * j0).real
    return a, u, theta


def relative_error(n, scheme):
    grid = build_grid(R_MAX, n)
    a, u, theta = mode(grid, 0.0, KAPPA)
    state = State(a=a, u=u, theta=theta, t=0.0, params=PhysParams(kappa=KAPPA))
    n_steps = math.ceil(T_END / (0.2 * grid.dr / math.sqrt(2.0)))
    dt = T_END / n_steps
    for _ in range(n_steps):
        state, report = step(state, grid, dt, scheme=scheme)
        assert report.validity.ok
    exact = mode(grid, T_END, KAPPA)
    fields = (state.a, state.u, state.theta)
    err = sum(grid.w @ (f - g) ** 2 for f, g in zip(fields, exact))
    norm = sum(grid.w @ g**2 for g in exact)
    return math.sqrt(err / norm)


def test_the_root_decays_and_oscillates():
    k = K_R / R_MAX
    lam = acoustic_root(KAPPA, k)
    assert abs(lam**3 + KAPPA * k**2 * lam**2 + 2 * k**2 * lam + KAPPA * k**4) < 1e-12
    assert lam.real < 0.0 < lam.imag
    assert abs(spherical_jn(1, K_R)) < 1e-15


@pytest.mark.parametrize(
    "scheme, min_order", [(CRANK_NICOLSON, 1.8), (BACKWARD_EULER, 1.0)]
)
def test_unfiltered_step_converges_to_the_mode(scheme, min_order):
    errors = [relative_error(n, scheme) for n in LADDER]
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert errors[-1] < 2e-4, errors
    assert min(orders) >= min_order, (errors, orders)
