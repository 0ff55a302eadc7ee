"""The paper's dichotomy on drawn small data.

The paper proves global classical solutions for radial small data of the
heat-conducting gas.  With conduction every mode is diffusive at low
frequency, so the Lyapunov functional L decays; without it the energy is
conserved, and the scheme's own dissipation takes only a little.  Criteria
2, 6 and 8 check this on preset data; here the data is drawn.

a and theta are even and u is odd; each is a sum of one to three Gaussians
of random sign, mirrored with the field's parity, with centres in [0, 6]
and widths in [0.7, 2.5], and the three are scaled together so that the
largest of |a|, |u| and |theta| is eps.  eps = 10**x and kappa = 2**y with
x drawn from [-4, -2] and y from [-1, 1].  Each data set is stepped to t = 15 at
kappa and at kappa = 0 with the public ``step`` and ``cfl_dt`` (n = 400,
r_max = 40, Crank-Nicolson, filter 0.01, cfl 0.25): with conduction the
guard band passes run()'s contact threshold, which watches for a front, not
for the conduction tail.

Measured over 100 random draws and 100 of Hypothesis's:
- L(15)/L(0) lay in [0.002, 0.517] with conduction, hence the bound 0.6.
- Without conduction it lay in [0.975, 0.999] on the random draws, but
  Hypothesis's edge draw, bumps 7 cells wide at the origin, keeps only
  0.797, and 0.951 with n = 800: the scheme's loss on data the mesh
  barely resolves.  So the test bounds the kappa = 0 loss by a quarter of
  the loss with conduction (at most 0.204 of it measured), not by 0.97.
- max(|a|, |theta|) stayed within 5.8 eps, mass changed by about 1e-12 eps
  at most, and no run breached.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from radgas import (  # noqa: E402
    CRANK_NICOLSON,
    EVEN,
    ODD,
    DiagnosticsCollector,
    PhysParams,
    State,
    build_grid,
    cfl_dt,
    step,
)

GRID = build_grid(40.0, 400)

bumps = st.lists(
    st.tuples(st.floats(0.0, 6.0), st.floats(0.7, 2.5), st.sampled_from((-1.0, 1.0))),
    min_size=1,
    max_size=3,
)


def shape(terms, parity):
    """Unit Gaussians of the given signs, each mirrored with ``parity``."""
    r, f = GRID.r, np.zeros(GRID.n_cells)
    for centre, width, sign in terms:
        bump = np.exp(-(((r - centre) / width) ** 2))
        f += sign * (bump + parity * np.exp(-(((r + centre) / width) ** 2)))
    return f


def evolve(fields, kappa, t_end=15.0):
    """(L(t_end) / L(0), max |a| and |theta| over the run, mass change)."""
    state = State(*fields, t=0.0, params=PhysParams(kappa=kappa))
    collector = DiagnosticsCollector(GRID, 0)
    first = collector.update(state)
    top = float(np.max(np.abs(state.rows[::2])))
    while state.t < t_end:
        dt = min(cfl_dt(state, GRID, 0.25), t_end - state.t)
        state, report = step(state, GRID, dt, CRANK_NICOLSON, 0.01)
        assert report.validity.ok
        top = max(top, float(np.max(np.abs(state.rows[::2]))))
    last = collector.update(state)
    return last.lyapunov / first.lyapunov, top, last.mass - first.mass


@settings(max_examples=8, derandomize=True, deadline=None)
@given(st.floats(-4.0, -2.0), st.floats(-1.0, 1.0), bumps, bumps, bumps)
def test_drawn_small_data_decays_with_conduction_only(log_eps, log_kappa, a, u, theta):
    shapes = np.stack([shape(t, p) for t, p in ((a, EVEN), (u, ODD), (theta, EVEN))])
    size = float(np.max(np.abs(shapes)))
    assume(size > 0.0)  # bumps can cancel exactly
    eps, kappa = 10.0**log_eps, 2.0**log_kappa
    fields = shapes * (eps / size)
    heated, top_heated, dmass_heated = evolve(fields, kappa)
    inviscid, top_inviscid, dmass_inviscid = evolve(fields, 0.0)
    # without conduction only the scheme's dissipation takes L, and it
    # takes at most a quarter of what conduction does
    assert heated <= 0.6 and 1.0 - inviscid <= 0.25 * (1.0 - heated)
    assert max(top_heated, top_inviscid) <= 8.0 * eps
    assert max(abs(dmass_heated), abs(dmass_inviscid)) <= 1e-10 * eps
