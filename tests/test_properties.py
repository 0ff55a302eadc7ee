"""Property tests of the structural identities over random inputs.

The parity ghost of the derivative kernel, the telescoping w-weighted sums
of the mass flux divergence, of the filter's density update and of the
conduction solve's (1 + a) theta, the conduction solve's dominance
precondition against the row-by-row guards it replaced, the background as
an exact fixed point of the step, and a written config parsing back to
itself.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

pytest.importorskip("hypothesis")
from hypothesis import assume, event, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from radgas import integrator  # noqa: E402
from radgas.config import (  # noqa: E402
    BACKWARD_EULER,
    DIFFUSION_SCHEMES,
    MAX_FILTER_COEFF,
    ConfigError,
    RunConfig,
    parse_config,
)
from radgas.diagnostics import MAX_DIAG_ORDER  # noqa: E402
from radgas.dynamics import flux_divergence  # noqa: E402
from radgas.grid import MIN_CELLS, build_grid  # noqa: E402
from radgas.integrator import (  # noqa: E402
    _diffusion_solve_arrays,
    _fourth_difference_filter,
    step,
)
from radgas.operators import EVEN, ODD, derivative_array  # noqa: E402
from radgas.state import INIT_FAMILIES, PhysParams, make_initial_state  # noqa: E402
from radgas.tridiag import tridiagonal_solve  # noqa: E402
from test_step_reference import _apply_tridiagonal, conduction_rows  # noqa: E402

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
    n = grid.n_cells
    out = [np.empty(k) for k in (n, n, n, n + 4, n + 4, n + 1)]
    a_new, _, _ = _fourth_difference_filter(a, zero, zero, grid, coeff, out)
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
    for name in ("a", "u", "theta"):
        assert np.array_equal(getattr(new, name), getattr(state, name))


@st.composite
def conduction_inputs(draw):
    """(grid, a, theta) with 1 + a > 0, the precondition of the solve."""
    grid, theta = draw(profiles())
    a = draw(arrays(float, grid.n_cells, elements=st.floats(-0.9, 10.0)))
    return grid, a, theta


@settings(max_examples=200, deadline=None)
@given(
    conduction_inputs(),
    st.floats(1e-6, 1.0),
    st.floats(1e-3, 10.0),
    st.sampled_from(DIFFUSION_SCHEMES),
)
def test_conduction_keeps_the_weighted_heat_content(inputs, dt, kappa, scheme):
    # sum w (1+a) M x telescopes over the faces, so the solve keeps
    # sum w (1+a) theta up to rounding and its own residual
    grid, a, theta = inputs
    systems = []

    def spy(lower, diag, upper, b, overwrite=False):
        # copies: the conduction solve lets dgtsv overwrite its system
        systems.append(tuple(x.copy() for x in (lower, diag, upper, b)))
        return tridiagonal_solve(lower, diag, upper, b, overwrite)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrator, "tridiagonal_solve", spy)
        theta_new, _ = _diffusion_solve_arrays(theta, a, grid, dt, kappa, scheme)
    [(lower, diag, upper, rhs)] = systems
    ax = _apply_tridiagonal(lower, diag, upper, theta_new)
    weight = grid.w * (1.0 + a)
    conductance = dt * kappa * grid.face_area / grid.dr

    def flux_size(x):
        # sum_i |w_i (1+a_i) dt (M x)_i|: each interior face enters two rows
        inner = conductance[1:-1] * (np.abs(x[1:]) + np.abs(x[:-1]))
        return 2.0 * float(np.sum(inner))

    size = sum(float(weight @ np.abs(x)) + flux_size(x) for x in (theta, theta_new))
    solve_error = float(np.max(np.abs(ax - rhs)))
    bound = (
        64 * EPS * size
        + float(np.sum(weight)) * solve_error
        + underflow_slack(grid.n_cells, weight, conductance)
    )
    change = float(np.sum(weight * theta_new)) - float(np.sum(weight * theta))
    assert abs(change) <= bound


def row_guard_route(theta_star, a, grid, dt, kappa, scheme):
    """The conduction half-solve as it was guarded before the scalar
    precondition: the wall's face area zeroed in a copy, then the
    row-by-row dominance and finiteness checks ahead of dgtsv."""
    m_lower, m_diag, m_upper = conduction_rows(a, grid, kappa)
    if scheme == BACKWARD_EULER:
        weight, rhs = dt, theta_star
    else:
        weight = 0.5 * dt
        m_theta = _apply_tridiagonal(m_lower, m_diag, m_upper, theta_star)
        rhs = theta_star + 0.5 * dt * m_theta
    lower, diag, upper = -weight * m_lower, 1.0 - weight * m_diag, -weight * m_upper
    slack = np.abs(diag) - (np.abs(lower) + np.abs(upper))
    if not np.all(slack > 0.0):
        raise ValueError("tridiagonal system lost diagonal dominance")
    if not (np.isfinite(slack).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    if diag.shape[0] == 1:
        return rhs / diag
    _, _, _, x, info = dgtsv(lower[1:], diag, upper[:-1], rhs)
    if info != 0:
        raise LinAlgError("singular matrix")
    return x


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


#: dt and kappa: moderate, anywhere up to 1e300, or in the range where on
#: a moderate mesh weight * (m_lower + m_upper) nears 2**53, the size at
#: which the 1 on the diagonal is lost to rounding.
SCALES = st.one_of(
    st.floats(1e-6, 10.0), log_uniform(1e-6, 1e300), log_uniform(1e11, 1e18)
)


@st.composite
def extreme_conduction_inputs(draw):
    """(grid, a, theta) with 1 + a drawn from [1e-300, 1e3]; below 2**-53
    it rounds to 0, where both routes must raise."""
    grid, theta = draw(profiles())
    density = draw(st.sampled_from([st.floats(0.1, 1e3), log_uniform(1e-300, 1e3)]))
    one_plus_a = draw(arrays(float, grid.n_cells, elements=density))
    return grid, one_plus_a - 1.0, theta


#: On this mesh with a = 0 a backward-Euler half-solve of kappa = 1 has
#: weight * max(m_lower + m_upper) = 2**48 at dt = 5864062014805.332, the
#: edge of the precondition, and 2**51 at dt = 46912496118442.66, where
#: only the row-by-row guards let it through.
EDGE_MESH = (build_grid(2.0, 8), np.zeros(8), np.linspace(-1.0, 1.0, 8))


def solved_or_none(fn, *args):
    with np.errstate(all="ignore"):
        try:
            return fn(*args)
        except (ValueError, LinAlgError):
            return None


@settings(max_examples=300, deadline=None)
@given(extreme_conduction_inputs(), SCALES, SCALES, st.sampled_from(DIFFUSION_SCHEMES))
@example(EDGE_MESH, 5864062014805.332, 1.0, BACKWARD_EULER)
@example(EDGE_MESH, 46912496118442.66, 1.0, BACKWARD_EULER)
def test_conduction_precondition_is_at_least_as_strict(inputs, dt, kappa, scheme):
    # where the scalar precondition lets a solve through, the row-by-row
    # guards pass too and dgtsv gets the same bytes; so it raises on every
    # input where they raise
    grid, a, theta = inputs
    args = (theta, a, grid, dt, kappa, scheme)
    new = solved_or_none(lambda *args: _diffusion_solve_arrays(*args)[0], *args)
    old = solved_or_none(row_guard_route, *args)
    if new is None:
        event("raises" if old is None else "only the row-by-row guards pass")
    else:
        assert old is not None
        assert new.tobytes() == old.tobytes()


@st.composite
def run_configs(draw):
    """A random RunConfig that validates."""
    config = RunConfig(
        eps=draw(st.floats(0.0, 1.0, exclude_max=True)),
        kappa=draw(st.floats(0.0, 1e6)),
        r_max=1.0,
        n_cells=draw(st.integers(MIN_CELLS, 10**6)),
        t_end=draw(st.floats(1e-6, 1e3)),
        init_family=draw(st.sampled_from(INIT_FAMILIES)),
        cfl=draw(st.floats(0.0, 1.0, exclude_min=True)),
        output_every=draw(st.integers(1, 10**6)),
        diffusion_scheme=draw(st.sampled_from(DIFFUSION_SCHEMES)),
        filter_coeff=draw(st.floats(0.0, MAX_FILTER_COEFF)),
        diag_max_k=draw(st.integers(0, MAX_DIAG_ORDER)),
        seed=draw(st.integers()),
        run_id=draw(st.text(min_size=1)),
    )
    bound = config.contact_bound()
    config = dataclasses.replace(config, r_max=draw(st.floats(bound, 2.0 * bound)))
    try:
        config.validate()
    except ConfigError:
        assume(False)
    return config


@settings(max_examples=300, deadline=None)
@given(run_configs())
def test_parse_config_round_trips_a_written_config(config):
    lines = []
    for field in dataclasses.fields(RunConfig):
        value = getattr(config, field.name)
        text = value if isinstance(value, str) else repr(value)
        lines.append(f"{field.name} = {text}")
    assert parse_config("\n".join(lines)) == config
