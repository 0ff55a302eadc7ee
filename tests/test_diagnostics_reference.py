"""The one-pass diagnostics record against the per-function composition.

``ReferenceCollector`` below is the record as it was composed before the
single pass: four separate functionals with their own formulas, each
taking its own derivatives and validity checks, and a Sobolev accumulator
that builds a and u to order K+1 and theta to order K+2 and norms every
chain entry where it is read.  The collector must do the same
floating-point operations in the same order, so every record field has to
come out equal, for every diagnostics order K.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from radgas import diagnostics  # noqa: E402
from radgas.config import CRANK_NICOLSON  # noqa: E402
from radgas.diagnostics import (  # noqa: E402
    MAX_DIAG_ORDER,
    DiagnosticsCollector,
    DiagnosticsRecord,
)
from radgas.dynamics import cfl_dt  # noqa: E402
from radgas.grid import MIN_CELLS, build_grid  # noqa: E402
from radgas.integrator import step  # noqa: E402
from radgas.operators import EVEN, ODD, derivative_array  # noqa: E402
from radgas.state import PhysParams, State, make_initial_state, validate  # noqa: E402

ORDERS = range(MAX_DIAG_ORDER + 1)

# ---------------------------------------------------------------------------
# The reference composition.


def reference_conserved(state, grid):
    w, a, u, theta = grid.w, state.a, state.u, state.theta
    mass = float(w @ a)
    momentum = float(w @ ((1.0 + a) * u))
    energy = float(w @ ((1.0 + a) * (u**2) / 2.0 + a * theta + theta))
    return mass, momentum, energy


def reference_entropy(state, grid):
    assert validate(state).ok
    w = grid.w
    log_ratio = np.log1p(state.theta) - np.log1p(state.a)
    s_total = float(w @ ((1.0 + state.a) * log_ratio))
    dtheta = derivative_array(state.theta, EVEN, grid.dr)
    dissipation = float(w @ (dtheta**2 / (1.0 + state.theta) ** 2))
    return s_total, dissipation


def reference_lyapunov(state, grid):
    assert validate(state).ok
    a, u, theta = state.a, state.u, state.theta
    integrand = (
        (1.0 + a) * (np.log1p(a) - np.log1p(theta))
        + (1.0 + a) * u**2 / 2.0
        - a
        + a * theta
        + theta
    )
    return float(grid.w @ integrand)


def reference_shock(state, grid):
    du = derivative_array(state.u, ODD, grid.dr)
    return float(np.max(np.abs(du)))


def _norm_sq(values, w):
    return float(w @ (values**2))


def _chain(values, parity, grid, orders):
    chain = [values]
    p = parity
    for _ in range(orders):
        chain.append(derivative_array(chain[-1], p, grid.dr))
        p = -p
    return chain


class ReferenceCollector:
    def __init__(self, grid, k):
        self.grid, self.k = grid, k
        self.sup = np.zeros(k + 1)
        self.int_theta = np.zeros(k + 1)
        self.int_au = np.zeros(k) if k > 0 else np.zeros(0)
        self.prev_t = None
        self.prev_theta_rates = np.zeros(k + 1)
        self.prev_au_rates = np.zeros(k) if k > 0 else np.zeros(0)

    def add(self, state):
        grid, w, k = self.grid, self.grid.w, self.k
        a_chain = _chain(state.a, EVEN, grid, k + 1)
        u_chain = _chain(state.u, ODD, grid, k + 1)
        th_chain = _chain(state.theta, EVEN, grid, k + 2)
        trip = np.array(
            [
                _norm_sq(a_chain[j], w)
                + _norm_sq(u_chain[j], w)
                + _norm_sq(th_chain[j], w)
                for j in range(k + 1)
            ]
        )
        theta_rates = np.array([_norm_sq(th_chain[j + 1], w) for j in range(k + 1)])
        au_rates = np.array(
            [
                _norm_sq(a_chain[j + 1], w) + _norm_sq(u_chain[j + 1], w)
                for j in range(k)
            ]
        )
        t = float(state.t)
        if self.prev_t is None:
            self.sup = trip
        else:
            dt = t - self.prev_t
            np.maximum(self.sup, trip, out=self.sup)
            self.int_theta += 0.5 * dt * (self.prev_theta_rates + theta_rates)
            if k > 0:
                self.int_au += 0.5 * dt * (self.prev_au_rates + au_rates)
        self.prev_t = t
        self.prev_theta_rates = theta_rates
        self.prev_au_rates = au_rates
        return float(theta_rates[0])

    def update(self, state):
        grid = self.grid
        grad_theta_sq = self.add(state)
        mass, momentum, energy = reference_conserved(state, grid)
        s_total, dissipation = reference_entropy(state, grid)
        return DiagnosticsRecord(
            t=float(state.t),
            mass=mass,
            momentum_scalar=momentum,
            energy=energy,
            entropy_total=s_total,
            entropy_dissipation=dissipation,
            lyapunov=reference_lyapunov(state, grid),
            shock_indicator=reference_shock(state, grid),
            e_k1=tuple(float(v) for v in np.cumsum(self.sup + self.int_theta)),
            e_k2=tuple(float(v) for v in np.cumsum(self.int_au)),
            grad_theta_sq=grad_theta_sq,
        )


def assert_records_equal(record, expected):
    # field by field, so that a failure names the field
    for name in DiagnosticsRecord.__dataclass_fields__:
        assert getattr(record, name) == getattr(expected, name), name


# ---------------------------------------------------------------------------
# The collector against the reference.


def cn_filter_states(n_steps=12):
    grid = build_grid(24.0, 480)
    state = make_initial_state(grid, "gaussian-bump", 1e-2, PhysParams(kappa=1.0))
    states = [state]
    for _ in range(n_steps):
        dt = cfl_dt(state, grid, 0.25)
        state, report = step(
            state, grid, dt, scheme=CRANK_NICOLSON, filter_coeff=0.01
        )
        assert report.validity.ok
        states.append(state)
    return grid, states


@pytest.mark.parametrize("k", ORDERS)
def test_cn_filter_run_records_match_reference(k):
    grid, states = cn_filter_states()
    collector = DiagnosticsCollector(grid, k)
    reference = ReferenceCollector(grid, k)
    for state in states:
        assert_records_equal(collector.update(state), reference.update(state))


def test_shock_indicator_matches_reference():
    grid, states = cn_filter_states(n_steps=3)
    s = states[-1]
    assert diagnostics.shock_indicator(s, grid) == reference_shock(s, grid)


def test_shock_indicator_keeps_its_bits_on_a_breached_state():
    # it reads only u, so a breached state needs no special floating-point
    # handling: no warning is raised
    grid = build_grid(4.0, 32)
    state = State(
        a=np.linspace(-1.5, 0.5, 32),
        u=np.linspace(0.0, 1.0, 32),
        theta=np.full(32, -1.0),
        t=0.0,
        params=PhysParams(),
    )
    with np.errstate(all="raise"):
        indicator = diagnostics.shock_indicator(state, grid)
    assert indicator == reference_shock(state, grid)


class CallCounter:
    def __init__(self, monkeypatch, name):
        self.calls = 0
        original = getattr(diagnostics, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(diagnostics, name, counted)


@pytest.mark.parametrize("k", ORDERS)
def test_one_record_takes_each_derivative_and_check_once(monkeypatch, k):
    grid, states = cn_filter_states(n_steps=1)
    collector = DiagnosticsCollector(grid, k)
    derivatives = CallCounter(monkeypatch, "derivative_array")
    checks = CallCounter(monkeypatch, "validate")
    built, stepped = states
    for state, memo in ((built, 0), (stepped, 1)):
        derivatives.calls = checks.calls = 0
        collector.update(state)
        # a to order K, u to order max(K, 1), theta to order K + 1; a state
        # from step carries du/dr and da/dr (read at K >= 1), one from the
        # constructor carries nothing
        saved = memo * (2 if k >= 1 else 1)
        assert derivatives.calls == (3 * k + 1 if k >= 1 else 2) - saved
        assert checks.calls <= 1


@pytest.mark.parametrize("k", ORDERS)
def test_a_record_leaves_the_derivative_memo_as_it_found_it(k):
    # the step is the memo's one writer: a record reads it or derives its
    # own, and the state it records keeps the very same memo
    grid, (built, stepped) = cn_filter_states(n_steps=1)
    collector = DiagnosticsCollector(grid, k)
    for state in (built, stepped):
        memo = state._derivs
        collector.update(state)
        assert state._derivs is memo


# ---------------------------------------------------------------------------
# Random valid states.

FIELD = st.floats(-0.9, 10.0, allow_nan=False, allow_infinity=False)
VELOCITY = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def histories(draw):
    """(grid, K, states): a random mesh, order and short history of valid
    states at nondecreasing times."""
    n = draw(st.integers(MIN_CELLS, 120))
    grid = build_grid(draw(st.floats(0.5, 100.0)), n)
    times = sorted(draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3)))
    states = [
        State(
            a=draw(arrays(float, n, elements=FIELD)),
            u=draw(arrays(float, n, elements=VELOCITY)),
            theta=draw(arrays(float, n, elements=FIELD)),
            t=t,
            params=PhysParams(),
        )
        for t in times
    ]
    return grid, draw(st.sampled_from(ORDERS)), states


@settings(max_examples=150, deadline=None)
@given(histories())
def test_random_states_records_match_reference(history):
    grid, k, states = history
    collector = DiagnosticsCollector(grid, k)
    reference = ReferenceCollector(grid, k)
    for state in states:
        assert_records_equal(collector.update(state), reference.update(state))
