"""Run diagnostics: DiagnosticsCollector turns each state of a run into one
DiagnosticsRecord, in a single pass over the state.

A record holds the perturbation integrals mass = int a and energy =
int ((1+a) u^2/2 + a theta + theta), which the dynamics conserve, and
momentum_scalar = int (1+a) u, the radial projection of the momentum
density (an accuracy probe, not a conservation law); the entropy
int (1+a) ln((1+theta)/(1+a)), nondecreasing with conduction on, and its
production rate int |grad theta|^2/(1+theta)^2 (times kappa); the Lyapunov
functional int [(1+a) ln((1+a)/(1+theta)) + (1+a) u^2/2 - a + a theta +
theta], which decreases at that rate; the shock indicator max |du/dr|; and
the Sobolev-type energy accumulators.

All integrals use the spherical volume weights of the grid, so a discrete
sum stands in for integration over R^3.  Derivative norms use repeated
radial derivatives with parity tracking; the Cartesian gradient norm of a
radial function is approximated by the radial-derivative norm under the
same 4 pi r^2 measure.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .grid import RadialGrid
from .operators import EVEN, ODD, derivative_array
from .state import State, StateValidityError, validate

MAX_DIAG_ORDER = 6


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One row of run diagnostics at time t.

    e_k1[k] and e_k2[k-1] are the order-k energy accumulators; grad_theta_sq
    is the instantaneous squared gradient norm of theta (it feeds the
    dissipation accumulators and is not part of the CSV column set).
    """

    t: float
    mass: float
    momentum_scalar: float
    energy: float
    entropy_total: float
    entropy_dissipation: float
    lyapunov: float
    shock_indicator: float
    e_k1: tuple[float, ...]
    e_k2: tuple[float, ...]
    grad_theta_sq: float


#: A record's scalar fields, the ones between t and the accumulators.  In
#: this order they are the values of _record_scalars, the CSV columns after t
#: and the keys of a run summary's peaks.
SCALAR_FIELDS = tuple(f.name for f in fields(DiagnosticsRecord))[1:8]


class DiagnosticsSink:
    """Receiver of diagnostics records during a run.  Base class is a no-op."""

    def on_record(self, record: DiagnosticsRecord) -> None:
        pass

    def on_breach(self, state: State) -> None:
        pass


class ListSink(DiagnosticsSink):
    """Collect records in memory, and the breached state if there is one."""

    def __init__(self) -> None:
        self.records: list[DiagnosticsRecord] = []
        self.breach_state: State | None = None

    def on_record(self, record: DiagnosticsRecord) -> None:
        self.records.append(record)

    def on_breach(self, state: State) -> None:
        self.breach_state = state


def _record_scalars(w, a, u, theta, du, dtheta) -> tuple[float, ...]:
    """Array kernel of a record's scalars, in SCALAR_FIELDS order.

    Each pointwise term that two integrals share is formed once.  The log
    terms need 1 + a > 0 and 1 + theta > 0.
    """
    one_a = 1.0 + a
    kinetic = one_a * u**2 / 2.0
    a_theta = a * theta
    log_a = np.log1p(a)
    log_theta = np.log1p(theta)
    return (
        float(w @ a),
        float(w @ (one_a * u)),
        float(w @ (kinetic + a_theta + theta)),
        float(w @ (one_a * (log_theta - log_a))),
        float(w @ (dtheta**2 / (1.0 + theta) ** 2)),
        float(w @ (one_a * (log_a - log_theta) + kinetic - a + a_theta + theta)),
        float(np.max(np.abs(du))),
    )


def taylor_remainder(a, theta):
    """Cubic remainder of ln((1+a)/(1+theta)) after its quadratic expansion.

    r(a, theta) = ln((1+a)/(1+theta)) - (a - theta - a^2/2 + theta^2/2),
    computed as a difference of single-variable terms so that the exchange
    antisymmetry r(a, theta) = -r(theta, a) holds exactly in floating point.
    On |a|, |theta| <= 0.3 the remainder obeys |r| <= 2 (|a|^3 + |theta|^3).
    Accepts scalars or arrays elementwise.
    """
    a = np.asarray(a, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(1.0 + a <= 0.0) or np.any(1.0 + theta <= 0.0):
        raise ValueError("taylor_remainder requires 1 + a > 0 and 1 + theta > 0")
    diff = a - theta
    out = (np.log1p(a) - np.log1p(theta)) - diff + diff * (a + theta) / 2.0
    if out.ndim == 0:
        return float(out)
    return out


def shock_indicator(state: State, grid: RadialGrid) -> float:
    """Sup norm of the velocity gradient, max_i |du/dr|."""
    return float(np.max(np.abs(derivative_array(state.u, ODD, grid.dr))))


def _derivative_chain(
    values: np.ndarray, parity: float, grid: RadialGrid, orders: int
) -> list[np.ndarray]:
    """[f, f', f'', ...] up to the requested number of derivatives."""
    chain = [values]
    p = parity
    for _ in range(orders):
        chain.append(derivative_array(chain[-1], p, grid.dr))
        p = -p
    return chain


class DiagnosticsCollector:
    """Produce DiagnosticsRecord rows for a run, folding in the Sobolev-type
    energy accumulators.

    For each derivative order j <= K the collector tracks

      sup_j:    running sup of |d^j a|^2 + |d^j u|^2 + |d^j theta|^2,
      int_th_j: trapezoid-in-time integral of |d^(j+1) theta|^2,
      int_au_j: trapezoid-in-time integral of |d^(j+1) a|^2 + |d^(j+1) u|^2
                (orders j <= K-1 only),

    from which e_k1[k] = sum_{j<=k} (sup_j + int_th_j) and
    e_k2[k] = sum_{j<k} int_au_j.  States must arrive in nondecreasing time
    order; all accumulators are nondecreasing in time.
    """

    def __init__(self, grid: RadialGrid, max_k: int) -> None:
        max_k = int(max_k)
        if max_k < 0 or max_k > MAX_DIAG_ORDER:
            raise ValueError(
                f"max_k must lie in [0, {MAX_DIAG_ORDER}], got {max_k}"
            )
        self.grid = grid
        self.max_k = max_k
        self._sup = np.zeros(max_k + 1)
        self._int_theta = np.zeros(max_k + 1)
        self._int_au = np.zeros(max_k)
        self._prev_t: float | None = None
        self._prev_theta_rates = np.zeros(max_k + 1)
        self._prev_au_rates = np.zeros(max_k)

    def update(self, state: State) -> DiagnosticsRecord:
        """One record in one pass: the state is checked once, and a to order
        K, u to max(K, 1) and theta to K+1 are each derived and normed once."""
        if not validate(state).ok:
            raise StateValidityError("diagnostics require a valid state")
        grid, w, k = self.grid, self.grid.w, self.max_k
        a_chain = _derivative_chain(state.a, EVEN, grid, k)
        u_chain = _derivative_chain(state.u, ODD, grid, max(k, 1))
        th_chain = _derivative_chain(state.theta, EVEN, grid, k + 1)
        a_sq = [float(w @ (f**2)) for f in a_chain]
        u_sq = [float(w @ (f**2)) for f in u_chain[: k + 1]]
        th_sq = [float(w @ (f**2)) for f in th_chain]
        trip = np.array([a_sq[j] + u_sq[j] + th_sq[j] for j in range(k + 1)])
        theta_rates = np.array(th_sq[1:])
        au_rates = np.array([a_sq[j + 1] + u_sq[j + 1] for j in range(k)])

        t = float(state.t)
        if self._prev_t is None:
            self._sup = trip
        else:
            dt = t - self._prev_t
            if dt < 0.0:
                raise ValueError("samples must arrive in nondecreasing time order")
            np.maximum(self._sup, trip, out=self._sup)
            self._int_theta += 0.5 * dt * (self._prev_theta_rates + theta_rates)
            self._int_au += 0.5 * dt * (self._prev_au_rates + au_rates)
        self._prev_t = t
        self._prev_theta_rates = theta_rates
        self._prev_au_rates = au_rates
        return DiagnosticsRecord(
            t,
            *_record_scalars(w, state.a, state.u, state.theta, u_chain[1], th_chain[1]),
            e_k1=tuple(np.cumsum(self._sup + self._int_theta).tolist()),
            e_k2=tuple(np.cumsum(self._int_au).tolist()),
            grad_theta_sq=float(theta_rates[0]),
        )
