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
from itertools import accumulate
from operator import add

import numpy as np

from .grid import RadialGrid
from .operators import EVEN, ODD, aligned, derivative_array
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


def _record_scalars(w, a, u, theta, shock, u_sq, dtheta_sq, out) -> tuple[float, ...]:
    """Array kernel of a record's scalars, in SCALAR_FIELDS order.

    Each pointwise term that two integrals share is formed once, and the
    Sobolev norms' squares ``u_sq`` = u**2 and ``dtheta_sq`` =
    (dtheta/dr)**2 are passed in; ``shock`` is max |du/dr|.  The Lyapunov
    integrand starts from the entropy integrand e = (1+a)(ln(1+theta) -
    ln(1+a)): (1+a)(ln(1+a) - ln(1+theta)) is -e exactly, and -e + k is
    k - e.  The log terms need 1 + a > 0 and 1 + theta > 0.  ``w.dot`` is
    the BLAS dot that ``w @`` calls, without the matmul dispatch.  ``out``
    holds five scratch buffers of a's length.
    """
    dot = w.dot
    one_a, kinetic, a_theta, entropy, log_a = out
    np.add(1.0, a, out=one_a)
    momentum = float(dot(np.multiply(one_a, u, out=kinetic)))
    np.multiply(one_a, u_sq, out=kinetic)
    kinetic /= 2.0
    np.multiply(a, theta, out=a_theta)
    total = np.add(kinetic, a_theta, out=entropy)
    total += theta
    energy = float(dot(total))
    # each buffer is reused once read, in the operand order of the formulas
    np.log1p(theta, out=entropy)
    entropy -= np.log1p(a, out=log_a)
    entropy *= one_a
    entropy_total = float(dot(entropy))
    lyapunov = np.subtract(kinetic, entropy, out=kinetic)
    lyapunov -= a
    lyapunov += a_theta
    lyapunov += theta
    temp_sq = np.add(1.0, theta, out=entropy)
    np.square(temp_sq, out=temp_sq)
    dissipation = float(dot(np.divide(dtheta_sq, temp_sq, out=temp_sq)))
    mass, lyapunov_total = float(dot(a)), float(dot(lyapunov))
    return mass, momentum, energy, entropy_total, dissipation, lyapunov_total, shock


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


def _running_max(sup: float, value: float) -> float:
    """max(sup, value) that keeps a NaN from either side, as np.maximum does."""
    return value if value > sup or value != value else sup


def _derivative_chain(
    values: np.ndarray, parity: float, grid: RadialGrid, orders: int, out=None
) -> list[np.ndarray]:
    """[f, f', f'', ...] up to the requested number of derivatives; ``out``
    holds a buffer for each derivative, by default new ones."""
    chain = [values]
    for j in range(orders):
        chain.append(derivative_array(chain[-1], parity, grid.dr, out and out[j]))
        parity = -parity
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
    e_k2[k] = sum_{j<k} int_au_j.  The integrals and their rates are one
    list of floats each: int_th_0 .. int_th_K, then int_au_0 .. int_au_{K-1}.
    States must arrive in nondecreasing time order; all accumulators are
    nondecreasing in time.

    A record reads the state and writes nothing into it: it takes du/dr,
    da/dr and max |du/dr| from the memo the step left at this cell width,
    and derives them itself otherwise (a constructor-built or padded state).
    It works in aligned buffers of the grid's size that the collector owns,
    so a record allocates no array.
    """

    def __init__(self, grid: RadialGrid, max_k: int) -> None:
        max_k = int(max_k)
        if max_k < 0 or max_k > MAX_DIAG_ORDER:
            raise ValueError(
                f"max_k must lie in [0, {MAX_DIAG_ORDER}], got {max_k}"
            )
        self.grid = grid
        self.max_k = max_k
        self._sup = [0.0] * (max_k + 1)
        self._int = [0.0] * (2 * max_k + 1)
        self._prev_t: float | None = None
        self._prev_rates = [0.0] * (2 * max_k + 1)
        # du/dr, da/dr and the chain's derivatives, whose out[1:-1] the
        # kernel writes; then u**2, theta'**2 and the scalars' scratch
        self._chain_out = [aligned(grid.n_cells, 1) for _ in range(max_k + 3)]
        self._cells = [aligned(grid.n_cells) for _ in range(7)]

    def update(self, state: State) -> DiagnosticsRecord:
        """One record in one pass: the state is checked once, and a to order
        K, u to max(K, 1) and theta to K+1 are each derived and normed once
        (du/dr and da/dr not at all if the state carries them)."""
        grid, w, k, n = self.grid, self.grid.w, self.max_k, self.grid.n_cells
        a, u, theta = state.a, state.u, state.theta
        if a.shape[0] != n:
            raise ValueError(f"state has {a.shape[0]} cells, grid has {n}")
        if not validate(state).ok:
            raise StateValidityError("diagnostics require a valid state")
        dot, (du_out, da_out, *chain) = w.dot, self._chain_out
        u2, dtheta2, sq = self._cells[:3]

        def norm(f, out=sq):
            return float(dot(np.square(f, out=out)))

        memo_dr, du, da, shock = state._derivs
        if memo_dr != grid.dr:
            du = derivative_array(u, ODD, grid.dr, du_out)
            da = derivative_array(a, EVEN, grid.dr, da_out) if k else None
            shock = float(np.maximum.reduce(np.abs(du, out=sq)))
        # each chain is normed before the next one reuses its buffers; u**2
        # and theta'**2 keep theirs, because they serve the scalars too
        u_sq = [norm(u, u2)]
        u_sq += map(norm, _derivative_chain(du, EVEN, grid, k - 1, chain)[:k])
        a_sq = [norm(a)]
        a_sq += map(norm, _derivative_chain(da, ODD, grid, k - 1, chain)[:k])
        th_chain = _derivative_chain(theta, EVEN, grid, k + 1, chain)
        th_sq = [norm(th_chain[0]), norm(th_chain[1], dtheta2)]
        th_sq += map(norm, th_chain[2:])
        trip = [a_sq[j] + u_sq[j] + th_sq[j] for j in range(k + 1)]
        rates = th_sq[1:] + [a_sq[j] + u_sq[j] for j in range(1, k + 1)]

        t = float(state.t)
        if self._prev_t is None:
            self._sup = trip
        else:
            dt = t - self._prev_t
            if dt < 0.0:
                raise ValueError("samples must arrive in nondecreasing time order")
            self._sup = list(map(_running_max, self._sup, trip))
            half_dt = 0.5 * dt
            pairs = zip(self._int, self._prev_rates, rates)
            self._int = [i + half_dt * (p + r) for i, p, r in pairs]
        self._prev_t, self._prev_rates = t, rates
        return DiagnosticsRecord(
            t,
            *_record_scalars(w, a, u, theta, shock, u2, dtheta2, self._cells[2:]),
            e_k1=tuple(accumulate(map(add, self._sup, self._int))),
            e_k2=tuple(accumulate(self._int[k + 1 :])),
            grad_theta_sq=rates[0],
        )
