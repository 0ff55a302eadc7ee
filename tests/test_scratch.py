"""The step's scratch buffers: kept by the grid, never handed out, aligned.

A step works in a set of 64-byte-aligned buffers that the grid keeps
between steps, and writes its result into one new block.  These tests pin
what that reuse must not change: a returned State keeps its bytes while the
grid steps on, steps that run at once on one grid (threads, or a sink that
steps) give the bytes of sequential calls, the public kernels neither
write their inputs nor return scratch, and every array pass of a step
writes an aligned buffer of the scratch or of the result.
"""

import sys
import threading

import numpy as np
import pytest

from radgas import dynamics, integrator, tridiag
from radgas.config import BACKWARD_EULER, CRANK_NICOLSON, RunConfig
from radgas.diagnostics import ListSink
from radgas.dynamics import cfl_dt, convective_rhs, flux_divergence
from radgas.grid import build_grid
from radgas.integrator import solve_diffusion, step
from radgas.operators import EVEN, ODD, derivative_array
from radgas.state import PhysParams, State, make_initial_state
from radgas.tridiag import tridiagonal_solve
from test_step_reference import first_half_breach, stage2_breach


def state_bytes(state):
    """Fields, time and the derivative memo of a State, as bytes."""
    _, du, da, max_du = state._derivs
    memo = tuple(x.tobytes() for x in (du, da, np.float64(max_du)))
    return (state.a.tobytes(), state.u.tobytes(), state.theta.tobytes(), state.t, memo)


def smooth(grid, kappa=1.0, eps=0.05):
    return make_initial_state(grid, "gaussian-bump", eps, PhysParams(kappa=kappa))


def march(state, grid, steps, scheme=CRANK_NICOLSON, coeff=0.01):
    """The States of ``steps`` CFL steps from ``state``."""
    states = []
    for _ in range(steps):
        state, report = step(state, grid, cfl_dt(state, grid, 0.3), scheme, coeff)
        assert report.validity.ok
        states.append(state)
    return states


def stage1_breach():
    # a strong outflow empties the centre within the first convective stage
    grid = build_grid(10.0, 100)
    r = grid.r
    state = State(
        a=-0.95 * np.exp(-(r**2)),
        u=5.0 * r * np.exp(-(r**2)),
        theta=np.zeros_like(r),
        t=0.0,
        params=PhysParams(kappa=1.0),
    )
    return state, grid, grid.dr, BACKWARD_EULER


def valid_step():
    grid = build_grid(20.0, 200)
    return smooth(grid), grid, 0.01, CRANK_NICOLSON


@pytest.mark.parametrize(
    "case, stages",
    [(valid_step, 2), (first_half_breach, 0), (stage1_breach, 1), (stage2_breach, 2)],
)
def test_a_returned_state_keeps_its_bytes_while_the_grid_steps_on(
    case, stages, monkeypatch
):
    calls = []
    kernel = integrator.convective_rhs

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(integrator, "convective_rhs", counted)
    state, grid, dt, scheme = case()
    new, report = step(state, grid, dt, scheme)
    assert len(calls) == stages
    assert report.validity.ok == (case is valid_step)
    kept = state_bytes(new)
    other = make_initial_state(grid, "gaussian-bump", 0.01, state.params)
    march(other, grid, 10, scheme)
    assert state_bytes(new) == kept
    assert not new.a.flags.writeable and not new.theta.flags.writeable


def test_steps_from_threads_on_one_grid_give_the_sequential_bytes():
    # more threads than cores and a short switch interval, so that steps
    # interleave inside one another; a shared set of buffers shows as bytes
    grid = build_grid(100.0, 4000)
    starts = [smooth(grid, eps=k * 1e-3) for k in range(1, 5)]
    expected = [[state_bytes(s) for s in march(start, grid, 10)] for start in starts]
    got = [None] * len(starts)
    barrier = threading.Barrier(len(starts))

    def worker(i):
        barrier.wait()
        got[i] = [state_bytes(s) for s in march(starts[i], grid, 10)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(starts))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected
    assert 1 <= len(grid.scratch) <= len(starts)


def test_a_sink_that_steps_on_the_run_grid_changes_no_bytes(monkeypatch):
    config = RunConfig(
        eps=1e-3, kappa=1.0, r_max=12.0, n_cells=120, t_end=0.3, output_every=2,
        diffusion_scheme=CRANK_NICOLSON, filter_coeff=0.01,
    )
    plain = ListSink()
    integrator.run(config, plain)
    grids = []

    def recording_build_grid(r_max, n_cells):
        grids.append(build_grid(r_max, n_cells))
        return grids[-1]

    class SteppingSink(ListSink):
        def __init__(self):
            super().__init__()
            self.side = smooth(build_grid(config.r_max, config.n_cells))
            self.sides = []

        def on_record(self, record):
            super().on_record(record)
            [self.side] = march(self.side, grids[0], 1)
            self.sides.append(state_bytes(self.side))

    monkeypatch.setattr(integrator, "build_grid", recording_build_grid)
    sink = SteppingSink()
    integrator.run(config, sink)
    assert sink.records == plain.records
    side = smooth(build_grid(config.r_max, config.n_cells))
    grid = build_grid(config.r_max, config.n_cells)
    alone = [state_bytes(s) for s in march(side, grid, len(sink.sides))]
    assert sink.sides == alone


def public_calls(grid, state):
    """Each public kernel as (inputs, call) on arrays of the grid's size."""
    n, dr = grid.n_cells, grid.dr
    lower, upper = np.full(n, -0.3), np.full(n, -0.2)
    lower[0] = upper[-1] = 0.0
    diag, rhs = np.full(n, 1.6), np.linspace(1.0, 2.0, n)
    return [
        ((state.theta, state.a), lambda t, a: (solve_diffusion(t, a, grid, 0.02),)),
        (
            (state.theta, state.a),
            lambda t, a: (solve_diffusion(t, a, grid, 0.02, CRANK_NICOLSON),),
        ),
        ((), lambda: convective_rhs(state, grid)),
        ((state.u,), lambda u: (derivative_array(u, ODD, dr),)),
        ((state.a,), lambda a: (derivative_array(a, EVEN, dr),)),
        ((state.u,), lambda u: (flux_divergence(u, grid),)),
        ((lower, diag, upper, rhs), lambda *lds: (tridiagonal_solve(*lds),)),
    ]


def test_public_kernels_keep_their_inputs_and_hand_out_their_results():
    grid = build_grid(20.0, 200)
    state = smooth(grid)
    results = []
    for inputs, call in public_calls(grid, state):
        before = [x.tobytes() for x in inputs]
        out = call(*inputs)
        assert [x.tobytes() for x in inputs] == before
        results.append([(x, x.tobytes()) for x in out])
    # later calls, and steps on the same grid, write none of them
    for inputs, call in public_calls(grid, smooth(grid, eps=0.2)):
        call(*inputs)
    march(state, grid, 3)
    for result in results:
        for x, kept in result:
            assert x.tobytes() == kept


class WriteLog:
    """Stands in for numpy in a module and logs the array each ufunc call
    writes, so that a test sees where a step's passes land."""

    def __init__(self, log):
        self._log = log

    def __getattr__(self, name):
        attr = getattr(np, name)
        return Logged(attr, self._log) if isinstance(attr, np.ufunc) else attr


class Logged:
    def __init__(self, ufunc, log):
        self._ufunc, self._log = ufunc, log

    def __call__(self, *args, **kwargs):
        result = self._ufunc(*args, **kwargs)
        self._log.append(result)
        return result

    def __getattr__(self, name):
        return getattr(self._ufunc, name)


def address(x):
    return x.__array_interface__["data"][0]


@pytest.mark.parametrize("n", [1000, 1920, 2800, 4000])
@pytest.mark.parametrize(
    "kappa, scheme, coeff",
    [(1.0, CRANK_NICOLSON, 0.01), (1.0, BACKWARD_EULER, 0.0), (0.0, BACKWARD_EULER, 0.01)],
)
def test_every_pass_of_a_step_writes_aligned_scratch_or_result(
    n, kappa, scheme, coeff, monkeypatch
):
    # A pass that lost its out= would write a new array: outside the
    # scratch and the result, and three times in four off a 64-byte line.
    grid = build_grid(100.0, n)
    [state] = march(smooth(grid, kappa=kappa, eps=1e-3), grid, 1, scheme, coeff)
    dt, log = cfl_dt(state, grid, 0.3), []
    for module in (integrator, dynamics, tridiag):
        monkeypatch.setattr(module, "np", WriteLog(log))
    new, report = step(state, grid, dt, scheme, coeff)
    assert report.validity.ok
    [scratch] = grid.scratch
    owned = [new.a, new.u, new.theta]
    for group in scratch:
        owned += [group] if isinstance(group, np.ndarray) else list(group)
    written = [x for x in log if x.dtype == np.float64 and x.size >= 8]
    assert len(written) > 40
    for x in written:
        assert any(np.shares_memory(x, buf) for buf in owned)
        assert address(x) % 64 == 0
    # the derivatives write out[1:-1]; the result block holds three fields
    for f in (new.a, new.u, new.theta):
        assert address(f) % 64 == 0
    assert address(new._derivs[1][1:]) % 64 == 0
    assert address(new._derivs[2][1:]) % 64 == 0
