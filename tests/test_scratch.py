"""The step's scratch buffers: kept by the grid, never handed out, aligned.

A step works in a set of 64-byte-aligned buffers that the grid keeps
between steps, and writes its result into one new block.  A record works in
aligned buffers that its collector keeps, and run() pads a kappa = 0 window
for a record, and takes its CFL step, in rows of its own.  These tests pin
what that reuse must not change: a returned State keeps its bytes while the
grid steps on, steps that run at once on one grid (threads, or a sink that
steps or runs) give the bytes of sequential calls, the public kernels
neither write their inputs nor return scratch, and every array pass of a
step, a record and the CFL kernel writes an aligned buffer of the scratch
or of the result.  Over a run, measured with tracemalloc, a step allocates
its result block and nothing else of a field's size (at kappa > 0 past the
first, which makes the grid's scratch), and a record allocates nothing of
that size.
"""

import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from radgas import diagnostics, dynamics, integrator, operators, tridiag
from radgas.config import BACKWARD_EULER, CRANK_NICOLSON, RunConfig
from radgas.diagnostics import DiagnosticsCollector, ListSink
from radgas.output import CsvSink
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


@pytest.mark.parametrize("window", [False, True])
@pytest.mark.parametrize("n", [1000, 1920, 2800, 4000])
@pytest.mark.parametrize(
    "kappa, scheme, coeff",
    [(1.0, CRANK_NICOLSON, 0.01), (1.0, BACKWARD_EULER, 0.0), (0.0, BACKWARD_EULER, 0.01)],
)
def test_every_pass_of_a_step_writes_aligned_scratch_or_result(
    n, kappa, scheme, coeff, window, monkeypatch
):
    # A pass that lost its out= would write a new array: outside the
    # scratch and the result, and three times in four off a 64-byte line.
    # The derivatives write the scratch, and the result's du/dr and da/dr.
    # A window's scratch is a prefix of its grid's set, as run() cuts it.
    grid = build_grid(100.0, n)
    [state] = march(smooth(grid, kappa=kappa, eps=1e-3), grid, 1, scheme, coeff)
    if window:
        m = min(n - 1, integrator._support(state) + 100)
        state, grid = integrator._resize(state, m), integrator._crop_grid(grid, m)
    dt, log = cfl_dt(state, grid, 0.3), []
    for module in (integrator, dynamics, tridiag, operators):
        monkeypatch.setattr(module, "np", WriteLog(log))
    new, report = step(state, grid, dt, scheme, coeff)
    assert report.validity.ok
    [scratch] = grid.scratch
    owned = [new.a, new.u, new.theta, new._derivs[1], new._derivs[2]]
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


@pytest.mark.parametrize("kappa", [0.0, 1.0])
def test_a_run_makes_one_scratch_set_for_all_its_windows(monkeypatch, kappa):
    # every window's scratch is a prefix of the full grid's set, so a run
    # that recuts its window again and again makes one set
    calls, widths = [], []
    make, kernel = integrator._scratch, integrator.step

    def counted_scratch(n):
        calls.append(n)
        return make(n)

    def counted_step(state, grid, *args):
        widths.append(grid.n_cells)
        return kernel(state, grid, *args)

    monkeypatch.setattr(integrator, "_scratch", counted_scratch)
    monkeypatch.setattr(integrator, "step", counted_step)
    config = RunConfig(
        eps=1e-3, kappa=kappa, r_max=50.0, n_cells=2000, t_end=0.6, output_every=5,
        diffusion_scheme=CRANK_NICOLSON, filter_coeff=0.01,
    )
    summary = integrator.run(config)
    assert summary.termination_reason == "time-complete"
    assert calls == [config.n_cells]
    n = config.n_cells
    windows = [w for i, w in enumerate(widths) if n > w != widths[i - 1]]
    assert len(windows) >= 3 and len(widths) == summary.steps  # two recuts or more


def test_a_record_writes_only_aligned_collector_buffers(monkeypatch):
    # on a stepped state, which carries the step's du/dr and da/dr, and on
    # the padded window of a kappa = 0 run, which does not
    n = 2000
    grid = build_grid(50.0, n)
    [stepped] = march(smooth(grid, eps=1e-3), grid, 1)
    state = smooth(grid, kappa=0.0, eps=1e-3)
    m = integrator._support(state) + integrator._REACH
    window = integrator._resize(state, m)
    [window] = march(window, integrator._crop_grid(grid, m), 1, BACKWARD_EULER)
    padded = integrator._resize(window, n, integrator._rows(3, n))
    assert padded._derivs[0] is None and stepped._derivs[0] == grid.dr
    for max_k in (0, 2, 6):
        states = (stepped, padded)
        expected = [DiagnosticsCollector(grid, max_k).update(s) for s in states]
        collector, log = DiagnosticsCollector(grid, max_k), []
        for module in (diagnostics, operators):
            monkeypatch.setattr(module, "np", WriteLog(log))
        assert [collector.update(s) for s in states] == expected
        monkeypatch.undo()
        owned = collector._chain_out + collector._cells
        written = [x for x in log if x.dtype == np.float64 and x.size >= 8]
        assert len(written) > 20
        for x in written:
            assert any(np.shares_memory(x, buf) for buf in owned)
            assert address(x) % 64 == 0


def test_the_cfl_kernel_writes_only_its_aligned_buffers(monkeypatch):
    grid = build_grid(100.0, 1000)
    state = smooth(grid, eps=1e-2)
    rows, log = integrator._rows(2, 1000), []
    monkeypatch.setattr(dynamics, "np", WriteLog(log))
    dt = dynamics.cfl_dt_arrays(state.u, state.theta, grid.dr, 0.3, tuple(rows))
    monkeypatch.undo()
    assert dt == cfl_dt(state, grid, 0.3)
    written = [x for x in log if x.dtype == np.float64 and x.size >= 8]
    assert len(written) == 5
    for x in written:
        assert np.shares_memory(x, rows)
        assert address(x) % 64 == 0


@pytest.mark.parametrize(
    "kappa, scheme",
    [(0.0, CRANK_NICOLSON), (1.0, CRANK_NICOLSON), (1.0, BACKWARD_EULER)],
)
def test_a_run_allocates_a_result_block_per_step_and_nothing_else(
    monkeypatch, kappa, scheme
):
    # Measured inside each step, and between steps, where run() takes the
    # CFL step and emits any record.  The window is about 1100 cells wide
    # at kappa = 0 and 1450 at kappa = 1.  Besides its result block a step
    # makes only small objects (reports, a State, reduction results), and so
    # does the rest of the loop: none of them comes near a field's size.
    # At kappa > 0 the first step is on the full mesh and makes the grid's
    # scratch set, which every later window cuts a prefix of.
    config = RunConfig(
        eps=1e-3, kappa=kappa, r_max=50.0, n_cells=2000, t_end=0.6, output_every=5,
        diffusion_scheme=scheme, filter_coeff=0.01, diag_max_k=2,
    )
    numpy_domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    steps, gaps, mark = [], [], []

    def numpy_blocks():
        snapshot = tracemalloc.take_snapshot().filter_traces([numpy_domain])
        return Counter(trace.size for trace in snapshot.traces)

    def since(start):
        # the numpy blocks left alive and the peak, since (blocks, bytes)
        peak = tracemalloc.get_traced_memory()[1] - start[1]
        return numpy_blocks() - start[0], peak

    def restart():
        blocks = numpy_blocks()
        tracemalloc.reset_peak()
        return blocks, tracemalloc.get_traced_memory()[0]

    kernel, update, records = integrator.step, DiagnosticsCollector.update, []
    grids = [None]

    def traced_step(state, grid, *args, **kwargs):
        cells = state.a.shape[0]
        if grid is not grids[-1]:  # a recut, which pads the state into a new block
            grids.append(grid)
            mark.clear()
        if mark:
            gaps.append((*since(mark.pop()[1]), cells, len(records)))
        start = restart()
        new, report = kernel(state, grid, *args, **kwargs)
        steps.append((*since(start), cells, new.a.base.nbytes))
        # the input stays alive until the next step, so that freeing it
        # cannot hide what the loop allocates in between
        mark.append((state, restart()))
        return new, report

    def counted_update(collector, state):
        records.append(state.t)
        return update(collector, state)

    monkeypatch.setattr(integrator, "step", traced_step)
    monkeypatch.setattr(DiagnosticsCollector, "update", counted_update)
    tracemalloc.start()
    try:
        summary = integrator.run(config)
    finally:
        tracemalloc.stop()
    assert summary.termination_reason == "time-complete"
    assert len(steps) >= summary.steps >= 90  # a declined window is redone
    for alive, peak, cells, block in steps[1:] if kappa > 0.0 else steps:
        assert alive == Counter({block: 1})
        assert block >= 5 * 8 * cells and peak - block < 8 * cells
    for alive, peak, cells, _ in gaps:
        assert alive == Counter() and peak < 8 * cells
    # every step but the first on each grid follows a gap
    recuts, with_records = len(grids) - 2, {count for *_, count in gaps}
    assert len(gaps) == len(steps) - 1 - recuts and recuts <= 0.1 * len(steps)
    assert len(with_records) >= 15


def test_a_sink_that_runs_a_second_run_leaves_both_csvs_as_alone(tmp_path):
    # both kappa = 0 runs keep a window, pad it for records and take their
    # CFL step in rows of their own; the inner run starts mid-way
    base = dict(
        kappa=0.0, r_max=24.0, n_cells=480, t_end=1.0, output_every=4,
        diffusion_scheme=CRANK_NICOLSON, filter_coeff=0.01, diag_max_k=2,
    )
    outer, inner = RunConfig(eps=1e-3, **base), RunConfig(eps=2e-2, **base)

    def csv(config, path, sink_type=CsvSink):
        with sink_type(path, config.diag_max_k) as sink:
            integrator.run(config, sink)
        return path.read_bytes()

    class RunningSink(CsvSink):
        rows = 0

        def on_record(self, record):
            super().on_record(record)
            self.rows += 1
            if self.rows == 3:
                nested.append(csv(inner, tmp_path / "inner.csv"))

    nested = []
    both = csv(outer, tmp_path / "outer.csv", RunningSink)
    assert len(nested) == 1
    assert both == csv(outer, tmp_path / "outer-alone.csv")
    assert nested[0] == csv(inner, tmp_path / "inner-alone.csv")
