"""Per-layer measurement: call tracing by name, and µs-per-call probes.

Both resolve their targets by module and attribute name when they run, so
that the benchmark keeps working while the code it measures is refactored:
a target that is gone is reported as missing and measured by nothing else.
Nothing here is imported by the untraced end-to-end runs.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
import timeit

_INTEGRATOR = "radgas.integrator"
_DYNAMICS = "radgas.dynamics"
_DIAGNOSTICS = "radgas.diagnostics"
_OPERATORS = "radgas.operators"

#: Span name -> the (module, attribute path) sites a run calls it through.
#: Functions are wrapped in the namespace of each calling module, because
#: the callers look them up there at call time.
SPANS = {
    "integrator.step": [(_INTEGRATOR, "step")],
    "integrator.conduction": [(_INTEGRATOR, "_diffusion_solve_arrays")],
    "dynamics.convective_rhs": [(_INTEGRATOR, "convective_rhs")],
    "integrator.filter": [(_INTEGRATOR, "_fourth_difference_filter")],
    "state.validate": [(m, "validate") for m in (_INTEGRATOR, _DYNAMICS, _DIAGNOSTICS)],
    "dynamics.cfl_dt": [(_INTEGRATOR, "cfl_dt")],
    "operators.derivative_array": [
        (m, "derivative_array") for m in (_INTEGRATOR, _DYNAMICS, _DIAGNOSTICS, _OPERATORS)
    ],
    "diagnostics.update": [(_DIAGNOSTICS, "DiagnosticsCollector.update")],
    "output.csv_row": [("radgas.output", "CsvSink.on_record")],
}


def resolve(module: str, path: str):
    """(owner, attribute name, current value), or None if the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        value = inspect.getattr_static(owner, attr)
    except AttributeError:
        return None
    return (owner, attr, value) if callable(value) else None


class Tracer:
    """Wraps the SPANS sites to count calls and accumulate time.

    Inclusive time is a call's duration; self time is that minus the time of
    the traced calls nested inside it.  Totals accumulate over every run
    made between ``install`` and ``uninstall``.
    """

    def __init__(self) -> None:
        self.calls = {name: 0 for name in SPANS}
        self.inclusive = {name: 0.0 for name in SPANS}
        self.self_time = {name: 0.0 for name in SPANS}
        self.missing = [
            name for name, sites in SPANS.items()
            if not any(resolve(m, p) for m, p in sites)
        ]
        self._nested: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nested = self._nested
        clock = time.perf_counter

        def traced(*args, **kwargs):
            nested.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = nested.pop()
                self.calls[name] += 1
                self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - inner
                if nested:
                    nested[-1] += elapsed

        return traced

    def install(self) -> None:
        for name, sites in SPANS.items():
            for module, path in sites:
                found = resolve(module, path)
                if found is None:
                    continue
                owner, attr, original = found
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Part (b): µs per call of public functions on a fixed state.

SIZES = (1000, 4000, 16000)

#: Mesh and data of the probes: the smooth-decay physics at each size.
_R_MAX = 100.0
_EPS = 1e-3
_CFL = 0.25

#: A one-step job: the input of the parse_config and pool-overhead probes.
_PROBE_CONFIG = """\
eps = 0.3
kappa = 0.0
r_max = 56.0
n_cells = 64
t_end = 0.05
cfl = 0.4
output_every = 10
run_id = pool-probe
"""


def _get(module: str, path: str):
    found = resolve(module, path)
    if found is None:
        raise LookupError(f"{module}.{path} not found")
    owner, attr, _ = found
    return getattr(owner, attr)


def _fixture(n: int, kappa: float = 1.0):
    grid = _get("radgas.grid", "build_grid")(_R_MAX, n)
    params = _get("radgas.state", "PhysParams")(kappa=kappa)
    state = _get("radgas.state", "make_initial_state")(grid, "gaussian-bump", _EPS, params)
    dt = _get("radgas.dynamics", "cfl_dt")(state, grid, _CFL)
    return grid, state, dt


def _step(scheme: str, filter_coeff: float, kappa: float):
    def make(n):
        grid, state, dt = _fixture(n, kappa)
        step = _get(_INTEGRATOR, "step")
        return lambda: step(state, grid, dt, scheme=scheme, filter_coeff=filter_coeff)

    return make


def _solve_diffusion(scheme: str):
    def make(n):
        grid, state, dt = _fixture(n)
        solve = _get(_INTEGRATOR, "solve_diffusion")
        return lambda: solve(state.theta, state.a, grid, 0.5 * dt, scheme=scheme, kappa=1.0)

    return make


def _solve_tridiagonal(n):
    import numpy as np

    system_cls = _get("radgas.tridiag", "TridiagonalSystem")
    solve = _get("radgas.tridiag", "solve_tridiagonal")
    # A diagonally dominant system like a conduction half step's; neither
    # solver pivots on it, so the values do not change the cost.
    lower = np.full(n, -0.25)
    upper = np.full(n, -0.25)
    lower[0] = upper[-1] = 0.0
    system = system_cls(lower=lower, diag=np.full(n, 1.5), upper=upper, rhs=np.linspace(0.0, 1.0, n))
    return lambda: solve(system)


def _on_state(module: str, name: str, *extra):
    def make(n):
        grid, state, _ = _fixture(n)
        fn = _get(module, name)
        return lambda: fn(state, grid, *extra)

    return make


def _validate(n):
    _, state, _ = _fixture(n)
    fn = _get("radgas.state", "validate")
    return lambda: fn(state)


def _derivative_array(n):
    grid, state, _ = _fixture(n)
    fn = _get(_OPERATORS, "derivative_array")
    odd = importlib.import_module(_OPERATORS).ODD
    return lambda: fn(state.u, odd, grid.dr)


def _diagnostics_update(n):
    grid, state, _ = _fixture(n)
    collector = _get(_DIAGNOSTICS, "DiagnosticsCollector")(grid, 2)
    return lambda: collector.update(state)


def _build_grid(n):
    fn = _get("radgas.grid", "build_grid")
    return lambda: fn(_R_MAX, n)


def _make_initial_state(n):
    grid, _, _ = _fixture(n)
    params = _get("radgas.state", "PhysParams")(kappa=1.0)
    fn = _get("radgas.state", "make_initial_state")
    return lambda: fn(grid, "gaussian-bump", _EPS, params)


#: Metric stem -> factory(n) returning the zero-argument call to time.
SIZED_PROBES = {
    "integrator.step.cn_filter": _step("crank-nicolson", 0.01, 1.0),
    "integrator.step.be": _step("backward-euler", 0.0, 1.0),
    "integrator.step.kappa0": _step("crank-nicolson", 0.01, 0.0),
    "integrator.solve_diffusion.be": _solve_diffusion("backward-euler"),
    "integrator.solve_diffusion.cn": _solve_diffusion("crank-nicolson"),
    "tridiag.solve_tridiagonal": _solve_tridiagonal,
    "dynamics.convective_rhs": _on_state(_DYNAMICS, "convective_rhs"),
    "dynamics.cfl_dt": _on_state(_DYNAMICS, "cfl_dt", _CFL),
    "state.validate": _validate,
    "operators.derivative_array": _derivative_array,
    "diagnostics.update": _diagnostics_update,
    "grid.build_grid": _build_grid,
    "state.make_initial_state": _make_initial_state,
}


def _format_record():
    grid, state, _ = _fixture(4000)
    record = _get(_DIAGNOSTICS, "DiagnosticsCollector")(grid, 2).update(state)
    fn = _get("radgas.output", "format_record")
    return lambda: fn(record)


def _parse_config():
    fn = _get("radgas.config", "parse_config")
    return lambda: fn(_PROBE_CONFIG)


def _timed(make, *args):
    return lambda budget: us_per_call(make(*args), budget)


def _probe_table():
    """(metric name, unit, measure(budget)) of every part (b) probe."""
    table = [
        (f"{stem}.n{n}", "us", _timed(make, n))
        for stem, make in SIZED_PROBES.items() for n in SIZES
    ]
    table += [
        ("output.format_record", "us", _timed(_format_record)),
        ("config.parse_config", "us", _timed(_parse_config)),
        ("sweep.pool_overhead_s", "s", pool_overhead_s),
    ]
    return table


def probe_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every part (b) probe, in reporting order."""
    return [(name, unit) for name, unit, _ in _probe_table()]


def us_per_call(fn, budget: float) -> float:
    """Median µs per call over batches of at least 2 ms, for ``budget`` s."""
    fn()
    timer = timeit.Timer(fn)
    number = 1
    while timer.timeit(number) < 0.002:
        number *= 2
    samples = []
    deadline = time.perf_counter() + budget
    while len(samples) < 3 or time.perf_counter() < deadline:
        samples.append(timer.timeit(number) / number)
    return statistics.median(samples) * 1e6


def pool_overhead_s(budget: float) -> float:
    """Wall time of a two-worker `sweep()` of tiny members, minus its
    slowest member's own run time: the process-pool cost of a sweep."""
    parse = _get("radgas.config", "parse_config")
    sweep = _get("radgas.sweep", "sweep")
    base = parse(_PROBE_CONFIG)
    samples = []
    deadline = time.perf_counter() + budget
    while len(samples) < 3 or time.perf_counter() < deadline:
        start = time.perf_counter()
        summaries = sweep(base, "kappa", [0.0, 1.0], parallelism=2)
        elapsed = time.perf_counter() - start
        samples.append(elapsed - max(s.wall_clock_seconds for s in summaries))
    return statistics.median(samples)


def run_probes(budget: float) -> tuple[dict[str, float | None], list[str]]:
    """Measure every part (b) probe, ``budget`` seconds each.

    Returns the values (None for a missing target) and the missing names.
    """
    values: dict[str, float | None] = {}
    missing = []
    for name, _, measure in _probe_table():
        try:
            values[name] = measure(budget)
        except Exception as exc:  # noqa: BLE001 - a gone or changed target
            print(f"probe {name} missing: {type(exc).__name__}: {exc}", file=sys.stderr)
            values[name] = None
            missing.append(name)
    return values, missing
