"""Drawn configs: validate() admits only runs that can end, and run() gives
the bytes of the full-mesh reference loop.

The first property draws every magnitude log-uniformly over the double
range, where the time-step holes were found: a first CFL step that
underflows to 0, or one so small that t + dt == t part way.  A config must
either be rejected or run to a termination reason without an exception or
a numpy warning (the suite turns RuntimeWarning into an error).  Half the
draws take a horizon of a few hundred first steps, so that they can run.

The second is a differential test of run() against ``reference_run``, the
full-mesh loop over the pre-kernel step composition.  It is the check on
run()'s window (cut, recut and padded, at kappa = 0 and on certified
conduction at kappa > 0) and on the step's scratch buffers, which are
reused across steps, windows and breaches.
Reference: W. M. McKeeman, "Differential testing for software", Digital
Technical Journal 10 (1998).
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from radgas.config import (  # noqa: E402
    CRANK_NICOLSON,
    DIFFUSION_SCHEMES,
    MAX_FILTER_COEFF,
    ConfigError,
    RunConfig,
)
from radgas import integrator  # noqa: E402
from radgas.diagnostics import ListSink  # noqa: E402
from radgas.integrator import run  # noqa: E402
from radgas.state import COMPACT_BUMP, GAUSSIAN_BUMP, INIT_FAMILIES  # noqa: E402
from test_step_reference import field_bytes, reference_run  # noqa: E402

#: Longest run the first property makes, in first CFL steps.
MAX_STEPS = 300


def magnitudes(top=1023, bottom=-1074):
    """Positive doubles, log-uniform from 2**bottom (by default the least
    subnormal) to 2**top."""
    return st.floats(bottom, top).map(lambda e: 2.0**e)


@st.composite
def any_configs(draw):
    n_cells = draw(st.integers(8, 48))
    eps = draw(st.one_of(st.just(0.0), magnitudes(0)))
    kappa = draw(st.one_of(st.just(0.0), magnitudes()))
    cfl = draw(st.one_of(st.just(1.0), magnitudes(0)))
    if draw(st.booleans()):
        r_max, t_end = draw(magnitudes()), draw(magnitudes())
    else:
        # a horizon of 1 .. MAX_STEPS first steps, on the r_max for which
        # build_grid's innermost w is normal and its outer w * dr finite
        r_max = draw(magnitudes(256, -337))
        first = cfl * (r_max / n_cells) / (math.sqrt(2.0 * (1.0 + eps)) + eps)
        t_end = draw(st.floats(1.0, MAX_STEPS)) * first
    return RunConfig(
        eps=eps,
        kappa=kappa,
        r_max=r_max,
        n_cells=n_cells,
        t_end=t_end,
        init_family=draw(st.sampled_from(INIT_FAMILIES)),
        cfl=cfl,
        output_every=draw(st.integers(1, 6)),
        diffusion_scheme=draw(st.sampled_from(DIFFUSION_SCHEMES)),
        filter_coeff=draw(st.sampled_from([0.0, 0.01, MAX_FILTER_COEFF])),
    )


@settings(max_examples=600, deadline=None)
@given(any_configs())
def test_a_validated_config_runs_to_an_end(config):
    try:
        config.validate()
    except ConfigError:
        return
    # The first CFL step is at least cfl * dr / signal_speed_bound().  It
    # must advance t, even at t_end; the short runs are made.
    first = config.cfl * (config.r_max / config.n_cells) / config.signal_speed_bound()
    assert config.t_end + first > config.t_end
    if config.t_end / first <= MAX_STEPS:
        summary = run(config)
        reasons = ("time-complete", "positivity-breach", "boundary-contact")
        assert summary.termination_reason in reasons


@st.composite
def oracle_configs(draw):
    """The configs of an earlier scratch oracle (120 draws, all equal, none
    breached), a branch of filtered kappa = 0 runs of compact data, which
    run() keeps on a window, a branch of Crank-Nicolson runs whose data is
    so small (down to subnormal) that the first conduction solve spreads it
    over about a hundred cells at most (factors near 0.3), which run() keeps
    on a window after the first step, and a coarse branch of large data and
    large steps, which breaches.  validate() is off, so runs may meet the
    wall."""
    branch = draw(st.sampled_from(["plain", "window", "conduction", "breach"]))
    eps, cfl = draw(st.floats(0.0, 0.6)), draw(st.floats(0.05, 0.6))
    n_cells = draw(st.integers(8, 159))
    kappa = draw(st.sampled_from([0.0, 0.5, 1.0]))
    family = draw(st.sampled_from(INIT_FAMILIES))
    coeff = draw(st.sampled_from([0.0, 0.01, 0.05]))
    r_max, t_end = draw(st.sampled_from([6.0, 8.0, 12.0, 24.0])), draw(st.floats(0.1, 1.5))
    if branch == "window":
        kappa, family, coeff = 0.0, COMPACT_BUMP, draw(st.sampled_from([0.01, 0.05]))
    elif branch == "conduction":
        tiny = st.floats(-1070.0, -850.0).map(lambda e: 2.0**e)
        eps = draw(st.one_of(st.just(0.0), tiny))
        n_cells, kappa = draw(st.integers(240, 400)), draw(st.sampled_from([0.5, 1.0]))
        cfl, t_end = draw(st.floats(0.1, 0.3)), draw(st.floats(0.1, 0.6))
        r_max = 0.1 * n_cells
    elif branch == "breach":
        eps, cfl = draw(st.floats(0.85, 0.95)), draw(st.floats(0.8, 1.0))
        n_cells, kappa = draw(st.integers(16, 60)), draw(st.sampled_from([0.0, 0.5]))
        family, coeff, r_max, t_end = GAUSSIAN_BUMP, 0.0, 24.0, draw(st.floats(3.0, 6.0))
    schemes = [CRANK_NICOLSON] if branch == "conduction" else DIFFUSION_SCHEMES
    return RunConfig(
        eps=eps,
        kappa=kappa,
        r_max=r_max,
        n_cells=n_cells,
        t_end=t_end,
        init_family=family,
        cfl=cfl,
        output_every=draw(st.integers(1, 6)),
        diffusion_scheme=draw(st.sampled_from(schemes)),
        filter_coeff=coeff,
        diag_max_k=draw(st.integers(0, 3)),
    )


@settings(max_examples=300, deadline=None)
@given(oracle_configs(), st.integers(0, integrator._SLACK))
def test_run_equals_the_reference_loop(config, slack):
    # the spare cells of a window set only how often run() recuts
    cells = []
    kernel = integrator.step

    def counted(state, grid, *args):
        cells.append(grid.n_cells)
        return kernel(state, grid, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RunConfig, "validate", lambda self: None)
        patch.setattr(integrator, "_SLACK", slack)
        patch.setattr(integrator, "step", counted)
        sink = ListSink()
        summary = run(config, sink)
    if config.kappa > 0.0:
        event("windowed" if min(cells) < config.n_cells else "full mesh")
    records, steps, reason, peaks, t_final, breached = reference_run(config)
    assert (summary.termination_reason, summary.steps) == (reason, steps)
    assert summary.t_final == t_final
    assert summary.peaks == peaks
    assert sink.records == records
    if breached is None:
        assert sink.breach_state is None
    else:
        assert field_bytes(sink.breach_state) == field_bytes(breached)


def test_run_raises_where_dt_no_longer_advances_t(monkeypatch):
    # validate() rejects this config: cfl * dr / sqrt(2) underflows to 0
    monkeypatch.setattr(RunConfig, "validate", lambda self: None)
    config = RunConfig(
        eps=0.0, kappa=0.0, r_max=1e-90, n_cells=8, t_end=1e-300,
        init_family="zero", cfl=1e-250,
    )
    with pytest.raises(RuntimeError, match="no longer advances"):
        run(config)
