"""One benchmark job in a fresh Python process.

    python3 child.py run   <workload> <out_dir> <seed> <t_end>
    python3 child.py trace <workload> <out_dir> <seed> <t_end> <budget_s>
    python3 child.py preset <name> <out_dir>

`run` is one untraced job.  It prints monotonic clock readings, taken
with the system-wide CLOCK_MONOTONIC so that the parent can subtract its
own launch time from them.  `trace` alternates untraced and traced jobs,
then runs the µs-per-call probes.  `preset` runs a shipped preset the way
`radgas preset` does.  Each prints one JSON line as its last output.  The
parent puts the checkout's `src` on PYTHONPATH.
"""

import json
import resource
import sys
import time
from pathlib import Path

from radgas import parse_config, preset, run, sweep
from radgas.diagnostics import DiagnosticsSink
from radgas.output import BreachDumpSink, CompositeSink, CsvSink, write_summary

import workloads


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class StampSink(DiagnosticsSink):
    """Takes a clock reading at each record."""

    def __init__(self) -> None:
        self.stamps: list[float] = []

    def on_record(self, record) -> None:
        self.stamps.append(clock())


def run_to_dir(config, out_dir: Path, extra_sink=None):
    """Run one config into out_dir the way the `radgas run` verb does."""
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_sink = CsvSink(out_dir / "timeseries.csv", config.diag_max_k)
    sinks = [csv_sink, BreachDumpSink(out_dir / "state_dump.npz")]
    if extra_sink is not None:
        sinks.append(extra_sink)
    try:
        summary = run(config, CompositeSink(*sinks))
    finally:
        csv_sink.close()
    write_summary(summary, out_dir / "summary.json")
    return summary


def one_job(name: str, config, out_dir: Path, parallelism: int) -> dict:
    """One workload job; returns its clock readings and step counts."""
    if workloads.kind(name) == "run":
        stamps = StampSink()
        summary = run_to_dir(config, out_dir, stamps)
        done = clock()
        return {
            "stamps": stamps.stamps,
            "done": done,
            "steps": summary.steps,
            "n_cells": config.n_cells,
            "output_every": config.output_every,
        }
    start = clock()
    summaries = sweep(
        config, workloads.SWEEP_AXIS, list(workloads.SWEEP_VALUES),
        parallelism=parallelism, out_root=out_dir,
    )
    done = clock()
    return {
        "call": start,
        "done": done,
        "member_steps": [s.steps for s in summaries],
        "n_cells": config.n_cells,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any of its waited-for children."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def main_run(name: str, out_dir: str, seed: str, t_end: str) -> dict:
    config = parse_config(workloads.config_text(name, int(seed), float(t_end)))
    job = one_job(name, config, Path(out_dir), workloads.SWEEP_WORKERS)
    job["peak_rss_mb"] = peak_rss_mb()
    return job


def main_trace(name: str, out_dir: str, seed: str, t_end: str, budget: str) -> dict:
    """Alternate untraced and traced jobs for half the budget, then probe.

    The sweep's traced jobs run their members in this process
    (parallelism 1) so that the wrappers see them; its untraced jobs do the
    same, so the two times compare.
    """
    import probes

    budget = float(budget)
    out = Path(out_dir)
    config = parse_config(workloads.config_text(name, int(seed), float(t_end)))
    warmup = parse_config(workloads.config_text(name, int(seed), 0.05))
    one_job(name, warmup, out / "warmup", 1)

    tracer = probes.Tracer()
    plain_walls, traced_walls, observed = [], [], []
    steps = None
    deadline = clock() + 0.5 * budget
    pair_s = 0.0
    while not traced_walls or clock() + pair_s < deadline:
        pair_start = clock()
        for traced in (False, True):
            job_dir = out / ("traced" if traced else "plain") / str(len(traced_walls))
            if traced:
                tracer.install()
            try:
                start = clock()
                job = one_job(name, config, job_dir, 1)
                elapsed = clock() - start
            finally:
                tracer.uninstall()
            (traced_walls if traced else plain_walls).append(elapsed)
            steps = job.get("steps", sum(job.get("member_steps", [])))
            observed.append(workloads.observe(name, job_dir))
        pair_s = clock() - pair_start

    probe_values, probe_missing = probes.run_probes(
        max(0.01, min(0.2, 0.45 * budget / len(probes.probe_names())))
    )
    return {
        "steps": steps,
        "plain_walls": plain_walls,
        "traced_walls": traced_walls,
        "calls": tracer.calls,
        "inclusive": tracer.inclusive,
        "self_time": tracer.self_time,
        "missing": tracer.missing + probe_missing,
        "probes": probe_values,
        "observed": observed,
    }


def main_preset(name: str, out_dir: str) -> dict:
    configs = preset(name)
    if not isinstance(configs, list):
        configs = [configs]
    observed = {}
    for config in configs:
        directory = Path(out_dir) / config.run_id
        run_to_dir(config, directory)
        observed[config.run_id] = workloads.observe_dir(directory)
    return {"observed": observed}


if __name__ == "__main__":
    modes = {"run": main_run, "trace": main_trace, "preset": main_preset}
    print(json.dumps(modes[sys.argv[1]](*sys.argv[2:])))
