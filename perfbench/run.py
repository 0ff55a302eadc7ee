#!/usr/bin/env python3
"""radgas benchmark: time-to-solution of whole jobs, and where the time goes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a radgas checkout; the benchmark imports the package
from its `src` directory.  Each workload job runs in a fresh Python process,
one at a time (closed loop), until `--seconds` have passed.  With
`--trace 0` the end-to-end metrics are reported; with `--trace 1` one child
alternates untraced and traced jobs and then runs the µs-per-call probes,
and the per-layer metrics are reported.  Every job's outputs are checked
against golden.json.  `--all` does both for every workload, checks the
shipped presets against their golden outputs too, and writes
perfbench/out/BENCH_all.json.  The last line printed is the JSON result.
See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import probes
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
PRESET_TIMEOUT_S = 600.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("mcell_steps_per_s", "Mcell-step/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)

#: (span, statistic) pairs of the traced run.  `share` and `self_share` are
#: the span's self time over the traced jobs' wall time; `us_per_call` is
#: its inclusive time per call.
TRACE_METRICS = (
    ("integrator.conduction", "share"),
    ("integrator.conduction", "us_per_call"),
    ("integrator.conduction", "calls_per_step"),
    ("dynamics.convective_rhs", "share"),
    ("dynamics.convective_rhs", "us_per_call"),
    ("dynamics.convective_rhs", "calls_per_step"),
    ("integrator.filter", "share"),
    ("integrator.filter", "us_per_call"),
    ("state.validate", "share"),
    ("state.validate", "calls_per_step"),
    ("dynamics.cfl_dt", "share"),
    ("operators.derivative_array", "calls_per_step"),
    ("integrator.step", "self_share"),
    ("diagnostics.update", "share"),
    ("diagnostics.update", "us_per_call"),
    ("output.csv_row", "us_per_call"),
)
_STAT_UNITS = {
    "share": "fraction",
    "self_share": "fraction",
    "us_per_call": "us",
    "calls_per_step": "calls/step",
}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric: traced run, then probes."""
    names = [(f"{span}.{stat}", _STAT_UNITS[stat]) for span, stat in TRACE_METRICS]
    names.append(("trace.overhead_frac", "fraction"))
    return names + probes.probe_names()


def spawn(args: list[str], timeout: float) -> dict | None:
    """Run child.py in a fresh process; its last stdout line, or None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        print(f"child {args[:2]} timed out after {timeout} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"child {args[:2]} exited {proc.returncode}:\n{err[-2000:]}", file=sys.stderr)
        return None
    sys.stderr.write(err)
    return json.loads(out.strip().splitlines()[-1])


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def job_sample(name: str, job: dict, launch: float) -> dict:
    """End-to-end figures of one job, from the child's clock readings."""
    if workloads.kind(name) == "sweep":
        call_s = job["done"] - job["call"]
        step_ms = [call_s / max(job["member_steps"]) * 1e3]
        return {
            "wall_s": job["done"] - launch,
            "setup_s": job["call"] - launch,
            "mcell_steps_per_s": job["n_cells"] * sum(job["member_steps"]) / call_s / 1e6,
            "step_ms": step_ms,
            "peak_rss_mb": job["peak_rss_mb"],
        }
    stamps, steps, every = job["stamps"], job["steps"], job["output_every"]
    # run() records at step 0, at every multiple of output_every, and at the end.
    at = list(range(0, steps, every)) + [steps]
    step_ms = []
    if len(at) == len(stamps):
        step_ms = [
            (stamps[i] - stamps[i - 1]) / (at[i] - at[i - 1]) * 1e3
            for i in range(1, len(at))
        ]
    return {
        "wall_s": job["done"] - launch,
        "setup_s": stamps[0] - launch,
        "mcell_steps_per_s": job["n_cells"] * steps / (stamps[-1] - stamps[0]) / 1e6,
        "step_ms": step_ms,
        "peak_rss_mb": job["peak_rss_mb"],
    }


def step_percentiles(samples: list[dict]) -> tuple[float | None, float | None]:
    """p50 and p90 of the per-step time.

    For a run workload, each job's own percentile, averaged over jobs.  A
    sweep job gives one sample, so its samples are pooled.
    """
    per_job = [s["step_ms"] for s in samples if len(s["step_ms"]) > 1]
    if per_job:
        return tuple(
            statistics.fmean(percentile(v, pct) for v in per_job) for pct in (50, 90)
        )
    pooled = [v for s in samples for v in s["step_ms"]]
    if not pooled:
        return None, None
    return percentile(pooled, 50), percentile(pooled, 90)


def measure_end_to_end(name, seed, seconds, t_end, golden) -> dict:
    expected = golden["workloads"].get(name, {})
    job_dir = OUT / name / "job"
    samples, problems = [], []
    attempted = failed = 0
    start = clock()
    while attempted == 0 or clock() - start < seconds:
        shutil.rmtree(job_dir, ignore_errors=True)
        attempted += 1
        launch = clock()
        job = spawn(["run", name, str(job_dir), str(seed), repr(t_end)], CHILD_TIMEOUT_S)
        if job is None:
            failed += 1
            problems.append(f"job {attempted}: child failed")
            continue
        wrong = workloads.mismatches(expected, workloads.observe(name, job_dir))
        if wrong:
            failed += 1
            problems += [f"job {attempted}: {p}" for p in wrong]
        samples.append(job_sample(name, job, launch))

    metrics = {}
    if samples:
        p50, p90 = step_percentiles(samples)
        # Means over jobs: the host switches between speed regimes lasting
        # from a fraction of a second to minutes, so a job's figures are
        # multimodal, and a median over jobs jumps between the modes.
        values = {
            "wall_s": statistics.fmean(s["wall_s"] for s in samples),
            "setup_s": statistics.fmean(s["setup_s"] for s in samples),
            "mcell_steps_per_s": statistics.fmean(s["mcell_steps_per_s"] for s in samples),
            "step_ms_p50": p50,
            "step_ms_p90": p90,
            "peak_rss_mb": max(s["peak_rss_mb"] for s in samples),
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    for s in samples:
        s["step_ms_samples"] = len(s.pop("step_ms"))
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "jobs": samples}


def measure_per_layer(name, seed, seconds, t_end, golden) -> dict:
    expected = golden["workloads"].get(name, {})
    job_dir = OUT / name / "trace"
    shutil.rmtree(job_dir, ignore_errors=True)
    # The traced child runs for about `seconds`, so its limit grows with it.
    job = spawn(
        ["trace", name, str(job_dir), str(seed), repr(t_end), repr(float(seconds))],
        max(CHILD_TIMEOUT_S, 2 * seconds + 60),
    )
    if job is None:
        return {"attempted": 1, "failed": 1, "problems": ["trace child failed"], "metrics": {}}
    problems = []
    failed = 0
    for i, seen in enumerate(job["observed"]):
        wrong = workloads.mismatches(expected, seen)
        if wrong:
            failed += 1
            problems += [f"job {i}: {p}" for p in wrong]

    runs = len(job["traced_walls"])
    wall = sum(job["traced_walls"])
    values: dict[str, float | None] = {}
    for span, stat in TRACE_METRICS:
        calls = job["calls"][span]
        if span in job["missing"]:
            value = None
        elif stat in ("share", "self_share"):
            value = job["self_time"][span] / wall
        elif stat == "us_per_call":
            value = job["inclusive"][span] / calls * 1e6 if calls else 0.0
        else:
            value = calls / (runs * job["steps"])
        values[f"{span}.{stat}"] = value
    values["trace.overhead_frac"] = (
        statistics.median(job["traced_walls"]) / statistics.median(job["plain_walls"]) - 1.0
    )
    values.update(job["probes"])
    metrics = {k: {"value": values.get(k), "unit": unit} for k, unit in per_layer_names()}
    return {
        "attempted": len(job["observed"]), "failed": failed, "problems": problems,
        "metrics": metrics, "missing": job["missing"],
        "traced_walls": job["traced_walls"], "plain_walls": job["plain_walls"],
        "steps_per_job": job["steps"],
    }


def check_presets(golden: dict) -> dict:
    """Run every shipped preset once and compare it with its golden outputs."""
    attempted = failed = 0
    problems = []
    for name, expected in golden["presets"].items():
        directory = OUT / "presets" / name
        shutil.rmtree(directory, ignore_errors=True)
        attempted += 1
        job = spawn(["preset", name, str(directory)], PRESET_TIMEOUT_S)
        wrong = ["child failed"] if job is None else workloads.mismatches(expected, job["observed"])
        if wrong:
            failed += 1
            problems += [f"preset {name}: {p}" for p in wrong]
    return {"attempted": attempted, "failed": failed, "problems": problems}


def machine_block(loadavg: tuple[float, float, float]) -> dict:
    """The machine and software a result was measured on."""
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[label] = size
    try:
        import numpy

        build = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
        blas = {k: v for k, v in build.items() if "directory" not in k}
    except Exception as exc:  # noqa: BLE001 - the block is informational
        blas = f"unavailable: {type(exc).__name__}"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": blas,
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "loadavg_at_start": list(loadavg),
    }


def print_metrics(title: str, metrics: dict, result: dict) -> None:
    print(f"== {title}")
    for name, entry in metrics.items():
        value = "missing" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"  {name:<44} {value:>12} {entry['unit']}")
    fraction = result["failed"] / result["attempted"]
    print(f"  {'failed_fraction':<44} {fraction:>12.6g} fraction"
          f"  ({result['failed']} of {result['attempted']} jobs)")
    for problem in result["problems"]:
        print(f"  MISMATCH {problem}")


def measure(name, seed, seconds, trace, t_end, golden) -> dict:
    fn = measure_per_layer if trace else measure_end_to_end
    result = fn(name, seed, seconds, t_end, golden)
    print_metrics(f"{name} seed={seed} trace={trace} t_end={t_end}", result["metrics"], result)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, both modes, and the presets")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")

    loadavg = os.getloadavg()
    if not (SRC / "radgas" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'radgas'} not found; run from a radgas checkout",
              file=sys.stderr)
        return 2
    golden = workloads.load_golden()
    # Byte-compile outside every timed region, so no job pays for it.
    compileall.compile_dir(SRC, quiet=1)
    OUT.mkdir(exist_ok=True)

    if args.all:
        report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
        attempted = failed = 0
        for name in workloads.WORKLOADS:
            t_end = workloads.default_t_end(name)
            entry = report["workloads"][name] = {"t_end": t_end}
            for trace in (0, 1):
                result = measure(name, args.seed, args.seconds, trace, t_end, golden)
                entry["per_layer" if trace else "end_to_end"] = result
                attempted += result["attempted"]
                failed += result["failed"]
        presets = check_presets(golden)
        print_metrics("shipped presets", {}, presets)
        report["presets"] = presets
        attempted += presets["attempted"]
        failed += presets["failed"]
        report["machine"] = machine_block(loadavg)
        path = OUT / "BENCH_all.json"
        path.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {path}")
        summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}
        print(json.dumps(summary))
        return 0

    t_end = workloads.default_t_end(args.workload)
    result = measure(args.workload, args.seed, args.seconds, args.trace, t_end, golden)
    if not result["metrics"]:
        print("perfbench: no job completed", file=sys.stderr)
        return 1
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, t_end=t_end, machine=machine_block(loadavg))
    path = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
