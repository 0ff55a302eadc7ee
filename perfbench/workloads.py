"""Workload definitions, golden outputs and output checks of the benchmark.

A workload fixes the physics, the mesh and the horizon of one radgas job.
The configs are kept here as ``key = value`` text, exactly as a user would
write them, so every benchmark job also goes through ``parse_config``.

The seed goes into the config's ``seed`` key, which the solver records but
does not consume: the outputs, and with them the golden hashes below, are
the same for every seed.  This module imports nothing from radgas, so the
driver can load it before it has checked that the program is there.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

#: The `small-data-global` preset at a horizon of t = 5 (1132 steps).
_SMOOTH = """\
eps = 1e-3
kappa = {kappa}
r_max = 100.0
n_cells = 4000
t_end = {t_end}
cfl = 0.25
output_every = 20
diffusion_scheme = crank-nicolson
filter_coeff = 0.01
diag_max_k = 2
seed = {seed}
run_id = {run_id}
"""

#: The `entropy-audit` preset with a record at every step, horizon t = 3.
_AUDIT = """\
eps = 1e-3
kappa = 1.0
r_max = 24.0
n_cells = 1920
t_end = {t_end}
cfl = 0.25
output_every = 1
diffusion_scheme = crank-nicolson
filter_coeff = 0.01
diag_max_k = 2
seed = {seed}
run_id = {run_id}
"""

#: The `no-conduction-steepening` preset at a horizon of t = 6; swept over
#: kappa in {0, 1}, its kappa = 0 member breaches at step 476.
_STEEPENING = """\
eps = 0.3
kappa = 0.0
r_max = 56.0
n_cells = 2800
t_end = {t_end}
cfl = 0.4
output_every = 10
filter_coeff = 0.0
diag_max_k = 2
seed = {seed}
run_id = {run_id}
"""

#: name -> (kind, config template, template values, default horizon).
#: kind "run" is one `run()` call; kind "sweep" is
#: `sweep(base, "kappa", SWEEP_VALUES, parallelism=SWEEP_WORKERS)`.
WORKLOADS = {
    "smooth-decay": ("run", _SMOOTH, {"kappa": "1.0"}, 5.0),
    "inviscid-decay": ("run", _SMOOTH, {"kappa": "0.0"}, 5.0),
    "audit-dense": ("run", _AUDIT, {}, 3.0),
    "dichotomy-sweep": ("sweep", _STEEPENING, {}, 6.0),
}

SWEEP_AXIS = "kappa"
SWEEP_VALUES = (0.0, 1.0)
SWEEP_WORKERS = 2


def kind(name: str) -> str:
    return WORKLOADS[name][0]


def default_t_end(name: str) -> float:
    return WORKLOADS[name][3]


def config_text(name: str, seed: int, t_end: float) -> str:
    """The workload's config document for one seed and horizon."""
    _, template, values, _ = WORKLOADS[name]
    return template.format(t_end=repr(float(t_end)), seed=int(seed), run_id=name, **values)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def observe_dir(directory: Path) -> dict:
    """Termination reason, step count and CSV hash of one run directory.

    A missing or unreadable file is reported in the result instead of
    raising, so that a broken run counts as a mismatch.
    """
    directory = Path(directory)
    seen: dict = {"dump": (directory / "state_dump.npz").is_file()}
    try:
        summary = json.loads((directory / "summary.json").read_text())
        seen["reason"] = summary["termination_reason"]
        seen["steps"] = summary["steps"]
        seen["sha256"] = sha256(directory / "timeseries.csv")
    except (OSError, ValueError, KeyError) as exc:
        seen["error"] = f"{type(exc).__name__}: {exc}"
    return seen


def observe(name: str, out_dir: Path) -> dict:
    """Observed outputs of one workload job, keyed like its golden entry."""
    out_dir = Path(out_dir)
    if kind(name) == "run":
        return {name: observe_dir(out_dir)}
    return {
        member.name: observe_dir(member)
        for member in sorted(out_dir.iterdir())
        if member.is_dir()
    }


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def mismatches(expected: dict, seen: dict) -> list[str]:
    """Every way an observation differs from its golden outputs.

    ``expected`` maps a run id to its golden reason, steps and sha256; a
    breached run must also have left its state dump.
    """
    problems = []
    for run_id in sorted(set(expected) | set(seen)):
        want = expected.get(run_id)
        got = seen.get(run_id)
        if want is None or got is None:
            problems.append(f"{run_id}: expected {want}, got {got}")
            continue
        if "error" in got:
            problems.append(f"{run_id}: {got['error']}")
            continue
        for key in ("reason", "steps", "sha256"):
            if got[key] != want[key]:
                problems.append(f"{run_id}: {key} {got[key]!r} != golden {want[key]!r}")
        if want["reason"] == "positivity-breach" and not got["dump"]:
            problems.append(f"{run_id}: breached without a state_dump.npz")
    return problems
