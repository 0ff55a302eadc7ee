"""Parameter sweeps: run a base config across one axis, optionally in parallel."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .config import ConfigError, RunConfig, RunSummary
from .output import run_to_dir

SWEEP_AXES = ("eps", "kappa", "n_cells")


def sweep(
    base: RunConfig,
    axis: str,
    values: Sequence[float | int],
    parallelism: int = 1,
    out_root: str | Path | None = None,
) -> list[RunSummary]:
    """Run the base config once per value of the given axis.

    Results come back in input order.  Each member gets a derived run_id
    (and, when out_root is given, its own output directory keyed by it);
    two values that derive the same run_id are a ConfigError.
    A member that fails is reported through its summary; the sweep carries on.
    Numeric results are identical whether the members run sequentially or in
    parallel worker processes.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    if parallelism < 1:
        raise ConfigError(f"parallelism must be >= 1, got {parallelism}")

    members: dict[str, tuple[RunConfig, str | None]] = {}
    for value in values:
        if axis == "n_cells" and not float(value).is_integer():
            raise ConfigError(f"n_cells values must be integers, got {value!r}")
        cast = int(value) if axis == "n_cells" else float(value)
        run_id = f"{base.run_id}-{axis}-{cast!r}"
        if run_id in members:
            raise ConfigError(f"two sweep values name the same member {run_id!r}")
        config = replace(base, **{axis: cast}, run_id=run_id)
        config.validate()
        out_dir = None if out_root is None else str(Path(out_root) / run_id)
        members[run_id] = (config, out_dir)

    jobs = list(members.values())
    if parallelism == 1 or len(jobs) <= 1:
        return [run_to_dir(config, out_dir) for config, out_dir in jobs]
    with ProcessPoolExecutor(max_workers=min(parallelism, len(jobs))) as pool:
        futures = [pool.submit(run_to_dir, c, d) for c, d in jobs]
        return [future.result() for future in futures]
