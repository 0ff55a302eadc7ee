"""Run directories: timeseries CSV and summary JSON with round-trip-exact floats."""

from __future__ import annotations

import dataclasses
import json
import os
import traceback
from pathlib import Path

import numpy as np

from .config import RunConfig, RunSummary
from .diagnostics import SCALAR_FIELDS, DiagnosticsRecord, DiagnosticsSink
from .integrator import run
from .state import State

_SCALAR_COLUMNS = ("t", *SCALAR_FIELDS)


def timeseries_header(max_k: int) -> str:
    """Fixed CSV header for a run with diagnostics order max_k."""
    columns = list(_SCALAR_COLUMNS)
    columns += [f"E{k}1" for k in range(max_k + 1)]
    columns += [f"E{k}2" for k in range(1, max_k + 1)]
    return ",".join(columns)


def format_record(record: DiagnosticsRecord) -> str:
    """One CSV row; repr gives the shortest digit string that round-trips."""
    values = [getattr(record, name) for name in _SCALAR_COLUMNS]
    values += list(record.e_k1)
    values += list(record.e_k2)
    return ",".join(repr(float(v)) for v in values)


def _partial_path(path: Path) -> Path:
    """Where a file is written before one os.replace publishes it, so that a
    killed run leaves no truncated file under the final name."""
    return path.with_name(path.name + ".partial")


class CsvSink(DiagnosticsSink):
    """Stream records to a CSV file as the run produces them.  The file
    appears under its name only when the sink is closed, or when its with
    block exits cleanly; after an exception it stays a .partial file."""

    def __init__(self, path: str | Path, max_k: int) -> None:
        self.path = Path(path)
        self._fh = open(_partial_path(self.path), "w")
        self._fh.write(timeseries_header(max_k) + "\n")

    def on_record(self, record: DiagnosticsRecord) -> None:
        self._fh.write(format_record(record) + "\n")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()
            os.replace(self._fh.name, self.path)

    def __enter__(self) -> "CsvSink":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.close()
        self._fh.close()


class BreachDumpSink(DiagnosticsSink):
    """Dump the full offending state to an .npz file on a positivity breach."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def on_breach(self, state: State) -> None:
        partial = _partial_path(self.path)
        with open(partial, "wb") as fh:
            np.savez(
                fh,
                a=state.a,
                u=state.u,
                theta=state.theta,
                t=state.t,
                kappa=state.params.kappa,
            )
        os.replace(partial, self.path)


class CompositeSink(DiagnosticsSink):
    def __init__(self, *sinks: DiagnosticsSink) -> None:
        self.sinks = sinks

    def on_record(self, record: DiagnosticsRecord) -> None:
        for sink in self.sinks:
            sink.on_record(record)

    def on_breach(self, state: State) -> None:
        for sink in self.sinks:
            sink.on_breach(state)


def run_to_dir(config: RunConfig, out_dir: str | Path | None) -> RunSummary:
    """Run one config and write its run directory.

    out_dir receives timeseries.csv, summary.json and, on a positivity
    breach, state_dump.npz; with out_dir None nothing is written.  An
    unexpected exception becomes a summary with termination_reason "error"
    and the error text, written like any other summary.
    """
    directory = None if out_dir is None else Path(out_dir)
    try:
        if directory is None:
            return run(config)
        directory.mkdir(parents=True, exist_ok=True)
        with CsvSink(directory / "timeseries.csv", config.diag_max_k) as csv_sink:
            dump = BreachDumpSink(directory / "state_dump.npz")
            summary = run(config, CompositeSink(csv_sink, dump))
    except Exception as exc:  # noqa: BLE001 - a failed run still gets a summary
        summary = RunSummary(
            run_id=config.run_id,
            termination_reason="error",
            steps=0,
            t_final=0.0,
            wall_clock_seconds=0.0,
            error="".join(traceback.format_exception_only(type(exc), exc)).strip(),
        )
    if directory is not None and directory.is_dir():
        write_summary(summary, directory / "summary.json")
    return summary


def write_summary(summary: RunSummary, path: str | Path) -> None:
    """Serialize a RunSummary as JSON with lower_snake_case keys."""
    payload = dataclasses.asdict(summary)
    partial = _partial_path(Path(path))
    with open(partial, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    os.replace(partial, path)
