"""CSV/JSON emission and bit-exact round trips."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from radgas import integrator
from radgas.config import RunConfig, RunSummary
from radgas.diagnostics import DiagnosticsRecord, DiagnosticsSink, ListSink
from radgas.output import (
    BreachDumpSink,
    CompositeSink,
    CsvSink,
    format_record,
    run_to_dir,
    timeseries_header,
    write_summary,
)
from radgas.state import PhysParams, State


def read_timeseries(path):
    """Read a timeseries CSV back into (column names, row array)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [
            [float(tok) for tok in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    return header, np.asarray(rows)


def write_csv(records, path, max_k=2):
    with CsvSink(path, max_k) as sink:
        for record in records:
            sink.on_record(record)


def make_record(t, seed=0, max_k=2):
    rng = np.random.default_rng(seed)
    scalars = rng.standard_normal(7)
    return DiagnosticsRecord(
        t=t,
        mass=scalars[0],
        momentum_scalar=scalars[1],
        energy=scalars[2],
        entropy_total=scalars[3],
        entropy_dissipation=abs(scalars[4]),
        lyapunov=abs(scalars[5]),
        shock_indicator=abs(scalars[6]),
        e_k1=tuple(rng.uniform(size=max_k + 1)),
        e_k2=tuple(rng.uniform(size=max_k)),
        grad_theta_sq=float(rng.uniform()),
    )


class TestHeader:
    def test_k2_header_fixed(self):
        assert timeseries_header(2) == (
            "t,mass,momentum_scalar,energy,entropy_total,entropy_dissipation,"
            "lyapunov,shock_indicator,E01,E11,E21,E12,E22"
        )

    def test_k0_header(self):
        assert timeseries_header(0) == (
            "t,mass,momentum_scalar,energy,entropy_total,entropy_dissipation,"
            "lyapunov,shock_indicator,E01"
        )

    def test_column_count_tracks_order(self):
        for max_k in range(4):
            assert len(timeseries_header(max_k).split(",")) == 8 + 2 * max_k + 1


class TestRoundTrip:
    def test_awkward_floats_roundtrip_exactly(self, tmp_path):
        # repr emits the shortest digits that reparse to the same float
        awkward = DiagnosticsRecord(
            t=0.1 + 0.2,
            mass=math.pi,
            momentum_scalar=-1e-300,
            energy=2.0 / 3.0,
            entropy_total=1e16 + 1.0,
            entropy_dissipation=5e-324,
            lyapunov=0.0,
            shock_indicator=1.0000000000000002,
            e_k1=(1.1, 2.2, 3.3),
            e_k2=(4.4, 5.5),
            grad_theta_sq=0.0,
        )
        path = tmp_path / "awkward.csv"
        write_csv([awkward], path)
        header, rows = read_timeseries(path)
        assert header == timeseries_header(2).split(",")
        expected = [
            awkward.t,
            awkward.mass,
            awkward.momentum_scalar,
            awkward.energy,
            awkward.entropy_total,
            awkward.entropy_dissipation,
            awkward.lyapunov,
            awkward.shock_indicator,
            *awkward.e_k1,
            *awkward.e_k2,
        ]
        assert rows.shape == (1, 13)
        assert all(a == b for a, b in zip(rows[0], expected))

    def test_random_records_roundtrip(self, tmp_path):
        records = [make_record(t=0.1 * i, seed=i) for i in range(20)]
        path = tmp_path / "series.csv"
        write_csv(records, path)
        _, rows = read_timeseries(path)
        assert rows.shape == (20, 13)
        for record, row in zip(records, rows):
            assert format_record(record) == ",".join(repr(float(v)) for v in row)


class TestCsvSink:
    def test_streams_and_closes(self, tmp_path):
        path = tmp_path / "stream.csv"
        with CsvSink(path, max_k=2) as sink:
            sink.on_record(make_record(0.0))
            sink.on_record(make_record(0.5, seed=1))
        header, rows = read_timeseries(path)
        assert header[0] == "t"
        assert rows.shape == (2, 13)

    def test_unclosed_sink_leaves_no_csv(self, tmp_path):
        # a run killed mid-way must not leave a truncated file that looks whole
        path = tmp_path / "timeseries.csv"
        sink = CsvSink(path, max_k=2)
        sink.on_record(make_record(0.0))
        assert not path.exists()
        sink.close()
        assert read_timeseries(path)[1].shape == (1, 13)
        assert [p.name for p in tmp_path.iterdir()] == ["timeseries.csv"]

    def test_identical_records_identical_bytes(self, tmp_path):
        paths = [tmp_path / "one.csv", tmp_path / "two.csv"]
        for path in paths:
            with CsvSink(path, max_k=2) as sink:
                for i in range(5):
                    sink.on_record(make_record(0.25 * i, seed=i))
        assert paths[0].read_bytes() == paths[1].read_bytes()


TINY = RunConfig(
    eps=1e-3, kappa=1.0, r_max=12.0, n_cells=64, t_end=0.2, output_every=4,
    run_id="tiny",
)


class TestSummaryJson:
    def make_summary(self):
        return RunSummary(
            run_id="demo",
            termination_reason="time-complete",
            steps=128,
            t_final=2.0,
            wall_clock_seconds=0.75,
            peaks={"mass": 1.5e-3, "shock_indicator": 0.9},
            final_e_k1=(1.0, 2.0, 3.0),
            final_e_k2=(0.5, 0.6),
        )

    def test_keys_are_field_names(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary(self.make_summary(), path)
        payload = json.loads(path.read_text())
        assert set(payload) == {
            "run_id",
            "termination_reason",
            "steps",
            "t_final",
            "wall_clock_seconds",
            "peaks",
            "final_e_k1",
            "final_e_k2",
            "error",
        }
        assert payload["termination_reason"] == "time-complete"
        assert payload["final_e_k1"] == [1.0, 2.0, 3.0]
        assert payload["peaks"]["mass"] == 1.5e-3
        assert payload["error"] is None

    def test_failed_write_leaves_no_summary(self, tmp_path):
        path = tmp_path / "summary.json"
        summary = dataclasses.replace(self.make_summary(), peaks={"mass": object()})
        with pytest.raises(TypeError):  # json.dump fails part-way through
            write_summary(summary, path)
        assert not path.exists()

    def test_run_to_dir_writes_sibling_summary(self, tmp_path):
        out = tmp_path / "run"
        summary = run_to_dir(TINY, out)
        assert summary.termination_reason == "time-complete"
        assert sorted(p.name for p in out.iterdir()) == ["summary.json", "timeseries.csv"]
        payload = json.loads((out / "summary.json").read_text())
        assert payload["run_id"] == "tiny"
        assert payload["steps"] == summary.steps
        _, rows = read_timeseries(out / "timeseries.csv")
        assert rows[-1, 0] == summary.t_final
        # without a directory the same run gives the same summary
        bare = run_to_dir(TINY, None)
        assert (bare.steps, bare.peaks) == (summary.steps, summary.peaks)

    def test_run_to_dir_turns_an_exception_into_an_error_summary(
        self, tmp_path, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(integrator, "step", boom)
        out = tmp_path / "run"
        summary = run_to_dir(TINY, out)
        assert summary.termination_reason == "error"
        assert "solver exploded" in summary.error
        payload = json.loads((out / "summary.json").read_text())
        assert payload["termination_reason"] == "error"
        assert "RuntimeError: solver exploded" in payload["error"]
        assert run_to_dir(TINY, None).termination_reason == "error"

    @staticmethod
    def stop_at_step(monkeypatch, number, exc):
        real_step, calls = integrator.step, []

        def stopping(*args, **kwargs):
            calls.append(None)
            if len(calls) == number:
                raise exc
            return real_step(*args, **kwargs)

        monkeypatch.setattr(integrator, "step", stopping)

    def test_interrupted_run_publishes_no_csv(self, tmp_path, monkeypatch):
        # records at steps 0, 2 and 4, then Ctrl-C: no summary, and the rows
        # stay under the .partial name instead of posing as a whole run
        self.stop_at_step(monkeypatch, 5, KeyboardInterrupt)
        out = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            run_to_dir(dataclasses.replace(TINY, output_every=2), out)
        assert [p.name for p in out.iterdir()] == ["timeseries.csv.partial"]
        assert read_timeseries(out / "timeseries.csv.partial")[1].shape == (3, 13)

    def test_failed_run_keeps_its_rows_partial(self, tmp_path, monkeypatch):
        self.stop_at_step(monkeypatch, 5, RuntimeError("solver exploded"))
        out = tmp_path / "run"
        summary = run_to_dir(dataclasses.replace(TINY, output_every=2), out)
        assert summary.termination_reason == "error"
        names = sorted(p.name for p in out.iterdir())
        assert names == ["summary.json", "timeseries.csv.partial"]
        assert read_timeseries(out / "timeseries.csv.partial")[1].shape == (3, 13)


class TestBreachDump:
    def test_state_round_trips(self, tmp_path):
        rng = np.random.default_rng(4)
        state = State(
            a=rng.uniform(-0.9, 0.5, size=32),
            u=rng.standard_normal(32),
            theta=rng.uniform(-0.9, 0.5, size=32),
            t=3.25,
            params=PhysParams(kappa=0.5),
        )
        path = tmp_path / "dump.npz"
        BreachDumpSink(path).on_breach(state)
        with np.load(path) as data:
            assert np.array_equal(data["a"], state.a)
            assert np.array_equal(data["u"], state.u)
            assert np.array_equal(data["theta"], state.theta)
            assert float(data["t"]) == 3.25
            assert float(data["kappa"]) == 0.5

    ZERO = State(a=np.zeros(8), u=np.zeros(8), theta=np.zeros(8), t=0.0, params=PhysParams())

    def test_failed_write_leaves_no_dump(self, tmp_path, monkeypatch):
        def broken_savez(file, **arrays):
            # the start of a zip archive, then a full disk
            if hasattr(file, "write"):
                file.write(b"PK\x03\x04")
            else:
                Path(file).write_bytes(b"PK\x03\x04")
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "savez", broken_savez)
        with pytest.raises(OSError):
            BreachDumpSink(tmp_path / "state_dump.npz").on_breach(self.ZERO)
        assert not (tmp_path / "state_dump.npz").exists()


class TestCompositeSink:
    def test_fans_out(self, tmp_path):
        class Counter:
            def __init__(self):
                self.records = 0
                self.breaches = 0

            def on_record(self, record):
                self.records += 1

            def on_breach(self, state):
                self.breaches += 1

        counters = [Counter(), Counter()]
        sink = CompositeSink(*counters)
        sink.on_record(make_record(0.0))
        sink.on_record(make_record(1.0))
        sink.on_breach(None)
        for counter in counters:
            assert counter.records == 2
            assert counter.breaches == 1

    def test_a_sink_without_on_breach_survives_a_breach(self):
        # a sink may override on_record alone, as perfbench's StampSink does
        class Counter(DiagnosticsSink):
            def __init__(self):
                self.records = 0

            def on_record(self, record):
                self.records += 1

        # without conduction the 0.3-amplitude data breaches at t = 4.58
        breaching = RunConfig(
            eps=0.3, kappa=0.0, r_max=34.0, n_cells=680, t_end=12.0, cfl=0.4,
            output_every=10,
        )
        listing, counter = ListSink(), Counter()
        summary = integrator.run(breaching, CompositeSink(listing, counter))
        assert summary.termination_reason == "positivity-breach"
        assert listing.breach_state is not None
        assert counter.records == len(listing.records) > 1
