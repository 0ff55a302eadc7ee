"""Sweep driver and the command-line harness."""

import concurrent.futures
import dataclasses
import json
import re

import pytest

from radgas import cli, integrator
from radgas.cli import build_parser, main
from radgas.config import ConfigError, RunConfig
from radgas.sweep import sweep

import unrunnable

BASE_TEXT = """
eps = 1e-3
kappa = 1.0
r_max = 12.0
n_cells = 96
t_end = 0.4
cfl = 0.25
output_every = 4
run_id = sweep-base
"""

BREACH_TEXT = """
# steepens into a shock without conduction and crosses the positivity floor
eps = 0.3
kappa = 0.0
r_max = 34.0
n_cells = 680
t_end = 12.0
cfl = 0.4
output_every = 10
run_id = breach-case
"""


def base_config(**overrides):
    fields = dict(
        eps=1e-3,
        kappa=1.0,
        r_max=12.0,
        n_cells=96,
        t_end=0.4,
        cfl=0.25,
        output_every=4,
        diag_max_k=2,
        run_id="sweep-base",
    )
    fields.update(overrides)
    return RunConfig(**fields)


def summary_numbers(summary):
    """Everything in a summary except the wall-clock timing."""
    payload = dataclasses.asdict(summary)
    payload.pop("wall_clock_seconds")
    return payload


class TestSweep:
    def test_eps_axis_completes_in_order(self):
        values = [1e-4, 1e-3, 1e-2]
        summaries = sweep(base_config(), "eps", values)
        assert len(summaries) == 3
        assert [s.run_id for s in summaries] == [
            "sweep-base-eps-0.0001",
            "sweep-base-eps-0.001",
            "sweep-base-eps-0.01",
        ]
        assert all(s.termination_reason == "time-complete" for s in summaries)
        # larger amplitude, larger mass peak: order is the input order
        masses = [s.peaks["mass"] for s in summaries]
        assert masses == sorted(masses)

    def test_parallel_matches_sequential(self, tmp_path):
        values = [1e-4, 1e-3, 1e-2]
        seq_root = tmp_path / "seq"
        par_root = tmp_path / "par"
        sequential = sweep(base_config(), "eps", values, out_root=seq_root)
        parallel = sweep(
            base_config(), "eps", values, parallelism=2, out_root=par_root
        )
        for s, p in zip(sequential, parallel):
            assert summary_numbers(s) == summary_numbers(p)
        for s in sequential:
            seq_csv = (seq_root / s.run_id / "timeseries.csv").read_bytes()
            par_csv = (par_root / s.run_id / "timeseries.csv").read_bytes()
            assert seq_csv == par_csv

    def test_n_cells_axis_integer_ids(self):
        summaries = sweep(base_config(), "n_cells", [96, 192])
        assert [s.run_id for s in summaries] == [
            "sweep-base-n_cells-96",
            "sweep-base-n_cells-192",
        ]

    def test_empty_values_empty_result(self):
        assert sweep(base_config(), "eps", []) == []

    def test_invalid_axis(self):
        with pytest.raises(ConfigError, match="sweep axis"):
            sweep(base_config(), "gamma", [1.0])

    def test_invalid_parallelism(self):
        with pytest.raises(ConfigError, match="parallelism"):
            sweep(base_config(), "eps", [1e-3], parallelism=0)

    def test_invalid_member_value_fails_fast(self):
        with pytest.raises(ConfigError, match="eps"):
            sweep(base_config(), "eps", [1e-3, 2.0])

    @pytest.mark.parametrize("value", [96.7, float("nan"), float("inf")])
    def test_non_integral_n_cells_rejected(self, value):
        # int(96.7) would silently run a 96-cell member
        with pytest.raises(ConfigError, match="n_cells"):
            sweep(base_config(), "n_cells", [96.0, value])

    def test_run_id_cannot_leave_the_output_root(self, tmp_path):
        # the member used to be written to tmp_path / "escaped-eps-0.001"
        with pytest.raises(ConfigError, match="run_id"):
            sweep(
                base_config(run_id="../escaped"),
                "eps",
                [1e-3],
                out_root=tmp_path / "members",
            )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "axis, values", [("eps", [1e-4, 1e-3, 0.001]), ("n_cells", [96, 96.0])]
    )
    def test_values_naming_one_member_are_rejected(self, tmp_path, axis, values):
        # both members used to write one directory, and one of them failed
        with pytest.raises(ConfigError, match="same member"):
            sweep(base_config(), axis, values, parallelism=2, out_root=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_wrongly_typed_base_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cfl must be a real number"):
            sweep(base_config(cfl=None), "eps", [1e-3], out_root=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_pool_is_no_larger_than_the_member_count(self, monkeypatch):
        # a process pool forks all of its workers at the first submit
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        # sweep imports the pool class from here, and only for a parallel sweep
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        summaries = sweep(base_config(), "kappa", [0.0, 1.0], parallelism=64)
        assert sizes == [2]
        assert [s.run_id for s in summaries] == [
            "sweep-base-kappa-0.0",
            "sweep-base-kappa-1.0",
        ]

    def test_writes_member_outputs(self, tmp_path):
        summaries = sweep(
            base_config(), "kappa", [0.0, 1.0], out_root=tmp_path
        )
        for summary in summaries:
            member = tmp_path / summary.run_id
            assert (member / "timeseries.csv").exists()
            payload = json.loads((member / "summary.json").read_text())
            assert payload["run_id"] == summary.run_id


class TestParser:
    def test_verbs_present(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--config", "c.txt", "--out", "d"])
        assert args.command == "run"
        args = parser.parse_args(["preset", "entropy-audit", "--out", "d"])
        assert args.command == "preset"
        args = parser.parse_args(
            ["sweep", "--config", "c.txt", "--axis", "eps", "--values", "1,2"]
        )
        assert args.command == "sweep"
        assert args.jobs == 1
        args = parser.parse_args(["validate-config", "c.txt"])
        assert args.command == "validate-config"

    def test_rejects_unknown_axis(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--config", "c", "--axis", "gamma", "--values", "1"]
            )


class TestCliMain:
    def write(self, tmp_path, text, name="config.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_validate_config_ok(self, tmp_path, capsys):
        code = main(["validate-config", self.write(tmp_path, BASE_TEXT)])
        assert code == 0
        assert "config ok" in capsys.readouterr().out

    @pytest.mark.parametrize("name", unrunnable.ENTRIES)
    def test_unrunnable_config_is_config_error(self, tmp_path, capsys, name):
        # validate-config goes first: a config that validated would start a run
        path = self.write(tmp_path, unrunnable.config_text(name))
        out_dir = tmp_path / "out"
        run = ["run", "--config", path, "--out", str(out_dir)]
        for args in (["validate-config", path], run):
            assert main(args) == 3
            err = capsys.readouterr().err
            assert err.startswith("config error: ")
            assert re.search(unrunnable.ENTRIES[name][1], err)
            assert not out_dir.exists()

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        code = main(["validate-config", str(tmp_path / "absent.txt")])
        assert code == 3
        assert "config error" in capsys.readouterr().err

    def test_unknown_preset_is_config_error(self, tmp_path, capsys):
        code = main(["preset", "no-such-preset", "--out", str(tmp_path)])
        assert code == 3
        assert "unknown preset" in capsys.readouterr().err

    def test_run_verb_emits_outputs(self, tmp_path, capsys):
        config = self.write(tmp_path, BASE_TEXT)
        out_dir = tmp_path / "out"
        code = main(["run", "--config", config, "--out", str(out_dir)])
        assert code == 0
        assert "time-complete" in capsys.readouterr().out
        assert (out_dir / "timeseries.csv").exists()
        payload = json.loads((out_dir / "summary.json").read_text())
        assert payload["termination_reason"] == "time-complete"
        assert payload["run_id"] == "sweep-base"
        # no breach, so no state dump
        assert not (out_dir / "state_dump.npz").exists()

    def test_tiny_conduction_mesh_runs(self, tmp_path, capsys):
        # the smallest kappa = 1 mesh of the config tests still runs: its
        # innermost w * dr is about 1e-241
        text = BASE_TEXT.replace(
            "r_max = 12.0\nn_cells = 96\nt_end = 0.4",
            "r_max = 1e-60\nn_cells = 16\nt_end = 1e-140\ninit_family = zero",
        )
        path, out_dir = self.write(tmp_path, text), tmp_path / "out"
        assert main(["validate-config", path]) == 0
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 0
        assert "time-complete" in capsys.readouterr().out

    def test_run_verb_deterministic_csv(self, tmp_path):
        config = self.write(tmp_path, BASE_TEXT)
        outs = [tmp_path / "first", tmp_path / "second"]
        for out in outs:
            assert main(["run", "--config", config, "--out", str(out)]) == 0
        first = (outs[0] / "timeseries.csv").read_bytes()
        second = (outs[1] / "timeseries.csv").read_bytes()
        assert first == second

    def test_run_verb_breach_exit_code(self, tmp_path, capsys):
        config = self.write(tmp_path, BREACH_TEXT, name="breach.txt")
        out_dir = tmp_path / "out"
        code = main(["run", "--config", config, "--out", str(out_dir)])
        assert code == 2
        assert "positivity-breach" in capsys.readouterr().out
        assert (out_dir / "state_dump.npz").exists()

    def test_sweep_verb(self, tmp_path, capsys):
        config = self.write(tmp_path, BASE_TEXT)
        out_root = tmp_path / "members"
        code = main(
            [
                "sweep",
                "--config",
                config,
                "--axis",
                "eps",
                "--values",
                "1e-4,1e-3",
                "--jobs",
                "2",
                "--out",
                str(out_root),
            ]
        )
        assert code == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines() if line.strip()
        ]
        assert len(lines) == 2
        assert "sweep-base-eps-0.0001" in lines[0]
        assert "sweep-base-eps-0.001" in lines[1]
        for run_id in ("sweep-base-eps-0.0001", "sweep-base-eps-0.001"):
            assert (out_root / run_id / "timeseries.csv").exists()

    def test_sweep_verb_non_integral_n_cells(self, tmp_path, capsys):
        config = self.write(tmp_path, BASE_TEXT)
        code = main(
            ["sweep", "--config", config, "--axis", "n_cells", "--values", "96.7"]
        )
        assert code == 3
        assert "n_cells" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "preset"])
    def test_failed_run_still_writes_summary(self, tmp_path, capsys, monkeypatch, verb):
        def boom(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(integrator, "step", boom)
        out_dir = tmp_path / "out"
        if verb == "run":
            args = ["run", "--config", self.write(tmp_path, BASE_TEXT)]
        else:
            args = ["preset", "no-conduction-steepening"]
        code = main(args + ["--out", str(out_dir)])
        assert code == 1
        assert "solver exploded" in capsys.readouterr().err
        payload = json.loads((out_dir / "summary.json").read_text())
        assert payload["termination_reason"] == "error"
        assert "RuntimeError: solver exploded" in payload["error"]

    def test_preset_pair_prints_each_member_as_it_finishes(
        self, tmp_path, capsys, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("solver exploded")

        printed_before = []

        def run_to_dir(config, out_dir):
            printed_before.append(capsys.readouterr().out)
            return real_run_to_dir(config, out_dir)

        real_run_to_dir = cli.run_to_dir
        monkeypatch.setattr(integrator, "step", boom)
        monkeypatch.setattr(cli, "run_to_dir", run_to_dir)
        code = main(["preset", "convergence-study", "--out", str(tmp_path)])
        assert code == 1
        assert printed_before[0] == ""
        assert printed_before[1].startswith("[convergence-study-h0] error after 0 steps")
        assert capsys.readouterr().out.startswith("[convergence-study-h1] error")
        members = sorted(p.name for p in tmp_path.iterdir())
        assert members == ["convergence-study-h0", "convergence-study-h1"]
        for member in members:
            payload = json.loads((tmp_path / member / "summary.json").read_text())
            assert payload["run_id"] == member

    @pytest.mark.parametrize("verb", ["sweep", "validate-config"])
    def test_path_like_run_id_is_config_error(self, tmp_path, capsys, verb):
        text = BASE_TEXT.replace("run_id = sweep-base", "run_id = ../escaped")
        config = self.write(tmp_path, text)
        if verb == "sweep":
            out_root = tmp_path / "members"
            args = ["sweep", "--config", config, "--axis", "eps", "--values", "1e-3"]
            args += ["--out", str(out_root)]
        else:
            args = ["validate-config", config]
        assert main(args) == 3
        assert "run_id" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.txt"]

    def test_sweep_verb_values_naming_one_member(self, tmp_path, capsys):
        config = self.write(tmp_path, BASE_TEXT)
        args = ["sweep", "--config", config, "--axis", "eps"]
        args += ["--values", "1e-3,0.001", "--jobs", "2", "--out", str(tmp_path / "m")]
        assert main(args) == 3
        assert "sweep-base-eps-0.001" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.txt"]

    def test_sweep_verb_bad_values(self, tmp_path, capsys):
        config = self.write(tmp_path, BASE_TEXT)
        code = main(
            ["sweep", "--config", config, "--axis", "eps", "--values", "1e-4,x"]
        )
        assert code == 3
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [",", " ", ""])
    def test_sweep_verb_empty_values(self, tmp_path, capsys, values):
        # a sweep of no members used to run nothing and exit 0
        config = self.write(tmp_path, BASE_TEXT)
        code = main(["sweep", "--config", config, "--axis", "eps", "--values", values])
        assert code == 3
        assert "--values" in capsys.readouterr().err
