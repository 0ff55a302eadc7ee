"""Sweep driver and the command-line harness."""

import dataclasses
import json

import pytest

from radgas.cli import build_parser, main
from radgas.config import ConfigError, RunConfig
from radgas.sweep import sweep

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

    def test_validate_config_error(self, tmp_path, capsys):
        bad = BASE_TEXT.replace("kappa = 1.0", "kappa = -1.0")
        code = main(["validate-config", self.write(tmp_path, bad)])
        assert code == 3
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["validate-config", "run"])
    @pytest.mark.parametrize(
        "old, new",
        [
            ("r_max = 12.0", "r_max = inf"),
            ("cfl = 0.25", "cfl = 0.25\nfilter_coeff = nan"),
            ("cfl = 0.25", "cfl = 0.25\nfilter_coeff = 0.5"),
        ],
    )
    def test_non_finite_or_unstable_value_is_config_error(
        self, tmp_path, capsys, verb, old, new
    ):
        path = self.write(tmp_path, BASE_TEXT.replace(old, new))
        out_dir = tmp_path / "out"
        if verb == "run":
            code = main(["run", "--config", path, "--out", str(out_dir)])
        else:
            code = main(["validate-config", path])
        assert code == 3
        assert "config error" in capsys.readouterr().err
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

    def test_sweep_verb_bad_values(self, tmp_path, capsys):
        config = self.write(tmp_path, BASE_TEXT)
        code = main(
            ["sweep", "--config", config, "--axis", "eps", "--values", "1e-4,x"]
        )
        assert code == 3
        assert "config error" in capsys.readouterr().err
