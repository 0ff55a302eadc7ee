"""Tests of the benchmark itself: python3 -m pytest perfbench

The jobs here use a horizon of a few steps, so each takes about a second.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

T_END = 0.05


def smoke(name, trace, golden, seed=3):
    """One short-horizon measurement of the driver, run in this process."""
    run.OUT.mkdir(exist_ok=True)
    measure = run.measure_per_layer if trace else run.measure_end_to_end
    return measure(name, seed, 0.1, T_END, golden)


def golden_for(name) -> dict:
    """Golden outputs of the short-horizon job, taken from a first run."""
    smoke(name, 0, {"workloads": {}, "presets": {}})
    seen = workloads.observe(name, run.OUT / name / "job")
    for entry in seen.values():
        del entry["dump"]
    return {"workloads": {name: seen}, "presets": {}}


def metric_units(result: dict) -> dict[str, str]:
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("name", ["audit-dense", "dichotomy-sweep"])
def test_smoke_reports_every_metric_and_checks_outputs(name):
    golden = golden_for(name)
    result = smoke(name, 0, golden)
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert metric_units(result) == dict(run.END_TO_END)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())

    result = smoke(name, 1, golden)
    assert result["failed"] == 0, "traced jobs must reproduce the golden hashes"
    assert metric_units(result) == dict(run.per_layer_names())
    assert all(entry["value"] is not None for entry in result["metrics"].values())


def test_tampered_golden_hash_counts_as_failure():
    golden = golden_for("inviscid-decay")
    golden["workloads"]["inviscid-decay"]["inviscid-decay"]["sha256"] = "0" * 64
    result = smoke("inviscid-decay", 0, golden)
    assert result["failed"] == result["attempted"] >= 1


def test_calls_per_step_repeat_exactly():
    golden = golden_for("smooth-decay")
    counts = []
    for seed in (1, 2):
        result = smoke("smooth-decay", 1, golden, seed=seed)
        counts.append({
            name: entry["value"] for name, entry in result["metrics"].items()
            if name.endswith("calls_per_step")
        })
    assert counts[0] == counts[1]
    assert counts[0]["integrator.conduction.calls_per_step"] == 2.0
    assert counts[0]["dynamics.convective_rhs.calls_per_step"] == 2.0


def test_missing_targets_are_reported_not_fatal(monkeypatch):
    monkeypatch.setitem(probes.SPANS, "integrator.gone", [("radgas.integrator", "_gone")])
    monkeypatch.setitem(probes.SPANS, "nowhere.fn", [("radgas.nowhere", "fn")])
    tracer = probes.Tracer()
    assert {"integrator.gone", "nowhere.fn"} <= set(tracer.missing)
    assert "integrator.step" not in tracer.missing
    tracer.install()
    tracer.uninstall()

    monkeypatch.setattr(probes, "SIZES", (1000,))
    monkeypatch.setattr(probes, "SIZED_PROBES", {
        "tridiag.gone": lambda n: probes._get("radgas.tridiag", "TridiagonalSystemGone"),
        "state.validate": probes._validate,
    })
    values, missing = probes.run_probes(0.01)
    assert values["tridiag.gone.n1000"] is None
    assert "tridiag.gone.n1000" in missing
    assert values["state.validate.n1000"] > 0


def test_tracer_restores_every_wrapped_target():
    before = {
        (module, path): probes.resolve(module, path)[2]
        for sites in probes.SPANS.values() for module, path in sites
    }
    tracer = probes.Tracer()
    tracer.install()
    tracer.uninstall()
    after = {key: probes.resolve(*key)[2] for key in before}
    assert after == before


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smooth-decay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
