"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import afrelay  # noqa: E402,F401


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload and the run loop to test size."""
    monkeypatch.setattr(workloads.SweepDefault, "overrides", {"n_channel_draws": 1, "n_symbols": 50})
    monkeypatch.setattr(workloads.DesignFuzz, "n_configs", 20)
    monkeypatch.setattr(workloads.Oracle, "mc_samples", 1000)
    monkeypatch.setattr(workloads, "DESIGN_TIMING_DRAWS", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_UNITS", 1)


def _args(workload, trace, seed=3):
    return argparse.Namespace(workload=workload, seed=seed, seconds=0.0, trace=trace)


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def test_declaration_matches_code():
    end_to_end, per_layer, names = _declared()
    assert end_to_end == dict(run.END_TO_END)
    assert per_layer == dict(tracing.PER_LAYER)
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_reported_with_unit(tiny, workload):
    end_to_end, per_layer, _ = _declared()
    for trace, declared in ((0, end_to_end), (1, per_layer)):
        result = run.run(_args(workload, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def _attribute_snapshot():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "afrelay" or name.startswith("afrelay."))
        for attr, value in vars(mod).items()
    }


def test_traced_run_restores_module_attributes(tiny, tmp_path):
    before = _attribute_snapshot()
    wl = workloads.SweepDefault(3, ROOT, tmp_path)
    tracer = tracing.Tracer.for_package("afrelay")
    with tracer:
        design_mod = importlib.import_module("afrelay.design")
        assert design_mod.svd_ordered is not before[("afrelay.design", "svd_ordered")]
        wl.collect(wl.run_unit())
    after = _attribute_snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    metrics = tracer.metrics(1, 0.0)
    assert metrics["cli.cli_main.busy_s"] > 0
    assert metrics["design.weight_eigensystem.calls_per_joint_design"] == 2
    assert metrics["mse.weighted_mse.calls_per_design"] == 2


def test_missing_public_name_reports_zero(tiny, tmp_path, monkeypatch):
    linalg = importlib.import_module("afrelay.linalg")
    monkeypatch.setattr(linalg, "__all__", [n for n in linalg.__all__ if n != "herm_sqrt"])
    monkeypatch.delattr(linalg, "herm_sqrt")
    monkeypatch.delitem(sys.modules, "afrelay.validate")
    tracer = tracing.Tracer.for_package("afrelay")
    wl = workloads.DesignFuzz(3, ROOT, tmp_path)
    with tracer:
        wl.run_unit()
    metrics = tracer.metrics(1, 0.0)
    assert metrics["linalg.herm_sqrt.calls"] == 0
    assert metrics["linalg.herm_sqrt.busy_s"] == 0
    assert metrics["validate.brute_force_design.busy_s"] == 0
    assert metrics["linalg.svd_ordered.calls"] > 0


def test_same_seed_same_counts(tiny):
    first = run.run(_args("design-fuzz", 1, seed=5))
    second = run.run(_args("design-fuzz", 1, seed=5))
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    counts = [
        {k: v["value"] for k, v in r["metrics"].items()
         if v["unit"] in ("count", "iters", "ratio")}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("workload", ["design-fuzz", "oracle"])
def test_failure_counts_do_not_depend_on_seed(tiny, workload):
    # The inputs that can fail are fixed, so every run counts the same
    # operations and the same failures, whatever its seed.
    first = run.run(_args(workload, 0, seed=5))
    second = run.run(_args(workload, 0, seed=6))
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_speed_probe_scales_by_recent_kernel_median(monkeypatch):
    probe = speed.SpeedProbe()
    times = iter([0.0, 2e-3, 10.0, 10.001, 20.0, 20.003])
    monkeypatch.setattr(speed, "perf_counter", lambda: next(times))
    monkeypatch.setattr(speed, "kernel", lambda: 0.0)
    probe.probe()  # 2 ms
    probe.probe()  # 1 ms
    probe.probe()  # 3 ms
    assert probe.samples == pytest.approx([2e-3, 1e-3, 3e-3])
    monkeypatch.setattr(speed, "perf_counter", lambda: 20.003 + speed.PROBE_INTERVAL_S / 2)
    # The last probe is recent, so no new one runs: the scale is the
    # reference kernel time over the median of the recent ones.
    assert probe.scale() == pytest.approx(speed.REF_KERNEL_S / 2e-3)
    assert len(probe.samples) == 3


def test_failure_causes():
    class ConvergenceError(RuntimeError):
        pass

    cases = {
        "convergence": ConvergenceError("did not converge"),
        "source_power": RuntimeError("source power 1.0 misses the budget 1.0"),
        "relay_power": RuntimeError("relay power 1.0 misses the budget 1.0"),
        "eta_p": RuntimeError("eta_p denominator is not positive"),
        "wmse_agreement": RuntimeError("residual weighted MSE 1 disagrees with the direct"),
        "other": ValueError("matrix is singular"),
    }
    assert {cause: tracing.failure_cause(exc) for cause, exc in cases.items()} == {
        cause: cause for cause in cases
    }


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
