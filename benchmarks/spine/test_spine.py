"""Smoke test of the spine: ``python -m pytest benchmarks/spine -q``.

Runs every workload at ``--scale smoke`` (256 records/node, one repeat,
six service chains) through the same command line the driver uses.  The
numbers are never compared with committed ones — only their presence,
the layer-sum identity and the exactly-repeating counts are asserted.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
COUNTS = ("worker.tasks_run", "transport.shuffle_bytes_tcp",
          "transport.shuffle_bytes_local", "storage.files_per_chain")


def run_smoke(workload: str, trace: int) -> tuple[dict, dict, str]:
    """One smoke run -> (contract line, full result, stdout)."""
    done = subprocess.run(
        [*RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    result = json.loads((HERE / "out" / f"{workload}.result.json").read_text())
    return line, result, done.stdout


@pytest.fixture(scope="module")
def runs() -> dict:
    return {w.name: run_smoke(w.name, trace=2) for w in spec.WORKLOADS}


def test_benchmark_json_is_the_spec_and_fits_the_contract():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    metrics = committed["end_to_end"] + committed["per_layer"]
    names = [m["name"] for m in metrics + committed["workloads"]]
    assert len(names) == len(set(names))
    assert all(name.fullmatch(n) for n in names)
    assert all(unit.fullmatch(m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in committed["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    setup = next(m for m in committed["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in committed["end_to_end"])
    assert 2 <= len(committed["workloads"]) <= 8
    assert len(committed["per_layer"]) <= 128
    assert 1 <= committed["run_seconds"] <= 60


def test_every_named_metric_is_present_finite_and_has_its_unit(runs):
    for workload, (line, result, stdout) in runs.items():
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert "scale: smoke" in stdout
        for metric in spec.CONTRACT_END_TO_END + spec.PER_LAYER:
            got = line["metrics"][metric.name]
            assert got["unit"] == metric.unit, metric.name
            assert math.isfinite(got["value"]), (workload, metric.name)
        for metric in spec.CONTRACT_END_TO_END:
            assert line["metrics"][metric.name]["value"] > 0
        # the suite's own table also carries the workload-specific ones
        for metric in spec.END_TO_END:
            assert (metric.name in result["end_to_end"]) == \
                metric.applies(workload), (workload, metric.name)
            assert metric.name in stdout or not metric.applies(workload)
        assert result["end_to_end"]["failed_fraction"]["value"] == 0


def test_wall_layers_sum_to_the_traced_chain_wall(runs):
    for workload, (line, _, _) in runs.items():
        layers = line["metrics"]
        wall = layers["coordinator.traced_chain_wall_s"]["value"]
        total = sum(layers[name]["value"] for name in spec.WALL_LAYERS)
        assert total == pytest.approx(wall, rel=0.01), workload
        trace = HERE / "out" / f"{workload}.trace.json"
        assert json.loads(trace.read_text())["traceEvents"]


def test_kill_workloads_recover_and_clean_ones_do_not(runs):
    for workload, (line, _, _) in runs.items():
        layers = line["metrics"]
        killed = workload in ("chain-kill", "repl2-kill")
        assert (layers["coordinator.recovery_s"]["value"] > 0) == killed
        assert (layers["faults.detect_s"]["value"] > 0) == killed
        assert (layers["worker.recomputed_task_frac"]["value"] > 0) == \
            (workload == "chain-kill")
        assert (layers["coordinator.replicate_phase_s"]["value"] > 0) == \
            (workload == "repl2-kill")
        assert (layers["service.running_peak"]["value"] > 0) == \
            (workload == "service-small")


@pytest.mark.parametrize("workload", ["chain-clean", "chain-kill"])
def test_counts_repeat_exactly(runs, workload):
    first = runs[workload][0]["metrics"]
    second = run_smoke(workload, trace=1)[0]["metrics"]
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero exit, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "spine",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/spine/run.py", "--workload",
         "chain-clean", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
