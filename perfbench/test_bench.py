"""The benchmark's own tests, in smoke mode (one cheap item per kind).

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json():
    return workloads.load_json(os.path.join(ROOT, "BENCHMARK.json"))


def _run(root, *args):
    return subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"),
                           "--seed", "3", "--seconds", "1", *args],
                          capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    *_, record, last = proc.stdout.strip().splitlines()
    return json.loads(record), json.loads(last)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_sampling_is_seeded_and_balanced(workload):
    rows = workloads.load_json(workloads.COSTS_PATH)["items"]
    totals = []
    for seed in range(20):
        items = workloads.sample(workload, seed)
        assert items == workloads.sample(workload, seed)
        totals.append([sum(rows[i][key] for i in items if i in rows)
                       for key in ("cost_s", "rss_mb")])
        if workload == "verify":
            assert any(rows[i]["weight"] >= workloads.LARGE_WEIGHT
                       for i in items if i.startswith("syzygy/"))
        if workload == "derive":
            assert items.index("cli/derive-E24") < min(
                items.index(f"oracle/E24/{m}") for m in workloads.ORACLE_WEIGHTS)
    for column in zip(*totals):
        assert max(column) - min(column) <= 2 * workloads.BALANCE_TOLERANCE * max(column)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    record, result = _result(_run(ROOT, "--workload", workload, "--trace", "0", "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    assert record["items"] == workloads.SMOKE_ITEMS[workload]
    assert set(record["raw"]) == {"raw_run_s", "raw_cpu_s", "raw_setup_s"}
    assert all(v > 0 for v in record["speed"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_run_reports_every_span(workload):
    record, result = _result(_run(ROOT, "--workload", workload, "--trace", "1", "--smoke"))
    assert result["correct"] and record["spans_within_run"]
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # names bound by `from ... import` are wrapped too
    assert record["bound"]["groebner.relations_ideal"] >= 2
    assert record["bound"]["invgen.verify_syzygies"] >= 2
    assert metrics["schur.enumerate_families.setup_calls"] == 1
    if workload == "derive":
        assert metrics["invgen.run_generation.calls"] == 2
        assert metrics["groebner.relations_ideal.calls"] >= 2
        assert metrics["groebner.budget_steps"] > 0
    if workload == "verify":
        assert metrics["invgen.verify_syzygies.items"] == 1
        assert metrics["polyring.substitute.max_out_terms"] > 0
        assert metrics["jets.check_reparam_invariance.calls"] == 1
    if workload == "chi":
        assert metrics["euler.assemble_chi.calls"] == 1
        assert metrics["euler.positivity_threshold.calls"] == 1


def test_host_speed_samples_and_excludes_its_own_time():
    speed = hostspeed.HostSpeed()
    speed.start()
    try:
        wall0, start = speed.wall(), speed.spent_wall
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        factors = speed.take()
    finally:
        speed.stop()
    assert factors["samples"] >= 5
    assert factors["wall"] > 0 and factors["cpu"] > 0
    assert speed.spent_wall > start
    assert speed.wall() - wall0 < 0.2 + 0.01


def test_per_layer_names_cover_the_spans():
    names = {m["name"] for m in _benchmark_json()["per_layer"]}
    for span in tracing.SPANS:
        assert {f"{span}.self_s", f"{span}.calls"} <= names
    assert {f"{layer}.share" for layer in tracing.LAYERS} <= names
    assert set(tracing.COUNTERS) <= names


def _copy_checkout(dest, with_sources=True):
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__", "data"))


@pytest.mark.parametrize("workload", ["chi", "derive"])
def test_corrupted_reference_counts_as_failed(tmp_path, workload):
    _copy_checkout(tmp_path)
    path = tmp_path / "perfbench" / "reference.json"
    ref = json.loads(path.read_text())
    ref["chi_e44"]["threshold"] = 95
    ref["generation_sha256"]["E2k3"] = "0" * 64
    path.write_text(json.dumps(ref))
    record, result = _result(_run(str(tmp_path), "--workload", workload, "--smoke"))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // len(record["items"])
    assert record["failed_frac"]["value"] > 0


def test_refuses_a_directory_without_sources(tmp_path):
    _copy_checkout(tmp_path, with_sources=False)
    proc = _run(str(tmp_path), "--workload", "chi")
    assert proc.returncode != 0
    assert proc.stdout == ""
