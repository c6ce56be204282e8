"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *map(str, args)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert WORKLOADS == list(workloads.BUILDERS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_emits_end_to_end_metrics(workload):
    line = result_line(bench("--workload", workload, "--seed", 0, "--seconds", 0.1, "--trace", 0))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= run.MIN_CASES
    assert {k: v["unit"] for k, v in line["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in line["metrics"].values())
    record = json.loads((BENCH / "results" / f"{workload}-seed0-trace0.json").read_text())
    assert record["digests_match_recorded"] is True
    assert record["provenance"]["prime"] == 2**31 - 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_accounts_for_the_case_time(workload):
    line = result_line(bench("--workload", workload, "--seed", 2, "--seconds", 0.1, "--trace", 1))
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == run.PER_LAYER
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert math.isclose(layers + metrics["bench.residue_s"], metrics["bench.case_s"], rel_tol=1e-9)
    assert 0 <= metrics["bench.residue_s"] < metrics["bench.case_s"]
    assert metrics["scalars.fp_muladd_ns"] > 0 and metrics["scalars.q_muladd_ns"] > 0


def test_tracer_sees_calls_between_modules_and_restores_them():
    from pluckerlab import grassmann, plucker_form

    original = plucker_form.tangent_codim
    w = grassmann.random_grass_point(2, 6, workloads.FP, random.Random(1)).plucker
    tracer = tracing.Tracer()
    tracer.install([workloads])
    try:
        tracer.call(tracing.CASE, grassmann.classify_membership, w, 3)
    finally:
        tracer.uninstall()
    assert plucker_form.tangent_codim is original and grassmann.tangent_codim is original
    summary = tracing.summarize(tracer.spans, 1)
    assert summary["calls"]["plucker_form.tangent_codim"] == 1
    assert summary["calls"]["scalars.mat_rank"] == 1
    assert summary["sizes"]["scalars.mat_rank"] == 45 * 45
    assert summary["tangent_route_frac"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload):
    build = workloads.BUILDERS[workload]
    first = build(3).input_digest()
    assert build(3).input_digest() == first
    assert build(4).input_digest() != first


def test_same_seed_gives_identical_digests():
    records = []
    for seed in (5, 5, 6):
        result_line(bench("--workload", "p1_divisor", "--seed", seed, "--seconds", 0.1, "--trace", 0))
        path = BENCH / "results" / f"p1_divisor-seed{seed}-trace0.json"
        records.append(json.loads(path.read_text())["digests"])
    assert records[0] == records[1]
    assert records[2]["inputs"] != records[0]["inputs"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", "p1_divisor", "--seed", 0, "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
