"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from almostabelian import cohomology, model, partitions  # noqa: E402

WORKLOADS = ("verify_dim12", "oracles_dim14", "large_n")


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_prints_every_metric(name, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_same_seed_same_inputs():
    labels = [[op.label for op in workloads.build(name, 7, "full")] for name in WORKLOADS]
    assert labels == [[op.label for op in workloads.build(name, 7, "full")] for name in WORKLOADS]


def test_oracle_sample_keeps_the_mix():
    def mix(seed):
        return sorted((len(q) == 1, len(q) <= 3, j > 1)
                      for q, j in (op.params for op in workloads.build("oracles_dim14", seed)))

    assert mix(1) == mix(2) == mix(3)


def corrupt_verify(monkeypatch):
    bad = dict(workloads.EXPECTED_VERIFY)
    bad[6] = bad[6].replace("models checked: 4", "models checked: 5")
    monkeypatch.setattr(workloads, "EXPECTED_VERIFY", bad)


def corrupt_oracle(monkeypatch):
    wrong = cohomology.CohomologyTable(betti=(), hodge=(), source="closed-form")
    monkeypatch.setattr(workloads.cohomology, "closed_table", lambda c: wrong)


def corrupt_classify(monkeypatch):
    monkeypatch.setattr(workloads, "own_classify", lambda m: None)


def corrupt_record(monkeypatch):
    monkeypatch.setattr(workloads, "frolicher_poincare_serre", lambda betti, hodge: False)


@pytest.mark.parametrize("name, corrupt", [
    ("verify_dim12", corrupt_verify),
    ("oracles_dim14", corrupt_oracle),
    ("large_n", corrupt_classify),
    ("large_n", corrupt_record),
])
def test_corrupted_expected_answer_counts_as_failed(monkeypatch, name, corrupt):
    corrupt(monkeypatch)
    result = run.measure(name, 5, 0, False, "tiny")
    assert result["failed"] > 0 and not result["correct"]


def bindings():
    """Every object bound in a package module or on one of its classes."""
    out = {}
    for mod in tracing.package_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, raw in vars(value).items():
                    out[(mod.__name__, key, attr)] = raw
    return out


def test_trace_restores_the_package():
    before = bindings()
    result = run.measure("large_n", 2, 0, True, "tiny")
    assert result["correct"]
    after = bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_trace_sees_calls_made_inside_the_package():
    result = run.measure("oracles_dim14", 1, 0, True, "tiny")["metrics"]
    # oracle_table reaches sparse_rank through cohomology's own binding
    assert result["exactla.sparse_rank.calls"]["value"] > 0
    assert result["cohomology.hodge_oracle.calls"]["value"] == len(
        workloads.build("oracles_dim14", 1, "tiny"))


def test_classification_rule_matches_the_search_for_small_n():
    checked = 0
    for n in range(1, 9):
        for m in workloads.own_partitions(2 * n + 1):
            witness = model.admits_complex_structure(partitions.Partition(m))
            expected = workloads.own_classify(m)
            assert (None if witness is None else (witness.q.parts, witness.j)) == expected
            checked += 1
    assert checked == 685


def test_own_jordan_matches_the_package():
    for q in workloads.own_partitions(6):
        for j in workloads.overlaps(q):
            assert workloads.own_jordan(q, j) == model.jordan_partition(
                partitions.Partition(q), j).parts


def test_fails_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large_n", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
