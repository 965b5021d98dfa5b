"""The program's side of the benchmark's output contract.

``bench/run.py`` ends its output with one JSON line that the benchmark's
driver parses.  This runs the shortest workload, the noisy-MVM workload
and the train-replay workload once untraced and once traced, and the
sparse-training workload once untraced, and checks that line, so a change
to the program that breaks it fails here first.  A traced run also fails
on any ``absent`` line, which guards the bindings the tracer wraps (such
as ``simulate_mvm_batch`` in ``ptcsim.sweeps`` and ``ptcsim.training``).
The benchmark's files are read, never edited.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _reject(token):
    raise ValueError(f"non-strict JSON constant {token}")


def _check_last_line(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert not [ln for ln in lines if ln.startswith("absent ")]
    result = json.loads(lines[-1], parse_constant=_reject)
    assert result["correct"] is True
    assert result["failed"] == 0
    if trace == 0:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
def test_bench_run_ends_with_strict_json(trace):
    _check_last_line("design_walk", trace)


def test_fidelity_study_ends_with_strict_json():
    # One round of the noisy-MVM workload (about 5 s), untraced.
    _check_last_line("fidelity_study", 0)


def test_traced_fidelity_study_ends_with_strict_json():
    _check_last_line("fidelity_study", 1)


def test_sparse_training_ends_with_strict_json():
    # One round of the column-selection workload (about 2 s), untraced.
    _check_last_line("sparse_training", 0)


def test_train_replay_ends_with_strict_json():
    # One round of the train-then-evaluate workload (about 3 s), untraced.
    _check_last_line("train_replay", 0)


def test_traced_train_replay_ends_with_strict_json():
    _check_last_line("train_replay", 1)
