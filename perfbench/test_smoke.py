"""Smoke test for the benchmark: python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at fixture scale, checks that the generator is a
function of its seed, and that every metric BENCHMARK.json names is
reported with its unit.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


def test_declared_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert metric["better"] in ("higher", "lower")
        assert metric["unit"]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_generator_is_a_function_of_the_seed(workload, tmp_path):
    sizes = dict(run.WORKLOADS[workload]["sizes"], **run.SMALL[workload])
    digests = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        gen.generate(ROOT, tmp_path / name, seed, sizes)
        digests.append(_digest(tmp_path / name))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


@pytest.mark.parametrize("workload,trace", [(w, 0) for w in run.WORKLOADS]
                         + [("pipeline-lexicon", 1), ("vectors-query", 1)])
def test_workload_at_fixture_scale(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "pipeline-usage", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
