"""Smoke test of the benchmark: tiny inputs, every workload, every check.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300)
    return proc, proc.stdout.splitlines()


def _smoke(seed, trace=0):
    proc, lines = _run("--workload", "all", "--smoke", "--seconds", "0.3",
                       "--seed", str(seed), "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return result, lines


def _expected(kind):
    return {f"{w}.{m['name']}" for w in WORKLOADS for m in CONTRACT[kind]}


def test_smoke_default_and_second_seed_give_the_same_metric_set():
    first, first_lines = _smoke(0)
    again, again_lines = _smoke(0)
    other, _ = _smoke(7)
    for result in (first, again, other):
        assert set(result["metrics"]) == _expected("end_to_end")
        for metric in result["metrics"].values():
            assert metric["value"] > 0
    digests = [line for line in first_lines if line.startswith("digest ")]
    assert len(digests) == 7
    assert digests == [line for line in again_lines if line.startswith("digest ")]
    envs = [json.loads(line[4:]) for line in first_lines if line.startswith("env ")]
    assert [env["workload"] for env in envs] == WORKLOADS
    if not envs[0]["numba_enabled"]:
        assert any("Compiled-path numbers are absent" in line for line in first_lines)


def test_smoke_trace_reports_every_per_layer_metric():
    result, lines = _smoke(0, trace=1)
    assert set(result["metrics"]) == _expected("per_layer")
    layers = result["metrics"]
    assert layers["eval-20k.evalproxy.score_pairs_s"]["value"] > 0
    assert layers["pubmed-cli.hgb_io.write_link_file_s"]["value"] > 0
    assert layers["small-batch.sparsify.calls"]["value"] == 100
    assert any(line.startswith("trace: ") and "overhead" in line for line in lines)


def test_failed_output_check_exits_nonzero(capsys, monkeypatch):
    sys.path.insert(0, str(HERE))
    try:
        import run
        run.import_program()
        import workloads
    finally:
        sys.path.remove(str(HERE))
    monkeypatch.setattr(workloads.hg, "isolated_nodes", lambda g, mask: {1})
    code = run.main(["--workload", "small-batch", "--smoke", "--seconds", "0.1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    proc, lines = _run("--workload", WORKLOADS[0], "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
