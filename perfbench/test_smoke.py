"""Tiny-size smoke test of the benchmark; it sets no timing gate.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["fail_ratio"] == 0, report["failures"]
    return report, result


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_benchmark_json_matches_the_code():
    import run

    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == layers.PER_LAYER
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted_with_units(workload):
    report, result = result_of(bench(workload, 0))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["pass_ratio"]["value"] == 1.0
    assert report["tail_samples"] == report["commands_per_pass"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    report, result = result_of(bench(workload, 1))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["fail_ratio"]["value"] == 0
    assert report["traced_passes"] >= 1 and report["accounted_ms"]
    # The layers' self times partition the traced command wall time.
    for accounted, wall in zip(report["accounted_ms"], report["traced_cmd_wall_ms"]):
        assert accounted == pytest.approx(wall, rel=1e-9)


def test_traced_cli_writes_well_formed_spans(tmp_path):
    spans = tmp_path / "spans.json"
    argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), "7",
            "verify", "product-bicat", "fixtures/psg-collapse.catj", "--json"]
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": "src", "PYTHONHASHSEED": "0"}
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["equal"] is True
    payload, t_end = layers.read_spans(spans)
    layers.check_spans(payload)
    names = {s[0] for s in payload["spans"]}
    assert {"trace.script", "cli.import", "cli.main", "catdsl.parse", "fincat.validate_category",
            "bicat.validate_bicategory", "bifib.verify_product_formula_bicat"} <= names
    assert all(len(s) == 6 and s[4] == "7" for s in payload["spans"])
    assert payload["leaves"]["fincat.hom"][0] > 0 and t_end >= payload["spans"][0][2]
    broken = dict(payload, spans=[list(s) for s in payload["spans"]])
    broken["spans"][1][3] = 5  # a parent that starts later than its child
    with pytest.raises(ValueError):
        layers.check_spans(broken)


def test_fails_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and perfbench/, it exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("corpus", 0, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
