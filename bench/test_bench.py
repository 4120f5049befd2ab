"""Self-tests of the benchmark, at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run([sys.executable, "bench/run.py", "--tiny", "--seconds", "0", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def test_all_workloads_untraced_pass_checks_and_match_baseline_digests():
    proc, result = _bench("--workload", "all", "--seed", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in run.WORKLOADS:
        for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit and metric["value"] > 0
    assert proc.stdout.count("digests: match the baseline") == len(run.WORKLOADS)
    assert proc.stdout.count("failed_frac  0 ") == len(run.WORKLOADS)


def test_traced_counts_repeat_and_traced_outputs_equal_untraced():
    # correct=True includes: traced digests equal untraced ones, counts repeat
    # across passes, and every expected zero/non-zero count holds
    runs = [_bench("--workload", "all", "--seed", "7", "--trace", "1") for _ in range(2)]
    counts = []
    for proc, result in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert result["correct"]
        assert set(result["metrics"]) == {f"{w}.{name}" for w in run.WORKLOADS
                                          for name in run.PER_LAYER_UNITS}
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if m["unit"] in ("count", "evals/point", "probes/bound", "ratio")})
    assert counts[0] == counts[1]
    assert counts[0]["oracle.scipy.special.bdtrik.calls"] == 0
    assert counts[0]["maxloss.asymptotic.asymptotic_rate.calls"] == 0
    assert counts[0]["curves.scipy.special.bdtrik.calls"] > 0


def test_seed_zero_reproduces_the_defaults_and_seeds_repeat(tmp_path):
    from bb84rate.config import load_config

    defaults = load_config(None)
    path, oracle_seed = run.make_inputs("maxloss", run.DEFAULT_SEED, False, tmp_path)
    assert load_config(str(path)).resolved == defaults.resolved
    assert oracle_seed == defaults.oracle["seed"]
    for workload in run.WORKLOADS:
        texts = [run.make_inputs(workload, 3, False, tmp_path)[0].read_text() for _ in range(2)]
        assert texts[0] == texts[1]
    other, _ = run.make_inputs("maxloss", 3, False, tmp_path)
    assert load_config(str(other)).maxloss_times_s != defaults.maxloss_times_s


def test_default_commands_reproduce_reference_counts(tmp_path):
    from bb84rate import cli

    reference = run.load_baseline()["reference_counts"]
    tracer = Tracer()
    tracer.install()
    try:
        measured = {}
        for command, metric in (("finite", "scipy.special.bdtrik.calls"),
                                ("asymptotic", "asymptotic.asymptotic_rate.calls")):
            tracer.reset()
            assert cli.main([command, "--out", str(tmp_path / f"{command}.csv")]) == 0
            measured[f"{command}_default.{metric}"] = layer_metrics(tracer.snapshot())[metric]
    finally:
        tracer.uninstall()
    assert measured == reference


@pytest.mark.parametrize("values, direction, failed", [
    ([3.0, 2.0, 2.0, 1.0], -1, 0),
    ([3.0, 2.0, 2.5, 1.0], -1, 1),
    ([1.0, 2.0, 2.0, 3.0], +1, 0),
    ([1.0, float("nan"), 2.0, 3.0], +1, 1),
])
def test_row_checks_flag_broken_invariants(tmp_path, values, direction, failed):
    import worker

    out = tmp_path / "rows.csv"
    out.write_text("# a.b = 1\nx,rate_bps,status\n"
                   + "".join(f"{i},{v},ok\n" for i, v in enumerate(values)))
    attempted, failures = worker._check_rows(out, 0, len(values), "rate_bps", direction)
    assert attempted == len(values) and len(failures) == failed
    assert len(worker._check_rows(out, 2, len(values), "rate_bps", direction)[1]) == len(values)
    assert len(worker._check_rows(out, 0, len(values), "p_x", direction)[1]) == len(values)
    missing = tmp_path / "missing.csv"
    assert len(worker._check_rows(missing, 0, len(values), "rate_bps", direction)[1]) == len(values)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, result = _bench("--workload", "maxloss", "--seed", "0", cwd=tmp_path)
    assert proc.returncode != 0 and result is None
