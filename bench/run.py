"""bb84rate benchmark: end-to-end and per-layer metrics of three CLI workloads.

Usage, from the repository root:

    python3 bench/run.py --workload {maxloss,curves,oracle,all} --seed N \
        [--seconds S] [--trace 0|1] [--tiny]

Workloads (see BENCHMARK.json for why each was chosen):

    maxloss  CLI ``maxloss`` at five acquisition times drawn near 1, 10, 60,
             600 and 3600 s.
    curves   CLI ``asymptotic`` on 501 distances over 0-250 km, CLI ``finite``
             on 13 block sizes over 1e4-1e10 at 100 km, and the asymptotic
             loss boundary with and without optimized pre-attenuation.
    oracle   CLI ``oracle --seed`` at the default 5 x 10^7 pulses.

The seed generates every input (config files and the oracle seed); seed 0
reproduces the shipped defaults exactly. Each workload runs in a fresh
single-threaded interpreter (bench/worker.py) that repeats it for about
``--seconds`` seconds. ``--trace 0`` reports the end-to-end metrics:

    wall_s       median time from the first call into the program to the
                 last output byte written, per pass over the workload
    setup_s      median of ``import bb84rate.cli`` plus ``load_config`` in
                 fresh interpreters
    peak_rss_mb  peak resident memory of the workload process

``--trace 1`` wraps the program's call sites (bench/tracer.py) and reports
per-layer counts and self times instead. Every output row and oracle check
is an operation; it fails on a non-zero exit code, a status other than
``ok`` or a broken invariant. Output digests must repeat across passes and
between traced and untraced passes; they are also compared with the
digests recorded in bench/baseline.json, where a mismatch is reported but
not counted as a failure. ``--tiny`` shrinks every workload to run in
seconds, for the benchmark's own tests (bench/test_bench.py).

The last stdout line is one JSON object: correct, attempted, failed and
metrics. The exit code is 0 when the outputs are correct, 1 when they are
not and 2 when the benchmark cannot run.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import PER_LAYER_UNITS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("maxloss", "curves", "oracle")

DEFAULT_SEED = 0  # generates exactly the shipped defaults
MAXLOSS_TIMES_S = (1.0, 10.0, 60.0, 600.0, 3600.0)
ORACLE_SEED = 20240801
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150
# Single-threaded numeric libraries: the machine the benchmark targets has two cores.
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

TINY_OPTIMIZER = "[optimizer]\ngrid_resolution = 6\nrefinement_rounds = 1\n" \
                 "loss_bisection_tol_db = 0.5\n"


def _values(values) -> str:
    return ",".join(repr(v) for v in values)


def make_inputs(workload: str, seed: int, tiny: bool, run_dir: Path) -> tuple[Path, int]:
    """Write the workload's config file for this seed; return it and the oracle seed.

    Other seeds than DEFAULT_SEED jitter the defaults slightly: maxloss
    times by a factor within 10^+-0.1, which keeps three short-block rows
    (information term of lambda_ec wins) and two long-block rows
    (f_EC*n*H(e) wins); curve points within their grid cell, which keeps
    the number of points and so the work per pass; the oracle seed is
    drawn from the workload seed, which keeps the work per pass exactly.
    """
    rng = random.Random(f"{workload}:{seed}")

    def jitter() -> float:
        return 0.0 if seed == DEFAULT_SEED else rng.uniform(-1.0, 1.0)

    oracle_seed = ORACLE_SEED
    if workload == "maxloss":
        times = [float(f"{t * 10.0 ** (0.1 * jitter()):.4g}") for t in MAXLOSS_TIMES_S]
        text = f"[maxloss]\nacquisition_times_s = {_values(times[:1] if tiny else times)}\n"
    elif workload == "curves":
        n_dist, n_blocks = (5, 3) if tiny else (501, 13)
        dist_step, block_step = 250.0 / (n_dist - 1), 6.0 / (n_blocks - 1)
        distances = [round(max(0.0, dist_step * (i + 0.4 * jitter())), 6)
                     for i in range(n_dist)]
        blocks = [float(f"{10.0 ** (4.0 + block_step * (k + 0.2 * jitter())):.6g}")
                  for k in range(n_blocks)]
        text = (f"[asymptotic]\ndistances_km = {_values(distances)}\n"
                f"[finite]\nblock_sizes_received = {_values(blocks)}\n")
    else:
        if seed != DEFAULT_SEED:
            oracle_seed = rng.randrange(2**31)
        text = "[oracle]\nn_pulses = 100000\n" if tiny else ""
    if tiny and workload != "oracle":
        text += TINY_OPTIMIZER
    path = run_dir / f"{workload}.ini"
    path.write_text(text, encoding="utf-8")
    return path, oracle_seed


def _worker(args: list[str], timeout: float) -> dict:
    """Run bench/worker.py in a fresh isolated interpreter and parse its result."""
    env = {**os.environ, **THREAD_ENV}
    proc = subprocess.run([sys.executable, "-I", str(BENCH_DIR / "worker.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_baseline() -> dict:
    with open(BENCH_DIR / "baseline.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Run one workload; return its result with the metrics for this trace mode."""
    run_dir = OUT_DIR / f"run-{workload}-{seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        config, oracle_seed = make_inputs(workload, seed, tiny, run_dir)
        probe = ["--config", str(config), "--setup-only"]
        _worker(probe, WORKER_TIMEOUT_S)  # untimed: fills the bytecode and file caches
        setups = [_worker(probe, WORKER_TIMEOUT_S)["setup_s"]
                  for _ in range(1 if tiny else SETUP_PROBES)]
        spans = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        result = _worker([
            "--config", str(config), "--workload", workload, "--run-dir", str(run_dir),
            "--oracle-seed", str(oracle_seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--spans", str(spans),
            "--min-iterations", "1" if tiny else "3",
        ], WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result["setup_runs"] = setups
    if trace:
        result["metrics"] = {name: (value, PER_LAYER_UNITS[name])
                             for name, value in result["per_layer"].items()}
    else:
        result["metrics"] = {
            "wall_s": (statistics.median(result["wall_s"]), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    baseline = load_baseline()["digests"]["tiny" if tiny else "full"].get(workload, {})
    result["baseline_digests"] = baseline.get(str(seed))
    result["failed"] = len(result["failures"])
    result["correct"] = (result["failed"] == 0 and result["deterministic"]
                         and not result.get("trace_failures"))
    return result


def report(workload: str, seed: int, result: dict, trace: bool) -> None:
    """Print the human-readable summary of one workload."""
    print(f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'})")
    if trace:
        for name, (value, unit) in result["metrics"].items():
            print(f"  {name:42s} {value:14.6g} {unit}")
        print(f"  traced passes: {len(result['traced_wall_s'])}, counts per pass")
    else:
        for name, samples, what in (("wall_s", result["wall_s"], "passes"),
                                    ("setup_s", result["setup_runs"], "fresh interpreters")):
            q1, med, q3 = quartiles(samples)
            print(f"  {name:12s} {med:10.4f} s   [q1 {q1:.4f}, q3 {q3:.4f}]  "
                  f"n={len(samples)} {what}")
        print(f"  {'peak_rss_mb':12s} {result['peak_rss_mb']:10.1f} MB  n=1 process")
    failed, attempted = result["failed"], result["attempted"]
    print(f"  failed_frac  {failed / attempted:g}  ({failed} of {attempted} operations)")
    for line in result["failures"][:10] + result.get("trace_failures", []):
        print(f"  FAILED: {line}")
    if not result["deterministic"]:
        print("  FAILED: output digests differ between passes of the same inputs")
    expected, digests = result["baseline_digests"], result["digests"]
    if expected == digests:
        print("  digests: match the baseline")
        return
    if expected is None:
        print(f"  digests: no baseline recorded for seed {seed}")
    else:
        changed = sorted(k for k in expected.keys() | digests.keys()
                         if expected.get(k) != digests.get(k))
        print(f"  digests: DIFFER from the baseline in {', '.join(changed)} "
              "(not counted as a failure)")
    print(f"  digests: {json.dumps(digests, sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bb84rate benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one acquisition time, a handful of curve points, 1e5 oracle pulses")
    args = parser.parse_args(argv)
    # a terminated benchmark raises SystemExit, so subprocess.run kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "bb84rate" / "__init__.py").is_file():
        print(f"bb84rate sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            results[workload] = run_workload(workload, args.seed, args.seconds,
                                             bool(args.trace), args.tiny)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"{workload}: benchmark could not run: {exc}", file=sys.stderr)
            return 2
        report(workload, args.seed, results[workload], bool(args.trace))

    prefix = len(workloads) > 1
    metrics = {(f"{w}.{name}" if prefix else name): {"value": value, "unit": unit}
               for w, r in results.items() for name, (value, unit) in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
