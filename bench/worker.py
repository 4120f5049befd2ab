"""One benchmark process: runs a workload in a fresh interpreter.

Started by run.py as ``python -I bench/worker.py ...``; it is not meant to
be run by hand. The program is imported from the checkout's ``src``
directory and driven only through ``bb84rate.cli.main`` and
``bb84rate.optimize.max_tolerable_loss``, with the config files run.py
generated from the workload seed.

Prints one JSON object on its last stdout line: per-iteration wall times,
the operations attempted and failed, the SHA-256 of every output file,
peak resident memory and, for a traced run, the per-layer metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def _import_program(config_path: str):
    """Import the CLI and load the workload config: the set-up users pay per command."""
    if not (SRC_DIR / "bb84rate" / "__init__.py").is_file():
        raise SystemExit(f"bb84rate sources not found under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    start = time.perf_counter()
    import bb84rate.cli  # noqa: F401  (timed: importing the CLI is part of set-up)
    from bb84rate import config
    cfg = config.load_config(config_path)
    return cfg, time.perf_counter() - start


class Step(NamedTuple):
    """One call into the program that writes one output file."""

    name: str
    run: Callable[[], int]  # returns the exit code
    output: Path
    check: Callable[[int], tuple[int, list[str]]]  # exit code -> (attempted, failures)


def _read_rows(path: Path) -> list[dict[str, str]]:
    from bb84rate.cli import read_result_csv
    _, header, rows = read_result_csv(str(path))
    return [dict(zip(header, row)) for row in rows]


def _check_rows(path: Path, rc: int, n_expected: int, column: str, direction: int,
                cap: float = math.inf) -> tuple[int, list[str]]:
    """One operation per expected row: status ok, finite value <= cap, monotone in row order.

    direction +1 asks for a nondecreasing column, -1 for a nonincreasing one.
    """
    rows = _read_rows(path) if rc == 0 and path.is_file() else []
    failures = []
    prev = None
    for i in range(n_expected):
        if i >= len(rows):
            failures.append(f"{path.name} row {i}: missing (exit code {rc})")
            continue
        row = rows[i]
        try:
            value = float(row[column])
        except (KeyError, ValueError):
            failures.append(f"{path.name} row {i}: no numeric {column} in {row}")
            continue
        if row.get("status") != "ok":
            failures.append(f"{path.name} row {i}: status {row.get('status')!r}")
        elif not (math.isfinite(value) and value <= cap):
            failures.append(f"{path.name} row {i}: {column} = {value} not finite and <= {cap}")
        elif prev is not None and direction * (value - prev) < 0.0:
            failures.append(f"{path.name} row {i}: {column} {value} breaks monotonicity "
                            f"after {prev}")
        prev = value
    return n_expected, failures


def _check_oracle(path: Path, rc: int) -> tuple[int, list[str]]:
    """One operation per oracle check: passed, with all_passed set and exit code 0."""
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
        checks = [(c["name"], c["passed"]) for c in report["checks"]]
        all_passed = report["all_passed"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return 1, [f"{path.name}: unreadable report ({exc}), exit code {rc}"]
    failures = [f"{path.name} {name}: passed={passed}, all_passed={all_passed}, exit code {rc}"
                for name, passed in checks if not (passed and all_passed and rc == 0)]
    return len(checks), failures


def _check_boundaries(path: Path, rc: int, cap: float) -> tuple[int, list[str]]:
    """Two operations: the fixed-att boundary in (0, cap], the optimized one in [fixed, cap]."""
    try:
        bounds = json.loads(path.read_text(encoding="utf-8"))
        fixed, optimized = bounds["fixed_p_x_att_db"], bounds["optimized_db"]
    except (OSError, ValueError, KeyError) as exc:
        return 2, [f"{path.name}: unreadable ({exc}), exit code {rc}"] * 2
    failures = []
    if not 0.0 < fixed <= cap:
        failures.append(f"{path.name}: fixed-att boundary {fixed} dB outside (0, {cap}]")
    if not fixed <= optimized <= cap:
        failures.append(f"{path.name}: pre-attenuated boundary {optimized} dB outside "
                        f"[{fixed}, {cap}]")
    return 2, failures


def _steps(workload: str, run_dir: Path, config_path: str, cfg, oracle_seed: int,
           main, max_tolerable_loss) -> list[Step]:
    """The workload's calls into the program, bound to the given entry points."""
    def cli_step(command: str, extra: tuple[str, ...] = ()):
        out = run_dir / f"{command}.{'json' if command == 'oracle' else 'csv'}"
        argv = [command, "--config", config_path, "--out", str(out), *extra]
        return out, lambda: main(argv)

    cap = cfg.optimizer.loss_cap_db
    if workload == "maxloss":
        out, run = cli_step("maxloss")
        return [Step("maxloss", run, out, lambda rc: _check_rows(
            out, rc, len(cfg.maxloss_times_s), "max_loss_db", +1, cap))]
    if workload == "oracle":
        out, run = cli_step("oracle", ("--seed", str(oracle_seed)))
        return [Step("oracle", run, out, lambda rc: _check_oracle(out, rc))]

    asym_out, asym_run = cli_step("asymptotic")
    finite_out, finite_run = cli_step("finite")
    bounds_out = run_dir / "boundaries.json"

    def boundaries() -> int:
        optimized = max_tolerable_loss(cfg.source, cfg.detector, cfg.optimizer,
                                       mode="asymptotic")
        fixed = max_tolerable_loss(cfg.source, cfg.detector, cfg.optimizer,
                                   mode="asymptotic", optimize_params=False)
        text = json.dumps({"fixed_p_x_att_db": fixed, "optimized_db": optimized},
                          sort_keys=True)
        bounds_out.write_text(text + "\n", encoding="utf-8")
        return 0

    return [
        Step("asymptotic", asym_run, asym_out, lambda rc: _check_rows(
            asym_out, rc, len(cfg.asymptotic_distances_km), "rate_bps", -1)),
        Step("finite", finite_run, finite_out, lambda rc: _check_rows(
            finite_out, rc, len(cfg.finite_block_sizes), "rate_bps", +1)),
        Step("boundaries", boundaries, bounds_out, lambda rc: _check_boundaries(
            bounds_out, rc, cap)),
    ]


def _run_iteration(steps: list[Step]) -> dict:
    """Time one pass over the steps, then check and hash their outputs."""
    for step in steps:
        step.output.unlink(missing_ok=True)
    codes = []
    start = time.perf_counter()
    for step in steps:
        try:
            codes.append(step.run())
        except Exception as exc:  # a raising step fails its operations, the run goes on
            print(f"{step.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            codes.append(2)
    wall_s = time.perf_counter() - start
    attempted, failures, digests = 0, [], {}
    for step, rc in zip(steps, codes):
        n, failed = step.check(rc)
        attempted += n
        failures += failed
        digests[step.output.name] = (hashlib.sha256(step.output.read_bytes()).hexdigest()
                                     if step.output.is_file() else None)
    return {"wall_s": wall_s, "attempted": attempted, "failures": failures,
            "digests": digests}


def _iterate(run_once, seconds: float, min_iterations: int) -> list:
    """Repeat run_once until one more pass would end after `seconds`."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_once())
        n, elapsed = len(results), time.perf_counter() - start
        if n >= min_iterations and elapsed * (n + 1) / n > seconds:
            return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time of a fresh interpreter and exit")
    parser.add_argument("--workload", choices=("maxloss", "curves", "oracle"))
    parser.add_argument("--run-dir", type=Path)
    parser.add_argument("--oracle-seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--min-iterations", type=int, default=3)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    cfg, setup_s = _import_program(args.config)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import bb84rate.cli
    import bb84rate.optimize

    def steps_for(main, max_tolerable_loss):
        return _steps(args.workload, args.run_dir, args.config, cfg, args.oracle_seed,
                      main, max_tolerable_loss)

    untraced = steps_for(bb84rate.cli.main, bb84rate.optimize.max_tolerable_loss)
    result = {}
    if not args.trace:
        iterations = _iterate(lambda: _run_iteration(untraced), args.seconds,
                              args.min_iterations)
    else:
        sys.path.insert(0, str(BENCH_DIR))
        from tracer import Tracer, summarize

        iterations = [_run_iteration(untraced)]
        tracer = Tracer()
        tracer.install()
        traced_steps = steps_for(tracer.wrap("cli.main", bb84rate.cli.main),
                                 tracer.wrap("optimize.max_tolerable_loss",
                                             bb84rate.optimize.max_tolerable_loss))

        def traced_iteration():
            tracer.reset()
            outcome = _run_iteration(traced_steps)
            outcome["trace"] = tracer.snapshot()
            return outcome

        remaining = max(0.0, args.seconds - iterations[0]["wall_s"])
        traced = _iterate(traced_iteration, remaining, 2)
        tracer.uninstall()
        metrics, trace_failures = summarize(
            args.workload, [t["trace"] for t in traced], [t["wall_s"] for t in traced],
            [iterations[0]["wall_s"]])
        iterations += traced
        result["per_layer"] = metrics
        result["trace_failures"] = trace_failures
        if args.spans is not None:
            tracer.write_spans(args.spans)

    result.update(
        wall_s=[it["wall_s"] for it in iterations if "trace" not in it],
        traced_wall_s=[it["wall_s"] for it in iterations if "trace" in it],
        attempted=sum(it["attempted"] for it in iterations),
        failures=[f for it in iterations for f in it["failures"]],
        digests=iterations[0]["digests"],
        deterministic=all(it["digests"] == iterations[0]["digests"] for it in iterations),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
