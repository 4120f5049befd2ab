"""Guard for the benchmark's calls into the program.

bench/tracer.py patches each (module, attribute) binding in its CALL_SITES
table; a refactor that renames or removes one breaks traced runs silently.
A traced run also fails when a layer that its EXPECTED_NONZERO table
expects to run on a workload is never called, so the default commands of
maxloss and curves are run here with a counter on every binding. Both
tables are read from the file, not imported, so the guard runs no
benchmark code. The other tests pin the signatures, config fields and call
paths that bench/worker.py and bench/tracer.py use, so a signature purge
fails here instead of in a benchmark run, and the exact call counts of the
default finite, asymptotic and maxloss commands: the bdtrik calls (one per
grid column that reaches an exact key length, plus one per result), the
bdtr calls of F^-1 (one pair per such column or result, plus two per
block size whose start that pair does not settle), the asymptotic grid
points the float kernel rates, the one estimate pass per finite grid
point and the results, which only optimize_point builds, one per call.
Those counts are literals here:
the reference_counts in bench/baseline.json still hold the finite count
from before optimize_point's branch-and-bound (5,069 bdtrik calls) and
the asymptotic count from before the float kernel (5,772 asymptotic_rate
calls, now 36).
"""
import ast
import collections
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_table(name):
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} table in {TRACER}")


def call_sites():
    return tracer_table("CALL_SITES")


def counting(calls, name, fn):
    """fn, counting its calls in calls[name]."""
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


def test_every_call_site_resolves_to_a_callable():
    sites = call_sites()
    assert sites
    for module_name, attr, layer in sites:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr} (layer {layer}) is not callable"


def test_max_tolerable_loss_accepts_optimize_params():
    from bb84rate.optimize import max_tolerable_loss
    assert "optimize_params" in inspect.signature(max_tolerable_loss).parameters


def test_worker_calls_bind():
    from bb84rate.config import load_config
    from bb84rate.optimize import max_tolerable_loss
    cfg = load_config(None)
    signature = inspect.signature(max_tolerable_loss)
    signature.bind(cfg.source, cfg.detector, cfg.optimizer, mode="asymptotic")
    signature.bind(cfg.source, cfg.detector, cfg.optimizer, mode="asymptotic",
                   optimize_params=False)


def test_max_tolerable_loss_makes_an_optimize_point_call_per_boundary(monkeypatch):
    # the tracer counts loss-search probes as optimize_point calls made from
    # max_tolerable_loss and expects them on maxloss and curves
    from bb84rate import OptimizationConfig, optimize
    from bb84rate.config import load_config
    cfg = load_config(None)
    tiny = OptimizationConfig(grid_resolution=4, refinement_rounds=0, loss_bisection_tol_db=1.0)
    calls = collections.Counter()
    original = optimize.optimize_point

    def counted(*args, **kwargs):
        calls[kwargs["mode"], kwargs.get("fixed_att")] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(optimize, "optimize_point", counted)
    optimize.max_tolerable_loss(cfg.source, cfg.detector, tiny, n_sent=cfg.source.rep_rate)
    optimize.max_tolerable_loss(cfg.source, cfg.detector, tiny, mode="asymptotic")
    optimize.max_tolerable_loss(cfg.source, cfg.detector, tiny, mode="asymptotic",
                                optimize_params=False)
    assert set(calls) == {("finite", None), ("asymptotic", None), ("asymptotic", 1.0)}


def test_run_oracle_suite_makes_a_sample_session_call_per_loss(monkeypatch):
    # the tracer's sample_session calls and pulses_per_s come from this binding
    from bb84rate import mc_oracle
    from bb84rate.config import load_config
    cfg = load_config(None)
    calls = []
    original = mc_oracle.sample_session

    def counted(*args, **kwargs):
        calls.append(args[1].loss_db)
        return original(*args, **kwargs)

    monkeypatch.setattr(mc_oracle, "sample_session", counted)
    losses = (0.0, 10.0, 20.0)
    mc_oracle.run_oracle_suite(cfg.source, cfg.detector, cfg.protocol,
                               mc_oracle.TrialConfig(seed=1, n_pulses=1000), losses,
                               chernoff_trials=1000, sampling_trials=1)
    assert calls == list(losses)


def test_worker_config_fields_exist():
    from bb84rate.config import load_config
    cfg = load_config(None)
    assert isinstance(cfg.oracle["seed"], int)
    assert cfg.finite_block_sizes is None
    assert cfg.maxloss_times_s and cfg.asymptotic_distances_km
    assert cfg.optimizer.loss_cap_db > 0.0


def test_tracer_finds_lambda_ec_f_ec_value():
    from bb84rate.finitekey import lambda_ec
    assert "f_ec_value" in inspect.signature(lambda_ec).parameters


def test_default_commands_reach_every_layer_the_benchmark_expects(tmp_path, monkeypatch):
    # a traced run fails when a *.calls layer is zero where EXPECTED_NONZERO
    # expects it to run, or non-zero where it expects it not to. Of curves,
    # the default finite and asymptotic commands run here: its asymptotic loss
    # boundaries reach no further layer
    from bb84rate import cli
    calls = collections.Counter()
    for module_name, attr, layer in call_sites():
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, counting(calls, layer, getattr(module, attr)))
    expected = tracer_table("EXPECTED_NONZERO")
    for workload, commands in (("maxloss", ("maxloss",)), ("curves", ("finite", "asymptotic"))):
        calls.clear()
        for command in commands:
            assert cli.main([command, "--out", str(tmp_path / f"{command}.csv")]) == 0
        for name, by_workload in expected.items():
            layer, _, kind = name.rpartition(".")
            want = by_workload.get(workload)
            if kind == "calls" and want is not None:
                assert (calls[layer] > 0) == want, f"{name} = {calls[layer]} on {workload}"


def test_default_commands_keep_the_reference_counts(tmp_path, monkeypatch):
    import scipy.special

    from bb84rate import cli, optimize
    calls = collections.Counter()
    for name in ("bdtrik", "bdtr"):
        monkeypatch.setattr(scipy.special, name,
                            counting(calls, name, getattr(scipy.special, name)))
    monkeypatch.setattr(optimize, "asymptotic_rate",
                        counting(calls, "asymptotic_rate", optimize.asymptotic_rate))
    # asymptotic grid points run on the column's float kernel; only each row's
    # winner (or all-zero tie-break point) builds its result with asymptotic_rate
    monkeypatch.setattr(optimize._AsymptoticColumn, "evaluate",
                        counting(calls, "asymptotic_kernel", optimize._AsymptoticColumn.evaluate))
    per_command = {}
    for command in ("finite", "asymptotic", "maxloss"):
        calls.clear()
        assert cli.main([command, "--out", str(tmp_path / f"{command}.csv")]) == 0
        per_command[command] = dict(calls)
    # a finite grid column calls bdtrik once, for the anchor of its F^-1 starts,
    # and each winner's result once more (220 and 17,139 when every exact key
    # length called it). The column's first F^-1 settles the block sizes of
    # its points still to rate with one bdtr pair; a block size whose start is
    # one above the answer is walked, with two CDFs. Finite was 37 bdtrik and
    # 440 bdtr calls, two per F^-1, and maxloss 776 and 34,278, before the
    # best-first column order and the batched pair
    assert per_command["finite"] == {"bdtrik": 6, "bdtr": 14}
    assert per_command["asymptotic"] == {"asymptotic_kernel": 5772, "asymptotic_rate": 36}
    # the loss search's walk: a regression shows here as a count, not only as time
    assert per_command["maxloss"] == {"bdtrik": 660, "bdtr": 2692}


def test_default_maxloss_builds_results_only_in_optimize_point(tmp_path, monkeypatch):
    # a grid point is rated on plain floats with one estimate pass, pruned or
    # not; only optimize_point builds a SessionCounts and FiniteKeyResult, for
    # its winner (17,139 of each were built before, one per exact key length).
    # The walk visits each round's columns best first, by the bracket bound at
    # their top p_x: 45,064 grid points in grid order, and 87,443 before the
    # interval cut
    from bb84rate import cli, finitekey, optimize
    calls = collections.Counter()
    monkeypatch.setattr(finitekey.SessionCounts, "__post_init__",
                        counting(calls, "SessionCounts", finitekey.SessionCounts.__post_init__))
    monkeypatch.setattr(optimize, "finite_key_length",
                        counting(calls, "finite_key_length", optimize.finite_key_length))
    monkeypatch.setattr(optimize._FiniteColumn, "evaluate",
                        counting(calls, "grid_point", optimize._FiniteColumn.evaluate))
    # the walk's binding and finite_key_length's
    monkeypatch.setattr(optimize, "_estimates", counting(calls, "_estimates", optimize._estimates))
    monkeypatch.setattr(finitekey, "_estimates",
                        counting(calls, "_estimates", finitekey._estimates))
    for module in (cli, optimize):  # the reported points and the loss-cap checks
        monkeypatch.setattr(module, "optimize_point",
                            counting(calls, "optimize_point", module.optimize_point))
    assert cli.main(["maxloss", "--out", str(tmp_path / "maxloss.csv")]) == 0
    assert calls == {"optimize_point": 10, "SessionCounts": 10, "finite_key_length": 10,
                     "grid_point": 36346, "_estimates": 36356}
