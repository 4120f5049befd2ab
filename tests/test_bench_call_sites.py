"""Guard for the benchmark's calls into the program.

bench/tracer.py patches each (module, attribute) binding in its CALL_SITES
table; a refactor that renames or removes one breaks traced runs silently.
The table is read from the file, not imported, so the guard runs no
benchmark code. The other tests pin the signatures, config fields and call
paths that bench/worker.py and bench/tracer.py use, so a signature purge
fails here instead of in a benchmark run, and the exact call counts of the
default finite, asymptotic and maxloss commands (for asymptotic, both the
grid points the float kernel evaluates and the one asymptotic_rate result
per output row), with the SessionCounts that maxloss builds. Those counts
are literals here: the reference_counts in bench/baseline.json still hold
the finite count from before optimize_point's branch-and-bound (5,069
bdtrik calls) and the asymptotic count from before the float kernel (5,772
asymptotic_rate calls, now 36).
"""
import ast
import collections
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def call_sites():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CALL_SITES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no CALL_SITES table in {TRACER}")


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


def test_default_commands_keep_the_reference_counts(tmp_path, monkeypatch):
    import scipy.special

    from bb84rate import cli, optimize
    calls = collections.Counter()

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(scipy.special, "bdtrik", counted("bdtrik", scipy.special.bdtrik))
    monkeypatch.setattr(optimize, "asymptotic_rate",
                        counted("asymptotic_rate", optimize.asymptotic_rate))
    # asymptotic grid points run on the column's float kernel; only each row's
    # winner (or all-zero tie-break point) builds its result with asymptotic_rate
    monkeypatch.setattr(optimize._AsymptoticColumn, "evaluate",
                        counted("asymptotic_kernel", optimize._AsymptoticColumn.evaluate))
    per_command = {}
    for command in ("finite", "asymptotic", "maxloss"):
        calls.clear()
        assert cli.main([command, "--out", str(tmp_path / f"{command}.csv")]) == 0
        per_command[command] = dict(calls)
    assert per_command["finite"] == {"bdtrik": 219}
    assert per_command["asymptotic"] == {"asymptotic_kernel": 5772, "asymptotic_rate": 36}
    # the loss search's walk: a regression shows here as a count, not only as time
    assert per_command["maxloss"] == {"bdtrik": 17134}


def test_default_maxloss_builds_counts_only_for_exact_key_lengths(tmp_path, monkeypatch):
    # a point the practical-leak bound prunes is bounded on plain floats, so only
    # the points that get an exact key length build a validated SessionCounts
    # (every one of the 87,448 evaluated points built one before)
    from bb84rate import cli, finitekey, optimize
    calls = collections.Counter()
    post_init = finitekey.SessionCounts.__post_init__
    finite_key_length = optimize.finite_key_length

    def counted_post_init(self):
        calls["SessionCounts"] += 1
        post_init(self)

    def counted_finite_key_length(*args, **kwargs):
        calls["finite_key_length"] += 1
        return finite_key_length(*args, **kwargs)

    monkeypatch.setattr(finitekey.SessionCounts, "__post_init__", counted_post_init)
    monkeypatch.setattr(optimize, "finite_key_length", counted_finite_key_length)
    assert cli.main(["maxloss", "--out", str(tmp_path / "maxloss.csv")]) == 0
    assert calls == {"SessionCounts": 17139, "finite_key_length": 17139}
