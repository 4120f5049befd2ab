"""Command-line front end.

Subcommands: asymptotic | finite | maxloss | fit-qber | oracle. Curve
commands emit CSV (or JSON with --format json); fit-qber and oracle emit
JSON reports. Every output embeds the fully resolved configuration, so
results are self-describing, and outputs are byte-deterministic for a
fixed config.

CSV schema: UTF-8, comma-separated, '.' decimal separator, no thousands
separators. Leading lines starting with '# ' carry the resolved config as
'# section.key = value'; the header row follows, then data rows. Exit
codes: 0 success, 1 config error, 2 runtime or assertion failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Iterable, Sequence

from .asymptotic import QberMeasurement, fit_misalignment
from .config import ConfigError, RunConfig, load_config
from .mc_oracle import TrialConfig, run_oracle_suite
from .models import ChannelModel
from .optimize import NoPositiveRateError, max_tolerable_loss, optimize_point, run_sweep

__all__ = ["main", "read_result_csv"]


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".12g")
    # cells are unquoted, so text (status messages) must stay comma-free
    return str(value).replace(",", ";")


def _echo_lines(resolved: dict) -> list[str]:
    lines = []
    for section in sorted(resolved):
        for key in sorted(resolved[section]):
            value = resolved[section][key]
            if isinstance(value, list):
                value = ",".join(_fmt(v) for v in value)
            elif value is None:
                value = ""
            else:
                value = _fmt(value)
            lines.append(f"# {section}.{key} = {value}")
    return lines


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_table(path: str, fmt: str, resolved: dict, header: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    rows = list(rows)
    if fmt == "json":
        payload = {
            "config": resolved,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    lines = _echo_lines(resolved)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def read_result_csv(path: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Re-parse an emitted CSV: (config echo, header, raw rows)."""
    echo: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[str]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    echo[key.strip()] = value.strip()
                continue
            if not header:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return echo, header, rows


def _cmd_asymptotic(cfg: RunConfig, out: str, fmt: str) -> int:
    def point_at(distance_km: float):
        return optimize_point(cfg.source, ChannelModel.from_fiber(distance_km, cfg.loss_per_km_db),
                              cfg.detector, cfg.optimizer, mode="asymptotic",
                              fixed_p_x=cfg.protocol.p_x)

    distances = cfg.asymptotic_distances_km
    header = ["distance_km", "loss_db", "rate_bps", "single_photon_fraction",
              "qber", "p_click", "att", "status"]
    table = []
    for distance, (point, status) in zip(distances, run_sweep(distances, point_at)):
        res = point.result
        table.append([
            distance,
            distance * cfg.loss_per_km_db,
            point.rate_bps,
            res.single_photon_fraction if res else math.nan,
            res.e_z if res else math.nan,
            res.p_click if res else math.nan,
            point.att,
            status,
        ])
    _emit_table(out, fmt, cfg.resolved, header, table)
    return 0


# FiniteKeyResult/SessionCounts fields emitted by `finite`, in column order.
# ell comes first: a point without a result has key length 0 and NaN elsewhere.
_FINITE_COLUMNS = ("ell", "n_sent", "n_rx_x", "n_rx_z", "m_z", "n_mp_upper_x", "n_mp_upper_z",
                   "n_nmp_x", "n_nmp_z", "phi_x", "phi_x_upper", "lambda_ec", "e_x")
_NO_RESULT = (0,) + (math.nan,) * (len(_FINITE_COLUMNS) - 1)


def _cmd_finite(cfg: RunConfig, out: str, fmt: str) -> int:
    channel = cfg.channel
    by_block = cfg.finite_block_sizes is not None
    if by_block:
        axis, values = "block_size_received", cfg.finite_block_sizes
    else:
        axis, values = "acquisition_time_s", cfg.finite_acquisition_times_s

    def point_at(value: float):
        size = dict(n_received=value) if by_block else dict(n_sent=cfg.source.rep_rate * value)
        return optimize_point(cfg.source, channel, cfg.detector, cfg.optimizer,
                              mode="finite", sec=cfg.security, **size)

    header = [axis, "loss_db", "p_x", "att", "rate_bps", "rate_per_pulse",
              *_FINITE_COLUMNS, "status"]
    table = []
    for value, (point, status) in zip(values, run_sweep(values, point_at)):
        res = point.result
        fields = {**vars(res.counts), **vars(res)} if res else {}
        cells = [fields[c] for c in _FINITE_COLUMNS] if res else _NO_RESULT
        table.append([value, channel.loss_db, point.p_x, point.att, point.rate_bps,
                      point.rate_per_pulse, *cells, status])
    _emit_table(out, fmt, cfg.resolved, header, table)
    return 0


def _cmd_maxloss(cfg: RunConfig, out: str, fmt: str) -> int:
    header = ["acquisition_time_s", "max_loss_db", "p_x_opt", "att_opt", "status"]
    table = []
    for t in cfg.maxloss_times_s:
        n_sent = cfg.source.rep_rate * t
        # a time the models reject gives an error row, as in run_sweep
        try:
            boundary = max_tolerable_loss(cfg.source, cfg.detector, cfg.optimizer,
                                          mode="finite", sec=cfg.security, n_sent=n_sent)
            probe = max(0.0, boundary - cfg.optimizer.loss_bisection_tol_db)
            point = optimize_point(cfg.source, ChannelModel(loss_db=probe), cfg.detector,
                                   cfg.optimizer, mode="finite", sec=cfg.security,
                                   n_sent=n_sent)
        except NoPositiveRateError:
            table.append([t, math.nan, math.nan, math.nan, "no_key_at_any_loss"])
            continue
        except (ValueError, ArithmeticError) as exc:
            table.append([t, math.nan, math.nan, math.nan, f"error: {exc}"])
            continue
        table.append([t, boundary, point.p_x, point.att, "ok"])
    _emit_table(out, fmt, cfg.resolved, header, table)
    return 0


def _read_qber_csv(path: str) -> list[QberMeasurement]:
    try:
        fh = open(path, encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read QBER data {path!r}: {exc}") from exc
    with fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ConfigError(f"{path}: empty file, expected header distance_km,qber")
    header = [c.strip() for c in lines[0].split(",")]
    try:
        i_dist = header.index("distance_km")
        i_qber = header.index("qber")
    except ValueError as exc:
        raise ConfigError(f"{path}: header must contain distance_km and qber columns, "
                          f"got {header}") from exc
    data = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            print(f"warning: {path}:{lineno}: blank line skipped", file=sys.stderr)
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise ConfigError(f"{path}:{lineno}: expected {len(header)} columns, got {len(cells)}")
        try:
            distance = float(cells[i_dist])
            qber = float(cells[i_qber])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: non-numeric value: {exc}") from exc
        try:
            data.append(QberMeasurement(distance_km=distance, qber=qber))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return data


def _cmd_fit_qber(cfg: RunConfig, data_path: str, out: str) -> int:
    data = _read_qber_csv(data_path)
    try:  # a fit the data and config leave undefined is an input error
        p_mis, modeled = fit_misalignment(data, cfg.source, cfg.detector, cfg.loss_per_km_db,
                                          cfg.protocol.att)
    except ValueError as exc:
        raise ConfigError(f"{data_path}: {exc}") from exc
    points = [{
        "distance_km": m.distance_km,
        "qber_measured": m.qber,
        "qber_model": e,
        "residual": m.qber - e,
    } for m, e in zip(data, modeled)]
    report = {
        "config": cfg.resolved,
        "p_mis": p_mis,
        "residuals": [p["residual"] for p in points],
        "points": points,
    }
    _write_text(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_oracle(cfg: RunConfig, out: str, seed_override: int | None) -> int:
    o = cfg.oracle
    seed = seed_override if seed_override is not None else o["seed"]
    try:
        trial = TrialConfig(seed=seed, n_pulses=o["n_pulses"], eps_test=o["eps_test"])
    except ValueError as exc:  # only the --seed flag is unchecked by load_config
        raise ConfigError(f"--seed: {exc}") from exc
    report = run_oracle_suite(
        cfg.source, cfg.detector, cfg.protocol, trial,
        losses_db=tuple(o["losses_db"]),
        chernoff_trials=o["chernoff_trials"],
        sampling_trials=o["sampling_trials"],
        bound_scale=o["selftest_bound_scale"],
    )
    report["config"] = cfg.resolved
    _write_text(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    if not report["all_passed"]:
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        print(f"oracle checks failed: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bb84rate",
        description="BB84 key rates for single-photon sources: asymptotic and "
                    "finite-size curves, loss boundaries, QBER fitting and a "
                    "Monte-Carlo verification oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "asymptotic": "asymptotic key rate vs distance",
        "finite": "optimized finite key rate vs acquisition time or block size",
        "maxloss": "maximum tolerable loss vs acquisition time",
        "fit-qber": "fit the misalignment probability to measured QBER data",
        "oracle": "Monte-Carlo model-agreement and bound-coverage checks",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="config file path (INI sections)")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="curve output format (reports are always JSON)")
        if name == "fit-qber":
            p.add_argument("--data", required=True, help="CSV with distance_km,qber columns")
        if name == "oracle":
            p.add_argument("--seed", type=int, default=None, help="override the oracle seed")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "asymptotic":
            return _cmd_asymptotic(cfg, args.out, args.format)
        if args.command == "finite":
            return _cmd_finite(cfg, args.out, args.format)
        if args.command == "maxloss":
            return _cmd_maxloss(cfg, args.out, args.format)
        if args.command == "fit-qber":
            return _cmd_fit_qber(cfg, args.data, args.out)
        if args.command == "oracle":
            return _cmd_oracle(cfg, args.out, args.seed)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure -> exit 2 per CLI contract
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
