"""Command-line front end.

Subcommands: asymptotic | finite | maxloss | fit-qber | oracle, listed
once in _COMMANDS with their handlers. A curve handler (asymptotic,
finite, maxloss) returns a header and the rows of run_sweep, which main
emits as CSV (or JSON with --format json); a report handler (fit-qber,
oracle) returns a report, which main writes as JSON. main writes every
output and picks every exit code. Every output embeds the fully resolved
configuration, so results are self-describing, and outputs are
byte-deterministic for a fixed config.

CSV schema: UTF-8, comma-separated, '.' decimal separator, no thousands
separators. Leading lines starting with '# ' carry the resolved config as
'# section.key = value'; the header row follows, then data rows. Exit
codes: 0 success, 1 config error, 2 runtime or assertion failure.
"""
from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from typing import Callable, Iterable, Sequence

from .asymptotic import QberMeasurement, fit_misalignment
from .config import ConfigError, RunConfig, load_config
from .mc_oracle import TrialConfig, run_oracle_suite
from .models import ChannelModel
from .optimize import NoPositiveRateError, max_tolerable_loss, optimize_point

__all__ = ["main", "read_result_csv"]


def _fmt(value) -> str:
    if isinstance(value, float):
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


def _check_out(path: str) -> None:
    """Raise, before any work, the error that opening path for writing raises
    when it names a directory or a directory on its way is missing or a file."""
    if path == "-":
        return
    name = path.rstrip(os.sep)
    try:
        # the trailing separator makes a file on the way raise ENOTDIR, as open does
        os.stat((os.path.dirname(name) or os.curdir) + os.sep)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    if name != path or os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_table(path: str, fmt: str, resolved: dict, header: Sequence[str],
                rows: Sequence[Sequence]) -> None:
    if fmt == "json":
        _write_json(path, {"config": resolved,
                           "rows": [dict(zip(header, row)) for row in rows]})
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


def run_sweep(values: Iterable[float], row_at: Callable[[float], list],
              empty_at: Callable[[float], list]) -> list[list]:
    """The table rows of a sweep, one per value, in order, each ending in its status.

    row_at(value) gives the cells of a value with a result, status "ok". A
    value without key at any loss (NoPositiveRateError), one the models
    reject (ValueError) and one whose arithmetic fails give the cells of
    empty_at(value) instead, with a status that says which.
    """
    table = []
    for value in values:
        try:
            row = row_at(value) + ["ok"]
        except NoPositiveRateError:
            row = empty_at(value) + ["no_key_at_any_loss"]
        except (ValueError, ArithmeticError) as exc:
            row = empty_at(value) + [f"error: {exc}"]
        table.append(row)
    return table


def _cmd_asymptotic(cfg: RunConfig, args: argparse.Namespace) -> tuple[list[str], list]:
    def row_at(distance_km: float) -> list:
        point = optimize_point(cfg.source, ChannelModel.from_fiber(distance_km, cfg.loss_per_km_db),
                               cfg.detector, cfg.optimizer, mode="asymptotic",
                               fixed_p_x=cfg.protocol.p_x)
        res = point.result
        return [distance_km, distance_km * cfg.loss_per_km_db, point.rate_bps,
                res.single_photon_fraction, res.e_z, res.p_click, point.att]

    header = ["distance_km", "loss_db", "rate_bps", "single_photon_fraction",
              "qber", "p_click", "att", "status"]
    return header, run_sweep(cfg.asymptotic_distances_km, row_at,
                             lambda d: [d, d * cfg.loss_per_km_db, 0.0, *(math.nan,) * 4])


# FiniteKeyResult/SessionCounts fields emitted by `finite`, in column order.
# ell comes first: a point without a result has key length 0 and NaN elsewhere.
_FINITE_COLUMNS = ("ell", "n_sent", "n_rx_x", "n_rx_z", "m_z", "n_mp_upper_x", "n_mp_upper_z",
                   "n_nmp_x", "n_nmp_z", "phi_x", "phi_x_upper", "lambda_ec", "e_x")
_NO_RESULT = (0,) + (math.nan,) * (len(_FINITE_COLUMNS) - 1)


def _cmd_finite(cfg: RunConfig, args: argparse.Namespace) -> tuple[list[str], list]:
    channel = cfg.channel
    by_block = cfg.finite_block_sizes is not None
    if by_block:
        axis, values = "block_size_received", cfg.finite_block_sizes
    else:
        axis, values = "acquisition_time_s", cfg.finite_acquisition_times_s

    def row_at(value: float) -> list:
        size = dict(n_received=value) if by_block else dict(n_sent=cfg.source.rep_rate * value)
        point = optimize_point(cfg.source, channel, cfg.detector, cfg.optimizer,
                               mode="finite", sec=cfg.security, **size)
        res = point.result
        fields = {**vars(res.counts), **vars(res)} if res else {}
        cells = [fields[c] for c in _FINITE_COLUMNS] if res else _NO_RESULT
        return [value, channel.loss_db, point.p_x, point.att, point.rate_bps,
                point.rate_per_pulse, *cells]

    header = [axis, "loss_db", "p_x", "att", "rate_bps", "rate_per_pulse",
              *_FINITE_COLUMNS, "status"]
    return header, run_sweep(values, row_at, lambda value: [
        value, channel.loss_db, math.nan, math.nan, 0.0, 0.0, *_NO_RESULT])


def _cmd_maxloss(cfg: RunConfig, args: argparse.Namespace) -> tuple[list[str], list]:
    def row_at(t: float) -> list:
        n_sent = cfg.source.rep_rate * t
        boundary = max_tolerable_loss(cfg.source, cfg.detector, cfg.optimizer,
                                      mode="finite", sec=cfg.security, n_sent=n_sent)
        probe = max(0.0, boundary - cfg.optimizer.loss_bisection_tol_db)
        point = optimize_point(cfg.source, ChannelModel(loss_db=probe), cfg.detector,
                               cfg.optimizer, mode="finite", sec=cfg.security, n_sent=n_sent)
        return [t, boundary, point.p_x, point.att]

    header = ["acquisition_time_s", "max_loss_db", "p_x_opt", "att_opt", "status"]
    return header, run_sweep(cfg.maxloss_times_s, row_at, lambda t: [t, *(math.nan,) * 3])


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


def _cmd_fit_qber(cfg: RunConfig, args: argparse.Namespace) -> dict:
    data = _read_qber_csv(args.data)
    try:  # a fit the data and config leave undefined is an input error
        p_mis, modeled = fit_misalignment(data, cfg.source, cfg.detector, cfg.loss_per_km_db,
                                          cfg.protocol.att)
    except ValueError as exc:
        raise ConfigError(f"{args.data}: {exc}") from exc
    points = [{
        "distance_km": m.distance_km,
        "qber_measured": m.qber,
        "qber_model": e,
        "residual": m.qber - e,
    } for m, e in zip(data, modeled)]
    return {"p_mis": p_mis, "residuals": [p["residual"] for p in points], "points": points}


def _cmd_oracle(cfg: RunConfig, args: argparse.Namespace) -> dict:
    o = cfg.oracle
    seed = args.seed if args.seed is not None else o["seed"]
    try:
        trial = TrialConfig(seed=seed, n_pulses=o["n_pulses"], eps_test=o["eps_test"])
    except ValueError as exc:  # only the --seed flag is unchecked by load_config
        raise ConfigError(f"--seed: {exc}") from exc
    return run_oracle_suite(
        cfg.source, cfg.detector, cfg.protocol, trial,
        losses_db=tuple(o["losses_db"]),
        chernoff_trials=o["chernoff_trials"],
        sampling_trials=o["sampling_trials"],
        bound_scale=o["selftest_bound_scale"],
    )


# subcommand -> (help text, handler)
_COMMANDS = {
    "asymptotic": ("asymptotic key rate vs distance", _cmd_asymptotic),
    "finite": ("optimized finite key rate vs acquisition time or block size", _cmd_finite),
    "maxloss": ("maximum tolerable loss vs acquisition time", _cmd_maxloss),
    "fit-qber": ("fit the misalignment probability to measured QBER data", _cmd_fit_qber),
    "oracle": ("Monte-Carlo model-agreement and bound-coverage checks", _cmd_oracle),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bb84rate",
        description="BB84 key rates for single-photon sources: asymptotic and "
                    "finite-size curves, loss boundaries, QBER fitting and a "
                    "Monte-Carlo verification oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
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
        _check_out(args.out)
        result = _COMMANDS[args.command][1](cfg, args)
        if not isinstance(result, dict):
            _emit_table(args.out, args.format, cfg.resolved, *result)
            return 0
        _write_json(args.out, {**result, "config": cfg.resolved})
        failed = [c["name"] for c in result.get("checks", ()) if not c["passed"]]
        if failed:
            print(f"oracle checks failed: {', '.join(failed)}", file=sys.stderr)
            return 2
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure -> exit 2 per CLI contract
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
