"""Run configuration: sectioned key-value files with full defaults.

Every key has a shipped default reproducing the baseline system, so every
command runs with no config file at all. Unknown sections or keys are
rejected. Units follow the baseline table: repetition rate in MHz, dead
time in ns, fibre loss in dB/km.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .finitekey import SecurityParams
from .mc_oracle import TrialConfig, check_eps_test, check_trials
from .models import ChannelModel, DetectorModel, ProtocolParams, SourceModel
from .optimize import OptimizationConfig

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_values"]


class ConfigError(ValueError):
    """Malformed configuration; maps to CLI exit code 1."""


def parse_values(text: str) -> list[float]:
    """Parse '1,10,60' lists or inclusive 'start:stop:step' ranges of <= 100,000 values."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ConfigError(f"range start and stop must be finite numbers, got {text!r}")
        if not step > 0:  # written so that NaN fails the check
            raise ConfigError(f"range step must be positive, got {step}")
        out = []
        v = start
        while v <= stop + 1e-9:
            if len(out) == 100_000:  # a step too small to move v (1e20:1e21:1) never ends
                raise ConfigError("a range may give at most 100000 values")
            out.append(round(v, 12))
            v += step
        return out
    if not text:
        return []
    return [float(p) for p in text.split(",")]


# section -> key -> (parser, default). None defaults mean "unset"; a key that
# sets a dataclass field reads that field's default.
_SCHEMA: dict[str, dict[str, tuple]] = {
    "source": {
        "mean_photon_number": (float, 0.0142),
        "g2": (float, 0.036),
        "rep_rate_mhz": (float, 160.7),
    },
    "detector": {
        "efficiency": (float, 0.6525),
        "dark_count_prob": (float, 1.47e-7),
        "dead_time_ns": (float, 27.5),
        "misalignment": (float, 0.003),
    },
    "channel": {
        "loss_per_km_db": (float, 0.1904),
        "distance_km": (float, 100.0),
        "loss_db": (float, None),
    },
    "protocol": {
        "p_x": (float, ProtocolParams.p_x),
        "att": (float, ProtocolParams.att),
    },
    "security": {
        "eps_prime": (float, SecurityParams.eps_prime),
        "n_pe": (int, SecurityParams.n_pe),
        "eps_cor": (float, SecurityParams.eps_cor),
    },
    "optimizer": {
        "p_x_min": (float, OptimizationConfig.p_x_range[0]),
        "p_x_max": (float, OptimizationConfig.p_x_range[1]),
        "att_min": (float, OptimizationConfig.att_range[0]),
        "att_max": (float, OptimizationConfig.att_range[1]),
        "grid_resolution": (int, OptimizationConfig.grid_resolution),
        "refinement_rounds": (int, OptimizationConfig.refinement_rounds),
        "shrink_factor": (float, OptimizationConfig.shrink_factor),
        "loss_bisection_tol_db": (float, OptimizationConfig.loss_bisection_tol_db),
        "loss_cap_db": (float, OptimizationConfig.loss_cap_db),
    },
    "asymptotic": {
        "distances_km": (parse_values, [float(d) for d in range(0, 180, 5)]),
    },
    "finite": {
        "acquisition_times_s": (parse_values, [60.0]),
        "block_sizes_received": (parse_values, None),
    },
    "maxloss": {
        "acquisition_times_s": (parse_values, [1.0, 10.0, 60.0, 600.0, 3600.0]),
    },
    "oracle": {
        "seed": (int, 20240801),
        "n_pulses": (int, 10_000_000),
        "eps_test": (float, TrialConfig.eps_test),
        "chernoff_trials": (int, 100_000),
        "sampling_trials": (int, 10_000),
        "losses_db": (parse_values, [0.0, 10.0, 20.0, 30.0, 35.0]),
        "selftest_bound_scale": (float, 1.0),
    },
}


@dataclass
class RunConfig:
    """Fully resolved configuration with constructed model objects."""

    source: SourceModel
    detector: DetectorModel
    protocol: ProtocolParams
    security: SecurityParams
    optimizer: OptimizationConfig
    loss_per_km_db: float
    channel: ChannelModel
    asymptotic_distances_km: list[float]
    finite_acquisition_times_s: list[float] | None
    finite_block_sizes: list[float] | None
    maxloss_times_s: list[float]
    oracle: dict
    resolved: dict = field(repr=False)


def _read_raw(path: str | None) -> dict[str, dict[str, object]]:
    values: dict[str, dict[str, object]] = {s: dict() for s in _SCHEMA}
    if path is None:
        return values
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, text in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            parse, _default = _SCHEMA[section][key]
            try:
                values[section][key] = parse(text)
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"bad value for [{section}] {key} = {text!r}: {exc}") from exc
    return values


def load_config(path: str | None = None) -> RunConfig:
    """Load and validate a config file; defaults fill every gap.

    Raises:
        ConfigError: unknown sections/keys, unparsable or inconsistent
            values (including model-level range violations).
    """
    raw = _read_raw(path)

    def get(section: str, key: str):
        if key in raw[section]:
            return raw[section][key]
        return _SCHEMA[section][key][1]

    resolved = {
        section: {key: get(section, key) for key in keys}
        for section, keys in _SCHEMA.items()
    }

    for section, key_a, key_b in (("channel", "distance_km", "loss_db"),
                                  ("finite", "acquisition_times_s", "block_sizes_received")):
        if raw[section].get(key_a) is not None and raw[section].get(key_b) is not None:
            raise ConfigError(f"[{section}] {key_a} and {key_b} are mutually exclusive")
    # curve commands emit one row per value of these keys, in order
    for section, key in (("asymptotic", "distances_km"), ("finite", "acquisition_times_s"),
                         ("finite", "block_sizes_received")):
        values = resolved[section][key]
        # written so that a NaN fails the check
        if values is not None and any(not a < b for a, b in zip(values, values[1:])):
            raise ConfigError(f"[{section}] {key} must be strictly increasing")
    distance_km = resolved["channel"]["distance_km"]
    if not 0.0 <= distance_km < math.inf:  # written so that NaN fails the check
        raise ConfigError(f"[channel] distance_km must be finite and >= 0, got {distance_km}")
    for t in resolved["maxloss"]["acquisition_times_s"]:
        if not 0.0 <= t < math.inf:
            raise ConfigError(f"[maxloss] acquisition_times_s must be finite and >= 0, got {t}")

    oracle = resolved["oracle"]
    try:
        source = SourceModel(
            mean_photon_number=get("source", "mean_photon_number"),
            g2=get("source", "g2"),
            rep_rate=get("source", "rep_rate_mhz") * 1e6,
        )
        detector = DetectorModel(
            det_efficiency=get("detector", "efficiency"),
            dark_count_prob=get("detector", "dark_count_prob"),
            dead_time=get("detector", "dead_time_ns") * 1e-9,
            misalignment=get("detector", "misalignment"),
        )
        # the channel for commands run at one operating point; building it
        # from the distance also checks loss_per_km_db, which every command
        # uses, even when an explicit loss_db takes precedence
        channel = ChannelModel.from_fiber(get("channel", "distance_km"),
                                          get("channel", "loss_per_km_db"))
        if get("channel", "loss_db") is not None:
            channel = ChannelModel(loss_db=get("channel", "loss_db"))
        protocol = ProtocolParams(p_x=get("protocol", "p_x"), att=get("protocol", "att"))
        security = SecurityParams(
            eps_prime=get("security", "eps_prime"),
            n_pe=get("security", "n_pe"),
            eps_cor=get("security", "eps_cor"),
        )
        optimizer = OptimizationConfig(
            p_x_range=(get("optimizer", "p_x_min"), get("optimizer", "p_x_max")),
            att_range=(get("optimizer", "att_min"), get("optimizer", "att_max")),
            grid_resolution=get("optimizer", "grid_resolution"),
            refinement_rounds=get("optimizer", "refinement_rounds"),
            shrink_factor=get("optimizer", "shrink_factor"),
            loss_bisection_tol_db=get("optimizer", "loss_bisection_tol_db"),
            loss_cap_db=get("optimizer", "loss_cap_db"),
        )
        TrialConfig(oracle["seed"], oracle["n_pulses"], oracle["eps_test"])
        check_eps_test(oracle["eps_test"])
        for loss_db in oracle["losses_db"]:
            ChannelModel(loss_db=loss_db)
        for key in ("chernoff_trials", "sampling_trials"):
            check_trials(key, oracle[key])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    finite_times = get("finite", "acquisition_times_s")
    finite_blocks = get("finite", "block_sizes_received")
    if raw["finite"].get("block_sizes_received") is not None:
        finite_times = None

    return RunConfig(
        source=source,
        detector=detector,
        protocol=protocol,
        security=security,
        optimizer=optimizer,
        loss_per_km_db=get("channel", "loss_per_km_db"),
        channel=channel,
        asymptotic_distances_km=get("asymptotic", "distances_km"),
        finite_acquisition_times_s=finite_times,
        finite_block_sizes=finite_blocks,
        maxloss_times_s=get("maxloss", "acquisition_times_s"),
        oracle=oracle,
        resolved=resolved,
    )
