"""Protocol-parameter optimization, loss-boundary search and sweeps.

The rate surface has floor and clamp kinks, so optimization is a
deterministic coarse grid over (basis bias, pre-attenuation) followed by
shrinking-grid refinement around the incumbent. Grid points are
independent, and the incumbent is selected by a lexicographic maximum, so
results do not depend on evaluation order and evaluations may run in
parallel without changing the output.

A sweep is one optimize_point call per value: the caller builds each
operating point, and run_sweep turns a point the models reject into a
zero-rate error row instead of aborting the sweep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .asymptotic import AsymptoticResult, asymptotic_rate, f_ec
from .finitekey import FiniteKeyResult, SecurityParams, SessionCounts, finite_key_length
from .models import ChannelModel, DetectorModel, ProtocolParams, SourceModel, click_error_probs

__all__ = [
    "NoPositiveRateError",
    "OptimizationConfig",
    "OptimizedPoint",
    "optimize_point",
    "max_tolerable_loss",
    "run_sweep",
]

class NoPositiveRateError(RuntimeError):
    """No positive key rate even at zero channel loss."""


@dataclass(frozen=True)
class OptimizationConfig:
    """Grid-search and bisection settings.

    Attributes:
        p_x_range: search interval for the key-basis bias, inside (0.5, 1).
        att_range: search interval for the pre-attenuation, inside (0, 1].
        grid_resolution: points per axis per round, >= 2.
        refinement_rounds: shrinking-grid rounds after the coarse pass.
        shrink_factor: range contraction per refinement round.
        loss_bisection_tol_db: boundary localization tolerance in dB.
        loss_cap_db: upper limit for the loss-boundary search.
    """

    p_x_range: tuple[float, float] = (0.505, 0.995)
    att_range: tuple[float, float] = (0.01, 1.0)
    grid_resolution: int = 32
    refinement_rounds: int = 4
    shrink_factor: float = 4.0
    loss_bisection_tol_db: float = 0.01
    loss_cap_db: float = 60.0

    def __post_init__(self) -> None:
        if not 0.5 < self.p_x_range[0] <= self.p_x_range[1] < 1.0:
            raise ValueError(f"p_x_range must lie inside (0.5, 1), got {self.p_x_range}")
        if not 0.0 < self.att_range[0] <= self.att_range[1] <= 1.0:
            raise ValueError(f"att_range must lie inside (0, 1], got {self.att_range}")
        if self.grid_resolution < 2:
            raise ValueError(f"grid_resolution must be >= 2, got {self.grid_resolution}")
        if self.refinement_rounds < 0:
            raise ValueError(f"refinement_rounds must be >= 0, got {self.refinement_rounds}")
        # written so that NaN fails each check
        if not self.shrink_factor > 1.0:
            raise ValueError(f"shrink_factor must be > 1, got {self.shrink_factor}")
        if not self.loss_bisection_tol_db > 0.0:
            raise ValueError(f"loss_bisection_tol_db must be > 0, got {self.loss_bisection_tol_db}")
        if not 0.0 < self.loss_cap_db < math.inf:
            raise ValueError(f"loss_cap_db must be finite and > 0, got {self.loss_cap_db}")


@dataclass(frozen=True)
class OptimizedPoint:
    """Optimizer output at one operating point."""

    p_x: float
    att: float
    rate_per_pulse: float
    rate_bps: float
    result: AsymptoticResult | FiniteKeyResult | None


def _linspace(lo: float, hi: float, k: int) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (k - 1)
    return [lo + i * step for i in range(k - 1)] + [hi]


def _make_evaluator(
    src: SourceModel, ch: ChannelModel, det: DetectorModel, mode: str,
    sec: SecurityParams, n_sent: float | None, n_received: float | None,
) -> Callable[[list[float], list[float]], list[tuple[float, float, float, object]]]:
    """Build a batch evaluator returning (rate, p_x, att, result) tuples.

    Click and error probabilities depend only on the attenuation, so they
    are computed once per att column.
    """
    if mode == "asymptotic":
        def evaluate(p_xs: list[float], atts: list[float]):
            out = []
            for att in atts:
                for p_x in p_xs:
                    res = asymptotic_rate(src, ch, det, ProtocolParams(p_x=p_x, att=att))
                    out.append((res.rate_per_pulse, p_x, att, res))
            return out
        return evaluate

    def evaluate(p_xs: list[float], atts: list[float]):
        out = []
        for att in atts:
            p_c, p_e = click_error_probs(src, ch, det, att)
            if p_c <= 0.0:
                out.extend((0.0, p_x, att, None) for p_x in p_xs)
                continue
            e_x = p_e / p_c
            ns = n_sent if n_sent is not None else n_received / p_c
            p_m_eff = src.attenuated_multiphoton_prob(att)
            fec = f_ec(e_x)
            for p_x in p_xs:
                counts = SessionCounts.from_probs(ns, p_x, p_c, p_e, p_m_eff)
                res = finite_key_length(counts, sec, e_x, f_ec_value=fec)
                out.append((res.rate, p_x, att, res))
        return out

    return evaluate


def optimize_point(
    src: SourceModel, ch: ChannelModel, det: DetectorModel,
    cfg: OptimizationConfig = OptimizationConfig(), *,
    mode: str = "finite", sec: SecurityParams = SecurityParams(),
    n_sent: float | None = None, n_received: float | None = None,
    fixed_p_x: float | None = None, fixed_att: float | None = None,
) -> OptimizedPoint:
    """Maximize the key rate over (p_x, att) at one operating point.

    Deterministic grid search with shrinking refinement; ties break toward
    larger p_x, then larger att. Either axis can be pinned with fixed_p_x
    or fixed_att. Finite mode needs exactly one of n_sent (pulses sent) or
    n_received (detections to accumulate); asymptotic mode needs neither.

    An all-zero-rate grid returns rate 0 at the tie-break point (the top
    of the searched ranges).
    """
    if mode not in ("asymptotic", "finite"):
        raise ValueError(f"mode must be 'asymptotic' or 'finite', got {mode!r}")
    if mode == "finite":
        if (n_sent is None) == (n_received is None):
            raise ValueError("finite mode needs exactly one of n_sent or n_received")
    elif n_sent is not None or n_received is not None:
        raise ValueError("asymptotic mode takes neither n_sent nor n_received")

    evaluate = _make_evaluator(src, ch, det, mode, sec, n_sent, n_received)

    if mode == "asymptotic" and fixed_p_x is None:
        # At fixed att the rate is sift_ratio(p_x) times a factor free of p_x,
        # and sift_ratio increases on (1/2, 1): under the (rate, p_x, att)
        # tie-break the top of the p_x range wins or ties (zero rate).
        fixed_p_x = cfg.p_x_range[1]
    # a pinned axis is a one-value range
    px_lo0, px_hi0 = cfg.p_x_range if fixed_p_x is None else (fixed_p_x, fixed_p_x)
    at_lo0, at_hi0 = cfg.att_range if fixed_att is None else (fixed_att, fixed_att)
    px_lo, px_hi = px_lo0, px_hi0
    at_lo, at_hi = at_lo0, at_hi0
    best: tuple[float, float, float, object] | None = None

    for _ in range(cfg.refinement_rounds + 1):
        p_xs = _linspace(px_lo, px_hi, cfg.grid_resolution)
        atts = _linspace(at_lo, at_hi, cfg.grid_resolution)
        if at_hi0 == 1.0 and at_hi < 1.0:
            atts.append(1.0)
        for cand in evaluate(p_xs, atts):
            if best is None or cand[:3] > best[:3]:
                best = cand
        _, bp, ba, _ = best
        pw = (px_hi - px_lo) / (2.0 * cfg.shrink_factor)
        aw = (at_hi - at_lo) / (2.0 * cfg.shrink_factor)
        px_lo, px_hi = max(px_lo0, bp - pw), min(px_hi0, bp + pw)
        at_lo, at_hi = max(at_lo0, ba - aw), min(at_hi0, ba + aw)

    rate, p_x, att, result = best
    return OptimizedPoint(
        p_x=p_x, att=att, rate_per_pulse=rate, rate_bps=rate * src.rep_rate, result=result,
    )


def max_tolerable_loss(
    src: SourceModel, det: DetectorModel,
    cfg: OptimizationConfig = OptimizationConfig(), *,
    mode: str = "finite", sec: SecurityParams = SecurityParams(),
    n_sent: float | None = None, optimize_params: bool = True,
) -> float:
    """Channel loss (dB) at the zero/positive key-rate boundary.

    Bisects the loss axis, re-optimizing (p_x, att) at every probe when
    optimize_params is set, otherwise evaluating standard BB84 (p_x = 1/2,
    no pre-attenuation). The probe rate is nonincreasing in loss, so on
    return the rate is positive at boundary - tol and zero at
    boundary + tol. If the rate is still positive at the configured cap,
    the cap itself is returned.

    Raises:
        NoPositiveRateError: if the rate is zero already at 0 dB.
    """
    fixed = {} if optimize_params else {"fixed_p_x": 0.5, "fixed_att": 1.0}

    def rate_at(loss_db: float) -> float:
        return optimize_point(src, ChannelModel(loss_db=loss_db), det, cfg, mode=mode, sec=sec,
                              n_sent=n_sent, **fixed).rate_per_pulse

    if rate_at(0.0) <= 0.0:
        raise NoPositiveRateError("key rate is zero at 0 dB channel loss")
    if rate_at(cfg.loss_cap_db) > 0.0:
        return cfg.loss_cap_db
    lo, hi = 0.0, cfg.loss_cap_db
    while hi - lo > cfg.loss_bisection_tol_db:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent doubles: finer than any tolerance
            break
        if rate_at(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def run_sweep(
    values: Iterable[float], point_at: Callable[[float], OptimizedPoint],
) -> list[tuple[OptimizedPoint, str]]:
    """Optimize one point per sweep value, in order: (point, status) pairs.

    point_at builds and optimizes the operating point of one value. A
    value the models reject (ValueError) or whose arithmetic fails gives a
    zero-rate point with NaN p_x/att, no result and an "error: ..."
    status; every other point has status "ok".
    """
    rows: list[tuple[OptimizedPoint, str]] = []
    for value in values:
        try:
            rows.append((point_at(value), "ok"))
        except (ValueError, ArithmeticError) as exc:
            rows.append((OptimizedPoint(math.nan, math.nan, 0.0, 0.0, None), f"error: {exc}"))
    return rows
