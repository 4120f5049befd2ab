"""Protocol-parameter optimization, loss-boundary search and sweeps.

The rate surface has floor and clamp kinks, so optimization is a
deterministic coarse grid over (basis bias, pre-attenuation) followed by
shrinking-grid refinement around the incumbent. Grid points are
independent, and the incumbent is selected by a lexicographic maximum, so
results do not depend on evaluation order and evaluations may run in
parallel without changing the output.

The loss-boundary search only needs to know whether the optimum is
positive. Its probes walk the same rounds, stop at the first positive
point and skip the exact key length wherever a bound already proves it
zero; they answer exactly as the full search would.

A sweep is one optimize_point call per value: the caller builds each
operating point, and run_sweep turns a point the models reject into a
zero-rate error row instead of aborting the sweep.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .asymptotic import AsymptoticResult, asymptotic_rate, f_ec, gllp_bracket
from .finitekey import (FiniteKeyResult, SecurityParams, SessionCounts, finite_key_length,
                        practical_key_length)
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


class _AsymptoticColumn:
    """One att column in asymptotic mode: the closed-form rate needs no screen."""

    def __init__(self, src: SourceModel, ch: ChannelModel, det: DetectorModel,
                 att: float) -> None:
        self.src, self.ch, self.det, self.att = src, ch, det, att

    def evaluate(self, p_x: float) -> tuple[float, AsymptoticResult]:
        res = asymptotic_rate(self.src, self.ch, self.det, ProtocolParams(p_x=p_x, att=self.att))
        return res.rate_per_pulse, res

    def screened(self) -> bool:
        return False

    def positive(self, p_x: float) -> bool:
        return self.evaluate(p_x)[0] > 0.0


class _FiniteColumn:
    """One att column in finite mode.

    Click, error and multiphoton probabilities depend only on the
    attenuation, so every p_x of the column shares them.
    """

    def __init__(self, src: SourceModel, ch: ChannelModel, det: DetectorModel, att: float,
                 sec: SecurityParams, n_sent: float | None, n_received: float | None) -> None:
        self.sec = sec
        self.p_c, self.p_e = click_error_probs(src, ch, det, att)
        if self.p_c > 0.0:
            self.e_x = self.p_e / self.p_c
            self.n_sent = n_sent if n_sent is not None else n_received / self.p_c
            self.p_m = src.attenuated_multiphoton_prob(att)
            self.fec = f_ec(self.e_x)

    def counts(self, p_x: float) -> SessionCounts:
        return SessionCounts.from_probs(self.n_sent, p_x, self.p_c, self.p_e, self.p_m)

    def evaluate(self, p_x: float) -> tuple[float, FiniteKeyResult | None]:
        if self.p_c <= 0.0:
            return 0.0, None
        res = finite_key_length(self.counts(p_x), self.sec, self.e_x, f_ec_value=self.fec)
        return res.rate, res

    def bracket(self) -> float:
        """The asymptotic bracket A*(1 - H(e/A)) - f_EC(e)*H(e); -inf when A <= 0."""
        a = (self.p_c - self.p_m) / self.p_c
        return gllp_bracket(a, self.e_x) if a > 0.0 else -math.inf

    def screened(self) -> bool:
        """True when every p_x of the column has ell = 0 (column screen).

        With A = (p_c - p_m)/p_c, e = p_e/p_c and n pulses sent, the
        Chernoff caps are at least their expectations, so
        n_nmp_z <= n*p_z^2*(p_c - p_m) and n_nmp_x <= n*p_x^2*p_c*A; with
        A <= 0 no non-multiphoton signal is left and ell = 0. Otherwise,
        wherever ell can be positive, phi_upper >= phi = m_z/n_nmp_z >= e/A
        (the sampling correction is non-negative) and
        lambda_ec >= f_EC*n_x*H(e). Together

            ell <= n*p_x^2*p_c*bracket - 2*log2(1/(2*eps_pa)) - log2(2/eps_cor).

        The subtracted constant exceeds -1 for all eps_pa, eps_cor in
        (0, 1), so a bracket <= 0 gives ell = 0 at every p_x.
        """
        return self.p_c <= 0.0 or self.bracket() <= 0.0

    def positive(self, p_x: float) -> bool:
        """Whether the point's rate is positive.

        The point screen (practical_key_length) spares the F^-1 of
        lambda_ec wherever the practical leak alone already gives ell = 0.
        """
        return (practical_key_length(self.counts(p_x), self.sec, self.e_x, self.fec) > 0
                and self.evaluate(p_x)[0] > 0.0)


def _column_maker(
    src: SourceModel, ch: ChannelModel, det: DetectorModel, mode: str,
    sec: SecurityParams, n_sent: float | None, n_received: float | None,
) -> Callable[[float], _AsymptoticColumn | _FiniteColumn]:
    """Check the mode's block arguments; return att -> that att's grid column."""
    if mode not in ("asymptotic", "finite"):
        raise ValueError(f"mode must be 'asymptotic' or 'finite', got {mode!r}")
    if mode == "finite":
        if (n_sent is None) == (n_received is None):
            raise ValueError("finite mode needs exactly one of n_sent or n_received")
        return lambda att: _FiniteColumn(src, ch, det, att, sec, n_sent, n_received)
    if n_sent is not None or n_received is not None:
        raise ValueError("asymptotic mode takes neither n_sent nor n_received")
    return lambda att: _AsymptoticColumn(src, ch, det, att)


def _round_grids(
    cfg: OptimizationConfig, mode: str, fixed_p_x: float | None, fixed_att: float | None,
    incumbent: Callable[[], tuple[float, float]] | None = None,
) -> Iterator[tuple[list[float], list[float]]]:
    """Yield the (p_xs, atts) grid of each search round.

    A pinned axis is a one-value range. After each round both windows
    shrink around incumbent(), the (p_x, att) of the best point so far.
    Without an incumbent the rounds are those of a search whose every rate
    is zero: ties break toward larger p_x, then larger att, so its
    incumbent stays the top corner of the ranges and no round depends on
    the operating point.
    """
    if mode == "asymptotic" and fixed_p_x is None:
        # At fixed att the rate is sift_ratio(p_x) times a factor free of p_x,
        # and sift_ratio increases on (1/2, 1): under the (rate, p_x, att)
        # tie-break the top of the p_x range wins or ties (zero rate).
        fixed_p_x = cfg.p_x_range[1]
    px_lo0, px_hi0 = cfg.p_x_range if fixed_p_x is None else (fixed_p_x, fixed_p_x)
    at_lo0, at_hi0 = cfg.att_range if fixed_att is None else (fixed_att, fixed_att)
    px_lo, px_hi = px_lo0, px_hi0
    at_lo, at_hi = at_lo0, at_hi0
    for _ in range(cfg.refinement_rounds + 1):
        atts = _linspace(at_lo, at_hi, cfg.grid_resolution)
        if at_hi0 == 1.0 and at_hi < 1.0:
            atts.append(1.0)
        yield _linspace(px_lo, px_hi, cfg.grid_resolution), atts
        bp, ba = incumbent() if incumbent else (px_hi0, at_hi0)
        pw = (px_hi - px_lo) / (2.0 * cfg.shrink_factor)
        aw = (at_hi - at_lo) / (2.0 * cfg.shrink_factor)
        px_lo, px_hi = max(px_lo0, bp - pw), min(px_hi0, bp + pw)
        at_lo, at_hi = max(at_lo0, ba - aw), min(at_hi0, ba + aw)


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
    column_at = _column_maker(src, ch, det, mode, sec, n_sent, n_received)
    best: tuple[float, float, float, object] | None = None
    for p_xs, atts in _round_grids(cfg, mode, fixed_p_x, fixed_att, lambda: best[1:3]):
        for att in atts:
            column = column_at(att)
            for p_x in p_xs:
                rate, result = column.evaluate(p_x)
                if best is None or (rate, p_x, att) > best[:3]:
                    best = (rate, p_x, att, result)

    rate, p_x, att, result = best
    return OptimizedPoint(
        p_x=p_x, att=att, rate_per_pulse=rate, rate_bps=rate * src.rep_rate, result=result,
    )


def _positive_point(
    src: SourceModel, ch: ChannelModel, det: DetectorModel, cfg: OptimizationConfig, *,
    mode: str, sec: SecurityParams, n_sent: float | None,
    fixed_p_x: float | None = None, fixed_att: float | None = None,
    warm: tuple[float, float] | None = None,
) -> tuple[float, float] | None:
    """A positive-rate grid point (p_x, att) if optimize_point's rate is positive, else None.

    Exactly optimize_point(...).rate_per_pulse > 0 for the same arguments.
    While every rate it has seen is zero, optimize_point walks the rounds
    of _round_grids without an incumbent. That point set does not depend
    on the operating point, and the optimum is positive exactly when one
    of its points is, so the points may be tried in any order and the
    search stops at the first positive one. warm, a point an earlier call
    with the same cfg, mode and pins returned, is tried first; a point
    from outside the set could answer "yes" where the grid says "no".

    Columns and points that a bound proves zero are skipped without
    evaluating the rate (_FiniteColumn.screened and .positive). So an
    evaluation that would raise there, such as gamma_u out of its regime
    at a large eps, does not raise here.
    """
    column_at = _column_maker(src, ch, det, mode, sec, n_sent, None)
    grids = _round_grids(cfg, mode, fixed_p_x, fixed_att)
    if warm is not None:
        grids = itertools.chain([([warm[0]], [warm[1]])], grids)
    for p_xs, atts in grids:
        for att in atts:
            column = column_at(att)
            if column.screened():
                continue
            for p_x in p_xs:
                if column.positive(p_x):
                    return p_x, att
    return None


def max_tolerable_loss(
    src: SourceModel, det: DetectorModel,
    cfg: OptimizationConfig = OptimizationConfig(), *,
    mode: str = "finite", sec: SecurityParams = SecurityParams(),
    n_sent: float | None = None, optimize_params: bool = True,
) -> float:
    """Channel loss (dB) at the zero/positive key-rate boundary.

    Bisects the loss axis, re-optimizing (p_x, att) at every probe when
    optimize_params is set, otherwise evaluating standard BB84 (p_x = 1/2,
    no pre-attenuation). A probe only asks whether the optimized rate is
    positive (_positive_point), starting from the last positive point. If
    the optimized rate is nonincreasing in loss, the rate is positive at
    boundary - tol and zero at boundary + tol on return; the bisection
    rests on that monotonicity, which short finite blocks can break near
    the boundary. If the rate is still positive at the configured cap, the
    cap itself is returned.

    Raises:
        NoPositiveRateError: if the rate is zero already at 0 dB.
    """
    fixed = {} if optimize_params else {"fixed_p_x": 0.5, "fixed_att": 1.0}
    warm = None

    def positive_at(loss_db: float) -> bool:
        nonlocal warm
        point = _positive_point(src, ChannelModel(loss_db=loss_db), det, cfg, mode=mode,
                                sec=sec, n_sent=n_sent, warm=warm, **fixed)
        if point is None:
            return False
        warm = point
        return True

    if not positive_at(0.0):
        raise NoPositiveRateError("key rate is zero at 0 dB channel loss")
    # a full optimization: its answer is almost always "no", which walks the whole grid anyway
    if optimize_point(src, ChannelModel(loss_db=cfg.loss_cap_db), det, cfg, mode=mode, sec=sec,
                      n_sent=n_sent, **fixed).rate_per_pulse > 0.0:
        return cfg.loss_cap_db
    lo, hi = 0.0, cfg.loss_cap_db
    while hi - lo > cfg.loss_bisection_tol_db:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent doubles: finer than any tolerance
            break
        if positive_at(mid):
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
