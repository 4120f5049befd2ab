"""Protocol-parameter optimization, loss-boundary search and sweeps.

The rate surface has floor and clamp kinks, so optimization is a
deterministic coarse grid over (basis bias, pre-attenuation) followed by
shrinking-grid refinement around the incumbent, the lexicographic maximum
of (rate, p_x, att). The first incumbent is the tie-break corner, the top
of both ranges at rate zero, so only a positive point replaces it, and a
search whose every rate is zero shrinks its windows around that corner and
returns it.

The search walks one att column at a time. A column derives once what
its points share and rates each point on plain floats, with the float
cores of asymptotic_rate or finite_key_length and the same operations,
so bit for bit. No grid point builds a result: optimize_point builds the
winner's AsymptoticResult or FiniteKeyResult once, with the public
function.

Asymptotic mode has no bound to prune with: the closed-form rate is its
own cheapest bound. At fixed att the rate is sift_ratio(p_x) times a
factor free of p_x, so a column offers only its top p_x. In finite mode
the search is a branch-and-bound over the grid with two upper bounds on
the key length. The bound from a column's asymptotic bracket never falls
as p_x rises, so it cuts each column once: the walk starts at the first
p_x whose bound may beat the incumbent, and a column whose bracket proves
every key length zero keeps no point. A remaining point whose
practical-leak bound, computed on the estimates its key length uses,
cannot beat the incumbent stops there, before the F^-1 of lambda_ec. A
skipped point could never have become the incumbent, so the result is
that of evaluating every grid point.

optimize_point and the loss-boundary search consume the same walk, which
yields the tie-break corner and then each better point. The loss search
only needs to know whether the optimum is positive, so a probe stops at
the first positive yield; it answers exactly as the full search would.

A sweep is one optimize_point call per value: the caller builds each
operating point, and run_sweep turns a point the models reject into a
zero-rate error row instead of aborting the sweep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .asymptotic import AsymptoticResult, _gllp_factors, _rate_per_pulse, asymptotic_rate, f_ec
from .entropy import binary_entropy
from .finitekey import (FiniteKeyResult, SecurityParams, SessionCounts, _ell, _estimates,
                        _tallies, finite_key_length, lambda_ec)
from .models import (ChannelModel, DetectorModel, ProtocolParams, SourceModel, _click_error, _Link,
                     _link, _sift_ratio, click_error_probs)

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
    """One att column in asymptotic mode, evaluated on plain floats.

    The closed-form rate needs no bound. p_c, p_m and the GLLP bracket
    depend only on att, so they are derived once per column, with
    asymptotic_rate's float rule; a point's rate is then one product.
    """

    def __init__(self, src: SourceModel, ch: ChannelModel, det: DetectorModel, link: _Link,
                 att: float) -> None:
        self.src, self.ch, self.det, self.att = src, ch, det, att
        self.p_c, p_e = _click_error(link, att)
        self.bracket = _gllp_factors(self.p_c, p_e, src.attenuated_multiphoton_prob(att))[2]

    def evaluate(self, p_x: float, to_beat: tuple[float, float, float] | None = None) -> float:
        """The point's rate, asymptotic_rate's rate_per_pulse; to_beat is ignored.

        _incumbents checked the walk's top corner once, as ProtocolParams
        would at every point.
        """
        return _rate_per_pulse(_sift_ratio(p_x), self.p_c, self.bracket)

    def result(self, p_x: float) -> tuple[float, AsymptoticResult]:
        """The point's (rate, AsymptoticResult), from one asymptotic_rate call."""
        res = asymptotic_rate(self.src, self.ch, self.det, ProtocolParams(p_x=p_x, att=self.att))
        return res.rate_per_pulse, res

    def candidates(self, p_xs: list[float], to_beat: tuple[float, float, float]) -> list[float]:
        """The top p_x alone.

        At fixed att the rate is sift_ratio(p_x) times a factor free of p_x,
        and sift_ratio increases on (1/2, 1): under the (rate, p_x, att)
        tie-break the top of p_xs wins or ties (zero rate). So the p_x
        window of every round shrinks around the top of the p_x range.
        """
        return p_xs[-1:]


# Slack of the column bound, relative to the scale n*p_x^2*p_c of the terms of ell
_BOUND_SLACK = 1e-9


class _FiniteColumn:
    """One att column in finite mode.

    Click, error and multiphoton probabilities depend only on the
    attenuation, so every p_x of the column shares them.
    """

    def __init__(self, src: SourceModel, ch: ChannelModel, det: DetectorModel, att: float,
                 sec: SecurityParams, n_sent: float | None, n_received: float | None) -> None:
        self.sec, self.att = sec, att
        self.p_c, self.p_e = click_error_probs(src, ch, det, att)
        if self.p_c > 0.0:
            self.n_sent = n_sent if n_sent is not None else n_received / self.p_c
            self.p_m = src.attenuated_multiphoton_prob(att)
            # e = p_e/p_c and the asymptotic bracket A*(1 - H(e/A)) - f_EC(e)*H(e), 0 when A = 0
            _, self.e_x, self.bracket = _gllp_factors(self.p_c, self.p_e, self.p_m)
            self.fec = f_ec(self.e_x)
            # what every point's key length takes of sec and e_x, derived once
            self.constants = sec._constants
            self.h_e = binary_entropy(self.e_x)
            self.cost_bits = self.constants.pa_bits + self.constants.cor_bits

    def evaluate(self, p_x: float, to_beat: tuple[float, float, float] | None = None,
                 ) -> float | None:
        """The point's rate; None if a bound proves (rate, p_x, att) <= to_beat.

        Such a point cannot win the (rate, p_x, att) tie-break against
        to_beat. The bound is the key length with the practical leak
        f_EC*n_rx_x*H(e) alone, which needs no F^-1: lambda_ec is the max
        of that cost and the information term, so its leak is never
        smaller, and the key length falls as the leak grows, in floating
        point too, where each subtraction rounds monotonically. A point
        that passes it gets lambda_ec on the same estimates. The walk
        passes only the points of candidates(), the cheaper bracket cut, to
        this bound.

        The tallies, estimates and key length are those of result(), with
        the same operations, so the same bits, but with the column's
        constants and no validated SessionCounts or FiniteKeyResult. The
        walk calls this only for the points of candidates(), so p_c > 0,
        and there that validation cannot fail: every tally is at most
        n_sent, and p_e <= p_c. An infinite n_sent (n_received over a p_c
        that underflows) makes every rate bound NaN, so candidates() keeps
        no point of such a column.
        """
        tallies = _tallies(self.n_sent, p_x, self.p_c, self.p_e, self.p_m)
        _, _, n_nmp_x, _, _, phi_upper = _estimates(tallies, self.constants)
        ell = 0
        if phi_upper < 0.5:  # tallies[0] is n_rx_x
            bound = _ell(n_nmp_x, phi_upper, self.fec * tallies[0] * self.h_e, self.constants)
            if to_beat is not None and not self._beats(bound, p_x, to_beat):
                return None
            leak = lambda_ec(tallies[0], self.e_x, self.sec.eps_cor, self.fec)
            ell = _ell(n_nmp_x, phi_upper, leak, self.constants)
        # the rate rule of FiniteKeyResult
        return ell / self.n_sent if self.n_sent > 0 else 0.0

    def result(self, p_x: float) -> tuple[float, FiniteKeyResult | None]:
        """The point's (rate, FiniteKeyResult), from one finite_key_length call.

        A column that never clicks has rate 0 and no result.
        """
        if self.p_c <= 0.0:
            return 0.0, None
        counts = SessionCounts.from_probs(self.n_sent, p_x, self.p_c, self.p_e, self.p_m)
        res = finite_key_length(counts, self.sec, self.e_x, f_ec_value=self.fec)
        return res.rate, res

    def ell_bound(self, p_x: float) -> float:
        """Upper bound on ell at p_x from the column's asymptotic bracket.

        With A = (p_c - p_m)/p_c, e = p_e/p_c and n pulses sent, the
        Chernoff caps are at least their expectations, so
        n_nmp_z <= n*p_z^2*(p_c - p_m) and n_nmp_x <= n*p_x^2*p_c*A; with
        A <= 0 no non-multiphoton signal is left and ell = 0. Otherwise,
        wherever ell can be positive, phi_upper >= phi = m_z/n_nmp_z >= e/A
        (the sampling correction is non-negative) and
        lambda_ec >= f_EC*n_x*H(e). Together

            ell <= n*p_x^2*p_c*bracket - 2*log2(1/(2*eps_pa)) - log2(2/eps_cor).

        The subtracted constant exceeds -1 for all eps_pa, eps_cor in
        (0, 1), so a bracket <= 0 gives ell = 0 at every p_x. The bound
        returned is widened by _BOUND_SLACK times n*p_x^2*p_c, far above
        the few roundings in each term of ell.
        """
        scale = self.n_sent * p_x * p_x * self.p_c
        return max(0.0, scale * (self.bracket + _BOUND_SLACK) - self.cost_bits)

    def _beats(self, ell_bound: float, p_x: float, to_beat: tuple[float, float, float]) -> bool:
        """Whether a point of this column with ell <= ell_bound may beat to_beat."""
        # the rate rule of FiniteKeyResult
        rate_bound = ell_bound / self.n_sent if self.n_sent > 0.0 else 0.0
        return (rate_bound, p_x, self.att) > to_beat

    def candidates(self, p_xs: list[float], to_beat: tuple[float, float, float]) -> list[float]:
        """The suffix of the ascending p_xs whose ell_bound may beat to_beat (bracket cut).

        ell_bound, the rate rule of _beats and p_x never fall along p_xs,
        since each floating-point step in them is monotone, so once a point
        may beat to_beat every later point may too. A point of the column
        that becomes the incumbent has a rate no higher than its own
        ell_bound, so every later point still may beat that incumbent: no
        point past the cut would fail the bound. A bracket <= 0 proves
        ell = 0 at every p_x (ell_bound), so such a column keeps no point.
        """
        if self.p_c > 0.0 and self.bracket > 0.0:
            for i, p_x in enumerate(p_xs):
                if self._beats(self.ell_bound(p_x), p_x, to_beat):
                    return p_xs[i:]
        return []


def _column_maker(
    src: SourceModel, ch: ChannelModel, det: DetectorModel, mode: str,
    sec: SecurityParams, n_sent: float | None, n_received: float | None,
) -> Callable[[float], _AsymptoticColumn | _FiniteColumn]:
    """Check the mode's block arguments; return att -> that att's grid column.

    Asymptotic columns share the operating point's link, derived here once.
    """
    if mode not in ("asymptotic", "finite"):
        raise ValueError(f"mode must be 'asymptotic' or 'finite', got {mode!r}")
    if mode == "finite":
        if (n_sent is None) == (n_received is None):
            raise ValueError("finite mode needs exactly one of n_sent or n_received")
        for name, value in (("n_sent", n_sent), ("n_received", n_received)):
            # written so that NaN fails the check
            if value is not None and not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        return lambda att: _FiniteColumn(src, ch, det, att, sec, n_sent, n_received)
    if n_sent is not None or n_received is not None:
        raise ValueError("asymptotic mode takes neither n_sent nor n_received")
    link = _link(src, ch, det)
    return lambda att: _AsymptoticColumn(src, ch, det, link, att)


def _round_grids(
    cfg: OptimizationConfig, p_x_range: tuple[float, float], att_range: tuple[float, float],
    incumbent: Callable[[], tuple[float, float]],
) -> Iterator[tuple[list[float], list[float]]]:
    """Yield the (p_xs, atts) grid of each search round over the given ranges.

    After each round both windows shrink around incumbent(), the (p_x, att)
    of the best point so far, which lies inside the ranges.
    """
    (px_lo0, px_hi0), (at_lo0, at_hi0) = p_x_range, att_range
    px_lo, px_hi = px_lo0, px_hi0
    at_lo, at_hi = at_lo0, at_hi0
    for _ in range(cfg.refinement_rounds + 1):
        atts = _linspace(at_lo, at_hi, cfg.grid_resolution)
        if at_hi0 == 1.0 and at_hi < 1.0:
            atts.append(1.0)
        yield _linspace(px_lo, px_hi, cfg.grid_resolution), atts
        bp, ba = incumbent()
        pw = (px_hi - px_lo) / (2.0 * cfg.shrink_factor)
        aw = (at_hi - at_lo) / (2.0 * cfg.shrink_factor)
        px_lo, px_hi = max(px_lo0, bp - pw), min(px_hi0, bp + pw)
        at_lo, at_hi = max(at_lo0, ba - aw), min(at_hi0, ba + aw)


def _incumbents(
    column_at: Callable[[float], _AsymptoticColumn | _FiniteColumn], cfg: OptimizationConfig,
    fixed_p_x: float | None = None, fixed_att: float | None = None,
) -> Iterator[tuple[float, float, float]]:
    """Walk the search rounds; yield each new incumbent (rate, p_x, att).

    A pinned axis is a one-value range and an unpinned one the checked
    range of cfg, so one ProtocolParams at the top corner checks the p_x
    and att of every grid point, in both modes. The first yield is that
    corner at rate 0, the tie-break point: only a positive point beats it,
    and while none has, the windows shrink around it. Each column offers
    only its candidates(), and in finite mode a point whose practical-leak
    bound cannot beat the incumbent in the (rate, p_x, att) tie-break is
    skipped too (_FiniteColumn.evaluate). Every rate is a column's float
    rate; no point builds a result. The last value yielded is the optimum.
    """
    p_x_range = cfg.p_x_range if fixed_p_x is None else (fixed_p_x, fixed_p_x)
    att_range = cfg.att_range if fixed_att is None else (fixed_att, fixed_att)
    ProtocolParams(p_x=p_x_range[1], att=att_range[1])
    best = (0.0, p_x_range[1], att_range[1])
    yield best
    for p_xs, atts in _round_grids(cfg, p_x_range, att_range, lambda: best[1:]):
        for att in atts:
            column = column_at(att)
            for p_x in column.candidates(p_xs, best):
                rate = column.evaluate(p_x, best)
                if rate is not None and (rate, p_x, att) > best:
                    best = (rate, p_x, att)
                    yield best


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
    n_received (detections to accumulate), finite and >= 0; asymptotic
    mode needs neither.

    The walk rates grid points on plain floats; the winner's result, and
    with it the reported rate, comes from one asymptotic_rate or
    finite_key_length call, whose rate is the walk's bit for bit. An
    all-zero-rate grid returns rate 0 at the tie-break point (the top of
    the searched ranges). A pin that ProtocolParams rejects raises its
    ValueError in either mode.

    In finite mode a column whose bracket proves every key length zero is
    skipped, and so is a point that a bound proves cannot beat the
    incumbent in the (rate, p_x, att) tie-break, without its exact key
    length. A skipped point could never have become the incumbent, so
    every round's window and the result, FiniteKeyResult included, are
    those of evaluating every point. Exceptions can differ: an evaluation
    raises at the first point that fails, and a skipped point is never
    evaluated. In 1,500 random draws (source, detector, eps, ranges, pins,
    grid_resolution 2-9, refinement_rounds 0-4, n_sent or n_received
    1e3-1e12) every result was repr-identical to that of the search
    building the result of every point; 27 draws raised the same error
    there and here, 5 raised gamma_u's "bound out of regime" at another
    point, with another log argument in the message, and 2 that raised it
    there returned here.
    """
    column_at = _column_maker(src, ch, det, mode, sec, n_sent, n_received)
    *_, (_, p_x, att) = _incumbents(column_at, cfg, fixed_p_x, fixed_att)
    rate, result = column_at(att).result(p_x)
    return OptimizedPoint(p_x, att, rate, rate * src.rep_rate, result)


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
    positive: it walks optimize_point's search and stops at its first
    positive yield, so it answers exactly
    optimize_point(...).rate_per_pulse > 0. If the optimized rate is
    nonincreasing in loss, the rate is positive at boundary - tol and zero
    at boundary + tol on return; the bisection rests on that monotonicity,
    which short finite blocks can break near the boundary. In asymptotic
    mode the first-round grid does not depend on the loss, and a walk
    with no positive point shrinks around the same corner at every loss,
    so the probe is monotone wherever the rate at each fixed (p_x, att) is
    nonincreasing in loss. That holds except for rounding: within about
    2e-13 dB of a zero crossing the float rate can be zero at one loss
    and positive one double above it (a strict xfail in the tests), far
    below any useful tolerance. If the rate is still positive at the
    configured cap, the cap itself is returned.

    Raises:
        NoPositiveRateError: if the rate is zero already at 0 dB.
    """
    fixed = {} if optimize_params else {"fixed_p_x": 0.5, "fixed_att": 1.0}

    def positive_at(loss_db: float) -> bool:
        column_at = _column_maker(src, ChannelModel(loss_db=loss_db), det, mode, sec, n_sent,
                                  None)
        return any(rate > 0.0 for rate, *_ in _incumbents(column_at, cfg, **fixed))

    if not positive_at(0.0):
        raise NoPositiveRateError("key rate is zero at 0 dB channel loss")
    # a full optimization; its grid is almost always all zero, and there it evaluates
    # only the tie-break point (1 exact evaluation of the default grid's 5,120)
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
    values:Iterable[float], point_at: Callable[[float], OptimizedPoint],
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
