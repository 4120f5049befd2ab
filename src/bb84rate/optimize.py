"""Protocol-parameter optimization and loss-boundary search.

The rate surface has floor and clamp kinks, so optimization is a
deterministic coarse grid over (basis bias, pre-attenuation) followed by
shrinking-grid refinement around the incumbent, the lexicographic maximum
of (rate, p_x, att). The first incumbent is the tie-break corner, the top
of both ranges at rate zero, so only a positive point replaces it, and a
search whose every rate is zero shrinks its windows around that corner and
returns it.

The search walks one att column at a time. The columns of a walk share
its link (models._link), derived once. A column derives once what its
points share and rates each point on plain floats, with the float cores
of asymptotic_rate or finite_key_length and the same operations, so bit
for bit. No grid point builds a result: optimize_point builds the
winner's AsymptoticResult or FiniteKeyResult once, with the public
function.

Asymptotic mode has no bound to prune with: the closed-form rate is its
own cheapest bound. At fixed att the rate is sift_ratio(p_x) times a
factor free of p_x, so a column offers only its top p_x. In finite mode
the search is a branch-and-bound over the grid with three cuts, each an
upper bound on the key length:
- bracket: the bound from a column's asymptotic bracket never falls as
  p_x rises, so the walk starts at the first p_x whose bound may beat the
  incumbent, and a column whose bracket proves every key length zero
  keeps no point;
- interval: one bound on the practical-leak key length over the whole
  remaining p_x interval, from the terms of that key length at its ends,
  ends a column that cannot beat the incumbent with one check;
- practical leak: a remaining point whose practical-leak bound, computed
  on the estimates its key length uses, cannot beat the incumbent stops
  there, before the F^-1 of lambda_ec.
A skipped point could never have become the incumbent, so the result is
that of evaluating every grid point. A finite round builds all its
columns first and visits them best first, in descending order of
(ell_bound at the round's top p_x, att), so that the first incumbents
are high and the cuts prune more. The order cannot change what a round
finds: its lexicographic maximum, and with it the next round's windows,
is the same in any visit order, and a probe only asks whether any point
is positive. Asymptotic columns keep the grid order. The points of a
column that reach F^-1 share eps_cor and e_x, so they share one bdtrik
call, whose result anchors the start of every walk on the CDF, exact
from any start, and one bdtr pair, which settles the start of every
point still to rate where it is already the answer.

optimize_point and the loss-boundary search consume the same walk, which
yields the tie-break corner and then each better point. The loss search
only needs to know whether the optimum is positive, so a probe stops at
the first positive yield; it answers exactly as the full search would.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

from .asymptotic import AsymptoticResult, _gllp_factors, _rate_per_pulse, asymptotic_rate, f_ec
from .entropy import _h
from .finitekey import (FiniteKeyResult, SecurityParams, SessionCounts, _AnchoredQuantile,
                        _chernoff, _ell, _estimates, _lambda_ec, _leak_constants, _LeakConstants,
                        _secret, _tallies, finite_key_length)
from .models import (ChannelModel, DetectorModel, ProtocolParams, SourceModel, _click_error, _Link,
                     _link, _sift_ratio, click_error_probs)

__all__ = [
    "NoPositiveRateError",
    "OptimizationConfig",
    "OptimizedPoint",
    "optimize_point",
    "max_tolerable_loss",
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
    attenuation, so every p_x of the column shares them. lambda_ec's
    constants (f_EC and H(e) among them), which the interval and
    practical-leak bounds read too, and the column's F^-1 are derived on
    first use, so a column whose bracket proves every key length zero
    never derives them.
    """

    def __init__(self, src: SourceModel, ch: ChannelModel, det: DetectorModel, link: _Link,
                 att: float, sec: SecurityParams, n_sent: float | None,
                 n_received: float | None) -> None:
        self.src, self.ch, self.det, self.att, self.sec = src, ch, det, att, sec
        self.constants = sec._constants
        self.p_c, self.p_e = _click_error(link, att)
        self.pending: list[float] = []  # the p_xs left by candidates(), ascending
        self.quantile: _AnchoredQuantile | None = None  # set by the first F^-1
        self._leak: _LeakConstants | None = None
        if self.p_c > 0.0:
            self.n_sent = n_sent if n_sent is not None else n_received / self.p_c
            self.p_m = src.attenuated_multiphoton_prob(att)
            # e = p_e/p_c and the asymptotic bracket A*(1 - H(e/A)) - f_EC(e)*H(e), 0 when A = 0
            _, self.e_x, self.bracket = _gllp_factors(self.p_c, self.p_e, self.p_m)

    @property
    def leak(self) -> _LeakConstants:
        """lambda_ec's constants at the column's e_x and eps_cor, derived on first use."""
        if self._leak is None:
            self._leak = _leak_constants(self.e_x, self.sec.eps_cor, f_ec(self.e_x))
        return self._leak

    def rank(self, top: float) -> tuple[float, float]:
        """The column's place in the visit order, highest first: (ell_bound(top), att).

        A column that keeps no point (no clicks, or a bracket <= 0) ranks
        last, below every ell_bound, which is >= 0.
        """
        if self.p_c > 0.0 and self.bracket > 0.0:
            return self.ell_bound(top), self.att
        return -1.0, self.att

    def evaluate(self, p_x: float, to_beat: tuple[float, float, float] | None = None,
                 ) -> float | None:
        """The point's rate; None if a bound proves (rate, p_x, att) <= to_beat.

        Such a point cannot win the (rate, p_x, att) tie-break against
        to_beat. The bound is the key length with the practical leak
        f_EC*n_rx_x*H(e) alone, which needs no F^-1: lambda_ec is the max
        of that cost and the information term, so its leak is never
        smaller, and the key length falls as the leak grows, in floating
        point too, where each subtraction rounds monotonically. A point
        that passes it gets lambda_ec on the same estimates and the same
        first term of ell, with F^-1 from the column's _AnchoredQuantile,
        which gives the same F^-1 as inverse_binomial_cdf and raises its
        errors. The column's first F^-1 builds it for the block sizes of
        the candidates left after this point, so one bdtrik call and one
        bdtr pair serve them all. The walk passes only the points of
        candidates(), the cheaper bracket and interval cuts, to this bound.

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
            secret, leak = _secret(n_nmp_x, phi_upper), self.leak
            bound = _ell(secret, leak.fec * tallies[0] * leak.h, self.constants)
            if to_beat is not None and not self._beats(bound, p_x, to_beat):
                return None
            if self.quantile is None:  # the column's first F^-1; the batch is the n_rx_x after it
                self.quantile = _AnchoredQuantile(tuple(
                    round(_tallies(self.n_sent, later, self.p_c, self.p_e, self.p_m)[0])
                    for later in self.pending if later > p_x))
            ell = _ell(secret, _lambda_ec(tallies[0], leak, self.quantile), self.constants)
        # the rate rule of FiniteKeyResult
        return ell / self.n_sent if self.n_sent > 0 else 0.0

    def result(self, p_x: float) -> tuple[float, FiniteKeyResult | None]:
        """The point's (rate, FiniteKeyResult), from click_error_probs and finite_key_length.

        A column that never clicks has rate 0 and no result.
        """
        if self.p_c <= 0.0:
            return 0.0, None
        p_c, p_e = click_error_probs(self.src, self.ch, self.det, self.att)
        counts = SessionCounts.from_probs(self.n_sent, p_x, p_c, p_e, self.p_m)
        res = finite_key_length(counts, self.sec, self.e_x)
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
        return max(0.0, scale * (self.bracket + _BOUND_SLACK) - self.constants.cost_bits)

    def interval_bound(self, a: float, b: float) -> float:
        """Upper bound on the practical-leak key length at every p_x in [a, b].

        evaluate() prunes with the key length whose leak is the practical
        f_EC*n_rx_x*H(e) alone, and it is positive only where
        phi_upper < 1/2. Each of its terms is monotone in p_x over the
        interval, so its value at a or at b bounds the term at every point:
        - n_nmp_x = n_rx_x - chernoff(n_mp_star_x) <= n*b^2*p_c -
          chernoff(n*a^2*p_m), since n_rx_x = n*p_x^2*p_c and the Chernoff
          cap (1 + delta)*x = x + (beta + sqrt(8*beta*x + beta^2))/2 rises
          with its mean x = n*p_x^2*p_m;
        - phi_upper >= phi = m_z/n_nmp_z >= phi(a). With u = n*(1 - p_x)^2,
          n_nmp_z/m_z = (p_c - p_m - s(u))/p_e, where the Chernoff slack
          per Z count, s(u) = (beta + sqrt(8*beta*u*p_m + beta^2))/(2*u),
          falls in u; u falls as p_x rises, so phi rises while n_nmp_z > 0.
          Once n_nmp_z is 0 it stays 0 as p_x rises, and no key is left,
          as there is none where phi(a) >= 1/2. Dropping the sampling
          correction gamma_u >= 0 only raises the bound;
        - H rises on [0, 1/2], and phi(a) <= phi_upper < 1/2 wherever ell
          can be positive, so 1 - H(phi_upper) <= 1 - H(min(phi(a), 1/2));
        - the practical leak f_EC*n*p_x^2*p_c*H(e) >= its value at a.
        Both factors of the first term are non-negative where ell can be
        positive, so

            ell_practical <= (n*b^2*p_c - chernoff(n*a^2*p_m)) * (1 - H(phi(a)))
                             - f_EC*n*a^2*p_c*H(e) - 2*log2(1/(2*eps_pa)) - log2(2/eps_cor).

        As in ell_bound, the bound returned is widened by _BOUND_SLACK
        times n*b^2*p_c, the scale of each term, far above their few
        roundings, and clamped at 0.
        """
        n_rx_x = _tallies(self.n_sent, b, self.p_c, self.p_e, self.p_m)[0]
        n_rx_x_a, n_rx_z, m_z, n_mp_star_x, n_mp_star_z = _tallies(self.n_sent, a, self.p_c,
                                                                   self.p_e, self.p_m)
        beta = self.constants.beta
        n_nmp_z = n_rx_z - _chernoff(n_mp_star_z, beta)
        phi = min(0.5, m_z / n_nmp_z) if n_nmp_z > 0.0 else 0.5
        leak = self.leak
        raw = ((n_rx_x - _chernoff(n_mp_star_x, beta)) * (1.0 - _h(phi))
               - leak.fec * n_rx_x_a * leak.h - self.constants.cost_bits)
        return max(0.0, raw + _BOUND_SLACK * n_rx_x)

    def _beats(self, ell_bound: float, p_x: float, to_beat: tuple[float, float, float]) -> bool:
        """Whether a point of this column with ell <= ell_bound may beat to_beat."""
        # the rate rule of FiniteKeyResult
        rate_bound = ell_bound / self.n_sent if self.n_sent > 0.0 else 0.0
        return (rate_bound, p_x, self.att) > to_beat

    def candidates(self, p_xs: list[float], to_beat: tuple[float, float, float]) -> list[float]:
        """The suffix of the ascending p_xs whose ell_bound may beat to_beat, or none.

        The bracket cut finds the suffix, and the interval cut drops it when
        its interval_bound cannot beat to_beat. ell_bound, the rate rule of
        _beats and p_x never fall along p_xs, since each floating-point step
        in them is monotone, so once a point may beat to_beat every later
        point may too. A point of the column that becomes the incumbent has
        a rate no higher than its own ell_bound, so every later point still
        may beat that incumbent: no point past the cut would fail the bound.
        A bracket <= 0 proves ell = 0 at every p_x (ell_bound), so such a
        column keeps no point.

        The interval bound over the suffix [a, b] is at least every point's
        practical-leak bound, and b is its largest p_x, so if
        (interval_bound/n, b, att) cannot beat to_beat, evaluate() would
        prune every point of the suffix against to_beat, and against every
        later incumbent, which is larger. A point of rate 0, which
        evaluate() returns without the bound, beats no incumbent: the first
        is the rate-0 top corner. The suffix kept is also the column's
        pending list, whose block sizes its first F^-1 settles.
        """
        if self.p_c > 0.0 and self.bracket > 0.0:
            for i, p_x in enumerate(p_xs):
                if self._beats(self.ell_bound(p_x), p_x, to_beat):
                    top = p_xs[-1]
                    self.pending = (p_xs[i:] if self._beats(self.interval_bound(p_x, top), top,
                                                            to_beat) else [])
                    return self.pending
        return []


def _column_maker(
    src: SourceModel, ch: ChannelModel, det: DetectorModel, mode: str,
    sec: SecurityParams, n_sent: float | None, n_received: float | None,
) -> Callable[[float], _AsymptoticColumn | _FiniteColumn]:
    """Check the mode's block arguments; return att -> that att's grid column.

    The columns share the operating point's link, derived here once.
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
    elif n_sent is not None or n_received is not None:
        raise ValueError("asymptotic mode takes neither n_sent nor n_received")
    link = _link(src, ch, det)
    if mode == "asymptotic":
        return lambda att: _AsymptoticColumn(src, ch, det, link, att)
    return lambda att: _FiniteColumn(src, ch, det, link, att, sec, n_sent, n_received)


def _round_grids(
    cfg: OptimizationConfig, ranges: tuple[tuple[float, float], tuple[float, float]],
    incumbent: Callable[[], tuple[float, float]],
) -> Iterator[tuple[list[float], list[float]]]:
    """Yield the (p_xs, atts) grid of each search round over the (p_x, att) ranges.

    After each round both windows shrink around incumbent(), the (p_x, att)
    of the best point so far, which lies inside the ranges: a window of
    width h becomes [c - w, c + w] around the incumbent's coordinate c, with
    w = h/(2*shrink_factor), clipped to its range. An att range that
    reaches 1 keeps att = 1 in every round's grid.
    """
    windows = ranges
    for _ in range(cfg.refinement_rounds + 1):
        (px_lo, px_hi), (at_lo, at_hi) = windows
        atts = _linspace(at_lo, at_hi, cfg.grid_resolution)
        if ranges[1][1] == 1.0 and at_hi < 1.0:
            atts.append(1.0)
        yield _linspace(px_lo, px_hi, cfg.grid_resolution), atts
        widths = [(hi - lo) / (2.0 * cfg.shrink_factor) for lo, hi in windows]
        windows = [(max(lo0, c - w), min(hi0, c + w))
                   for (lo0, hi0), c, w in zip(ranges, incumbent(), widths)]


def _incumbents(
    column_at: Callable[[float], _AsymptoticColumn | _FiniteColumn], cfg: OptimizationConfig,
    fixed_p_x: float | None = None, fixed_att: float | None = None,
) -> Iterator[tuple[float, float, float]]:
    """Walk the search rounds; yield each new incumbent (rate, p_x, att).

    A pinned axis is a one-value range and an unpinned one the checked
    range of cfg, so one ProtocolParams at the top corner checks the p_x
    and att of every grid point, in both modes. The first yield is that
    corner at rate 0, the tie-break point: only a positive point beats it,
    and while none has, the windows shrink around it. A round builds its
    columns first; in finite mode it visits them best first, in descending
    _FiniteColumn.rank, and in asymptotic mode in grid order. Each column
    offers only its candidates(), and in finite mode a point whose
    practical-leak bound cannot beat the incumbent in the (rate, p_x, att)
    tie-break is skipped too (_FiniteColumn.evaluate). Every rate is a
    column's float rate; no point builds a result. The last value yielded
    is the optimum.
    """
    p_x_range = cfg.p_x_range if fixed_p_x is None else (fixed_p_x, fixed_p_x)
    att_range = cfg.att_range if fixed_att is None else (fixed_att, fixed_att)
    ProtocolParams(p_x=p_x_range[1], att=att_range[1])
    best = (0.0, p_x_range[1], att_range[1])
    yield best
    for p_xs, atts in _round_grids(cfg, (p_x_range, att_range), lambda: best[1:]):
        # a stack: pop() visits the grid order, or best first in finite mode, and drops
        # each column, with its F^-1 memo, after its visit
        columns = [column_at(att) for att in atts][::-1]
        if isinstance(columns[0], _FiniteColumn):
            top = p_xs[-1]
            columns.sort(key=lambda column: column.rank(top))
        while columns:
            column = columns.pop()
            for p_x in column.candidates(p_xs, best):
                rate = column.evaluate(p_x, best)
                if rate is not None and (rate, p_x, column.att) > best:
                    best = (rate, p_x, column.att)
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
    evaluated, and the best-first column order visits the points of a
    round in another order than the grid. In 1,500 seeded random draws
    (source, detector, eps, ranges, pins, loss 0-35 dB, grid_resolution
    2-9, refinement_rounds 0-4, n_sent or n_received 1e3-1e12) every result
    was repr-identical to that of the search building the result of every
    point: 1,467 results; 17 draws raised the same error there and here,
    13 raised gamma_u's "bound out of regime" at another point, with
    another log argument in the message, and 3 that raised it there
    returned here. The search in grid order splits the same draws
    1,467 / 23 / 7 / 3. In 6,000 more draws no result differed either.
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

