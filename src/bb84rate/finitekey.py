"""Composable finite-size secure key length.

Statistical fluctuations are handled on event counts rather than
probabilities: a multiplicative Chernoff tail bound caps the number of
multiphoton emissions, and a sampling-without-replacement bound lifts the
observed parameter-estimation error rate to an upper bound on the phase
error rate of the unobserved key rounds. Error-correction leakage is the
larger of the finite-block information-theoretic bound and the practical
f_EC * n * H(e) cost.

The public functions check their inputs and run on unchecked float cores
that take what they need of SecurityParams as _Constants, derived once
per SecurityParams: SessionCounts.from_probs on _tallies, chernoff_upper
on _chernoff, gamma_u on _gamma_u, finite_key_length on _estimates,
_secret and _ell, lambda_ec on _leak_constants and _lambda_ec, and
inverse_binomial_cdf on _AnchoredQuantile. The optimizer's grid points
call the cores directly, with lambda_ec's constants derived once per
grid column, so a point builds no SessionCounts or FiniteKeyResult; the
same operations in the same order give the same bits on either path.

F^-1 is a walk on the binomial CDF that is exact from any start, and
_AnchoredQuantile is its one checked entry point. Its first call calls
bdtrik once, scipy's continuous inverse, as the anchor of every later
start. It then settles a batch of block sizes given up front with one
bdtr call on their starts and one on the next counts: where the two CDFs
bracket eps the start is the answer, which a memo keeps. Any other block
size is walked from its start when asked, and memoized. inverse_binomial_cdf is a fresh
_AnchoredQuantile's first call; a grid column, whose points share
eps_cor and e_x, keeps one _AnchoredQuantile for the block sizes of its
points still to rate, and so makes one bdtrik call and one bdtr pair for
all of them.

scipy.special, for the binomial CDF and its inverse, is imported inside
_AnchoredQuantile, once per instance, and passed on to
_binomial_quantile, so a command that computes no finite key never loads
scipy.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .asymptotic import f_ec
from .entropy import _h
from .models import ChannelModel, DetectorModel, ProtocolParams, SourceModel, click_error_probs

__all__ = [
    "SecurityParams",
    "SessionCounts",
    "FiniteKeyResult",
    "expected_counts",
    "chernoff_upper",
    "gamma_u",
    "inverse_binomial_cdf",
    "lambda_ec",
    "finite_key_length",
]


class _Constants(NamedTuple):
    """What the bounds take of a SecurityParams."""

    beta: float       # -ln(eps_pe): the exponent of both Chernoff caps
    eps_gamma: float  # eps_sec/6: the failure probability of gamma_u
    pa_bits: float    # 2*log2(1/(2*eps_pa)): privacy amplification's cost in ell
    cor_bits: float   # log2(2/eps_cor): verification's cost in ell
    cost_bits: float  # pa_bits + cor_bits: both costs, for the optimizer's bounds on ell


@dataclass(frozen=True)
class SecurityParams:
    """Failure-probability budget for the composable security claim.

    All component failure probabilities derive from a single base value:
    privacy amplification and error correction each get eps_prime, and
    parameter estimation gets 2 * n_pe * eps_prime, below 1, for its n_pe
    constraints. The secrecy parameter is their sum, so for n_pe = 2 it
    equals 6 * eps_prime; the bounds spend 10 * eps_prime until ROADMAP
    item 2 fixes the split. Correctness is budgeted separately.

    Defaults: eps_prime = 1e-10/6 (secrecy 1e-10, parameter estimation
    2e-10/3, privacy amplification 1e-10/6) and eps_cor = 1e-15.
    """

    eps_prime: float = 1e-10 / 6.0
    n_pe: int = 2
    eps_cor: float = 1e-15

    def __post_init__(self) -> None:
        if not 0.0 < self.eps_prime < 1.0:
            raise ValueError(f"eps_prime must be in (0, 1), got {self.eps_prime}")
        if not 0.0 < self.eps_cor < 1.0:
            raise ValueError(f"eps_cor must be in (0, 1), got {self.eps_cor}")
        if self.n_pe < 1:
            raise ValueError(f"n_pe must be >= 1, got {self.n_pe}")
        # the Chernoff caps take -ln(eps_pe), which must be positive
        if not self.eps_pe < 1.0:
            raise ValueError(f"eps_pe = 2 * n_pe * eps_prime must be < 1, got {self.eps_pe}")

    @property
    def eps_pa(self) -> float:
        return self.eps_prime

    @property
    def eps_ec(self) -> float:
        return self.eps_prime

    @property
    def eps_pe(self) -> float:
        return 2.0 * self.n_pe * self.eps_prime

    @property
    def eps_sec(self) -> float:
        return self.eps_pa + self.eps_pe + self.eps_ec

    @functools.cached_property
    def _constants(self) -> _Constants:
        """The bounds' _Constants, derived on first use: the fields are frozen."""
        pa_bits = 2.0 * math.log2(1.0 / (2.0 * self.eps_pa))
        cor_bits = math.log2(2.0 / self.eps_cor)
        return _Constants(-math.log(self.eps_pe), self.eps_sec / 6.0, pa_bits, cor_bits,
                          pa_bits + cor_bits)


@dataclass(frozen=True)
class SessionCounts:
    """Event tallies (expected or sampled) for one session.

    Attributes:
        n_sent: pulses sent.
        n_rx_x / n_rx_z: sifted detections with both parties in the key /
            parameter-estimation basis.
        m_z: errors among the parameter-estimation detections.
        n_mp_star_x / n_mp_star_z: expected multiphoton emissions into the
            channel for rounds sifted into each basis.
    """

    n_sent: float
    n_rx_x: float
    n_rx_z: float
    m_z: float
    n_mp_star_x: float
    n_mp_star_z: float

    def __post_init__(self) -> None:
        for name in ("n_sent", "n_rx_x", "n_rx_z", "m_z", "n_mp_star_x", "n_mp_star_z"):
            # written so that NaN fails the check
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.m_z > self.n_rx_z * (1.0 + 1e-12):
            raise ValueError(f"m_z ({self.m_z}) cannot exceed n_rx_z ({self.n_rx_z})")

    @classmethod
    def from_probs(cls, n_sent: float, p_x: float, p_click: float, p_error: float,
                   p_multi: float) -> "SessionCounts":
        """Expected tallies of n_sent pulses from per-pulse probabilities.

        Sifted detections, parameter-estimation errors and multiphoton
        emissions each scale with the squared bias of their basis.
        """
        return cls(n_sent, *_tallies(n_sent, p_x, p_click, p_error, p_multi))

    @property
    def tallies(self) -> tuple[float, float, float, float, float]:
        """(n_rx_x, n_rx_z, m_z, n_mp_star_x, n_mp_star_z), the inputs of the bounds."""
        return self.n_rx_x, self.n_rx_z, self.m_z, self.n_mp_star_x, self.n_mp_star_z


def _tallies(n_sent: float, p_x: float, p_click: float, p_error: float,
             p_multi: float) -> tuple[float, float, float, float, float]:
    """SessionCounts.tallies of SessionCounts.from_probs, unchecked."""
    px2 = p_x**2
    pz2 = (1.0 - p_x) ** 2
    return (n_sent * px2 * p_click, n_sent * pz2 * p_click, n_sent * pz2 * p_error,
            n_sent * px2 * p_multi, n_sent * pz2 * p_multi)


@dataclass(frozen=True)
class FiniteKeyResult:
    """Secure key length with every intermediate bound, for audit.

    Attributes:
        ell: secure key length in bits (integer, >= 0).
        rate: ell / n_sent.
        counts: the session tallies the result was computed from.
        n_mp_upper_x / n_mp_upper_z: Chernoff upper bounds on multiphoton
            emissions per basis.
        n_nmp_x / n_nmp_z: lower bounds on received non-multiphoton
            signals per basis.
        phi_x: phase-error point estimate m_z / n_nmp_z.
        phi_x_upper: phase-error upper bound after the sampling
            correction, clamped to <= 1/2.
        lambda_ec: error-correction leakage in bits.
        e_x: key-basis QBER used for the leakage estimate.
    """

    ell: int
    rate: float
    counts: SessionCounts
    n_mp_upper_x: float
    n_mp_upper_z: float
    n_nmp_x: float
    n_nmp_z: float
    phi_x: float
    phi_x_upper: float
    lambda_ec: float
    e_x: float


def expected_counts(src: SourceModel, ch: ChannelModel, det: DetectorModel,
                    protocol: ProtocolParams, n_sent: float) -> SessionCounts:
    """Expected session tallies of n_sent pulses for the given models.

    Errors use the same per-pulse error probability in the
    parameter-estimation basis. The multiphoton bound applies after
    pre-attenuation, which thins two-photon pulses quadratically.
    """
    p_c, p_e = click_error_probs(src, ch, det, protocol.att)
    return SessionCounts.from_probs(n_sent, protocol.p_x, p_c, p_e,
                                    src.attenuated_multiphoton_prob(protocol.att))


def chernoff_upper(expected: float, eps: float) -> float:
    """Multiplicative Chernoff upper bound on a sum of binary variables.

    For expectation x* and tail probability eps, returns
    (1 + delta) * x* with delta = (beta + sqrt(8*beta*x* + beta^2)) / (2*x*)
    and beta = -ln(eps); the actual count exceeds this with probability at
    most eps. At x* = 0 the continuous limit beta is returned.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not 0.0 <= expected < math.inf:  # written so that NaN fails the check
        raise ValueError(f"expected count must be finite and >= 0, got {expected}")
    return _chernoff(expected, -math.log(eps))


def _chernoff(expected: float, beta: float) -> float:
    """chernoff_upper at beta = -ln(eps), unchecked."""
    if expected == 0.0:
        return beta
    delta = (beta + math.sqrt(8.0 * beta * expected + beta * beta)) / (2.0 * expected)
    return (1.0 + delta) * expected


def gamma_u(n: float, k: float, observed_rate: float, eps: float) -> float:
    """Sampling-without-replacement correction for an unobserved rate.

    Given a rate observed on k samples, bounds the rate on the n
    unobserved samples of the same population by observed + gamma_u,
    meant to fail with probability at most eps. Valid for observed rates
    in (0, 0.5).

    The bound is an approximation, not a proven one: its form is the
    gamma^U of Yin et al. (Sci. Rep. 10:14312, 2020), which rests on a
    Stirling approximation of the hypergeometric tail. The exact tail
    sums of tests/test_bound_audit.py put its failure probability above
    eps: 0.0154 at n = k = 1000, eps = 1e-2 and 5% population errors;
    1.35 * eps at the default 60 s optimum (n = 973,838, k = 4,790) with
    20% population errors; 18 * eps at n = k = 10**6, eps = 1e-8 and 2%
    errors. ROADMAP item 3 replaces it with a proven bound.

    Raises:
        ValueError: if the rate is outside (0, 0.5), n or k is not finite
            and >= 1, eps is outside (0, 1), or the bound's log factor is
            non-positive (outside the formula's regime).
    """
    if not (1.0 <= n < math.inf and 1.0 <= k < math.inf):  # NaN fails the check
        raise ValueError(f"n and k must be finite and >= 1, got n={n}, k={k}")
    if not 0.0 < observed_rate < 0.5:
        raise ValueError(f"observed_rate must be in (0, 0.5), got {observed_rate}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    return _gamma_u(n, k, observed_rate, eps)


def _gamma_u(n: float, k: float, lam: float, eps: float) -> float:
    """gamma_u at observed rate lam, unchecked but for the regime of its log argument."""
    big = max(n, k)
    den = 2.0 * math.pi * n * k * lam * (1.0 - lam) * eps**2
    log_arg = (n + k) / den if den >= sys.float_info.min else math.inf
    if log_arg == math.inf:
        # the denominator underflows or the quotient overflows; the quotient
        # is far above 1 there, and its log is a sum of logs
        log_term = (math.log(n + k) - math.log(2.0 * math.pi) - math.log(n) - math.log(k)
                    - math.log(lam) - math.log1p(-lam) - 2.0 * math.log(eps))
    else:
        if log_arg <= 1.0:
            raise ValueError(f"bound out of regime: log argument {log_arg} <= 1")
        log_term = math.log(log_arg)
    g = (n + k) / (n * k) * log_term
    t = big * g / (n + k)
    return (1.0 / (2.0 + 2.0 * big * t / (n + k))) * (
        (1.0 - 2.0 * lam) * t + math.sqrt(t * t + 4.0 * lam * (1.0 - lam) * g)
    )


def _binomial_cdf(_sp, m: int, n: int, q: float) -> float:
    """Binomial(n, q) CDF at 0 <= m <= n, with _sp the scipy.special module.

    scipy's bdtr returns NaN from n = 2**31 on; there it is betainc, which bdtr wraps.
    """
    if n < 2**31:
        return float(_sp.bdtr(float(m), n, q))
    return float(_sp.betainc(n - m, m + 1, 1.0 - q)) if m < n else 1.0


def inverse_binomial_cdf(eps: float, n: int, q: float) -> int:
    """Largest integer m with Binomial(n, q) CDF at m no larger than eps.

    Returns -1 when even CDF(0) exceeds eps (no such m). This is the first
    call of a fresh _AnchoredQuantile: the continuous inverse of the
    regularized incomplete beta function (bdtrik) supplies a starting
    point, which _binomial_quantile's walk makes exact. n is limited to
    1 <= n <= 10**13: the starting point drifts from the answer as n grows
    (at eps = 1e-15 and q from 0.5 to 0.999, by up to 15 steps at 10**12,
    208 at 10**13 and 1,528 at 10**14), and each step costs one CDF
    evaluation.
    """
    return _AnchoredQuantile()(eps, n, q)


def _binomial_quantile(_sp, eps: float, n: int, q: float, start: float) -> int:
    """inverse_binomial_cdf(eps, n, q) walked from any start, unchecked.

    The walk starts at start clamped to [0, n], truncated. bdtrik returns NaN
    where eps < CDF(0) = (1 - q)**n, e.g. at q = 0 or q = 1e-300, and there
    the answer is -1 (in 200,000 seeded draws, n from 1 to 10**13, eps from
    1e-300 to 0.1 and q from 1e-320 to 1 - 1e-300, every NaN start had
    answer -1); at q = 1 it returns a finite start. A NaN start returns -1
    after one CDF evaluation when CDF(0) > eps. Otherwise it bisects on the
    CDF first, as the guard for a NaN those draws did not find, keeping hi
    infeasible and lo feasible. From there the walk evaluates each CDF
    once: from a start whose CDF exceeds eps it steps down to the first m
    whose CDF does not (or to -1), otherwise up while the next CDF does not
    exceed eps. The answer does not depend on the start, only the number of
    CDF evaluations does: two from the answer or from one above it.
    """
    if math.isfinite(start):
        m = min(n, max(0, int(start)))
    elif _binomial_cdf(_sp, 0, n, q) > eps:
        return -1
    else:
        lo, hi = 0, n
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _binomial_cdf(_sp, mid, n, q) <= eps:
                lo = mid
            else:
                hi = mid
        m = lo
    if _binomial_cdf(_sp, m, n, q) > eps:
        m -= 1
        while m >= 0 and _binomial_cdf(_sp, m, n, q) > eps:
            m -= 1
    else:
        while m < n and _binomial_cdf(_sp, m + 1, n, q) <= eps:
            m += 1
    return m


class _AnchoredQuantile:
    """Checked F^-1 for a run of calls that share eps and q, with one bdtrik call.

    The first call takes bdtrik at its n and keeps that n0 and continuous
    quantile y0 as the anchor; inverse_binomial_cdf is such a first call.
    The walk at any n starts from the anchor moved by the normal
    approximation's shift of the quantile,

        y0 + (n - n0)*q - z*(sqrt(n*q*(1-q)) - sqrt(n0*q*(1-q))),  z = -Phi^-1(eps),

    which truncates to the same count as y0 at n0. The first call also
    settles its own n and the block sizes of batch with one bdtr call on
    their starts m and one on m + 1, and keeps m in a memo where
    CDF(m) <= eps < CDF(m + 1): that is the walk's stop after its first two
    CDF evaluations. A block size the pair leaves open is walked from its
    start when asked, and the memo keeps that answer too: a non-finite
    start or one >= n, n >= 2**31 (where bdtr gives NaN and the CDF is
    betainc), n outside [1, 10**13], or two CDFs that do not bracket eps,
    as from a start one above the answer. The walk returns the same m
    from any start, so only the number of CDF evaluations depends on the
    anchor and the memo. Every call checks its arguments, as
    inverse_binomial_cdf documents them, before it reads the memo.
    """

    def __init__(self, batch: tuple[int, ...] = ()) -> None:
        self.batch = batch
        # (n0, y0, z, q*(1-q), sqrt(n0*q*(1-q))), set by the first call
        self.anchor: tuple[int, float, float, float, float] | None = None
        self.memo: dict[int, int] = {}  # n -> F^-1 at the run's eps and q

    def __call__(self, eps: float, n: int, q: float) -> int:
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        if not 1 <= n <= 10**13:
            raise ValueError(f"n must satisfy 1 <= n <= 10**13, got {n}")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.anchor is None:
            # imported here, not at module level, so that only finite-key commands load scipy
            import scipy.special
            self.sp = scipy.special
            var = q * (1.0 - q)
            self.anchor = (n, float(self.sp.bdtrik(eps, n, q)), -float(self.sp.ndtri(eps)), var,
                           math.sqrt(n * var))
            self._settle(eps, q, (n, *self.batch))
        m = self.memo.get(n)
        if m is None:
            m = self.memo[n] = _binomial_quantile(self.sp, eps, n, q, self._starts((n,), q)[0])
        return m

    def _starts(self, ns: tuple[int, ...], q: float) -> list[float]:
        """The walk's start at each n of ns, from the anchor."""
        n0, y0, z, var, sd0 = self.anchor
        return [y0 + (n - n0) * q - z * (math.sqrt(n * var) - sd0) for n in ns]

    def _settle(self, eps: float, q: float, ns: tuple[int, ...]) -> None:
        """Memo F^-1 at each n of ns whose start's two CDFs bracket eps, with one bdtr pair."""
        # (n, m): a block size below 2**31 with a finite start below n, truncated and
        # clamped at 0 as the walk clamps it
        walks = [(n, max(0, int(start))) for n, start in zip(ns, self._starts(ns, q))
                 if 1 <= n < 2**31 and math.isfinite(start) and start < n]
        if walks:
            sizes = [n for n, _ in walks]
            below = self.sp.bdtr([float(m) for _, m in walks], sizes, q).tolist()
            above = self.sp.bdtr([float(m + 1) for _, m in walks], sizes, q).tolist()
            for (n, m), cdf, next_cdf in zip(walks, below, above):
                if cdf <= eps < next_cdf:
                    self.memo[n] = m


def lambda_ec(n_x: float, e_x: float, eps_cor: float, f_ec_value: float) -> float:
    """Bits leaked during error correction and verification.

    The greater of the finite-block information-theoretic bound

        n*H(e) + [n*(1-e) - F^-1(eps_cor; n, 1-e)] * log2((1-e)/e)
            - log2(n)/2 - log2(1/eps_cor)

    and the practical-code cost f_EC * n * H(e). F^-1 is the inverse
    binomial CDF (largest m with CDF(m) <= eps_cor), evaluated at n
    rounded to the nearest integer. e_x = 0 leaks nothing and returns 0.

    Raises:
        ValueError: if n_x < 1 or e_x is outside [0, 0.5).
    """
    if n_x < 1.0:
        raise ValueError(f"n_x must be >= 1, got {n_x}")
    return _lambda_ec(n_x, _leak_constants(e_x, eps_cor, f_ec_value), inverse_binomial_cdf)


class _LeakConstants(NamedTuple):
    """What lambda_ec takes of (e_x, eps_cor, f_EC), derived once per grid column."""

    e_x: float
    eps_cor: float
    fec: float
    h: float         # H(e_x)
    q: float         # 1 - e_x: F^-1's success probability
    log_odds: float  # log2((1 - e_x)/e_x); 0 at e_x = 0, where nothing leaks
    cor_log: float   # log2(1/eps_cor)


def _leak_constants(e_x: float, eps_cor: float, f_ec_value: float) -> _LeakConstants:
    """lambda_ec's _LeakConstants, with its check of e_x."""
    if not 0.0 <= e_x < 0.5:
        raise ValueError(f"e_x must be in [0, 0.5), got {e_x}")
    log_odds = math.log2((1.0 - e_x) / e_x) if e_x > 0.0 else 0.0
    # an eps_cor outside (0, 1) is F^-1's error, raised before cor_log is read
    cor_log = math.log2(1.0 / eps_cor) if 0.0 < eps_cor < 1.0 else math.nan
    return _LeakConstants(e_x, eps_cor, f_ec_value, _h(e_x), 1.0 - e_x, log_odds, cor_log)


def _lambda_ec(n_x: float, leak: _LeakConstants,
               quantile: Callable[[float, int, float], int]) -> float:
    """lambda_ec at n_x >= 1, with F^-1 from quantile(eps, n, q), unchecked.

    quantile is inverse_binomial_cdf or an _AnchoredQuantile; both give the
    same F^-1, so the same bits: the float rule of the leak is this
    function's alone.
    """
    if leak.e_x == 0.0:
        return 0.0
    practical = leak.fec * n_x * leak.h
    f_inv = quantile(leak.eps_cor, round(n_x), leak.q)
    info = (n_x * leak.h
            + (n_x * leak.q - f_inv) * leak.log_odds
            - 0.5 * math.log2(n_x)
            - leak.cor_log)
    return max(info, practical)


def finite_key_length(counts: SessionCounts, sec: SecurityParams,
                      e_x_for_ec: float) -> FiniteKeyResult:
    """Assemble the secure key length from session tallies.

    ell = floor( n_nmp_x * (1 - H(phi_upper)) - lambda_ec
                 - 2*log2(1/(2*eps_pa)) - log2(2/eps_cor) ),

    clamped at zero. lambda_ec is taken at the key-basis QBER e_x_for_ec,
    with the practical-code factor f_EC = f_ec(e_x_for_ec). Degenerate
    inputs (no detections, bound exhausted by multiphoton emissions) yield
    ell = 0 with the intermediates recorded.
    """
    consts = sec._constants
    mp_upper_x, mp_upper_z, n_nmp_x, n_nmp_z, phi, phi_upper = _estimates(counts.tallies, consts)
    ell, leak = 0, 0.0
    if phi_upper < 0.5:
        leak = lambda_ec(counts.n_rx_x, e_x_for_ec, sec.eps_cor, f_ec(e_x_for_ec))
        ell = _ell(_secret(n_nmp_x, phi_upper), leak, consts)
    rate = ell / counts.n_sent if counts.n_sent > 0 else 0.0
    return FiniteKeyResult(
        ell=ell, rate=rate, counts=counts,
        n_mp_upper_x=mp_upper_x, n_mp_upper_z=mp_upper_z,
        n_nmp_x=n_nmp_x, n_nmp_z=n_nmp_z,
        phi_x=phi, phi_x_upper=phi_upper, lambda_ec=leak, e_x=e_x_for_ec,
    )


def _estimates(tallies: tuple[float, float, float, float, float],
               consts: _Constants) -> tuple[float, float, float, float, float, float]:
    """(n_mp_upper_x, n_mp_upper_z, n_nmp_x, n_nmp_z, phi_x, phi_x_upper) of SessionCounts.tallies.

    Every observed parameter-estimation error is charged to the received
    non-multiphoton fraction, giving phi_x = m_z / n_nmp_z; gamma_u's
    sampling correction then lifts phi_x to its bound over the unobserved
    key rounds. When no error was observed, half an error (rate
    1/(2*n_nmp_z)) stands in to stay inside the correction's domain; this
    only raises the bound. phi_x_upper is clamped at 1/2. Both phase-error
    values are 1/2 where no key is possible: no non-multiphoton signal in
    a basis, or fewer than one detection in a basis, below gamma_u's domain.
    """
    n_rx_x, n_rx_z, m_z, n_mp_star_x, n_mp_star_z = tallies
    # worst case, every multiphoton emission reaches the receiver, so the
    # Chernoff-bounded multiphoton count is subtracted from the received tally
    mp_upper_x = _chernoff(n_mp_star_x, consts.beta)
    mp_upper_z = _chernoff(n_mp_star_z, consts.beta)
    # max(0.0, n), the rule of the builtin (NaN and -0.0 give 0.0), without its call
    n_nmp_x = n_rx_x - mp_upper_x
    n_nmp_x = n_nmp_x if n_nmp_x > 0.0 else 0.0
    n_nmp_z = n_rx_z - mp_upper_z
    n_nmp_z = n_nmp_z if n_nmp_z > 0.0 else 0.0
    phi, phi_upper = 0.5, 0.5
    if n_nmp_x > 0.0 and n_nmp_z > 0.0 and n_rx_x >= 1.0 and n_rx_z >= 1.0:
        phi = m_z / n_nmp_z
        lam = phi if phi > 0.0 else 0.5 / n_nmp_z
        if lam < 0.5:
            phi_upper = min(0.5, phi + _gamma_u(n_rx_x, n_rx_z, lam, consts.eps_gamma))
    return mp_upper_x, mp_upper_z, n_nmp_x, n_nmp_z, phi, phi_upper


def _secret(n_nmp_x: float, phi_upper: float) -> float:
    """The first term of ell, n_nmp_x*(1 - H(phi_upper)), for a phase-error bound below 1/2."""
    return n_nmp_x * (1.0 - _h(phi_upper))


def _ell(secret: float, leak: float, consts: _Constants) -> int:
    """The key length from its first term _secret, floored and clamped at zero."""
    raw = (secret
           - leak
           - consts.pa_bits
           - consts.cor_bits)
    return max(0, math.floor(raw))
