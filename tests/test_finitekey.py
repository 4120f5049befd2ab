import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.stats import binom

from bb84rate import finitekey
from bb84rate import (ChannelModel, ProtocolParams, SecurityParams, SessionCounts,
                      asymptotic_rate, binary_entropy, chernoff_upper, click_error_probs,
                      expected_counts, f_ec, finite_key_length, gamma_u, inverse_binomial_cdf,
                      lambda_ec)

# Frozen high-precision oracle values (mpmath, 40 digits).
BETA_EPS_PE = 23.43131603804862122215793          # -ln(2e-10/3)
CHERNOFF_100 = 181.1672227992972809186875          # chernoff_upper(100, 2e-10/3)
GAMMA_1E6 = 9.014656987194541761517132e-4          # gamma_u(1e6, 1e6, 0.01, 1e-10/6)
FINV_1E6 = 978877                                  # F^-1(1e-15; 1e6, 0.98)
LEC_INFO_1E6 = 147686.066991054051457432           # info branch, n=1e6, e=0.02
LEC_PRAC_1E6 = 164071.0293485119483790796          # 1.16 * n * H(0.02)
PENALTY_BITS = 120.4374083224999945383687          # 2*log2(1/(2e_PA)) + log2(2/e_cor)


class TestSecurityParams:
    def test_defaults_reproduce_baseline_budget(self):
        sec = SecurityParams()
        assert sec.eps_pe == pytest.approx(2e-10 / 3, rel=1e-12)
        assert sec.eps_pa == pytest.approx(1e-10 / 6, rel=1e-12)
        assert sec.eps_cor == 1e-15
        assert sec.eps_sec == pytest.approx(1e-10, rel=1e-12)

    def test_composition(self):
        sec = SecurityParams(eps_prime=1e-8, n_pe=2)
        assert sec.eps_sec == pytest.approx(sec.eps_pa + sec.eps_pe + sec.eps_ec, rel=1e-15)
        assert sec.eps_sec == pytest.approx(6e-8, rel=1e-12)
        assert sec.eps_pe == pytest.approx(4 * sec.eps_prime, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            SecurityParams(eps_prime=0.0)
        with pytest.raises(ValueError):
            SecurityParams(eps_cor=1.0)
        with pytest.raises(ValueError):
            SecurityParams(n_pe=0)

    @pytest.mark.parametrize("eps_prime, n_pe", [(0.25, 2), (0.3, 2), (0.1, 5)])
    def test_rejects_a_parameter_estimation_budget_of_one_or_more(self, eps_prime, n_pe):
        # the Chernoff caps need -ln(eps_pe) > 0; eps_prime = 0.3 once loaded and
        # turned every finite row into an error
        with pytest.raises(ValueError, match=r"^eps_pe = 2 \* n_pe \* eps_prime must be < 1"):
            SecurityParams(eps_prime=eps_prime, n_pe=n_pe)
        assert SecurityParams(eps_prime=math.nextafter(0.25, 0.0)).eps_pe < 1.0


class TestChernoffUpper:
    def test_frozen_value(self):
        assert chernoff_upper(100.0, 2e-10 / 3) == pytest.approx(CHERNOFF_100, rel=1e-13)

    def test_relative_fluctuation_vanishes(self):
        assert chernoff_upper(1e10, 1e-10) / 1e10 < 1.01

    def test_zero_expectation_returns_beta(self):
        assert chernoff_upper(0.0, 2e-10 / 3) == pytest.approx(BETA_EPS_PE, rel=1e-13)

    def test_always_above_expectation(self):
        for x in (0.5, 10.0, 1e4, 1e8):
            assert chernoff_upper(x, 1e-10) > x

    def test_tightens_with_larger_eps(self):
        assert chernoff_upper(100.0, 1e-3) < chernoff_upper(100.0, 1e-6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            chernoff_upper(10.0, 0.0)
        with pytest.raises(ValueError):
            chernoff_upper(10.0, 1.0)
        with pytest.raises(ValueError):
            chernoff_upper(-1.0, 0.5)

    @pytest.mark.parametrize("expected", [math.nan, math.inf])
    def test_rejects_nan_and_inf_expectations(self, expected):
        # both once returned a NaN bound
        with pytest.raises(ValueError, match="^expected count must be finite and >= 0"):
            chernoff_upper(expected, 1e-3)


class TestExpectedCounts:
    def test_zero_pulses(self, source, detector):
        counts = expected_counts(source, ChannelModel(0.0), detector,
                                 ProtocolParams(p_x=0.7), 0.0)
        assert counts.n_rx_x == counts.n_rx_z == counts.m_z == 0.0
        assert counts.n_mp_star_x == counts.n_mp_star_z == 0.0

    def test_extreme_bias_starves_pe_basis(self, source, detector):
        counts = expected_counts(source, ChannelModel(0.0), detector,
                                 ProtocolParams(p_x=1.0 - 1e-12), 1e9)
        assert counts.n_rx_z < 1e-3
        assert counts.m_z < 1e-3

    def test_scalings(self, source, detector):
        p = ProtocolParams(p_x=0.8, att=0.5)
        counts = expected_counts(source, ChannelModel(10.0), detector, p, 1e9)
        p_c, p_e = click_error_probs(source, ChannelModel(10.0), detector, 0.5)
        assert counts.n_rx_x == pytest.approx(1e9 * 0.64 * p_c, rel=1e-12)
        assert counts.n_rx_z == pytest.approx(1e9 * 0.04 * p_c, rel=1e-12)
        assert counts.m_z == pytest.approx(1e9 * 0.04 * p_e, rel=1e-12)
        # multiphoton expectation carries the quadratic attenuation factor
        p_m = source.multiphoton_prob
        assert counts.n_mp_star_x == pytest.approx(1e9 * 0.64 * p_m * 0.25, rel=1e-12)


class TestNonMultiphotonLower:
    @staticmethod
    def lower(counts, security):
        res = finite_key_length(counts, security, 0.01, f_ec(0.01))
        return res.n_nmp_x, res.n_nmp_z

    def test_perfect_source(self, security):
        counts = SessionCounts(1e6, 1000.0, 900.0, 5.0, 0.0, 0.0)
        lower_x, lower_z = self.lower(counts, security)
        # chernoff_upper(0, eps) = beta is still subtracted
        assert lower_x == pytest.approx(1000.0 - BETA_EPS_PE, rel=1e-12)
        assert lower_z == pytest.approx(900.0 - BETA_EPS_PE, rel=1e-12)

    def test_clamped_at_zero(self, security):
        counts = SessionCounts(1e6, 50.0, 50.0, 1.0, 1000.0, 1000.0)
        lower_x, lower_z = self.lower(counts, security)
        assert lower_x == 0.0 and lower_z == 0.0

    def test_positive_at_long_range(self, source, detector, security):
        # one hour at the longest demonstrated range keeps the bound positive
        ch = ChannelModel.from_fiber(175.0, 0.1904)
        counts = expected_counts(source, ch, detector,
                                 ProtocolParams(p_x=0.5), source.rep_rate * 3600.0)
        lower_x, lower_z = self.lower(counts, security)
        assert lower_x > 0.0 and lower_z > 0.0


class TestGammaU:
    def test_symmetric_in_sample_swap(self):
        eps = 1e-10 / 6
        assert gamma_u(1.5e5, 4.0e4, 0.25, eps) == pytest.approx(
            gamma_u(4.0e4, 1.5e5, 0.25, eps), rel=1e-14)

    def test_frozen_value(self):
        assert gamma_u(1e6, 1e6, 0.01, 1e-10 / 6) == pytest.approx(GAMMA_1E6, rel=1e-13)

    def test_positive(self):
        assert gamma_u(1e4, 1e3, 0.05, 1e-6) > 0.0

    def test_domain_rejections(self):
        with pytest.raises(ValueError):
            gamma_u(1e4, 1e4, 0.0, 1e-6)
        with pytest.raises(ValueError):
            gamma_u(1e4, 1e4, 0.5, 1e-6)
        with pytest.raises(ValueError):
            gamma_u(0.5, 1e4, 0.25, 1e-6)
        # log factor <= 0: huge populations with a large tail probability
        with pytest.raises(ValueError):
            gamma_u(1e6, 1e6, 0.25, 0.5)

    @pytest.mark.parametrize("n, k", [(math.nan, 100.0), (100.0, math.nan),
                                      (math.inf, 100.0), (100.0, math.inf)])
    def test_rejects_nan_and_inf_sample_sizes(self, n, k):
        # each once returned a NaN correction, which the phase-error bound
        # clamped to 1/2 without a word
        with pytest.raises(ValueError, match="^n and k must be finite and >= 1"):
            gamma_u(n, k, 0.01, 1e-3)

    def test_tiny_rates_stay_finite(self):
        # below the smallest normal double the log argument's denominator
        # underflowed (a NaN bound, or ZeroDivisionError at zero); above it
        # the quotient could still overflow
        eps = 1e-10 / 6
        assert math.isfinite(gamma_u(99002500, 2500, 1e-300, eps))
        assert math.isfinite(gamma_u(250, 250, 7e-306, 1e-13))
        bounds = [gamma_u(99002500, 2500, lam, eps) for lam in (1e-290, 1e-295, 1e-300)]
        assert all(math.isfinite(b) for b in bounds) and bounds == sorted(bounds)


class TestPhaseErrorUpper:
    # With n_mp_star_z = 0 the Chernoff cap is ln(1/eps_pe), so
    # n_nmp_z = n_rx_z - ln(1/eps_pe); each expected value is computed from
    # the n_nmp_z that finite_key_length returns.
    def test_zero_observed_errors_uses_floor(self, security):
        counts = SessionCounts(1e8, 1e5, 1e4, 0.0, 0.0, 0.0)
        res = finite_key_length(counts, security, 0.0, 1.0)
        assert res.n_nmp_z == pytest.approx(1e4 - math.log(1.0 / security.eps_pe), rel=1e-15)
        assert res.phi_x == 0.0 and res.phi_x_upper > 0.0
        # the floor substitutes half an error in the PE sample
        assert res.phi_x_upper == pytest.approx(
            gamma_u(1e5, 1e4, 0.5 / res.n_nmp_z, security.eps_sec / 6.0), rel=1e-12)

    def test_upper_bound_dominates_estimate(self, security):
        counts = SessionCounts(1e8, 1e5, 1e4, 50.0, 10.0, 10.0)
        res = finite_key_length(counts, security, 0.0, 1.0)
        phi = counts.m_z / res.n_nmp_z
        assert res.phi_x == phi
        assert phi < res.phi_x_upper < 0.5
        assert res.phi_x_upper == phi + gamma_u(1e5, 1e4, phi, security.eps_sec / 6.0)

    @pytest.mark.parametrize("m_z", [37.0, 49.0])
    def test_clamped_at_half(self, security, m_z):
        # m_z = 37: the estimate is below 1/2 and its correction crosses it;
        # m_z = 49: the estimate itself is at least 1/2
        counts = SessionCounts(1e6, 100.0, 100.0, m_z, 0.0, 0.0)
        res = finite_key_length(counts, security, 0.0, 1.0)
        assert (res.phi_x < 0.5) == (m_z == 37.0)
        assert res.phi_x_upper == 0.5 and res.ell == 0

    def test_no_pe_statistics_gives_no_key(self, security):
        # ln(1/eps_pe) ~ 23.4 exceeds n_rx_z = 10, so n_nmp_z = 0
        counts = SessionCounts(1e6, 100.0, 10.0, 0.0, 0.0, 0.0)
        res = finite_key_length(counts, security, 0.0, 1.0)
        assert res.n_nmp_z == 0.0
        assert res.phi_x_upper == 0.5 and res.ell == 0

    def test_less_than_one_pe_detection_gives_no_key(self):
        # at eps_prime = 0.2, -ln(eps_pe) ~ 0.22 is below n_rx_z = 0.9, so
        # n_nmp_z > 0, but a Z block under one detection is outside gamma_u's
        # domain; it once raised "n and k must be finite and >= 1"
        counts = SessionCounts(1000.0, 100.0, 0.9, 0.001, 0.0, 0.0)
        res = finite_key_length(counts, SecurityParams(eps_prime=0.2), 0.01, 1.16)
        assert res.n_nmp_z > 0.0
        assert res.phi_x_upper == 0.5 and res.ell == 0


class TestInverseBinomialCdf:
    def test_half_quantile_convention(self):
        # exact enumeration: CDF(17) = 0.3231 <= 0.5 < CDF(18) = 0.6083,
        # so the largest m with CDF(m) <= 1/2 is 17
        cdf = [binom.cdf(m, 20, 0.9) for m in range(21)]
        expected = max(m for m in range(21) if cdf[m] <= 0.5)
        assert expected == 17
        assert inverse_binomial_cdf(0.5, 20, 0.9) == 17

    @pytest.mark.parametrize("n,q,eps", [
        (20, 0.9, 0.5), (60, 0.98, 1e-6), (37, 0.5, 0.123),
        (5, 0.2, 0.9), (50, 0.999, 0.01),
    ])
    def test_matches_enumeration(self, n, q, eps):
        cdf = 0.0
        expected = -1
        for m in range(n + 1):
            cdf = binom.cdf(m, n, q)
            if cdf <= eps:
                expected = m
            else:
                break
        assert inverse_binomial_cdf(eps, n, q) == expected

    def test_returns_minus_one_when_unreachable(self):
        # CDF(0) = 0.5^3 = 0.125 > 1e-3: no m satisfies the convention
        assert inverse_binomial_cdf(1e-3, 3, 0.5) == -1

    def test_unreachable_when_bdtrik_gives_up(self):
        # bdtrik gives NaN, so the bisection starts from lo = 0 although
        # CDF(0) = 1 > eps; the downward walk then ends at -1
        assert math.isnan(special.bdtrik(1e-15, 10**6, 1e-300))
        assert inverse_binomial_cdf(1e-15, 10**6, 1e-300) == -1

    def test_degenerate_success_probabilities(self):
        # q = 1: CDF is 0 below n and 1 at n, so the answer is n - 1;
        # q = 0: CDF(0) = 1 already exceeds any eps < 1
        assert inverse_binomial_cdf(0.5, 20, 1.0) == 19
        assert inverse_binomial_cdf(1e-15, 10, 1.0) == 9
        assert inverse_binomial_cdf(0.5, 20, 0.0) == -1

    def test_large_n(self):
        m = inverse_binomial_cdf(1e-15, 10**6, 0.98)
        assert m == FINV_1E6

    def test_n_limited_to_c_long(self):
        # scipy's bdtr returns NaN from n = 2**31 on, but the bdtrik starting
        # point must still be checked: here it is one step too high
        n, q, eps = 2_356_904_332, 0.9763, 1e-15
        m = inverse_binomial_cdf(eps, n, q)
        # exact CDF at m and m + 1: tail sum downward from m at 40 digits
        with mpmath.workdps(40):
            q_mp = mpmath.mpf(q)
            term = mpmath.exp(mpmath.loggamma(n + 1) - mpmath.loggamma(m + 1)
                              - mpmath.loggamma(n - m + 1)
                              + m * mpmath.log(q_mp) + (n - m) * mpmath.log(1 - q_mp))
            next_term = term * (n - m) * q_mp / ((m + 1) * (1 - q_mp))
            cdf, j = term, m
            while term > cdf * mpmath.mpf(10) ** -35:
                term *= j * (1 - q_mp) / ((n - j + 1) * q_mp)
                cdf += term
                j -= 1
        assert cdf <= eps < cdf + next_term
        assert m == 2_300_987_043
        # the limit is 10**13, named in the error
        assert 0 < inverse_binomial_cdf(eps, 10**13, 0.98) < 10**13
        with pytest.raises(ValueError, match=r"10\*\*13"):
            inverse_binomial_cdf(eps, 10**13 + 1, 0.98)
        with pytest.raises(ValueError, match=r"10\*\*13"):
            lambda_ec(1e14, 0.02, 1e-15, f_ec(0.02))


class TestLambdaEc:
    def test_zero_error_rate_leaks_nothing(self):
        assert lambda_ec(1e6, 0.0, 1e-15, f_ec(0.0)) == 0.0

    def test_frozen_branches(self):
        # with the info branch forced (tiny f_EC) and the practical 1.16
        info = lambda_ec(1e6, 0.02, 1e-15, f_ec_value=1e-9)
        assert info == pytest.approx(LEC_INFO_1E6, rel=1e-12)
        assert lambda_ec(1e6, 0.02, 1e-15, 1.16) == pytest.approx(LEC_PRAC_1E6, rel=1e-12)

    def test_info_branch_wins_for_small_blocks(self):
        # constants and the sqrt(n) term dominate 0.16*n*H(e) at small n
        assert lambda_ec(1500.0, 0.007, 1e-15, 1.16) > 1.16 * 1500.0 * 0.0593

    def test_rejects_large_error_rate(self):
        with pytest.raises(ValueError):
            lambda_ec(1e6, 0.5, 1e-15, f_ec(0.5))
        with pytest.raises(ValueError):
            lambda_ec(0.0, 0.02, 1e-15, f_ec(0.02))


class TestSessionCounts:
    @pytest.mark.parametrize("field", range(6))
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nan_and_inf_tallies(self, security, field, value):
        # a NaN n_sent once gave ell = 810273 with rate 0.0
        tallies = [1e9, 1e6, 1e5, 1e3, 10.0, 1.0]
        tallies[field] = value
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            finite_key_length(SessionCounts(*tallies), security, 0.01, f_ec(0.01))


class TestFiniteKeyLength:
    def test_zero_pulses(self, security):
        counts = SessionCounts(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        res = finite_key_length(counts, security, 0.01, f_ec(0.01))
        assert res.ell == 0 and res.rate == 0.0

    def test_penalty_constant(self, security):
        pen = (2.0 * math.log2(1.0 / (2.0 * security.eps_pa))
               + math.log2(2.0 / security.eps_cor))
        assert pen == pytest.approx(PENALTY_BITS, rel=1e-14)

    def test_conservative_orderings(self, source, detector, security):
        ch = ChannelModel.from_fiber(100.0)
        counts = expected_counts(source, ch, detector,
                                 ProtocolParams(p_x=0.9), source.rep_rate * 60.0)
        p_c, p_e = click_error_probs(source, ch, detector)
        res = finite_key_length(counts, security, p_e / p_c, f_ec(p_e / p_c))
        assert res.n_mp_upper_x >= counts.n_mp_star_x
        assert res.n_mp_upper_z >= counts.n_mp_star_z
        assert res.n_nmp_x <= counts.n_rx_x
        assert res.n_nmp_z <= counts.n_rx_z
        assert res.phi_x_upper >= res.phi_x
        assert 0 <= res.ell <= counts.n_rx_x
        assert res.rate == res.ell / counts.n_sent

    def test_nondecreasing_in_block_size(self, source, detector, security):
        ch = ChannelModel.from_fiber(100.0)
        p_c, p_e = click_error_probs(source, ch, detector)
        previous = -1
        for n_sent in (1e8, 1e9, 1e10, 1e11):
            counts = expected_counts(source, ch, detector,
                                     ProtocolParams(p_x=0.9), n_sent)
            res = finite_key_length(counts, security, p_e / p_c, f_ec(p_e / p_c))
            assert res.ell >= previous
            previous = res.ell

    def test_never_exceeds_asymptotic(self, source, detector, security):
        # same operating point, matching sift convention: the X-basis
        # asymptotic throughput bounds the finite rate
        for loss, p_x in ((0.0, 0.95), (10.0, 0.9), (19.04, 0.9)):
            ch = ChannelModel(loss)
            p_c, p_e = click_error_probs(source, ch, detector)
            counts = expected_counts(source, ch, detector,
                                     ProtocolParams(p_x=p_x), 1e10)
            res = finite_key_length(counts, security, p_e / p_c, f_ec(p_e / p_c))
            asym = asymptotic_rate(source, ch, detector, ProtocolParams(p_x=p_x))
            assert res.rate <= asym.rate_per_pulse + 1e-15

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the bounds spend 10 * eps_prime, eps_sec is 6 * eps_prime "
                              "(ROADMAP item 2)")
    def test_bounds_spend_the_secrecy_budget(self, source, detector, security, monkeypatch):
        spent = []

        def recording(bound, eps_of):
            def wrapped(*args):
                spent.append(eps_of(args[-1]))  # eps sets the last argument of both bounds
                return bound(*args)
            return wrapped

        # the Chernoff caps' float core takes beta = -ln(eps), gamma_u takes eps
        monkeypatch.setattr(finitekey, "_chernoff",
                            recording(finitekey._chernoff, lambda beta: math.exp(-beta)))
        monkeypatch.setattr(finitekey, "gamma_u", recording(finitekey.gamma_u, lambda eps: eps))
        ch = ChannelModel(10.0)
        p_c, p_e = click_error_probs(source, ch, detector)
        counts = expected_counts(source, ch, detector, ProtocolParams(p_x=0.9), 1e10)
        assert finite_key_length(counts, security, p_e / p_c, f_ec(p_e / p_c)).ell > 0
        assert len(spent) == 3  # two Chernoff caps and one sampling correction
        assert sum(spent) + security.eps_pa == pytest.approx(security.eps_sec, rel=1e-12)

    def test_multiphoton_exhaustion_gives_zero(self, security):
        counts = SessionCounts(1e6, 100.0, 100.0, 1.0, 500.0, 500.0)
        res = finite_key_length(counts, security, 0.01, f_ec(0.01))
        assert res.ell == 0
        assert res.n_nmp_x == 0.0

    @settings(max_examples=200, deadline=None)
    @given(loss_db=st.floats(min_value=0.0, max_value=50.0),
           p_x=st.floats(min_value=0.51, max_value=0.99),
           att=st.floats(min_value=0.01, max_value=1.0),
           log_n_sent=st.floats(min_value=1.0, max_value=13.0))
    def test_always_well_formed(self, source, detector, security,
                                loss_db, p_x, att, log_n_sent):
        # no parameter corner may produce NaNs, negatives or broken bounds
        ch = ChannelModel(loss_db)
        protocol = ProtocolParams(p_x=p_x, att=att)
        counts = expected_counts(source, ch, detector, protocol, 10.0**log_n_sent)
        p_c, p_e = click_error_probs(source, ch, detector, att)
        res = finite_key_length(counts, security, p_e / p_c, f_ec(p_e / p_c))
        assert res.ell >= 0
        assert res.ell <= counts.n_rx_x
        assert 0.0 <= res.rate <= 1.0
        assert 0.0 <= res.phi_x_upper <= 0.5
        assert res.phi_x_upper >= res.phi_x or res.phi_x_upper == 0.5
        assert res.lambda_ec >= 0.0
        assert res.n_nmp_x <= counts.n_rx_x and res.n_nmp_z <= counts.n_rx_z
        assert math.isfinite(res.rate) and math.isfinite(res.lambda_ec)

    @settings(max_examples=200, deadline=None)
    @given(log_n_sent=st.floats(3.0, 13.0), p_x=st.floats(0.5, 0.999),
           log_p_c=st.floats(-7.0, 0.0), e=st.just(0.0) | st.floats(-4.0, -0.31).map(
               lambda x: 10.0**x),
           log_multi_share=st.floats(-6.0, 0.0), log_eps_prime=st.floats(-15.0, -3.0),
           log_eps_cor=st.floats(-20.0, -3.0))
    def test_practical_leak_bounds_the_key_length(self, log_n_sent, p_x, log_p_c, e,
                                                  log_multi_share, log_eps_prime, log_eps_cor):
        # lambda_ec is a max over the practical cost, so the key length with
        # that cost alone is never shorter: the optimizer's point screen
        p_c = 10.0**log_p_c
        counts = SessionCounts.from_probs(10.0**log_n_sent, p_x, p_c, e * p_c,
                                          10.0**log_multi_share * p_c)
        sec = SecurityParams(eps_prime=10.0**log_eps_prime, eps_cor=10.0**log_eps_cor)
        try:
            res = finite_key_length(counts, sec, e, f_ec(e))
        except ValueError:  # gamma_u out of its regime
            return
        if res.phi_x_upper >= 0.5:
            assert res.ell == 0
            return
        practical_leak = f_ec(e) * counts.n_rx_x * binary_entropy(e)
        assert res.ell <= finitekey._ell(res.n_nmp_x, res.phi_x_upper, practical_leak,
                                         sec._constants)
