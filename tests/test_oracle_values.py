"""High-precision recomputation of the frozen reference values.

Every derived constant frozen into the other test modules is recomputed
here from scratch with mpmath (40 significant digits), independently of
the package implementation, and compared against both the frozen literal
and the implementation output.
"""
import pytest
from mpmath import exp, log, loggamma, mp, mpf, pi, sqrt

from bb84rate import chernoff_upper, click_error_probs, gamma_u, inverse_binomial_cdf
from bb84rate import lambda_ec as lambda_ec_impl
from bb84rate import ChannelModel, DetectorModel, SourceModel

from test_finitekey import (BETA_EPS_PE, CHERNOFF_100, FINV_1E6, GAMMA_1E6, LEC_INFO_1E6,
                            LEC_PRAC_1E6, PENALTY_BITS)
from test_models import F_BASELINE_0DB, PC_BASELINE_0DB, PE_BASELINE_0DB

mp.dps = 40

NBAR, G2 = mpf("0.0142"), mpf("0.036")
PDC, ETA = mpf("1.47e-7"), mpf("0.6525")
PMIS = mpf("0.003")
RT = mpf("160.7e6") * mpf("27.5e-9")
LN2 = log(2)


def close(a, b, rel=1e-20):
    return abs(mpf(a) - mpf(b)) <= rel * abs(mpf(b))


def baseline_click_error():
    p2 = G2 * NBAR**2 / 2
    p1 = NBAR - 2 * p2
    p0 = 1 - p1 - p2
    br1 = 1 - (1 - PDC) * (1 - ETA)
    br2 = 1 - (1 - PDC) * (1 - ETA) ** 2
    f = p0 * PDC + p1 * br1 + p2 * br2
    pc = (-1 + sqrt(1 + 4 * RT * f)) / (2 * RT)
    pe = pc / f * (p0 * PDC / 2 + (p1 * br1 + p2 * br2) * PMIS)
    return f, pc, pe


class TestClickModelConstants:
    def test_frozen_literals(self):
        f, pc, pe = baseline_click_error()
        assert close(F_BASELINE_0DB, f, rel=1e-16)
        assert close(PC_BASELINE_0DB, pc, rel=1e-16)
        assert close(PE_BASELINE_0DB, pe, rel=1e-16)

    def test_implementation_matches(self):
        f, pc, pe = baseline_click_error()
        src = SourceModel(0.0142, 0.036, 160.7e6)
        det = DetectorModel(0.6525, 1.47e-7, 27.5e-9, 0.003)
        got_pc, got_pe = click_error_probs(src, ChannelModel(0.0), det)
        assert got_pc == pytest.approx(float(pc), rel=1e-14)
        assert got_pe == pytest.approx(float(pe), rel=1e-14)


class TestChernoffConstants:
    def test_beta_and_bound(self):
        eps = mpf(2) / 3 * mpf("1e-10")
        beta = -log(eps)
        x = mpf(100)
        delta = (beta + sqrt(8 * beta * x + beta**2)) / (2 * x)
        assert close(BETA_EPS_PE, beta, rel=1e-16)
        assert close(CHERNOFF_100, (1 + delta) * x, rel=1e-16)
        assert chernoff_upper(100.0, 2e-10 / 3) == pytest.approx(float((1 + delta) * x),
                                                                 rel=1e-14)


class TestGammaConstant:
    def test_pinned_value(self):
        n = k = mpf(10) ** 6
        lam = mpf("0.01")
        eps = mpf("1e-10") / 6
        g = (n + k) / (n * k) * log((n + k) / (2 * pi * n * k * lam * (1 - lam) * eps**2))
        t = n * g / (n + k)
        gam = (1 / (2 + 2 * n * t / (n + k))) * ((1 - 2 * lam) * t
                                                 + sqrt(t * t + 4 * lam * (1 - lam) * g))
        assert close(GAMMA_1E6, gam, rel=1e-16)
        assert gamma_u(1e6, 1e6, 0.01, 1e-10 / 6) == pytest.approx(float(gam), rel=1e-13)


class TestLeakageConstants:
    def test_quantile_straddles_eps(self):
        # exact tail summation: CDF(m; n, q) = P(Y >= n - m), Y ~ B(n, 1-q)
        n, p = 10**6, mpf("0.02")

        def upper_tail(j0):
            total = mpf(0)
            j = j0
            while True:
                term = exp(loggamma(n + 1) - loggamma(j + 1) - loggamma(n - j + 1)
                           + j * log(p) + (n - j) * log(1 - p))
                total += term
                if term < total * mpf("1e-30") and j > j0 + 10:
                    return total
                j += 1

        eps = mpf("1e-15")
        assert upper_tail(n - FINV_1E6) <= eps < upper_tail(n - FINV_1E6 - 1)
        assert inverse_binomial_cdf(1e-15, 10**6, 0.98) == FINV_1E6

    def test_branch_values(self):
        e, nx = mpf("0.02"), mpf(10) ** 6
        h = -(e * log(e) / LN2 + (1 - e) * log(1 - e) / LN2)
        info = (nx * h + (nx * (1 - e) - FINV_1E6) * log((1 - e) / e) / LN2
                - log(nx) / LN2 / 2 - log(mpf(10) ** 15) / LN2)
        prac = mpf("1.16") * nx * h
        assert close(LEC_INFO_1E6, info, rel=1e-16)
        assert close(LEC_PRAC_1E6, prac, rel=1e-16)
        assert lambda_ec_impl(1e6, 0.02, 1e-15, 1.16) == pytest.approx(float(prac), rel=1e-12)

    def test_penalty_constant(self):
        pen = 2 * log(1 / (2 * mpf("1e-10") / 6)) / LN2 + log(2 / mpf("1e-15")) / LN2
        assert close(PENALTY_BITS, pen, rel=1e-16)
