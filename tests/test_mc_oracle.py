import math

import pytest

from bb84rate import (ChannelModel, DetectorModel, ProtocolParams, SourceModel, TrialConfig,
                      chernoff_coverage, chernoff_upper, click_error_probs, gamma_u,
                      sample_session, sampling_bound_coverage)
from bb84rate.mc_oracle import check_eps_test, run_oracle_suite


def _protocol():
    return ProtocolParams(p_x=0.5, att=1.0)


class TestSampleSession:
    def test_bit_identical_reproducibility(self, source, detector):
        trial = TrialConfig(seed=12345, n_pulses=300_000)
        ch = ChannelModel(10.0)
        a = sample_session(source, ch, detector, _protocol(), trial)
        b = sample_session(source, ch, detector, _protocol(), trial)
        assert a == b

    def test_different_seeds_differ(self, source, detector):
        ch = ChannelModel(10.0)
        a = sample_session(source, ch, detector, _protocol(), TrialConfig(1, 300_000))
        b = sample_session(source, ch, detector, _protocol(), TrialConfig(2, 300_000))
        assert a != b

    def test_vacuum_source_never_clicks(self, detector):
        src = SourceModel(0.0, 0.0, 1e6)
        det = DetectorModel(det_efficiency=1.0, dark_count_prob=0.0)
        session = sample_session(src, ChannelModel(0.0), det, _protocol(),
                                 TrialConfig(7, 100_000))
        assert session.n_clicks == 0
        assert session.n_errors == 0

    def test_agrees_with_analytic_model(self, source, detector):
        trial = TrialConfig(seed=99, n_pulses=2_000_000)
        ch = ChannelModel(20.0)
        session = sample_session(source, ch, detector, _protocol(), trial)
        p_c, p_e = click_error_probs(source, ch, detector)
        n = trial.n_pulses
        sigma_c = math.sqrt(n * p_c * (1 - p_c))
        sigma_e = max(math.sqrt(n * p_e * (1 - p_e)), 1.0)
        assert abs(session.n_clicks - n * p_c) <= 4 * sigma_c
        assert abs(session.n_errors - n * p_e) <= 4 * sigma_e

    def test_dark_count_dominated_qber_is_half(self):
        src = SourceModel(1e-9, 0.0, 1e6)
        det = DetectorModel(det_efficiency=0.5, dark_count_prob=1e-3, misalignment=0.003)
        session = sample_session(src, ChannelModel(0.0), det, _protocol(),
                                 TrialConfig(5, 1_000_000))
        qber = session.n_errors / session.n_clicks
        sigma = math.sqrt(0.25 / session.n_clicks)
        assert abs(qber - 0.5) <= 4 * sigma

    def test_multiphoton_tally_scaling(self, source, detector):
        # emissions into the channel scale as p_m * att^2 per sifted basis
        trial = TrialConfig(seed=11, n_pulses=5_000_000)
        protocol = ProtocolParams(p_x=0.5, att=0.5)
        session = sample_session(source, ChannelModel(0.0), detector, protocol, trial)
        expected = trial.n_pulses * 0.25 * source.multiphoton_prob * 0.25
        sigma = max(math.sqrt(expected), 1.0)
        assert abs(session.n_mp_x - expected) <= 5 * sigma
        assert abs(session.n_mp_z - expected) <= 5 * sigma


class TestChernoffCoverage:
    def test_exceedance_within_budget(self):
        exceed = chernoff_coverage(50.0, 1e-2, 100_000, seed=3)
        assert exceed <= 1e-2 + 3 * math.sqrt(1e-2 / 100_000)

    def test_loose_at_large_eps(self):
        exceed = chernoff_coverage(50.0, 0.5, 10_000, seed=4)
        assert exceed < 0.25

    def test_zero_expectation(self):
        assert chernoff_coverage(0.0, 1e-2, 10_000, seed=5) == 0.0

    def test_corrupted_bound_fails(self):
        exceed = chernoff_coverage(50.0, 1e-2, 10_000, seed=6, bound_scale=0.5)
        assert exceed > 1e-2 + 3 * math.sqrt(1e-2 / 10_000)

    def test_trial_floor_enforced(self):
        with pytest.raises(ValueError):
            chernoff_coverage(50.0, 1e-2, 100)


class TestSamplingBoundCoverage:
    def test_error_free_population_always_covered(self):
        assert sampling_bound_coverage(1000, 1000, 0, 1e-2, 2_000, seed=8) == 0.0

    def test_symmetric_instance_at_operating_error_rate(self):
        # 2% population errors: exact enumeration gives exceedance 0.0078
        exceed = sampling_bound_coverage(1000, 1000, 40, 1e-2, 10_000, seed=9)
        assert exceed <= 1e-2 + 3 * math.sqrt(1e-2 / 10_000)

    def test_asymmetric_instances(self):
        for n, k, m, seed in ((10, 1000, 50, 10), (1900, 100, 40, 12), (9900, 100, 100, 13)):
            exceed = sampling_bound_coverage(n, k, m, 1e-2, 10_000, seed=seed)
            assert exceed <= 1e-2 + 3 * math.sqrt(1e-2 / 10_000)

    def test_known_slack_at_high_error_symmetric_instance(self):
        # The correction formula is an analytical approximation: at 5%
        # symmetric errors its exact failure probability is 0.0154, above
        # the nominal 1e-2. The oracle must resolve that slack (it shrinks
        # quickly as eps decreases, so small-eps use stays conservative).
        exceed = sampling_bound_coverage(1000, 1000, 100, 1e-2, 10_000, seed=9)
        assert 1e-2 < exceed < 2e-2
        assert exceed == pytest.approx(0.0154, abs=3 * math.sqrt(0.0154 / 10_000))

    def test_corrupted_bound_fails(self):
        exceed = sampling_bound_coverage(1000, 1000, 100, 1e-2, 5_000, seed=11,
                                         bound_scale=0.25)
        assert exceed > 1e-2 + 3 * math.sqrt(1e-2 / 5_000)


class TestBoundMonotonicity:
    def test_chernoff_grows_as_eps_shrinks(self):
        # coverage at production tail probabilities is not measurable;
        # conservativeness there follows from monotonicity in eps
        bounds = [chernoff_upper(1000.0, eps) for eps in (1e-2, 1e-4, 1e-6, 1e-10)]
        assert all(b > a for a, b in zip(bounds, bounds[1:]))

    def test_gamma_grows_as_eps_shrinks(self):
        gammas = [gamma_u(1e5, 1e4, 0.02, eps) for eps in (1e-2, 1e-4, 1e-6, 1e-10)]
        assert all(b > a for a, b in zip(gammas, gammas[1:]))


class TestOracleSuite:
    def test_suite_passes_and_is_deterministic(self, source, detector):
        trial = TrialConfig(seed=77, n_pulses=400_000)
        kw = dict(losses_db=(0.0, 20.0), chernoff_trials=20_000, sampling_trials=2_000)
        a = run_oracle_suite(source, detector, _protocol(), trial, **kw)
        b = run_oracle_suite(source, detector, _protocol(), trial, **kw)
        assert a == b
        assert a["all_passed"]

    def test_suite_flags_corrupted_bound(self, source, detector):
        trial = TrialConfig(seed=77, n_pulses=100_000)
        report = run_oracle_suite(source, detector, _protocol(), trial,
                                  losses_db=(0.0,), chernoff_trials=20_000,
                                  sampling_trials=2_000, bound_scale=0.5)
        assert not report["all_passed"]

    def test_eps_test_limit(self):
        # gamma_u leaves its regime first at n=1900, k=100 and observed rate
        # 0.4, near eps = 0.0835
        for eps in (0.01, 0.05, 0.0835):
            check_eps_test(eps)
        for eps in (0.0836, 0.3):
            with pytest.raises(ValueError, match="eps_test"):
                check_eps_test(eps)
