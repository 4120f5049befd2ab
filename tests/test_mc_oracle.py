import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from bb84rate import (ChannelModel, DetectorModel, ProtocolParams, SourceModel, TrialConfig,
                      chernoff_coverage, chernoff_upper, click_error_probs, gamma_u,
                      sample_session, sampling_bound_coverage)
from bb84rate.mc_oracle import SampledSession, check_eps_test, run_oracle_suite
from bb84rate.models import _link, _raw_click_error, dead_time_corrected_click


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


# the reference sampler draws a session this many pulses at a time
DENSE_CHUNK = 1 << 20


def dense_reference_session(src, ch, det, protocol, trial):
    """Reference sampler: every pulse draws ten uniforms, in a dense (10, m) block per chunk."""
    _, p1, p2 = src.photon_probs
    f, _ = _raw_click_error(_link(src, ch, det), protocol.att)
    p_c = dead_time_corrected_click(f, src.rep_rate, det.dead_time)
    c_dt = p_c / f if f > 0.0 else 1.0
    s_cd = ch.transmittance * det.det_efficiency

    rng = np.random.default_rng(trial.seed)
    tallies = np.zeros(8, dtype=np.int64)  # clicks, errors, rx_x, rx_z, m_x, m_z, mp_x, mp_z
    remaining = trial.n_pulses
    while remaining > 0:
        m = min(remaining, DENSE_CHUNK)
        remaining -= m
        u = rng.random((10, m))
        n_emit = (u[0] < p1 + p2).astype(np.int8) + (u[0] < p2)
        n_chan = ((u[1] < protocol.att) & (n_emit >= 1)).astype(np.int8) \
            + ((u[2] < protocol.att) & (n_emit >= 2))
        n_det = ((u[3] < s_cd) & (n_chan >= 1)).astype(np.int8) \
            + ((u[4] < s_cd) & (n_chan >= 2))
        dark = u[5] < det.dark_count_prob
        click = ((n_det > 0) | dark) & (u[6] < c_dt)
        err = click & np.where(n_det > 0, u[7] < det.misalignment, dark & (u[7] < 0.5))
        alice_x = u[8] < protocol.p_x
        bob_x = u[9] < protocol.p_x
        both_x = alice_x & bob_x
        both_z = ~alice_x & ~bob_x
        multi = n_chan >= 2
        tallies += (
            int(click.sum()), int(err.sum()),
            int((click & both_x).sum()), int((click & both_z).sum()),
            int((err & both_x).sum()), int((err & both_z).sum()),
            int((multi & both_x).sum()), int((multi & both_z).sum()),
        )
    return SampledSession(trial.n_pulses, *(int(t) for t in tallies))


# (source, channel, detector, protocol): heavy dark counts on bright pulses,
# where a dark-only click on an emitting pulse is common; g2 = 1 with att < 1
# and p_x != 0.5; a dead time (R*tau = 10) that keeps about one click in three
LAW_CONFIGS = {
    "heavy_dark": (SourceModel(0.9, 0.3, 1e8), ChannelModel(10.0),
                   DetectorModel(0.3, 0.2, misalignment=0.02), ProtocolParams(p_x=0.5)),
    "g2_one_att": (SourceModel(0.8, 1.0, 1e8), ChannelModel(3.0),
                   DetectorModel(0.8, 1e-3, misalignment=0.05), ProtocolParams(p_x=0.7, att=0.6)),
    "dead_time": (SourceModel(0.5, 0.5, 1e9), ChannelModel(0.0),
                  DetectorModel(0.9, 0.05, dead_time=1e-8, misalignment=0.1),
                  ProtocolParams(p_x=0.9, att=0.8)),
}
LAW_SESSIONS, LAW_PULSES = 1000, 4000


class TestSamplerLaw:
    # Each sampler runs LAW_SESSIONS seeded sessions per config, on disjoint
    # seeds, and each of the 8 tallies' means is compared by the two-sample z
    # statistic. A law-abiding sampler passes |z| <= 4 with probability
    # 1 - 6.3e-5 per comparison (normal approximation), so a false alarm
    # anywhere among the 3 configs x 8 tallies has probability at most
    # 24 * 6.3e-5 = 1.5e-3 (Bonferroni).
    @pytest.mark.parametrize("config", sorted(LAW_CONFIGS))
    def test_tally_means_match_the_dense_sampler(self, config):
        models = LAW_CONFIGS[config]

        def tallies(sampler, seeds):
            sessions = (sampler(*models, TrialConfig(seed, LAW_PULSES)) for seed in seeds)
            return np.array([dataclasses.astuple(s)[1:] for s in sessions], dtype=float)

        event = tallies(sample_session, range(LAW_SESSIONS))
        dense = tallies(dense_reference_session, range(LAW_SESSIONS, 2 * LAW_SESSIONS))
        diff = event.mean(axis=0) - dense.mean(axis=0)
        se = np.sqrt((event.var(axis=0, ddof=1) + dense.var(axis=0, ddof=1)) / LAW_SESSIONS)
        assert np.all(np.abs(diff) <= 4.0 * se), (diff, se)


def traced_peak(inputs):
    """The peak traced allocation of one session, after a first session loads
    what numpy loads lazily."""
    sample_session(*inputs[:4], TrialConfig(1, 1000))
    tracemalloc.start()
    try:
        sample_session(*inputs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSessionMemory:
    def test_a_session_holds_no_chunk_sized_row(self, source, detector):
        # a float64 row over all 2,109,497 pulses would take 16 MiB; the
        # sampler draws rows over emitting pulses only (about 30,000 at 0 dB)
        # and keeps under a quarter of that
        inputs = (source, ChannelModel(0.0), detector, _protocol(),
                  TrialConfig(2024, 2_109_497))
        assert traced_peak(inputs) < 4 * 2**20

    def test_a_long_session_draws_its_emitters_in_batches(self, source, detector):
        # about 426,000 of 3e7 pulses emit at 0 dB, seven batches; drawn in
        # one batch, their rows and flags would peak near 9 MiB
        inputs = (source, ChannelModel(0.0), detector, _protocol(),
                  TrialConfig(2025, 30_000_000))
        assert traced_peak(inputs) < 4 * 2**20


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

    @pytest.mark.parametrize("x_star", [-1.0, 1e6 + 1.0])
    def test_x_star_outside_the_population_rejected(self, x_star):
        message = f"x_star must be in [0, 1000000], got {x_star}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            chernoff_coverage(x_star, 1e-2, 1000)


class TestSamplingBoundCoverage:
    def test_error_free_population_always_covered(self):
        assert sampling_bound_coverage(1000, 1000, 0, 1e-2, 2_000, seed=8) == 0.0

    def test_observed_rate_of_one_half_covers(self):
        # every item errs, so every sample observes rate 1 >= 1/2 and chi = 1
        assert sampling_bound_coverage(10, 10, 20, 1e-2, 100) == 0.0

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
        # the nominal 1e-2. The oracle must resolve that slack. It does not
        # shrink as eps decreases: the exact tail sum of test_bound_audit.py
        # gives 18 * eps at n = k = 10**6, eps = 1e-8 and 2% errors (ROADMAP
        # item 3).
        exceed = sampling_bound_coverage(1000, 1000, 100, 1e-2, 10_000, seed=9)
        assert 1e-2 < exceed < 2e-2
        assert exceed == pytest.approx(0.0154, abs=3 * math.sqrt(0.0154 / 10_000))

    def test_corrupted_bound_fails(self):
        exceed = sampling_bound_coverage(1000, 1000, 100, 1e-2, 5_000, seed=11,
                                         bound_scale=0.25)
        assert exceed > 1e-2 + 3 * math.sqrt(1e-2 / 5_000)


    @pytest.mark.parametrize("n, k, population_errors, message", [
        (0, 10, 0, "n and k must be >= 1, got n=0, k=10"),
        (10, 0, 0, "n and k must be >= 1, got n=10, k=0"),
        (10, 10, -1, "population_errors must be in [0, n+k], got -1"),
        (10, 10, 21, "population_errors must be in [0, n+k], got 21"),
    ])
    def test_rejects_a_population_it_cannot_sample(self, n, k, population_errors, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sampling_bound_coverage(n, k, population_errors, 1e-2, 100)


class TestSampledSession:
    # tallies: pulses, clicks, errors, rx_x, rx_z, m_x, m_z, mp_x, mp_z
    @pytest.mark.parametrize("tallies", [(100, 10, 5, 4, 4, 5, 0, 0, 0),
                                         (100, 10, 5, 4, 4, 0, 5, 0, 0)])
    def test_rejects_more_errors_than_sifted_detections(self, tallies):
        with pytest.raises(ValueError, match="^error tallies exceed sifted detections$"):
            SampledSession(*tallies)

    def test_rejects_more_sifted_detections_than_clicks(self):
        with pytest.raises(ValueError, match="^sifted detections exceed total clicks$"):
            SampledSession(100, 7, 0, 4, 4, 0, 0, 0, 0)


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
