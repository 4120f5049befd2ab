import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from bb84rate import mc_oracle
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


def dense_reference_session(src, ch, det, protocol, trial):
    """Reference sampler: draws each chunk of the same stream as one dense (10, m) block."""
    _, p1, p2 = src.photon_probs
    f, _ = _raw_click_error(_link(src, ch, det), protocol.att)
    p_c = dead_time_corrected_click(f, src.rep_rate, det.dead_time)
    c_dt = p_c / f if f > 0.0 else 1.0
    s_cd = ch.transmittance * det.det_efficiency

    rng = np.random.default_rng(trial.seed)
    tallies = np.zeros(8, dtype=np.int64)  # clicks, errors, rx_x, rx_z, m_x, m_z, mp_x, mp_z
    remaining = trial.n_pulses
    while remaining > 0:
        m = min(remaining, mc_oracle._CHUNK)
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


def random_session_inputs(rnd: random.Random, chunk: int):
    """Models and a trial drawn across the sampler's regimes, small enough to run fast."""
    mu = 0.0 if rnd.random() < 0.1 else 10.0 ** rnd.uniform(-2.0, math.log10(0.9))
    g2 = rnd.choice((0.0, 1.0, rnd.random()))
    src = SourceModel(mu, g2, 10.0 ** rnd.uniform(6.0, 9.0))
    det = DetectorModel(det_efficiency=rnd.uniform(0.05, 1.0),
                        dark_count_prob=rnd.choice(
                            (0.0, 10.0 ** rnd.uniform(-7.0, math.log10(0.2)))),
                        dead_time=rnd.choice((0.0, 10.0 ** rnd.uniform(-9.0, -6.0))),
                        misalignment=rnd.choice((0.0, rnd.uniform(0.0, 0.5))))
    protocol = ProtocolParams(p_x=rnd.uniform(0.5, 1.0),
                              att=rnd.choice((1.0, rnd.uniform(0.05, 1.0))))
    n_pulses = rnd.choice((1, 7, 2 * chunk, rnd.randrange(1, 3) * chunk + rnd.randrange(1, chunk)))
    # low losses are drawn more often, so that most sessions click
    return src, ChannelModel(35.0 * rnd.random() ** 2), det, protocol, \
        TrialConfig(rnd.randrange(2**32), n_pulses)


class TestSparseSampler:
    # the jump cut-off at its value, forced to always draw, forced to always
    # jump; then every row drawn, in blocks of one value and of sizes that
    # leave a chunk's last block partly filled (4096 = 585*7 + 1 = 4*1000 + 96).
    # The default block is larger than the 4096-pulse chunk.
    @pytest.mark.parametrize("jump_fraction,block,draws", [
        (None, None, 300), (0.0, None, 100), (math.inf, None, 100),
        (0.0, 1, 8), (0.0, 7, 40), (0.0, 1000, 100),
    ])
    def test_matches_the_dense_sampler(self, monkeypatch, jump_fraction, block, draws):
        monkeypatch.setattr(mc_oracle, "_CHUNK", 4096)
        if jump_fraction is not None:
            monkeypatch.setattr(mc_oracle, "_JUMP_FRACTION", jump_fraction)
        if block is not None:
            monkeypatch.setattr(mc_oracle, "_BLOCK", block)
        rnd = random.Random(f"sparse-sampler:{jump_fraction}:{block}")
        for _ in range(draws):
            inputs = random_session_inputs(rnd, mc_oracle._CHUNK)
            assert sample_session(*inputs) == dense_reference_session(*inputs), inputs

    def test_default_chunk_matches_the_dense_sampler(self, source, detector):
        # two full-size chunks and a partial one, at the baseline source
        inputs = (source, ChannelModel(3.0), detector, ProtocolParams(p_x=0.8, att=0.7),
                  TrialConfig(2024, 2 * mc_oracle._CHUNK + 12345))
        assert sample_session(*inputs) == dense_reference_session(*inputs)

    def test_a_session_holds_no_chunk_sized_row(self, source, detector):
        # at 0 dB rows 0, 3 and 5-9 are drawn, not jumped through; a
        # chunk-sized float64 row is 8 MiB, and the draws' buffer and all the
        # sampler keeps stay under half of it. A first session loads what
        # numpy loads lazily.
        inputs = (source, ChannelModel(0.0), detector, _protocol(),
                  TrialConfig(2024, 2 * mc_oracle._CHUNK + 12345))
        sample_session(*inputs[:4], TrialConfig(1, 1000))
        tracemalloc.start()
        try:
            sample_session(*inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


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
