import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bb84rate import (ChannelModel, DetectorModel, ProtocolParams, QberMeasurement,
                      SourceModel, asymptotic_rate, click_error_probs, f_ec, fit_misalignment)


def qber(src, ch, det, att=1.0):
    p_c, p_e = click_error_probs(src, ch, det, att)
    return p_e / p_c


class TestQberModel:
    def test_dark_count_limit(self):
        e = qber(SourceModel(1e-15, 0.036, 160.7e6), ChannelModel(0.0),
                 DetectorModel(1.0, 1e-7, 0.0, 0.003))
        assert e == pytest.approx(0.5, abs=1e-6)

    def test_signal_limit(self):
        e = qber(SourceModel(0.0142, 0.036, 160.7e6), ChannelModel(0.0),
                 DetectorModel(1.0, 0.0, 0.0, 0.003))
        assert e == pytest.approx(0.003, rel=1e-12)

    def test_rejects_zero_denominator(self):
        # no photons and no dark counts: no clicks, so no QBER to fit
        data = [QberMeasurement(distance_km=0.0, qber=0.01)]
        with pytest.raises(ValueError, match="no clicks"):
            fit_misalignment(data, SourceModel(0.0, 0.0, 1e6), DetectorModel(1.0, 0.0), 0.1904)

    def test_value_near_max_loss(self, source, detector):
        # around the zero-rate boundary (~33 dB) the model sits near 2%
        e = qber(source, ChannelModel(33.3), detector)
        assert e == pytest.approx(0.0193, abs=5e-4)


class TestFEc:
    def test_pinned_low_qber_value(self):
        for e in (0.0, 0.001, 0.003, 0.02, 0.05):
            assert f_ec(e) == 1.16

    def test_anchor_identity(self):
        assert f_ec(0.10) == 1.22
        assert f_ec(0.15) == 1.35

    def test_midpoint_is_mean(self):
        assert f_ec(0.075) == pytest.approx((1.16 + 1.22) / 2, rel=1e-12)
        assert f_ec(0.125) == pytest.approx((1.22 + 1.35) / 2, rel=1e-12)

    def test_clamps_beyond_table(self):
        for e in (0.4, 0.5):
            assert f_ec(e) == 1.35

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            f_ec(0.6)


class TestFitMisalignment:
    @pytest.mark.parametrize("value", [0.5000001, 1.0])
    def test_measured_qber_above_one_half_rejected(self, value):
        message = f"qber must be in [0, 0.5], got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            QberMeasurement(distance_km=10.0, qber=value)
        assert QberMeasurement(distance_km=10.0, qber=0.5).qber == 0.5

    DISTANCES = [0.0, 25.0, 50.0, 75.0, 100.0, 140.0, 175.0]

    def synth(self, source, detector, p_mis, noise=0.0, seed=None):
        rng = np.random.default_rng(seed)
        det = replace(detector, misalignment=p_mis)
        data = []
        for d in self.DISTANCES:
            e = qber(source, ChannelModel.from_fiber(d, 0.1904), det)
            if noise:
                e *= 1.0 + noise * rng.standard_normal()
            data.append(QberMeasurement(distance_km=d, qber=min(max(e, 0.0), 0.5)))
        return data

    def test_exact_recovery(self, source, detector):
        data = self.synth(source, detector, 0.003)
        fit, modeled = fit_misalignment(data, source, detector, 0.1904)
        assert fit == pytest.approx(0.003, abs=1e-9)
        assert modeled == pytest.approx([m.qber for m in data], rel=1e-12)

    def test_single_point_closed_form(self, source):
        data = [QberMeasurement(distance_km=0.0, qber=0.01)]
        fit, _ = fit_misalignment(data, source, DetectorModel(1.0, 0.0), 0.1904)
        assert fit == pytest.approx(0.01, rel=1e-12)

    def test_noisy_recovery_across_seeded_trials(self, source, detector):
        for seed in range(100):
            data = self.synth(source, detector, 0.003, noise=0.05, seed=seed)
            fit, _ = fit_misalignment(data, source, detector, 0.1904)
            assert abs(fit - 0.003) <= 0.2 * 0.003, f"seed {seed}: fit {fit}"

    def test_empty_dataset_rejected(self, source, detector):
        with pytest.raises(ValueError):
            fit_misalignment([], source, detector, 0.1904)


class TestAsymptoticRate:
    def test_baseline_rate(self, source, detector):
        res = asymptotic_rate(source, ChannelModel(0.0), detector, ProtocolParams(p_x=0.5))
        assert res.rate_bps == pytest.approx(689e3, rel=0.15)

    def test_zero_when_multiphoton_dominates(self):
        src = SourceModel(0.01, 1.0, 1e8)  # p_m = 5e-5
        det = DetectorModel(0.6525, 1.47e-7, 0.0, 0.003)
        res = asymptotic_rate(src, ChannelModel(40.0), det, ProtocolParams())
        assert res.single_photon_fraction == 0.0
        assert res.rate_per_pulse == 0.0

    def test_zero_when_error_rate_maximal(self):
        # dark-count dominated: e -> 1/2 and the bracket goes negative
        src = SourceModel(1e-12, 0.0, 1e8)
        det = DetectorModel(0.6525, 1e-5, 0.0, 0.003)
        res = asymptotic_rate(src, ChannelModel(30.0), det, ProtocolParams())
        assert res.e_z == pytest.approx(0.5, abs=1e-4)
        assert res.rate_per_pulse == 0.0

    def test_bracket_zero_at_half_error(self):
        # dark-count dominated: e -> 1/2 drives the bracket negative, clamped to 0
        dark = asymptotic_rate(SourceModel(1e-12, 0.5, 1e8), ChannelModel(30.0),
                               DetectorModel(0.6525, 1e-5, 0.0, 0.003), ProtocolParams(p_x=0.7))
        assert 0.0 < dark.single_photon_fraction and dark.rate_per_pulse == 0.0
        # ideal point: A = 1 and e = 0, so the bracket is exactly 1
        protocol = ProtocolParams(p_x=0.7, att=0.6)
        ideal = asymptotic_rate(SourceModel(0.0142, 0.0, 160.7e6), ChannelModel(10.0),
                                DetectorModel(0.6525, 0.0, 27.5e-9, 0.0), protocol)
        assert ideal.e_z == 0.0 and ideal.single_photon_fraction == 1.0
        assert ideal.rate_per_pulse == protocol.sift_ratio * ideal.p_click

    @settings(max_examples=300, deadline=None)
    @given(mu=st.floats(0.0, 0.5), g2=st.floats(0.0, 1.0), eff=st.floats(0.01, 1.0),
           dark=st.floats(0.0, 1e-3), dead_time=st.floats(0.0, 1e-6),
           mis=st.floats(0.0, 0.49), loss=st.floats(0.0, 60.0), att=st.floats(1e-3, 1.0),
           p_x=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
           gap=st.floats(1e-9, 0.5))
    def test_rate_nondecreasing_in_p_x(self, mu, g2, eff, dark, dead_time, mis, loss, att,
                                       p_x, gap):
        # the asymptotic optimizer evaluates only the largest p_x of each att column
        assume(p_x + gap < 1.0)
        src = SourceModel(mu, g2, 160.7e6)
        det = DetectorModel(eff, dark, dead_time, mis)

        def rate(p):
            return asymptotic_rate(src, ChannelModel(loss), det,
                                   ProtocolParams(p_x=p, att=att)).rate_per_pulse

        assert rate(p_x) <= rate(p_x + gap)

    def test_single_photon_fraction_range(self, source, detector):
        for loss in (0.0, 10.0, 20.0, 30.0):
            res = asymptotic_rate(source, ChannelModel(loss), detector, ProtocolParams())
            assert 0.0 <= res.single_photon_fraction <= 1.0

    def test_fraction_is_one_for_ideal_source(self, detector):
        src = SourceModel(0.0142, 0.0, 160.7e6)
        res = asymptotic_rate(src, ChannelModel(10.0), detector, ProtocolParams())
        assert res.single_photon_fraction == 1.0

    @pytest.mark.parametrize("knob", ["loss", "dark", "mis", "g2"])
    def test_rate_nonincreasing(self, knob):
        def rate(loss=10.0, dark=1.47e-7, mis=0.003, g2=0.036):
            src = SourceModel(0.0142, g2, 160.7e6)
            det = DetectorModel(0.6525, dark, 27.5e-9, mis)
            return asymptotic_rate(src, ChannelModel(loss), det, ProtocolParams()).rate_per_pulse

        worse, better = {
            "loss": (rate(loss=25.0), rate(loss=5.0)),
            "dark": (rate(dark=1e-5), rate(dark=1e-8)),
            "mis": (rate(mis=0.05), rate(mis=0.001)),
            "g2": (rate(g2=0.5), rate(g2=0.01)),
        }[knob]
        assert worse <= better

    def test_attenuation_extends_zero_rate_threshold(self, source, detector):
        # at a loss past the no-attenuation boundary, some att < 1 still
        # yields a positive rate; ordering of the thresholds follows
        loss = ChannelModel(33.8)
        plain = asymptotic_rate(source, loss, detector, ProtocolParams(att=1.0))
        assert plain.rate_per_pulse == 0.0
        attenuated = asymptotic_rate(source, loss, detector, ProtocolParams(att=0.4))
        assert attenuated.rate_per_pulse > 0.0

    def test_rate_scales_with_sift_ratio(self, source, detector):
        ch = ChannelModel(5.0)
        r_half = asymptotic_rate(source, ch, detector, ProtocolParams(p_x=0.5))
        r_biased = asymptotic_rate(source, ch, detector, ProtocolParams(p_x=0.9))
        ratio = ProtocolParams(p_x=0.9).sift_ratio / 0.5
        assert r_biased.rate_per_pulse == pytest.approx(r_half.rate_per_pulse * ratio,
                                                        rel=1e-12)
