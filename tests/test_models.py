import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bb84rate import (ChannelModel, DetectorModel, ProtocolParams, SourceModel,
                      click_error_probs, dead_time_corrected_click)

# High-precision oracle values (mpmath, 40 digits): the raw click sum and
# dead-time corrected click probability at 0 dB for the baseline system.
F_BASELINE_0DB = 0.0092641003473741577512015
PC_BASELINE_0DB = 0.0089130261347373017058415
PE_BASELINE_0DB = 2.680837087790518637165809e-05


def baseline_source():
    return SourceModel(0.0142, 0.036, 160.7e6)


class TestSourceModel:
    def test_multiphoton_bound_baseline(self):
        # quoted estimate: 3.63e-6, +-1 in the last digit
        src = baseline_source()
        p_m = src.multiphoton_prob
        assert abs(p_m - 3.63e-6) <= 1e-8
        assert p_m == pytest.approx(0.036 * 0.0142**2 / 2, rel=1e-15)
        assert src.photon_probs[2] == p_m

    def test_zero_g2(self):
        src = SourceModel(0.0142, 0.0, 1e6)
        p0, p1, p2 = src.photon_probs
        assert p2 == 0.0
        assert p1 == pytest.approx(0.0142, abs=1e-18)
        assert p0 == pytest.approx(0.9858, abs=1e-12)
        assert src.multiphoton_prob == 0.0

    def test_direct_arithmetic(self):
        # independently: p2 = 0.1*0.25/2 = 0.0125, p1 = 0.5-0.025, p0 = rest
        p0, p1, p2 = SourceModel(0.5, 0.1, 1e6).photon_probs
        assert p2 == pytest.approx(0.0125, abs=1e-15)
        assert p1 == pytest.approx(0.475, abs=1e-15)
        assert p0 == pytest.approx(0.5125, abs=1e-15)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            SourceModel(1.0, 0.036, 1e6)
        with pytest.raises(ValueError):
            SourceModel(0.0142, 1.5, 1e6)
        with pytest.raises(ValueError):
            SourceModel(0.0142, 0.036, 0.0)

    @given(st.floats(min_value=0.0, max_value=0.999),
           st.floats(min_value=0.0, max_value=1.0))
    def test_distribution_invariants(self, nbar, g2):
        src = SourceModel(nbar, g2, 1e6)
        p0, p1, p2 = src.photon_probs
        assert p0 + p1 + p2 == pytest.approx(1.0, abs=1e-12)
        assert p1 + 2.0 * p2 == pytest.approx(nbar, abs=1e-15)
        # g2 recomputed from the distribution: sum n(n-1) p_n / <n>^2
        if nbar > 1e-6:
            g2_back = 2.0 * p2 / nbar**2
            assert g2_back == pytest.approx(g2, abs=1e-12)
        # truncated distribution saturates the multiphoton bound exactly
        assert p2 == src.multiphoton_prob


class TestChannel:
    def test_transmittance(self):
        assert ChannelModel(0.0).transmittance == 1.0
        assert ChannelModel(10.0).transmittance == pytest.approx(0.1, rel=1e-15)
        assert ChannelModel.from_fiber(100.0, 0.1904).loss_db == pytest.approx(19.04)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(-1.0)
        with pytest.raises(ValueError):
            ChannelModel.from_fiber(10.0, 0.0)
        for loss_per_km in (math.inf, math.nan):
            with pytest.raises(ValueError, match="loss_per_km_db must be finite"):
                ChannelModel.from_fiber(0.0, loss_per_km)
        # an infinite or NaN length once reached the loss_db check and named loss_db
        for length in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^length_km must be finite, got {length}$"):
                ChannelModel.from_fiber(length, 0.1904)


class TestProtocolParams:
    def test_sift_ratio(self):
        assert ProtocolParams(p_x=0.5).sift_ratio == 0.5
        p = ProtocolParams(p_x=0.9)
        assert p.sift_ratio == pytest.approx(0.81 + 0.01)


class TestRawClickProb:
    # with no dead time, the click probability is the raw click sum
    def test_vacuum_no_dark(self):
        det = DetectorModel(det_efficiency=1.0, dark_count_prob=0.0)
        p_c, _ = click_error_probs(SourceModel(0.0, 0.0, 1e6), ChannelModel(0.0), det)
        assert p_c == 0.0

    def test_every_nonvacuum_pulse_clicks(self):
        src = baseline_source()
        det = DetectorModel(det_efficiency=1.0, dark_count_prob=0.0)
        f, _ = click_error_probs(src, ChannelModel(0.0), det, att=1.0)
        p0 = src.photon_probs[0]
        assert f == pytest.approx(1.0 - p0, rel=1e-15)

    def test_baseline_against_high_precision_oracle(self, detector):
        f, _ = click_error_probs(baseline_source(), ChannelModel(0.0),
                                 replace(detector, dead_time=0.0))
        assert f == pytest.approx(F_BASELINE_0DB, rel=1e-14)


class TestDeadTime:
    def test_no_dead_time(self):
        assert dead_time_corrected_click(0.3, 160.7e6, 0.0) == 0.3

    def test_no_clicks(self):
        assert dead_time_corrected_click(0.0, 160.7e6, 27.5e-9) == 0.0

    def test_root_residual(self):
        # p_c must satisfy p_c * (1 + R*tau*p_c) = f to machine accuracy
        rt = 160.7e6 * 27.5e-9
        f = 0.01
        p = dead_time_corrected_click(f, 160.7e6, 27.5e-9)
        assert abs(p * (1.0 + rt * p) - f) < 1e-12

    def test_baseline_oracle(self, detector):
        p = dead_time_corrected_click(F_BASELINE_0DB, 160.7e6, 27.5e-9)
        assert p == pytest.approx(PC_BASELINE_0DB, rel=1e-14)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=100.0))
    def test_suppression_and_small_limit(self, f, rt):
        p = dead_time_corrected_click(f, 1.0, rt)
        assert p <= f + 1e-15
        if rt * f < 1e-8:
            assert p == pytest.approx(f, rel=1e-7)


    @pytest.mark.parametrize("f, rep_rate, dead_time, message", [
        (-0.1, 1e6, 1e-9, "f must be in [0, 1], got -0.1"),
        (1.5, 1e6, 1e-9, "f must be in [0, 1], got 1.5"),
        (0.5, -1.0, 2.0, "rep_rate * dead_time must be >= 0, got -2.0"),
    ])
    def test_rejects_inputs_outside_the_model(self, f, rep_rate, dead_time, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dead_time_corrected_click(f, rep_rate, dead_time)


class TestErrorProb:
    @pytest.mark.parametrize("misalignment", [0.5, 0.75])
    def test_misalignment_of_one_half_or_more_rejected(self, misalignment):
        message = f"misalignment must be in [0, 0.5), got {misalignment}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DetectorModel(0.5, 0.0, misalignment=misalignment)

    @pytest.mark.parametrize("att", [0.0, -0.5, 1.5, math.nan])
    def test_att_outside_the_unit_interval_rejected(self, source, detector, att):
        message = f"att must be in (0, 1], got {att}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            click_error_probs(source, ChannelModel(0.0), detector, att)

    def test_no_error_sources(self):
        det = DetectorModel(det_efficiency=0.6525, dark_count_prob=0.0, misalignment=0.0)
        _, p_e = click_error_probs(baseline_source(), ChannelModel(10.0), det)
        assert p_e == 0.0

    def test_dark_count_limit_is_half(self):
        # signal -> 0 with darks present: half the clicks are errors
        src = SourceModel(1e-12, 0.0, 1e6)
        det = DetectorModel(det_efficiency=0.5, dark_count_prob=1e-6, misalignment=0.003)
        p_c, p_e = click_error_probs(src, ChannelModel(30.0), det)
        assert p_e / p_c == pytest.approx(0.5, abs=1e-5)

    def test_baseline_oracle(self, source, detector):
        _, p_e = click_error_probs(source, ChannelModel(0.0), detector)
        assert p_e == pytest.approx(PE_BASELINE_0DB, rel=1e-14)

    @given(loss_db=st.floats(min_value=0.0, max_value=40.0),
           att=st.floats(min_value=0.01, max_value=1.0))
    def test_qber_within_physical_band(self, source, detector, loss_db, att):
        p_c, p_e = click_error_probs(source, ChannelModel(loss_db), detector, att)
        qber = p_e / p_c
        assert detector.misalignment - 1e-12 <= qber <= 0.5

    @settings(max_examples=300)
    @given(nbar=st.floats(min_value=1e-6, max_value=0.99),
           g2=st.floats(min_value=0.0, max_value=1.0),
           det_eff=st.floats(min_value=1e-3, max_value=1.0),
           dark=st.sampled_from([0.0, 1e-9, 1.47e-7, 1e-3]),
           dead=st.sampled_from([0.0, 27.5e-9]),
           loss_db=st.floats(min_value=0.0, max_value=60.0),
           att=st.floats(min_value=0.01, max_value=1.0),
           # misalignments below 1e-6 would push the error sum into
           # subnormal floats, where relative precision is lost
           p_mis=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.499)))
    def test_qber_affine_in_misalignment(self, nbar, g2, det_eff, dark, dead, loss_db, att,
                                         p_mis):
        # fit_misalignment's closed form relies on e = a + (1 - 2a) * p_mis,
        # with a the QBER at misalignment 0
        src = SourceModel(nbar, g2, 160.7e6)
        ch = ChannelModel(loss_db)
        p_c0, p_e0 = click_error_probs(src, ch, DetectorModel(det_eff, dark, dead, 0.0), att)
        p_c, p_e = click_error_probs(src, ch, DetectorModel(det_eff, dark, dead, p_mis), att)
        a = p_e0 / p_c0
        assert p_e / p_c == pytest.approx(a + (1.0 - 2.0 * a) * p_mis, rel=1e-12, abs=0.0)


class TestMonotonicity:
    @pytest.mark.parametrize("knob", ["loss", "det_eff", "att", "nbar", "dark"])
    def test_click_prob_monotone(self, knob):
        def p_click(loss=10.0, det_eff=0.6525, att=1.0, nbar=0.0142, dark=1.47e-7,
                    dead=27.5e-9):
            src = SourceModel(nbar, 0.036, 160.7e6)
            det = DetectorModel(det_eff, dark, dead, 0.003)
            return click_error_probs(src, ChannelModel(loss), det, att)[0]

        lo, hi = {
            "loss": (p_click(loss=20.0), p_click(loss=10.0)),      # less loss, more clicks
            "det_eff": (p_click(det_eff=0.3), p_click(det_eff=0.9)),
            "att": (p_click(att=0.3), p_click(att=1.0)),
            "nbar": (p_click(nbar=0.005), p_click(nbar=0.05)),
            "dark": (p_click(dark=1e-8), p_click(dark=1e-6)),
        }[knob]
        assert lo <= hi

    def test_click_prob_nonincreasing_in_dead_time(self, source):
        det_fast = DetectorModel(0.6525, 1.47e-7, 0.0, 0.003)
        det_slow = DetectorModel(0.6525, 1.47e-7, 100e-9, 0.003)
        ch = ChannelModel(0.0)
        assert (click_error_probs(source, ch, det_slow)[0]
                <= click_error_probs(source, ch, det_fast)[0])
