import dataclasses
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bb84rate import optimize
from bb84rate import (ChannelModel, DetectorModel, NoPositiveRateError, OptimizationConfig,
                      OptimizedPoint, ProtocolParams, SecurityParams, SourceModel,
                      asymptotic_rate, finite_key_length, expected_counts, click_error_probs,
                      max_tolerable_loss, optimize_point)
from bb84rate.entropy import binary_entropy
from bb84rate.finitekey import _ell, _secret
from bb84rate.models import _link


class TestConfigValidation:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            OptimizationConfig(p_x_range=(0.4, 0.9))
        with pytest.raises(ValueError):
            OptimizationConfig(att_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            OptimizationConfig(grid_resolution=1)
        with pytest.raises(ValueError):
            OptimizationConfig(loss_bisection_tol_db=0.0)


class TestOptimizePoint:
    def test_no_attenuation_optimal_at_zero_loss(self, source, detector, fast_opt):
        point = optimize_point(source, ChannelModel(0.0), detector, fast_opt,
                               mode="asymptotic")
        assert point.att == 1.0
        # exhaustive fine grid over att confirms the incumbent
        best = max(
            asymptotic_rate(source, ChannelModel(0.0), detector,
                            ProtocolParams(p_x=point.p_x, att=a / 200.0)).rate_per_pulse
            for a in range(1, 201)
        )
        assert point.rate_per_pulse >= best - 1e-15

    def test_asymptotic_bias_goes_to_range_top(self, source, detector, fast_opt):
        point = optimize_point(source, ChannelModel(10.0), detector, fast_opt,
                               mode="asymptotic")
        assert point.p_x == fast_opt.p_x_range[1]

    @pytest.mark.parametrize("loss, g2, att_range", [
        (10.0, 0.036, (0.01, 1.0)),
        (33.8, 0.036, (0.05, 1.0)),
        (33.8, 0.3, (0.2, 0.9)),
        (60.0, 0.036, (0.01, 1.0)),  # zero everywhere: the tie-break decides
    ])
    def test_asymptotic_search_is_the_full_grid_maximum(self, detector, loss, g2, att_range):
        # the asymptotic search pins p_x to the top of its range; it must
        # still return the (rate, p_x, att) maximum of the full grid
        src = SourceModel(0.0142, g2, 160.7e6)
        ch = ChannelModel(loss)
        cfg = OptimizationConfig(p_x_range=(0.6, 0.97), att_range=att_range,
                                 grid_resolution=9, refinement_rounds=0)
        p_xs = optimize._linspace(*cfg.p_x_range, cfg.grid_resolution)
        atts = optimize._linspace(*att_range, cfg.grid_resolution)
        best = max((asymptotic_rate(src, ch, detector, ProtocolParams(p_x=p_x, att=att))
                    .rate_per_pulse, p_x, att) for p_x in p_xs for att in atts)
        point = optimize_point(src, ch, detector, cfg, mode="asymptotic")
        assert (point.rate_per_pulse, point.p_x, point.att) == best

    def test_deterministic(self, source, detector, fast_opt):
        kw = dict(mode="finite", n_sent=160.7e6 * 10.0)
        a = optimize_point(source, ChannelModel(19.04), detector, fast_opt, **kw)
        b = optimize_point(source, ChannelModel(19.04), detector, fast_opt, **kw)
        assert (a.p_x, a.att, a.rate_per_pulse) == (b.p_x, b.att, b.rate_per_pulse)

    def test_all_zero_grid_returns_tiebreak_default(self, source, detector, fast_opt):
        # far past any boundary: every grid point is rate zero
        point = optimize_point(source, ChannelModel(59.0), detector, fast_opt,
                               mode="finite", n_sent=1e6)
        assert point.rate_per_pulse == 0.0
        assert point.p_x == fast_opt.p_x_range[1]
        assert point.att == 1.0

    @pytest.mark.parametrize("block", [{"n_sent": 1e10}, {"n_received": 1e6}],
                             ids=["n_sent", "n_received"])
    def test_column_that_never_clicks_has_no_result(self, source, fast_opt, block):
        # without dark counts the transmittance 10**-400 underflows to 0, so
        # no column clicks: the tie-break corner wins at rate 0, with no result
        det = DetectorModel(0.6525, 0.0, 27.5e-9, 0.003)
        point = optimize_point(source, ChannelModel(4000.0), det, fast_opt, mode="finite",
                               **block)
        assert point == OptimizedPoint(fast_opt.p_x_range[1], 1.0, 0.0, 0.0, None)

    def test_optimization_never_loses_to_defaults(self, source, detector, fast_opt):
        ch = ChannelModel(19.04)
        n_sent = 160.7e6 * 60.0
        point = optimize_point(source, ch, detector, fast_opt, mode="finite", n_sent=n_sent)
        p_c, p_e = click_error_probs(source, ch, detector, 1.0)
        counts = expected_counts(source, ch, detector, ProtocolParams(p_x=0.5), n_sent)
        from bb84rate import SecurityParams
        default = finite_key_length(counts, SecurityParams(), p_e / p_c)
        assert point.rate_per_pulse >= default.rate

    def test_fixed_axes(self, source, detector, fast_opt):
        point = optimize_point(source, ChannelModel(5.0), detector, fast_opt,
                               mode="asymptotic", fixed_p_x=0.5, fixed_att=0.7)
        assert point.p_x == 0.5 and point.att == 0.7

    def test_linspace_ends_on_the_range_end(self):
        # lo + (k - 1) * step alone can round past hi (1.0000000000000002 at
        # lo = 0.08, k = 4), which ProtocolParams rejects as an att
        for lo in (i / 100 for i in range(1, 100)):
            for k in range(2, 40):
                grid = optimize._linspace(lo, 1.0, k)
                assert grid[0] == lo and grid[-1] == 1.0

    @settings(max_examples=100, deadline=None)
    @given(p_x_range=st.lists(st.floats(0.501, 0.999), min_size=2, max_size=2).map(sorted),
           att_range=st.lists(st.floats(0.01, 1.0) | st.just(1.0), min_size=2, max_size=2)
           .map(sorted),
           grid_resolution=st.integers(2, 9), refinement_rounds=st.integers(0, 4),
           shrink_factor=st.floats(1.5, 6.0), loss=st.floats(0.0, 40.0),
           mode=st.sampled_from(["asymptotic", "finite"]),
           fixed_p_x=st.none() | st.floats(0.501, 0.999),
           fixed_att=st.none() | st.floats(0.01, 1.0))
    def test_result_stays_in_range_and_a_pin_is_a_one_value_range(
            self, source, detector, p_x_range, att_range, grid_resolution, refinement_rounds,
            shrink_factor, loss, mode, fixed_p_x, fixed_att):
        def optimize_with(p_x_range, att_range, **pins):
            cfg = OptimizationConfig(p_x_range=tuple(p_x_range), att_range=tuple(att_range),
                                     grid_resolution=grid_resolution,
                                     refinement_rounds=refinement_rounds,
                                     shrink_factor=shrink_factor)
            n = {"n_sent": 1e10} if mode == "finite" else {}
            return optimize_point(source, ChannelModel(loss), detector, cfg, mode=mode,
                                  **n, **pins)

        point = optimize_with(p_x_range, att_range, fixed_p_x=fixed_p_x, fixed_att=fixed_att)
        if fixed_p_x is None:
            assert p_x_range[0] <= point.p_x <= p_x_range[1]
        else:
            assert point.p_x == fixed_p_x
        if fixed_att is None:
            assert att_range[0] <= point.att <= att_range[1]
        else:
            assert point.att == fixed_att
        ranged = optimize_with(p_x_range if fixed_p_x is None else (fixed_p_x, fixed_p_x),
                               att_range if fixed_att is None else (fixed_att, fixed_att))
        assert (ranged.p_x, ranged.att, ranged.rate_per_pulse) \
            == (point.p_x, point.att, point.rate_per_pulse)

    def test_argument_validation(self, source, detector, fast_opt):
        with pytest.raises(ValueError):
            optimize_point(source, ChannelModel(0.0), detector, fast_opt, mode="finite")
        with pytest.raises(ValueError):
            optimize_point(source, ChannelModel(0.0), detector, fast_opt,
                           mode="finite", n_sent=1.0, n_received=1.0)
        with pytest.raises(ValueError):
            optimize_point(source, ChannelModel(0.0), detector, fast_opt,
                           mode="asymptotic", n_sent=1.0)
        with pytest.raises(ValueError):
            optimize_point(source, ChannelModel(0.0), detector, fast_opt, mode="other")

    @pytest.mark.parametrize("block", ["n_sent", "n_received"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_rejects_a_block_that_is_not_finite_and_non_negative(
            self, source, detector, fast_opt, block, value):
        with pytest.raises(ValueError, match=f"^{block} must be finite and >= 0, got {value}$"):
            optimize_point(source, ChannelModel(0.0), detector, fast_opt, mode="finite",
                           **{block: value})

    def test_all_zero_grid_computes_one_key_length(self, source, detector, monkeypatch):
        # at the default loss cap no column keeps a point: the walk finds no
        # positive point, and the tie-break point's key length is the only one
        calls = 0
        original = optimize.finite_key_length

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(optimize, "finite_key_length", counted)
        cfg = OptimizationConfig()
        ch = ChannelModel(cfg.loss_cap_db)
        n_sent = source.rep_rate * 60.0
        point = optimize_point(source, ch, detector, cfg, mode="finite", n_sent=n_sent)
        assert calls == 1
        assert (point.rate_per_pulse, point.p_x, point.att) == (0.0, cfg.p_x_range[1], 1.0)
        p_c, p_e = click_error_probs(source, ch, detector, 1.0)
        counts = expected_counts(source, ch, detector,
                                 ProtocolParams(p_x=cfg.p_x_range[1], att=1.0), n_sent)
        top = original(counts, SecurityParams(), p_e / p_c)
        assert repr(point.result) == repr(top)

    def test_internal_counts_match_expected_counts(self, source, detector, fast_opt):
        ch = ChannelModel(19.04)
        point = optimize_point(source, ch, detector, fast_opt, mode="finite",
                               n_sent=1e9)
        reference = expected_counts(source, ch, detector,
                                    ProtocolParams(p_x=point.p_x, att=point.att), 1e9)
        got = point.result.counts
        assert got.n_rx_x == reference.n_rx_x
        assert got.n_rx_z == reference.n_rx_z
        assert got.m_z == reference.m_z
        assert got.n_mp_star_x == reference.n_mp_star_x
        assert got.n_mp_star_z == reference.n_mp_star_z

    def test_received_block_mode(self, source, detector, fast_opt):
        point = optimize_point(source, ChannelModel(0.0), detector, fast_opt,
                               mode="finite", n_received=1e6)
        assert point.rate_per_pulse > 0.0
        # the resolved pulse count reproduces the requested received block
        p_c, _ = click_error_probs(source, ChannelModel(0.0), detector, point.att)
        assert point.result.counts.n_sent * p_c == pytest.approx(1e6, rel=1e-9)


class TestMaxTolerableLoss:
    def test_boundary_bracketing(self, source, detector):
        cfg = OptimizationConfig(grid_resolution=8, refinement_rounds=1,
                                 loss_bisection_tol_db=0.05)
        n_sent = 160.7e6 * 1.0
        boundary = max_tolerable_loss(source, detector, cfg, mode="finite", n_sent=n_sent)

        def rate(loss):
            return optimize_point(source, ChannelModel(loss), detector, cfg,
                                  mode="finite", n_sent=n_sent).rate_per_pulse

        assert rate(boundary - cfg.loss_bisection_tol_db) > 0.0
        assert rate(boundary + cfg.loss_bisection_tol_db) == 0.0

    def test_noiseless_trivial_case_hits_cap(self):
        # no dark counts, no multiphoton noise: QBER stays at p_mis and the
        # rate is positive at any finite loss, so the search reports the cap
        src = SourceModel(0.0142, 0.0, 160.7e6)
        det = DetectorModel(0.6525, 0.0, 0.0, 0.003)
        cfg = OptimizationConfig(grid_resolution=6, refinement_rounds=0, loss_cap_db=40.0)
        boundary = max_tolerable_loss(src, det, cfg, mode="asymptotic", optimize_params=False)
        assert boundary == 40.0

    def test_zero_rate_at_zero_loss_raises(self, source):
        deaf = DetectorModel(0.6525, 0.4, 0.0, 0.45)
        with pytest.raises(NoPositiveRateError):
            max_tolerable_loss(source, deaf, OptimizationConfig(grid_resolution=6,
                                                                refinement_rounds=0),
                               mode="asymptotic", optimize_params=False)

    def test_nondecreasing_in_acquisition_time(self, source, detector):
        cfg = OptimizationConfig(grid_resolution=8, refinement_rounds=1,
                                 loss_bisection_tol_db=0.05)
        short = max_tolerable_loss(source, detector, cfg, mode="finite",
                                   n_sent=160.7e6 * 1.0)
        long = max_tolerable_loss(source, detector, cfg, mode="finite",
                                  n_sent=160.7e6 * 60.0)
        assert long >= short - 2 * cfg.loss_bisection_tol_db
        assert long > short

    def test_tolerance_below_double_spacing_terminates(self, source, detector, monkeypatch):
        # once lo and hi are adjacent doubles the midpoint equals one of them;
        # the search must stop there instead of probing forever
        probes = 0
        original = optimize._incumbents

        def counted(*args, **kwargs):
            nonlocal probes
            probes += 1
            if probes > 200:
                raise AssertionError("loss bisection does not terminate")
            return original(*args, **kwargs)

        monkeypatch.setattr(optimize, "_incumbents", counted)
        tiny = dict(grid_resolution=6, refinement_rounds=1)
        exact = max_tolerable_loss(source, detector,
                                   OptimizationConfig(**tiny, loss_bisection_tol_db=1e-300),
                                   mode="asymptotic")
        coarse = max_tolerable_loss(source, detector,
                                    OptimizationConfig(**tiny, loss_bisection_tol_db=0.01),
                                    mode="asymptotic")
        assert abs(exact - coarse) <= 0.01

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="near a short-block finite boundary the optimized rate is not "
                              "nonincreasing in loss (CHANGES.md FOUND line)")
    def test_bracketing_promise_at_a_short_block(self):
        # the docstring's promise: positive at boundary - tol, zero at boundary + tol.
        # Here the rate is 0 at boundary - 0.01 dB but 3 bits at boundary - 0.005 dB.
        src = SourceModel(0.026010892651406624, 0.10364787239782516, 8e7)
        det = DetectorModel(0.8508240973508399, 2.8005031411394388e-08, 0.0,
                            0.040108807836252175)
        cfg = OptimizationConfig(p_x_range=(0.6964696848807903, 0.9369112796612679),
                                 att_range=(0.4506496063336751, 1.0), grid_resolution=7,
                                 refinement_rounds=1, shrink_factor=3.484966717927988)
        kw = dict(mode="finite", sec=SecurityParams(eps_prime=3.871260772582908e-13),
                  n_sent=1082928.421075916)
        boundary = max_tolerable_loss(src, det, cfg, **kw)

        def rate(loss):
            return optimize_point(src, ChannelModel(loss), det, cfg, **kw).rate_per_pulse

        assert rate(boundary - cfg.loss_bisection_tol_db) > 0.0
        assert rate(boundary + cfg.loss_bisection_tol_db) == 0.0


sources = st.builds(SourceModel, st.floats(0.005, 0.1), st.floats(0.0, 0.3),
                    st.floats(1e6, 1e9))
detectors = st.builds(DetectorModel, st.floats(0.05, 1.0), st.floats(0.0, 1e-5),
                      st.floats(0.0, 1e-7), st.floats(0.0, 0.1))
securities = st.builds(SecurityParams, st.floats(-15.0, -3.0).map(lambda x: 10.0**x),
                       eps_cor=st.floats(-20.0, -3.0).map(lambda x: 10.0**x))


def finite_column(src, ch, det, att, sec, n_sent=None, n_received=None):
    return optimize._column_maker(src, ch, det, "finite", sec, n_sent, n_received)(att)


class TestLossProbe:
    @settings(max_examples=100, deadline=None)
    @given(src=sources, det=detectors, sec=securities,
           p_x_range=st.lists(st.floats(0.501, 0.999), min_size=2, max_size=2).map(sorted),
           att_range=st.lists(st.floats(0.01, 1.0) | st.just(1.0), min_size=2, max_size=2)
           .map(sorted),
           grid_resolution=st.integers(2, 9), refinement_rounds=st.integers(0, 4),
           shrink_factor=st.floats(1.5, 6.0), mode=st.sampled_from(["asymptotic", "finite"]),
           log_n_sent=st.floats(4.0, 12.0),
           pins=st.none() | st.tuples(st.floats(0.5, 0.999), st.floats(0.01, 1.0)),
           loss=st.floats(0.0, 35.0))
    def test_probe_answers_whether_the_optimum_is_positive(
            self, src, det, sec, p_x_range, att_range, grid_resolution, refinement_rounds,
            shrink_factor, mode, log_n_sent, pins, loss):
        cfg = OptimizationConfig(p_x_range=tuple(p_x_range), att_range=tuple(att_range),
                                 grid_resolution=grid_resolution,
                                 refinement_rounds=refinement_rounds,
                                 shrink_factor=shrink_factor)
        n_sent = 10.0**log_n_sent if mode == "finite" else None
        pinned = {} if pins is None else {"fixed_p_x": pins[0], "fixed_att": pins[1]}
        kw = dict(mode=mode, sec=sec, n_sent=n_sent, **pinned)
        try:
            positive = optimize_point(src, ChannelModel(loss), det, cfg,
                                      **kw).rate_per_pulse > 0.0
        except (ValueError, ArithmeticError):
            return  # the models reject this operating point
        # the probe of max_tolerable_loss: the walk's first positive yield
        column_at = optimize._column_maker(src, ChannelModel(loss), det, mode, sec, n_sent, None)
        first = next((found for found in optimize._incumbents(column_at, cfg, **pinned)
                      if found[0] > 0.0), None)
        assert (first is not None) == positive
        if first is not None:
            # the answer is a grid point whose own rate is positive
            alone = optimize_point(src, ChannelModel(loss), det, cfg, **{
                **kw, "fixed_p_x": first[1], "fixed_att": first[2]})
            assert alone.rate_per_pulse > 0.0

    @settings(max_examples=200, deadline=None)
    @given(src=sources, det=detectors, sec=securities, loss=st.floats(0.0, 35.0),
           att=st.floats(0.01, 1.0), p_x=st.floats(0.5, 0.999),
           log_n_sent=st.floats(4.0, 13.0))
    def test_column_screen_bounds_the_key_length(self, src, det, sec, loss, att, p_x,
                                                 log_n_sent):
        n_sent = 10.0**log_n_sent
        try:
            column = finite_column(src, ChannelModel(loss), det, att, sec, n_sent,
                                            None)
            ell = column.result(p_x)[1].ell
        except (ValueError, ArithmeticError):
            return
        consts = 2.0 * math.log2(1.0 / (2.0 * sec.eps_pa)) + math.log2(2.0 / sec.eps_cor)
        assert ell <= max(0.0, n_sent * p_x**2 * column.p_c * column.bracket - consts)
        # the walk's first incumbent: rate 0 at the top corner
        if column.candidates([p_x], (0.0, p_x, att)) == []:
            assert ell == 0


def exhaustive_walk(src, ch, det, cfg, *, mode, sec=SecurityParams(), n_sent=None,
                    n_received=None, fixed_p_x=None, fixed_att=None):
    """optimize_point without bounds: the exact rate at every grid point, in walk order.

    Every point's rate and result come from the column's result(), so from
    asymptotic_rate or finite_key_length. In asymptotic mode the p_x axis is
    the top of its range, where the rate of each att is largest.
    """
    column_at = optimize._column_maker(src, ch, det, mode, sec, n_sent, n_received)
    p_x_range = cfg.p_x_range if fixed_p_x is None else (fixed_p_x, fixed_p_x)
    if mode == "asymptotic":
        p_x_range = (p_x_range[1], p_x_range[1])
    att_range = cfg.att_range if fixed_att is None else (fixed_att, fixed_att)
    best = None
    for p_xs, atts in optimize._round_grids(cfg, (p_x_range, att_range), lambda: best[1:3]):
        for att in atts:
            column = column_at(att)
            for p_x in p_xs:
                rate, result = column.result(p_x)
                if best is None or (rate, p_x, att) > best[:3]:
                    best = (rate, p_x, att, result)
    rate, p_x, att, result = best
    return OptimizedPoint(p_x=p_x, att=att, rate_per_pulse=rate, rate_bps=rate * src.rep_rate,
                          result=result)


class TestBranchAndBound:
    @settings(max_examples=200, deadline=None)
    @given(src=sources, det=detectors, sec=securities,
           p_x_range=st.lists(st.floats(0.501, 0.999), min_size=2, max_size=2).map(sorted),
           att_range=st.lists(st.floats(0.01, 1.0) | st.just(1.0), min_size=2, max_size=2)
           .map(sorted),
           grid_resolution=st.integers(2, 9), refinement_rounds=st.integers(0, 4),
           shrink_factor=st.floats(1.5, 6.0), block=st.sampled_from(["n_sent", "n_received"]),
           log_n=st.floats(3.0, 12.0), fixed_p_x=st.none() | st.floats(0.5, 0.999),
           fixed_att=st.none() | st.floats(0.01, 1.0), loss=st.floats(0.0, 35.0))
    def test_optimize_point_equals_the_exhaustive_walk(
            self, src, det, sec, p_x_range, att_range, grid_resolution, refinement_rounds,
            shrink_factor, block, log_n, fixed_p_x, fixed_att, loss):
        # a skipped point could never have become the incumbent, so every
        # round's window and the result, FiniteKeyResult included, are those
        # of the walk that evaluates every point
        cfg = OptimizationConfig(p_x_range=tuple(p_x_range), att_range=tuple(att_range),
                                 grid_resolution=grid_resolution,
                                 refinement_rounds=refinement_rounds,
                                 shrink_factor=shrink_factor)
        kw = {"mode": "finite", "sec": sec, block: 10.0**log_n,
              "fixed_p_x": fixed_p_x, "fixed_att": fixed_att}
        try:
            reference = exhaustive_walk(src, ChannelModel(loss), det, cfg, **kw)
        except (ValueError, ArithmeticError):
            return  # the models reject a grid point
        assert repr(optimize_point(src, ChannelModel(loss), det, cfg, **kw)) == repr(reference)

    @settings(max_examples=300, deadline=None)
    @given(src=sources, det=detectors, sec=securities, loss=st.floats(0.0, 35.0),
           att=st.floats(0.01, 1.0), log_n_sent=st.floats(4.0, 13.0),
           p_x_range=st.lists(st.floats(0.501, 0.999), min_size=2, max_size=2).map(sorted),
           grid_resolution=st.integers(2, 32),
           beat=st.none() | st.tuples(st.floats(0.0, 1.5), st.floats(0.5, 1.0),
                                      st.floats(0.01, 1.0)))
    def test_bracket_cut_is_the_per_point_rule(self, src, det, sec, loss, att, log_n_sent,
                                               p_x_range, grid_resolution, beat):
        try:
            column = finite_column(src, ChannelModel(loss), det, att, sec,
                                            10.0**log_n_sent, None)
        except (ValueError, ArithmeticError):
            return
        p_xs = optimize._linspace(*p_x_range, grid_resolution)
        screened = column.p_c <= 0.0 or column.bracket <= 0.0
        # the walk's incumbent is a positive rate or its first one, rate 0 at the
        # top corner; a drawn rate is a fraction of the column's largest rate bound
        to_beat = (0.0, p_xs[-1], att)
        if beat is not None and not screened:
            rate = beat[0] * column.ell_bound(p_xs[-1]) / column.n_sent
            if rate > 0.0:
                to_beat = (rate, beat[1], beat[2])
        # the rule the cut replaces: skip a screened column, else test every point
        kept = [] if screened else [p_x for p_x in p_xs
                                    if column._beats(column.ell_bound(p_x), p_x, to_beat)]
        assert kept == p_xs[len(p_xs) - len(kept):]
        # the bracket suffix, or none when the interval bound over it proves it dead
        dead = kept != [] and not column._beats(column.interval_bound(kept[0], kept[-1]),
                                                kept[-1], to_beat)
        cut = column.candidates(p_xs, to_beat)
        assert cut == ([] if dead else kept)
        # past the cut the per-point bracket check never prunes, whichever
        # candidate becomes the incumbent
        best = to_beat
        for p_x in cut:
            assert column._beats(column.ell_bound(p_x), p_x, best)
            try:
                found = column.evaluate(p_x, best)
            except (ValueError, ArithmeticError):
                return
            if found is not None and (found, p_x, att) > best:
                best = (found, p_x, att)

    @settings(max_examples=200, deadline=None)
    @given(src=sources, det=detectors, sec=securities, loss=st.floats(0.0, 35.0),
           att=st.floats(0.01, 1.0), block=st.sampled_from(["n_sent", "n_received"]),
           log_n=st.floats(3.0, 13.0),
           p_x_range=st.lists(st.floats(0.501, 0.999), min_size=2, max_size=2).map(sorted),
           grid_resolution=st.integers(2, 32))
    def test_interval_bound_dominates_every_point_of_its_interval(
            self, src, det, sec, loss, att, block, log_n, p_x_range, grid_resolution):
        # the interval cut's bound over [a, b] >= the practical-leak bound that
        # evaluate() prunes with >= ell, at every grid point of the interval
        blocks = {"n_sent": None, "n_received": None, block: 10.0**log_n}
        try:
            column = finite_column(src, ChannelModel(loss), det, att, sec, **blocks)
        except (ValueError, ArithmeticError):
            return
        if column.p_c <= 0.0 or not math.isfinite(column.n_sent):
            return  # candidates() keeps no point of such a column
        p_xs = optimize._linspace(*p_x_range, grid_resolution)
        bound = column.interval_bound(p_xs[0], p_xs[-1])
        for p_x in p_xs:
            try:
                res = column.result(p_x)[1]
            except (ValueError, ArithmeticError):
                continue
            practical = 0
            if res.phi_x_upper < 0.5:
                leak = column.leak.fec * res.counts.n_rx_x * binary_entropy(column.e_x)
                practical = _ell(_secret(res.n_nmp_x, res.phi_x_upper), leak, sec._constants)
            assert res.ell <= practical <= bound

    def test_bracket_cut_keeps_the_column_screen(self, source):
        # a bracket of exactly 0 proves ell = 0 at every p_x, although the
        # slack of ell_bound leaves the bound positive at a large block
        sec = SecurityParams(eps_prime=1e-6, eps_cor=1e-6)

        def column(misalignment):
            det = DetectorModel(0.6525, 1.47e-7, 27.5e-9, misalignment)
            return finite_column(source, ChannelModel(0.0), det, 1.0, sec, 1e13, None)

        lo, hi = 0.0, 0.2  # bracket > 0 at lo, <= 0 at hi
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if column(mid).bracket > 0.0 else (lo, mid)
        edge = column(hi)
        p_xs = optimize._linspace(0.505, 0.995, 32)
        assert edge.bracket <= 0.0 < edge.ell_bound(p_xs[-1])
        assert edge.candidates(p_xs, (0.0, p_xs[-1], 1.0)) == []
        assert all(edge.result(p_x)[0] == 0.0 for p_x in p_xs)

    @settings(max_examples=200, deadline=None)
    @given(src=sources, det=detectors, sec=securities, loss=st.floats(0.0, 35.0),
           att=st.floats(0.01, 1.0), p_x=st.floats(0.5, 0.999),
           log_n_sent=st.floats(4.0, 13.0))
    def test_point_bounds_dominate_the_key_length(self, src, det, sec, loss, att, p_x,
                                                  log_n_sent):
        # the bounds the walk prunes with, cheapest first: column bound >= the
        # key length with the practical leak alone >= ell, with equality where
        # the practical leak wins
        try:
            column = finite_column(src, ChannelModel(loss), det, att, sec,
                                            10.0**log_n_sent, None)
            res = column.result(p_x)[1]
        except (ValueError, ArithmeticError):
            return
        practical_leak = column.leak.fec * res.counts.n_rx_x * binary_entropy(column.e_x)
        practical = 0
        if res.phi_x_upper < 0.5:
            practical = _ell(_secret(res.n_nmp_x, res.phi_x_upper), practical_leak,
                             sec._constants)
        assert res.ell <= practical <= column.ell_bound(p_x)
        if res.lambda_ec == practical_leak:
            assert practical == res.ell


class TestFiniteKernel:
    @settings(max_examples=400, deadline=None)
    @given(src=sources, det=detectors, sec=securities, loss=st.floats(0.0, 35.0),
           att=st.floats(0.01, 1.0), p_x=st.floats(0.5, 0.999),
           block=st.sampled_from(["n_sent", "n_received"]), log_n=st.floats(3.0, 13.0),
           beat=st.tuples(st.floats(0.0, 1.5), st.floats(0.5, 1.0), st.floats(0.01, 1.0)))
    def test_column_rate_is_finite_key_length_bit_for_bit(self, src, det, sec, loss, att, p_x,
                                                          block, log_n, beat):
        # the walk's float rate and the result optimize_point builds are one
        # computation: the same rate, or the same exception; and a bound prunes
        # only a point that cannot beat to_beat
        blocks = {"n_sent": None, "n_received": None, block: 10.0**log_n}
        try:
            column = finite_column(src, ChannelModel(loss), det, att, sec, **blocks)
        except (ValueError, ArithmeticError):
            return
        if column.p_c <= 0.0:
            return  # candidates() keeps no point of such a column
        try:
            expected = column.result(p_x)[0]
        except (ValueError, ArithmeticError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                column.evaluate(p_x)
            return
        assert column.evaluate(p_x).hex() == expected.hex()
        # a drawn incumbent whose rate is 0 to 1.5 times the point's
        to_beat = (beat[0] * expected, beat[1], beat[2])
        pruned = column.evaluate(p_x, to_beat)
        if pruned is None:
            assert (expected, p_x, att) <= to_beat
        else:
            assert pruned.hex() == expected.hex()

    def test_column_keeps_the_block_limit_of_the_inverse_cdf(self, source, detector):
        # the column's F^-1 raises inverse_binomial_cdf's error above 10**13
        # trials, as finite_key_length does, instead of walking from its anchor
        column = finite_column(source, ChannelModel(0.0), detector, 1.0,
                                        SecurityParams(), 1e17, None)
        with pytest.raises(ValueError, match=r"10\*\*13") as raised:
            column.result(0.9)
        with pytest.raises(ValueError, match=f"^{re.escape(str(raised.value))}$"):
            column.evaluate(0.9)


def asymptotic_column(src, ch, det, att):
    return optimize._column_maker(src, ch, det, "asymptotic", SecurityParams(), None, None)(att)


class TestAsymptoticKernel:
    @settings(max_examples=300, deadline=None)
    @given(src=sources, det=detectors, dead_time=st.floats(1e-10, 1e-7),
           loss=st.floats(0.0, 60.0), att=st.floats(0.0, 1.0, exclude_min=True),
           p_x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_column_rate_is_asymptotic_rate_bit_for_bit(self, src, det, dead_time, loss, att,
                                                        p_x):
        det = dataclasses.replace(det, dead_time=dead_time)
        ch = ChannelModel(loss)
        try:
            expected = asymptotic_rate(src, ch, det, ProtocolParams(p_x=p_x, att=att))
        except (ValueError, ArithmeticError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                asymptotic_column(src, ch, det, att).evaluate(p_x)
            return
        rate = asymptotic_column(src, ch, det, att).evaluate(p_x)
        assert rate.hex() == expected.rate_per_pulse.hex()

    @pytest.mark.parametrize("case, src, det, loss, att", [
        ("surv >= 1", SourceModel(0.0142, 0.036, 160.7e6),
         DetectorModel(1.0, 1.47e-7, 27.5e-9, 0.003), 0.0, 1.0),
        ("f == 0", SourceModel(0.0, 0.0, 160.7e6), DetectorModel(0.6525, 0.0, 27.5e-9, 0.003),
         10.0, 0.5),
        ("p_c <= p_m", SourceModel(0.9, 1.0, 160.7e6),
         DetectorModel(0.6525, 1.47e-7, 27.5e-9, 0.003), 30.0, 1.0),
    ])
    def test_edge_cases_are_asymptotic_rate_bit_for_bit(self, case, src, det, loss, att):
        ch = ChannelModel(loss)
        column = asymptotic_column(src, ch, det, att)
        hit = {"surv >= 1": _link(src, ch, det).t_eta * att >= 1.0,
               "f == 0": column.p_c == 0.0,
               "p_c <= p_m": 0.0 < column.p_c <= src.attenuated_multiphoton_prob(att)}
        assert hit[case]
        for p_x in (0.5, 0.7, 0.995):
            expected = asymptotic_rate(src, ch, det, ProtocolParams(p_x=p_x, att=att))
            assert column.evaluate(p_x).hex() == expected.rate_per_pulse.hex()
        cfg = OptimizationConfig(grid_resolution=5, refinement_rounds=2)
        for pins in ({}, {"fixed_att": att}):
            assert (repr(optimize_point(src, ch, det, cfg, mode="asymptotic", **pins))
                    == repr(exhaustive_walk(src, ch, det, cfg, mode="asymptotic", **pins)))

    @settings(max_examples=200, deadline=None)
    @given(src=sources, det=detectors,
           p_x_range=st.lists(st.floats(0.501, 0.999), min_size=2, max_size=2).map(sorted),
           att_range=st.lists(st.floats(0.01, 1.0) | st.just(1.0), min_size=2, max_size=2)
           .map(sorted),
           grid_resolution=st.integers(2, 9), refinement_rounds=st.integers(0, 4),
           shrink_factor=st.floats(1.5, 6.0), fixed_p_x=st.none() | st.floats(0.5, 0.999),
           fixed_att=st.none() | st.floats(0.01, 1.0), loss=st.floats(0.0, 60.0))
    def test_optimize_point_equals_the_exhaustive_walk(
            self, src, det, p_x_range, att_range, grid_resolution, refinement_rounds,
            shrink_factor, fixed_p_x, fixed_att, loss):
        # the walk that builds an AsymptoticResult at every grid point: the same
        # winner, rate and result, or the same exception
        cfg = OptimizationConfig(p_x_range=tuple(p_x_range), att_range=tuple(att_range),
                                 grid_resolution=grid_resolution,
                                 refinement_rounds=refinement_rounds,
                                 shrink_factor=shrink_factor)
        kw = {"mode": "asymptotic", "fixed_p_x": fixed_p_x, "fixed_att": fixed_att}
        try:
            reference = exhaustive_walk(src, ChannelModel(loss), det, cfg, **kw)
        except (ValueError, ArithmeticError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                optimize_point(src, ChannelModel(loss), det, cfg, **kw)
            return
        assert repr(optimize_point(src, ChannelModel(loss), det, cfg, **kw)) == repr(reference)

    @pytest.mark.parametrize("pins", [
        {"fixed_p_x": 1.0}, {"fixed_p_x": 0.0}, {"fixed_p_x": math.nan},
        {"fixed_att": 0.0}, {"fixed_att": 1.5}, {"fixed_att": math.nan},
        {"fixed_p_x": 1.2, "fixed_att": -1.0}, {"fixed_p_x": 1.5},
    ])
    def test_out_of_range_pin_raises_the_protocol_error(self, source, detector, pins):
        # the error the ProtocolParams of every evaluated point raised before
        # the float kernel, for a positive and for an all-zero grid; finite
        # points build none, and the walk's one check serves both modes
        with pytest.raises(ValueError) as expected:
            ProtocolParams(p_x=pins.get("fixed_p_x", 0.995), att=pins.get("fixed_att", 1.0))
        cfg = OptimizationConfig(grid_resolution=4, refinement_rounds=1)
        for mode in ({"mode": "asymptotic"}, {"mode": "finite", "n_sent": 1e10},
                     {"mode": "finite", "n_received": 1e6}):
            for loss in (5.0, 200.0):
                with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
                    optimize_point(source, ChannelModel(loss), detector, cfg, **mode, **pins)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="within about 2e-13 dB of a zero crossing the float rate can "
                              "rise with loss (CHANGES.md FOUND line)")
    @example(src=SourceModel(0.05102737864818693, 0.29565246894773933, 235405794.43616745),
             det=DetectorModel(0.7391919269292089, 8.468023041648421e-07,
                               1.6969414179438756e-08, 0.09109877835080679),
             p_x=0.6062711293007207, att=0.7615250208892758, loss=5.982426799805344,
             gap=0.0, ulps=1)
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(src=sources, det=detectors, p_x=st.floats(0.5, 0.999),
           att=st.floats(0.0, 1.0, exclude_min=True), loss=st.floats(0.0, 60.0),
           gap=st.floats(0.0, 60.0), ulps=st.integers(0, 4000))
    def test_asymptotic_rate_is_nonincreasing_in_loss(self, src, det, p_x, att, loss, gap,
                                                      ulps):
        # the precondition of the asymptotic loss bisection: with it, a point
        # positive at some loss is positive at every lower loss, so the probe is
        # monotone. The pinned example is zero at its loss and positive one
        # double above it.
        higher = loss + gap
        for _ in range(ulps):
            higher = math.nextafter(higher, math.inf)
        protocol = ProtocolParams(p_x=p_x, att=att)
        at_loss = asymptotic_rate(src, ChannelModel(loss), det, protocol).rate_per_pulse
        assert asymptotic_rate(src, ChannelModel(higher), det, protocol).rate_per_pulse <= at_loss


class TestSweeps:
    def test_distance_sweep_monotone(self, source, detector, fast_opt):
        rates = [optimize_point(source, ChannelModel.from_fiber(d), detector, fast_opt,
                                mode="asymptotic", fixed_p_x=0.5).rate_bps
                 for d in (0.0, 50.0, 100.0, 150.0, 175.0)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_block_size_sweep_nondecreasing(self, source, detector, fast_opt):
        rates = [optimize_point(source, ChannelModel(0.0), detector, fast_opt,
                                mode="finite", n_received=n).rate_per_pulse
                 for n in (1e5, 1e6, 1e7)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_acquisition_time_sweep(self, source, detector, fast_opt):
        points = [optimize_point(source, ChannelModel(19.04), detector, fast_opt,
                                 mode="finite", n_sent=source.rep_rate * t)
                  for t in (1.0, 10.0)]
        assert [point.result.counts.n_sent for point in points] == [source.rep_rate * 1.0,
                                                                    source.rep_rate * 10.0]
        assert points[1].rate_per_pulse >= points[0].rate_per_pulse
