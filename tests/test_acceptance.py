"""Acceptance suite: every headline figure at its stated tolerance.

Each criterion prints one PASS/FAIL line (run pytest -s to see them all;
failures also carry the measurement in the assertion message). Shared
expensive computations (loss boundaries) are session fixtures.
"""
import math
import time

import pytest

from bb84rate import (ChannelModel, DetectorModel, OptimizationConfig, ProtocolParams,
                      SourceModel, TrialConfig, asymptotic_rate, chernoff_coverage,
                      chernoff_upper, click_error_probs, expected_counts, binary_entropy,
                      finite_key_length, gamma_u, max_tolerable_loss, optimize_point,
                      sample_session,
                      sampling_bound_coverage)
from bb84rate.mc_oracle import run_oracle_suite

REP_RATE = 160.7e6
LOSS_PER_KM = 0.1904


def report(criterion: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} [{name}]: {status} — {detail}")
    assert passed, f"criterion {criterion} ({name}): {detail}"


@pytest.fixture(scope="module")
def boundaries(source, detector):
    """Asymptotic zero-rate boundaries without and with pre-attenuation."""
    t0 = time.monotonic()
    cfg = OptimizationConfig(grid_resolution=24, refinement_rounds=3)
    plain = max_tolerable_loss(source, detector, cfg, mode="asymptotic",
                               optimize_params=False)
    attenuated = max_tolerable_loss(source, detector, cfg, mode="asymptotic",
                                    optimize_params=True)
    return plain, attenuated, time.monotonic() - t0


def test_criterion_1_baseline_asymptotic_rate(source, detector):
    t0 = time.monotonic()
    res = asymptotic_rate(source, ChannelModel(0.0), detector, ProtocolParams(p_x=0.5))
    elapsed = time.monotonic() - t0
    kbps = res.rate_bps / 1e3
    ok = abs(kbps - 689.0) <= 0.15 * 689.0 and elapsed < 1.0
    report(1, "baseline asymptotic rate", ok,
           f"AKR(0 dB) = {kbps:.1f} kbps (target 689 +-15%), {elapsed * 1e3:.0f} ms")


def test_criterion_2_max_tolerable_loss_asymptotic(boundaries):
    plain, attenuated, elapsed = boundaries
    gain = attenuated - plain
    ok_plain = abs(plain - 33.3) <= 1.5
    ok_order = attenuated > plain
    ok_gain = abs(gain - 2.6) <= 1.0
    ok_time = elapsed < 10.0
    report(2, "asymptotic loss boundary", ok_plain and ok_order and ok_gain and ok_time,
           f"no-att {plain:.2f} dB (target 33.3 +-1.5: {'ok' if ok_plain else 'FAIL'}), "
           f"attenuated {attenuated:.2f} dB (ordering {'ok' if ok_order else 'FAIL'}), "
           f"gain {gain:.2f} dB (target 2.6 +-1.0: {'ok' if ok_gain else 'FAIL'}), "
           f"{elapsed:.1f} s (<10 s: {'ok' if ok_time else 'FAIL'})")


def test_criterion_3_finite_key_headline(source, detector, security):
    t0 = time.monotonic()
    ch = ChannelModel.from_fiber(100.0, LOSS_PER_KM)
    point = optimize_point(source, ch, detector, OptimizationConfig(), mode="finite",
                           sec=security, n_sent=REP_RATE * 60.0)
    elapsed = time.monotonic() - t0
    kbps = point.rate_bps / 1e3
    ok = abs(kbps - 13.0) <= 0.25 * 13.0 and elapsed < 60.0
    report(3, "100 km / 60 s finite rate", ok,
           f"{kbps:.2f} kbps (target 13 +-25%) at p_x={point.p_x:.3f}, "
           f"att={point.att:.3f}, {elapsed:.1f} s")


def test_criterion_4_asymptotic_approach(source, detector, security):
    ch = ChannelModel(0.0)
    cfg = OptimizationConfig()

    def ratio(n_received):
        point = optimize_point(source, ch, detector, cfg, mode="finite", sec=security,
                               n_received=n_received)
        matched = asymptotic_rate(source, ch, detector,
                                  ProtocolParams(p_x=point.p_x, att=point.att))
        return point.rate_per_pulse / matched.rate_per_pulse

    r_large = ratio(1e7)
    r_small = ratio(1e5)
    ok = r_large >= 0.9 and r_small < r_large and r_small < 1.0
    report(4, "finite-to-asymptotic convergence", ok,
           f"finite/asymptotic = {r_large:.3f} at 1e7 received (>= 0.90), "
           f"{r_small:.3f} at 1e5 (strictly lower)")


@pytest.fixture(scope="module")
def maxloss_curve(source, detector, security):
    cfg = OptimizationConfig(grid_resolution=16, refinement_rounds=3)
    times = (1.0, 10.0, 60.0, 600.0, 3600.0)
    curve = {}
    for t in times:
        curve[t] = max_tolerable_loss(source, detector, cfg, mode="finite", sec=security,
                                      n_sent=REP_RATE * t)
    return curve


def test_criterion_5_one_second_range(maxloss_curve):
    boundary_1s = maxloss_curve[1.0]
    values = [maxloss_curve[t] for t in sorted(maxloss_curve)]
    tol = 2 * 0.01
    monotone = all(b >= a - tol for a, b in zip(values, values[1:]))
    ok = abs(boundary_1s - 26.9) <= 1.5 and monotone
    report(5, "one-second loss boundary", ok,
           f"maxloss(1 s) = {boundary_1s:.2f} dB (target 26.9 +-1.5); "
           f"curve over (1,10,60,600,3600) s = "
           f"{', '.join(f'{v:.2f}' for v in values)} dB (nondecreasing: {monotone})")


def test_supplementary_hour_reaches_asymptotic_boundary(maxloss_curve, boundaries):
    # an hour of acquisition brings the loss boundary within 1 dB of the
    # attenuation-optimized asymptotic one
    _, attenuated, _ = boundaries
    gap = attenuated - maxloss_curve[3600.0]
    ok = abs(gap) <= 1.0
    report(5, "supplementary: one-hour boundary", ok,
           f"maxloss(3600 s) = {maxloss_curve[3600.0]:.2f} dB vs asymptotic "
           f"{attenuated:.2f} dB (gap {gap:.2f} dB <= 1)")


def test_criterion_6_qber_model(source, detector, boundaries):
    plain, _, _ = boundaries
    p_c, p_e = click_error_probs(source, ChannelModel(plain), detector)
    e_boundary = p_e / p_c
    dark_src = SourceModel(1e-15, source.g2, source.rep_rate)
    p_c, p_e = click_error_probs(dark_src, ChannelModel(0.0), detector)
    dark_limit = p_e / p_c
    ok = abs(e_boundary - 0.02) <= 0.005 and abs(dark_limit - 0.5) <= 1e-6
    report(6, "QBER model", ok,
           f"QBER at the {plain:.1f} dB boundary = {e_boundary * 100:.2f}% "
           f"(target 2 +-0.5 pp); dark-count limit |e - 1/2| = {abs(dark_limit - 0.5):.2e}")


def test_criterion_7_multiphoton_bound(source):
    p_m = source.photon_probs[2]
    ok = abs(p_m - 3.63e-6) <= 1e-8
    report(7, "multiphoton bound", ok, f"p_m = {p_m:.6e} (target 3.63e-6 +-1e-8)")


def test_criterion_8_bound_coverage(source):
    t0 = time.monotonic()
    lines = []
    ok = True
    for eps in (1e-2, 1e-3):
        for x_star in (20.0, 50.0, 200.0):
            exceed = chernoff_coverage(x_star, eps, 100_000, seed=314)
            limit = eps + 3.0 * math.sqrt(eps / 100_000)
            ok &= exceed <= limit
            lines.append(f"chernoff(x*={x_star:g}, eps={eps:g})={exceed:.2e}<={limit:.2e}")
    # operating-regime sampling instances (error rates <= 2%), pop <= 1e4
    for n, k, m in ((1000, 1000, 40), (1900, 100, 40), (9000, 1000, 200)):
        exceed = sampling_bound_coverage(n, k, m, 1e-2, 10_000, seed=271)
        limit = 1e-2 + 3.0 * math.sqrt(1e-2 / 10_000)
        ok &= exceed <= limit
        lines.append(f"gamma(n={n},k={k},m={m})={exceed:.2e}<={limit:.2e}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    report(8, "bound coverage", ok, "; ".join(lines) + f"; {elapsed:.1f} s")


def test_criterion_9_oracle_model_agreement(source, detector):
    trial = TrialConfig(seed=20240801, n_pulses=10_000_000)
    protocol = ProtocolParams(p_x=0.5, att=1.0)
    losses = (0.0, 10.0, 20.0, 30.0, 35.0)
    a = run_oracle_suite(source, detector, protocol, trial, losses_db=losses,
                         chernoff_trials=1000, sampling_trials=1000)
    b = run_oracle_suite(source, detector, protocol, trial, losses_db=losses,
                         chernoff_trials=1000, sampling_trials=1000)
    agreement = [c for c in a["checks"] if c["name"].startswith("model_agreement")]
    worst = max(c["deviation_sigma"] for c in agreement)
    ok = all(c["passed"] for c in agreement) and a == b and len(agreement) == 10
    report(9, "oracle/model agreement", ok,
           f"10^7 pulses at {len(losses)} losses, worst deviation {worst:.2f} sigma "
           f"(<= 4); reports bit-identical: {a == b}")


def test_criterion_10_invariant_suite(source, detector, security):
    failures = []

    def check(name, condition):
        if not condition:
            failures.append(name)

    # photon statistics
    p0, p1, p2 = source.photon_probs
    check("distribution normalized", abs(p0 + p1 + p2 - 1.0) < 1e-12)
    check("distribution mean", abs(p1 + 2.0 * p2 - source.mean_photon_number) < 1e-15)
    check("g2 recomputed", abs(2.0 * p2 / source.mean_photon_number**2 - source.g2) < 1e-12)
    check("multiphoton saturation", p2 == source.multiphoton_prob)

    # click/error model monotonicity and bands
    def p_click(loss=10.0, att=1.0, dead=27.5e-9, dark=1.47e-7):
        det = DetectorModel(0.6525, dark, dead, 0.003)
        return click_error_probs(source, ChannelModel(loss), det, att)[0]

    check("p_c monotone in loss", p_click(loss=20.0) <= p_click(loss=5.0))
    check("p_c monotone in att", p_click(att=0.4) <= p_click(att=1.0))
    check("p_c monotone in dark", p_click(dark=1e-8) <= p_click(dark=1e-6))
    check("p_c nonincreasing in dead time", p_click(dead=1e-7) <= p_click(dead=0.0))
    for loss in (0.0, 15.0, 30.0, 40.0):
        p_c, p_e = click_error_probs(source, ChannelModel(loss), detector)
        check(f"qber band at {loss} dB",
              detector.misalignment - 1e-12 <= p_e / p_c <= 0.5)

    # entropy
    check("H(0)=H(1)=0", binary_entropy(0.0) == 0.0 and binary_entropy(1.0) == 0.0)
    check("H(1/2)=1", binary_entropy(0.5) == 1.0)
    check("H symmetric", abs(binary_entropy(0.125) - binary_entropy(0.875)) < 1e-12)

    # asymptotic rate ordering and single-photon fraction
    def akr(loss=10.0, mis=0.003, g2=0.036, dark=1.47e-7):
        s = SourceModel(0.0142, g2, REP_RATE)
        d = DetectorModel(0.6525, dark, 27.5e-9, mis)
        return asymptotic_rate(s, ChannelModel(loss), d, ProtocolParams()).rate_per_pulse

    check("rate nonincreasing in loss", akr(loss=25.0) <= akr(loss=5.0))
    check("rate nonincreasing in p_dc", akr(dark=1e-5) <= akr(dark=1e-8))
    check("rate nonincreasing in p_mis", akr(mis=0.05) <= akr(mis=0.001))
    check("rate nonincreasing in g2", akr(g2=0.5) <= akr(g2=0.01))
    ideal = SourceModel(0.0142, 0.0, REP_RATE)
    res = asymptotic_rate(ideal, ChannelModel(10.0), detector, ProtocolParams())
    check("A = 1 for g2 = 0", res.single_photon_fraction == 1.0)
    res = asymptotic_rate(source, ChannelModel(20.0), detector, ProtocolParams())
    check("A in [0, 1]", 0.0 <= res.single_photon_fraction <= 1.0)

    # attenuation extends the zero-rate threshold
    past = ChannelModel(33.8)
    check("attenuation ordering",
          asymptotic_rate(source, past, detector, ProtocolParams(att=1.0)).rate_per_pulse == 0.0
          and asymptotic_rate(source, past, detector, ProtocolParams(att=0.4)).rate_per_pulse > 0.0)

    # finite-key conservativeness and convergence orderings
    ch = ChannelModel.from_fiber(100.0, LOSS_PER_KM)
    p_c, p_e = click_error_probs(source, ch, detector)
    prev_ell = -1
    for n_sent in (1e9, 1e10, 1e11):
        counts = expected_counts(source, ch, detector, ProtocolParams(p_x=0.9), n_sent)
        fin = finite_key_length(counts, security, p_e / p_c)
        check(f"chernoff conservative x (N={n_sent:g})", fin.n_mp_upper_x >= counts.n_mp_star_x)
        check(f"chernoff conservative z (N={n_sent:g})", fin.n_mp_upper_z >= counts.n_mp_star_z)
        check(f"received lower bound (N={n_sent:g})",
              fin.n_nmp_x <= counts.n_rx_x and fin.n_nmp_z <= counts.n_rx_z)
        check(f"phase error bound dominates (N={n_sent:g})", fin.phi_x_upper >= fin.phi_x)
        check(f"ell nondecreasing (N={n_sent:g})", fin.ell >= prev_ell)
        prev_ell = fin.ell
        asym = asymptotic_rate(source, ch, detector, ProtocolParams(p_x=0.9))
        check(f"finite below asymptotic (N={n_sent:g})",
              fin.rate <= asym.rate_per_pulse + 1e-15)

    check("chernoff above mean", chernoff_upper(1000.0, 1e-10) > 1000.0)
    check("gamma_u nonnegative", gamma_u(1e5, 1e4, 0.01, 1e-10 / 6) >= 0.0)

    # security budget composition reproduces the baseline table
    check("eps_pe = 2e-10/3", abs(security.eps_pe - 2e-10 / 3) < 1e-22)
    check("eps_pa = 1e-10/6", abs(security.eps_pa - 1e-10 / 6) < 1e-22)
    check("eps_sec = 1e-10", abs(security.eps_sec - 1e-10) < 1e-22)
    check("eps_cor = 1e-15", security.eps_cor == 1e-15)
    check("budget composition", abs(security.eps_sec
                                    - (security.eps_pa + security.eps_pe + security.eps_ec)) < 1e-26)
    check("eps_pe = 4 eps_prime", abs(security.eps_pe - 4 * security.eps_prime) < 1e-26)

    # optimizer determinism and no-loss-versus-defaults
    cfg = OptimizationConfig(grid_resolution=8, refinement_rounds=1)
    p1 = optimize_point(source, ch, detector, cfg, mode="finite", sec=security, n_sent=1e10)
    p2 = optimize_point(source, ch, detector, cfg, mode="finite", sec=security, n_sent=1e10)
    check("optimizer deterministic", (p1.p_x, p1.att, p1.rate_per_pulse)
          == (p2.p_x, p2.att, p2.rate_per_pulse))
    counts_default = expected_counts(source, ch, detector, ProtocolParams(p_x=0.5), 1e10)
    default_rate = finite_key_length(counts_default, security, p_e / p_c).rate
    check("optimized never below defaults", p1.rate_per_pulse >= default_rate)

    # Monte-Carlo reproducibility
    trial = TrialConfig(seed=5150, n_pulses=200_000)
    s1 = sample_session(source, ch, detector, ProtocolParams(), trial)
    s2 = sample_session(source, ch, detector, ProtocolParams(), trial)
    check("sampler reproducible", s1 == s2)

    report(10, "invariant suite", not failures,
           "all invariant groups hold" if not failures else f"failed: {failures}")
