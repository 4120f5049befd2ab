"""Asymptotic (infinite-block) secure key rate and the misalignment fit.

The rate attributes key material only to the non-multiphoton fraction of
received signals: with single-photon fraction A, phase errors on that
fraction are amplified to e/A, and the error-correction term pays the full
observed QBER at the code inefficiency f_EC.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .entropy import binary_entropy
from .models import ChannelModel, DetectorModel, ProtocolParams, SourceModel, click_error_probs

__all__ = [
    "AsymptoticResult",
    "QberMeasurement",
    "f_ec",
    "fit_misalignment",
    "asymptotic_rate",
]

# Error-correction inefficiency vs QBER: piecewise-linear anchor nodes.
# Practical one-way codes run at 1.16 for the low-QBER regime relevant
# here; the factor degrades as the error rate grows. Every rate uses this
# table, through f_ec.
F_EC_TABLE: tuple[tuple[float, float], ...] = (
    (0.00, 1.16),
    (0.05, 1.16),
    (0.10, 1.22),
    (0.15, 1.35),
)

# f_ec's segments of F_EC_TABLE: (x0, y0, x1, y1 - y0, x1 - x0)
_F_EC_SEGMENTS = tuple((x0, y0, x1, y1 - y0, x1 - x0)
                       for (x0, y0), (x1, y1) in zip(F_EC_TABLE, F_EC_TABLE[1:]))


@dataclass(frozen=True)
class AsymptoticResult:
    """Asymptotic rate at one operating point, with audit intermediates.

    Attributes:
        rate_per_pulse: secret bits per emitted pulse (clamped at 0).
        rate_bps: rate_per_pulse times the source repetition rate.
        single_photon_fraction: fraction of clicks attributed to
            non-multiphoton emissions, in [0, 1].
        e_z: QBER, the same in both bases.
        p_click: per-pulse detection probability (dead-time corrected).
    """

    rate_per_pulse: float
    rate_bps: float
    single_photon_fraction: float
    e_z: float
    p_click: float


@dataclass(frozen=True)
class QberMeasurement:
    """One measured QBER point at a given fibre distance."""

    distance_km: float
    qber: float

    def __post_init__(self) -> None:
        if not (self.distance_km >= 0.0 and math.isfinite(self.distance_km)):
            raise ValueError(f"distance_km must be finite and >= 0, got {self.distance_km}")
        if not 0.0 <= self.qber <= 0.5:
            raise ValueError(f"qber must be in [0, 0.5], got {self.qber}")


def f_ec(e: float) -> float:
    """Error-correction inefficiency factor at QBER e.

    Linear interpolation over F_EC_TABLE: e takes the first segment whose
    upper node is at least e. The first segment is flat, so it also covers
    e = 0; above the last node the factor is the last node's value.
    """
    if not 0.0 <= e <= 0.5:
        raise ValueError(f"qber must be in [0, 0.5], got {e}")
    for x0, y0, x1, dy, dx in _F_EC_SEGMENTS:
        if e <= x1:
            return y0 + dy * (e - x0) / dx
    return F_EC_TABLE[-1][1]


def fit_misalignment(data: Sequence[QberMeasurement], src: SourceModel, det: DetectorModel,
                     loss_per_km_db: float, att: float = 1.0) -> tuple[float, list[float]]:
    """Least-squares misalignment from measured QBER vs distance.

    The source, the detector's other parameters and the loss model are
    held fixed. The click/error model's QBER is exactly affine in the
    misalignment, e = a + (1 - 2a) * p_mis, where a is the QBER at
    misalignment 0 (the dead-time factor cancels), so the minimizer is the
    closed-form linear regression solution. Deterministic. The result is
    clamped to the physical range [0, 0.5].

    Returns:
        (p_mis, modeled QBER at p_mis for each measurement).

    Raises:
        ValueError: on an empty dataset, a point with zero clicks, or if
            every point is pure dark counts (no sensitivity to the
            misalignment).
    """
    if not data:
        raise ValueError("at least one QBER measurement is required")
    aligned = replace(det, misalignment=0.0)
    offsets = []
    sum_bb = 0.0
    sum_by = 0.0
    for m in data:
        p_c, p_e = click_error_probs(src, ChannelModel.from_fiber(m.distance_km, loss_per_km_db),
                                     aligned, att)
        if p_c == 0.0:
            raise ValueError(f"no clicks at {m.distance_km} km; the QBER is undefined")
        a = p_e / p_c
        b = 1.0 - 2.0 * a
        offsets.append(a)
        sum_bb += b * b
        sum_by += b * (m.qber - a)
    if sum_bb == 0.0:
        raise ValueError("dataset carries no signal; misalignment is unidentifiable")
    p_mis = min(max(sum_by / sum_bb, 0.0), 0.5)
    return p_mis, [a + (1.0 - 2.0 * a) * p_mis for a in offsets]


def _gllp_factors(p_c: float, p_e: float, p_m: float) -> tuple[float, float, float]:
    """(A, e, bracket) at one attenuation, from its click, error and multiphoton probabilities.

    The bracket is the secret fraction per sifted click,
    A*(1 - H(e/A)) - f_EC(e)*H(e), with e/A clamped to 1/2, past which it
    is already non-positive. The rate per pulse is
    _rate_per_pulse(sift, p_c, bracket). A point with no clicks gives
    (0, 0, 0), and one with p_c <= p_m, which leaves no single-photon
    signal, gives (0, e, 0): both rates are zero.
    """
    if p_c <= 0.0:
        return 0.0, 0.0, 0.0
    e = p_e / p_c
    if p_c <= p_m:
        return 0.0, e, 0.0
    a = (p_c - p_m) / p_c
    return a, e, a * (1.0 - binary_entropy(min(e / a, 0.5))) - f_ec(e) * binary_entropy(e)


def _rate_per_pulse(sift: float, p_c: float, bracket: float) -> float:
    """Secret bits per pulse, sift * p_c * bracket clamped at zero."""
    return max(0.0, sift * p_c * bracket)


def asymptotic_rate(src: SourceModel, ch: ChannelModel, det: DetectorModel,
                    protocol: ProtocolParams) -> AsymptoticResult:
    """Asymptotic secure key rate at the given operating point.

    rate = p_sift * p_click * [A*(1 - H(e_x/A)) - f_EC(e_z)*H(e_z)],
    clamped at zero. The multiphoton bound entering A is scaled by att^2:
    pre-attenuation thins two-photon pulses quadratically but the signal
    only linearly. Both bases share the same click and error model, so
    e_x = e_z here. The optimizer's grid evaluates the same float rule,
    _gllp_factors and _rate_per_pulse, without building this result.
    """
    p_c, p_e = click_error_probs(src, ch, det, protocol.att)
    a, e, bracket = _gllp_factors(p_c, p_e, src.attenuated_multiphoton_prob(protocol.att))
    per_pulse = _rate_per_pulse(protocol.sift_ratio, p_c, bracket)
    return AsymptoticResult(
        rate_per_pulse=per_pulse,
        rate_bps=per_pulse * src.rep_rate,
        single_photon_fraction=a,
        e_z=e,
        p_click=p_c,
    )
