"""Domain models: photon source, channel, detectors, protocol settings.

Closed-form per-pulse click and error probabilities for a BB84 link driven
by a sub-Poissonian single-photon source. The source is described by its
mean photon number and second-order correlation g2(0); its photon-number
distribution, SourceModel.photon_probs, is truncated at two photons, which
saturates the multiphoton bound g2*<n>^2/2 and is therefore the worst case
consistent with the two measured moments.

click_error_probs checks its inputs and runs one unchecked core,
_click_error(link, att). The link (_link) holds what every attenuation of
an operating point shares: the vacuum pulses' dark clicks, the photon
weights, log1p(-dark), the survival T*eta at att = 1, the misalignment and
the dead-time inputs. A search over att derives it once and calls the core
per grid point, with the same operations and so the same bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "SourceModel",
    "ChannelModel",
    "DetectorModel",
    "ProtocolParams",
    "dead_time_corrected_click",
    "click_error_probs",
]


@dataclass(frozen=True)
class SourceModel:
    """Single-photon source: brightness, multiphoton noise and clock rate.

    Attributes:
        mean_photon_number: mean photons per pulse injected into the link,
            in [0, 1).
        g2: second-order intensity correlation at zero delay, in [0, 1].
        rep_rate: pulse repetition rate in Hz, finite and > 0.
    """

    mean_photon_number: float
    g2: float
    rep_rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean_photon_number < 1.0:
            raise ValueError(f"mean_photon_number must be in [0, 1), got {self.mean_photon_number}")
        if not 0.0 <= self.g2 <= 1.0:
            raise ValueError(f"g2 must be in [0, 1], got {self.g2}")
        if not 0.0 < self.rep_rate < math.inf:
            raise ValueError(f"rep_rate must be finite and positive, got {self.rep_rate}")

    @property
    def multiphoton_prob(self) -> float:
        """Upper bound on the per-pulse multiphoton emission probability."""
        return self.g2 * self.mean_photon_number**2 / 2.0

    @property
    def photon_probs(self) -> tuple[float, float, float]:
        """Two-photon-truncated distribution (p0, p1, p2) matching <n> and g2(0).

        p2 = g2*<n>^2/2, p1 = <n> - 2*p2, p0 = 1 - p1 - p2. p2 equals the
        multiphoton bound: this truncation saturates it, so any other
        distribution with the same moments has less multiphoton weight.
        """
        p2 = self.multiphoton_prob
        p1 = self.mean_photon_number - 2.0 * p2
        return 1.0 - p1 - p2, p1, p2

    def attenuated_multiphoton_prob(self, att: float) -> float:
        """Multiphoton bound after pre-attenuation by att.

        Pre-attenuation thins two-photon pulses quadratically but the
        signal only linearly, so the bound scales with att^2.
        """
        return self.multiphoton_prob * att**2


@dataclass(frozen=True)
class ChannelModel:
    """Lossy quantum channel, parameterized by attenuation in dB."""

    loss_db: float

    def __post_init__(self) -> None:
        if not (self.loss_db >= 0.0 and math.isfinite(self.loss_db)):
            raise ValueError(f"loss_db must be finite and >= 0, got {self.loss_db}")

    @classmethod
    def from_fiber(cls, length_km: float, loss_per_km_db: float = 0.1904) -> "ChannelModel":
        if length_km < 0.0:
            raise ValueError(f"length_km must be >= 0, got {length_km}")
        if not length_km < math.inf:  # written so that NaN fails the check
            raise ValueError(f"length_km must be finite, got {length_km}")
        if not 0.0 < loss_per_km_db < math.inf:  # written so that NaN fails the check
            raise ValueError(f"loss_per_km_db must be finite and > 0, got {loss_per_km_db}")
        return cls(loss_db=length_km * loss_per_km_db)

    @property
    def transmittance(self) -> float:
        """Channel transmittance 10^(-loss_db/10), in (0, 1]."""
        return 10.0 ** (-self.loss_db / 10.0)


@dataclass(frozen=True)
class DetectorModel:
    """Receiver-side parameters, assumed identical for both bases.

    Attributes:
        det_efficiency: detection efficiency including receiver
            transmission, in (0, 1].
        dark_count_prob: dark count probability per pulse per basis,
            in [0, 1).
        dead_time: detector dead time in seconds, finite and >= 0.
        misalignment: probability that a detected signal photon lands in
            the wrong detector, in [0, 0.5).
    """

    det_efficiency: float
    dark_count_prob: float
    dead_time: float = 0.0
    misalignment: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.det_efficiency <= 1.0:
            raise ValueError(f"det_efficiency must be in (0, 1], got {self.det_efficiency}")
        if not 0.0 <= self.dark_count_prob < 1.0:
            raise ValueError(f"dark_count_prob must be in [0, 1), got {self.dark_count_prob}")
        if not 0.0 <= self.dead_time < math.inf:
            raise ValueError(f"dead_time must be finite and >= 0, got {self.dead_time}")
        if not 0.0 <= self.misalignment < 0.5:
            raise ValueError(f"misalignment must be in [0, 0.5), got {self.misalignment}")


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol knobs: basis bias and source pre-attenuation.

    Attributes:
        p_x: probability of choosing the key-generation basis, in (0, 1).
        att: pre-attenuation transmission applied between the source and
            the channel, in (0, 1].
    """

    p_x: float = 0.5
    att: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.p_x < 1.0:
            raise ValueError(f"p_x must be in (0, 1), got {self.p_x}")
        if not 0.0 < self.att <= 1.0:
            raise ValueError(f"att must be in (0, 1], got {self.att}")

    @property
    def sift_ratio(self) -> float:
        """Fraction of rounds where both parties picked the same basis."""
        return _sift_ratio(self.p_x)


def _sift_ratio(p_x: float) -> float:
    """ProtocolParams.sift_ratio on a plain float, unchecked."""
    return p_x**2 + (1.0 - p_x) ** 2


def dead_time_corrected_click(f: float, rep_rate: float, dead_time: float) -> float:
    """Self-consistent click probability under a detector dead time.

    Solves p = f / (1 + R*tau*p), i.e. R*tau*p^2 + p - f = 0, taking the
    nonnegative root in closed form. Reduces to p = f when R*tau = 0. The
    root is evaluated in the rationalized form 2f / (1 + sqrt(1 + 4*R*tau*f)),
    which stays accurate when R*tau*f is tiny.
    """
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"f must be in [0, 1], got {f}")
    rt = rep_rate * dead_time
    if rt < 0.0:
        raise ValueError(f"rep_rate * dead_time must be >= 0, got {rt}")
    return 2.0 * f / (1.0 + math.sqrt(1.0 + 4.0 * rt * f))


class _Link(NamedTuple):
    """What every attenuation of one operating point shares, derived once.

    The per-pulse click/error core, _click_error, takes this and the
    pre-attenuation alone, so a search over att reads the source, channel
    and detector once instead of at every grid point.
    """

    p0_dark: float  # p0 * dark_count_prob: the vacuum pulses' click probability
    p1: float
    p2: float
    log_dark: float  # log1p(-dark_count_prob)
    t_eta: float  # transmittance * det_efficiency: survival at att = 1
    misalignment: float
    rep_rate: float
    dead_time: float


def _link(src: SourceModel, ch: ChannelModel, det: DetectorModel) -> _Link:
    """The operating point's _Link."""
    p0, p1, p2 = src.photon_probs
    return _Link(p0 * det.dark_count_prob, p1, p2, math.log1p(-det.dark_count_prob),
                 ch.transmittance * det.det_efficiency, det.misalignment, src.rep_rate,
                 det.dead_time)


def _raw_click_error(link: _Link, att: float) -> tuple[float, float]:
    """Per-pulse (click, error) probabilities before the dead-time correction; unchecked.

    P(click | n photons) = 1 - (1 - dark) * (1 - surv)^n, evaluated as
    -expm1(log1p(-dark) + n*log1p(-surv)) so that tiny dark and survival
    probabilities do not lose precision to cancellation. Clicks on vacuum
    pulses are dark counts and land in the wrong detector with probability
    1/2; clicks on pulses carrying photons are wrong with the misalignment
    probability. The caller checks att in (0, 1].
    """
    p0_dark, p1, p2, log_dark, t_eta, mis, _, _ = link
    surv = t_eta * att
    if surv >= 1.0:
        click1 = click2 = 1.0
    else:
        log_surv = math.log1p(-surv)
        click1 = -math.expm1(log_dark + log_surv)
        click2 = -math.expm1(log_dark + 2 * log_surv)
    f = p0_dark + p1 * click1 + p2 * click2
    raw_err = p0_dark / 2.0 + p1 * click1 * mis + p2 * click2 * mis
    return f, raw_err


def _click_error(link: _Link, att: float) -> tuple[float, float]:
    """Dead-time-corrected (p_click, p_error) per pulse; the unchecked core.

    The dead time scales errors by the same factor p_click / f as clicks,
    where f is the click probability before the correction.
    """
    f, raw_err = _raw_click_error(link, att)
    p_c = dead_time_corrected_click(f, link.rep_rate, link.dead_time)
    p_e = 0.0 if f == 0.0 else (p_c / f) * raw_err
    return p_c, p_e


def click_error_probs(src: SourceModel, ch: ChannelModel, det: DetectorModel,
                      att: float = 1.0) -> tuple[float, float]:
    """Dead-time-corrected (p_click, p_error) per pulse for one basis.

    att must lie in (0, 1]; the probabilities are those of _click_error.
    """
    if not 0.0 < att <= 1.0:
        raise ValueError(f"att must be in (0, 1], got {att}")
    return _click_error(_link(src, ch, det), att)
