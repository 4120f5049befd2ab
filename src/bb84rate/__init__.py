"""BB84 secure key rates for imperfect single-photon sources.

Asymptotic and composable finite-size key rates with Chernoff-bound
statistics, plus numerical optimization of the basis bias and source
pre-attenuation over distance, block size and acquisition time.
"""
from .asymptotic import (AsymptoticResult, QberMeasurement, asymptotic_rate, f_ec,
                         fit_misalignment)
from .entropy import binary_entropy
from .finitekey import (FiniteKeyResult, SecurityParams, SessionCounts, chernoff_upper,
                        expected_counts, finite_key_length, gamma_u, inverse_binomial_cdf,
                        lambda_ec)
from .mc_oracle import (SampledSession, TrialConfig, chernoff_coverage, sample_session,
                        sampling_bound_coverage)
from .models import (ChannelModel, DetectorModel, ProtocolParams, SourceModel, click_error_probs,
                     dead_time_corrected_click)
from .optimize import (NoPositiveRateError, OptimizationConfig, OptimizedPoint,
                       max_tolerable_loss, optimize_point)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticResult",
    "ChannelModel",
    "DetectorModel",
    "FiniteKeyResult",
    "NoPositiveRateError",
    "OptimizationConfig",
    "OptimizedPoint",
    "ProtocolParams",
    "QberMeasurement",
    "SampledSession",
    "SecurityParams",
    "SessionCounts",
    "SourceModel",
    "TrialConfig",
    "asymptotic_rate",
    "binary_entropy",
    "chernoff_coverage",
    "chernoff_upper",
    "click_error_probs",
    "dead_time_corrected_click",
    "expected_counts",
    "f_ec",
    "finite_key_length",
    "fit_misalignment",
    "gamma_u",
    "inverse_binomial_cdf",
    "lambda_ec",
    "max_tolerable_loss",
    "optimize_point",
    "sample_session",
    "sampling_bound_coverage",
]
