"""Seeded Monte-Carlo session sampler and bound-coverage experiments.

This module is the independent check on the closed-form model: it samples
per-pulse emissions, losses, dark counts, basis choices and errors, and it
measures the empirical failure rate of the concentration bounds at tail
probabilities large enough to observe.

Reproducibility contract
------------------------
A session draws from numpy's PCG64 stream ``numpy.random.default_rng(seed)``
in this order:

1. the number of pulses that emit, N_e ~ Binomial(n_pulses, p1 + p2);
2. the emitting pulses, in batches of at most 2**16, each batch of m
   pulses taking ten ``Generator.random(m)`` rows, each compared with its
   threshold (u < threshold):

       two photons                 p2 / (p1 + p2)
       photon 1, 2 pass att        att (photon 2 only if there are two)
       photon 1, 2 detected        eta_ch*eta_det (if it passed att)
       dark count                  p_dc
       dead-time keep              c_dt
       error flag                  p_mis if a photon was detected, else 1/2
       Alice's, Bob's basis X      p_x

3. the vacuum pulses' kept dark clicks,
   Binomial(Binomial(n_pulses - N_e, p_dc), c_dt);
4. their split by one ``Generator.multinomial`` over {error, no error} x
   {XX, ZZ, mismatched bases}, each dark click erring with probability 1/2.

Each pulse thus follows the same per-pulse law as an independent draw of
every quantity, and identical configuration (seed included) yields
bit-identical tallies.

The oracle suite derives its streams from the configured seed: the
session at loss index idx is seeded with
``SeedSequence([seed, idx]).generate_state(1)[0]``, the Chernoff coverage
experiment uses ``default_rng([seed, 0])`` and the sampling-bound coverage
experiment ``default_rng([seed, 1])``.

numpy is imported inside the functions that sample, so the validators
and dataclasses that config imports from here load no numpy.
"""
from __future__ import annotations

from dataclasses import dataclass

from .finitekey import chernoff_upper, gamma_u
from .models import (ChannelModel, DetectorModel, ProtocolParams, SourceModel, _click_error,
                     _link, _raw_click_error, click_error_probs)

__all__ = [
    "TrialConfig",
    "SampledSession",
    "sample_session",
    "chernoff_coverage",
    "sampling_bound_coverage",
    "run_oracle_suite",
]

# the most emitting pulses one batch holds; it bounds the memory only
_BATCH = 1 << 16
_CHERNOFF_POPULATION = 10**6

_MIN_TRIALS = {"chernoff_trials": 1000, "sampling_trials": 1}

# sampling-bound instances (n unobserved, k observed, population errors) in
# the operating regime: error rates <= 2%, including the asymmetric split
# typical of a biased-basis session
_SAMPLING_INSTANCES = ((1000, 1000, 40), (1900, 100, 40))


def check_trials(name: str, trials: int) -> None:
    """Raise ValueError unless the named coverage experiment can run `trials` trials."""
    if trials < _MIN_TRIALS[name]:
        raise ValueError(f"{name} must be >= {_MIN_TRIALS[name]}, got {trials}")


def check_eps_test(eps_test: float) -> None:
    """Raise ValueError unless gamma_u is in regime at eps_test for every sampling instance.

    gamma_u's log argument falls as the observed rate rises toward 1/2, so
    the largest rate below 1/2 an instance can observe decides.
    """
    for n, k, pop_errors in _SAMPLING_INSTANCES:
        rate = min(pop_errors, (k - 1) // 2) / k
        try:
            gamma_u(n, k, rate, eps_test)
        except ValueError as exc:
            raise ValueError(f"eps_test = {eps_test} is too large for the sampling bound "
                             f"at n={n}, k={k}, observed rate {rate:g}: {exc}") from exc


@dataclass(frozen=True)
class TrialConfig:
    """Seed and size of a Monte-Carlo experiment."""

    seed: int
    n_pulses: int
    eps_test: float = 1e-2

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_pulses < 1:
            raise ValueError(f"n_pulses must be >= 1, got {self.n_pulses}")
        if not 0.0 < self.eps_test < 1.0:
            raise ValueError(f"eps_test must be in (0, 1), got {self.eps_test}")


@dataclass(frozen=True)
class SampledSession:
    """Tallies of one sampled session.

    n_clicks and n_errors count all kept detections regardless of basis
    agreement; n_rx_x/n_rx_z, m_x/m_z count sifted rounds only. m_x is the
    error count in the key basis, unobserved in the real protocol.
    n_mp_x/n_mp_z count pulses that entered the channel with two photons
    in rounds sifted into each basis.
    """

    n_pulses: int
    n_clicks: int
    n_errors: int
    n_rx_x: int
    n_rx_z: int
    m_x: int
    m_z: int
    n_mp_x: int
    n_mp_z: int

    def __post_init__(self) -> None:
        if self.m_z > self.n_rx_z or self.m_x > self.n_rx_x:
            raise ValueError("error tallies exceed sifted detections")
        if self.n_rx_x + self.n_rx_z > self.n_clicks:
            raise ValueError("sifted detections exceed total clicks")


def sample_session(src: SourceModel, ch: ChannelModel, det: DetectorModel,
                   protocol: ProtocolParams, trial: TrialConfig) -> SampledSession:
    """Sample one session; deterministic for a given seed.

    Each emitting pulse is simulated photon by photon; the vacuum pulses
    can click only by a dark count, and their kept dark clicks are drawn
    in aggregate (see the module's reproducibility contract).

    Photon numbers follow the source's two-photon distribution
    (SourceModel.photon_probs). The photon weights, the channel+detector
    survival, the misalignment and the dead-time inputs are read from the
    operating point's link (models._link), which the closed-form model
    shares. Dead time is applied as mean-field thinning with the analytic
    factor c_dt = p_click / f of the closed form (models._click_error),
    matching the model under test rather than a timeline simulation.
    """
    # imported here, not at module level, so that only the oracle loads numpy
    import numpy as np

    att, p_x = protocol.att, protocol.p_x
    link = _link(src, ch, det)
    p1, p2, s_cd, mis = link.p1, link.p2, link.t_eta, link.misalignment
    p_dc = det.dark_count_prob
    f, _ = _raw_click_error(link, att)
    c_dt = _click_error(link, att)[0] / f if f > 0.0 else 1.0

    rng = np.random.default_rng(trial.seed)
    n_emit = int(rng.binomial(trial.n_pulses, p1 + p2))
    tallies = np.zeros(8, dtype=np.int64)  # clicks, errors, rx_x, rx_z, m_x, m_z, mp_x, mp_z
    for start in range(0, n_emit, _BATCH):
        m = min(_BATCH, n_emit - start)
        two = rng.random(m) < p2 / (p1 + p2)
        chan1 = rng.random(m) < att
        chan2 = two & (rng.random(m) < att)
        signal = (chan1 & (rng.random(m) < s_cd)) | (chan2 & (rng.random(m) < s_cd))
        click = (signal | (rng.random(m) < p_dc)) & (rng.random(m) < c_dt)
        err = click & (rng.random(m) < np.where(signal, mis, 0.5))
        alice_x, bob_x = rng.random(m) < p_x, rng.random(m) < p_x
        bases = (alice_x & bob_x, ~(alice_x | bob_x))
        tallies += (np.count_nonzero(click), np.count_nonzero(err),
                    *(np.count_nonzero(event & basis)
                      for event in (click, err, chan1 & chan2) for basis in bases))
    dark = rng.binomial(rng.binomial(trial.n_pulses - n_emit, p_dc), c_dt)
    pairs = (p_x * p_x, (1.0 - p_x) ** 2, 2.0 * p_x * (1.0 - p_x))  # XX, ZZ, mismatched
    split = rng.multinomial(dark, [p / 2.0 for p in pairs] * 2).reshape(2, 3)
    tallies += (dark, split[0].sum(), *split.sum(axis=0)[:2], *split[0, :2], 0, 0)
    return SampledSession(trial.n_pulses, *(int(t) for t in tallies))


def chernoff_coverage(x_star: float, eps_test: float, trials: int, *,
                      seed: int = 0, bound_scale: float = 1.0) -> float:
    """Empirical exceedance of the Chernoff upper bound.

    Samples Binomial(N, x_star/N) counts with N = 10**6 and returns the
    fraction exceeding chernoff_upper(x_star, eps_test). By construction
    this fraction stays below eps_test up to sampling noise
    (3*sqrt(eps_test/trials) slack). bound_scale deliberately rescales the
    bound and exists for harness self-tests only.
    """
    # imported here, not at module level, so that only the oracle loads numpy
    import numpy as np

    check_trials("chernoff_trials", trials)
    if x_star < 0.0 or x_star > _CHERNOFF_POPULATION:
        raise ValueError(f"x_star must be in [0, {_CHERNOFF_POPULATION}], got {x_star}")
    bound = chernoff_upper(x_star, eps_test) * bound_scale
    rng = np.random.default_rng([seed, 0])
    counts = rng.binomial(_CHERNOFF_POPULATION, x_star / _CHERNOFF_POPULATION, size=trials)
    return float(np.mean(counts > bound))


def sampling_bound_coverage(n: int, k: int, population_errors: int, eps_test: float,
                            trials: int, *, seed: int = 0,
                            bound_scale: float = 1.0) -> float:
    """Empirical exceedance of the sampling-without-replacement bound.

    Error flags are assigned to the whole population of n+k items first;
    the k-item observed sample is drawn without replacement, and the bound
    chi = lambda_obs + gamma_u is compared against the realized rate on
    the n unobserved items. A sample with zero observed errors uses the
    half-error floor rate 1/(2k); an observed rate >= 1/2 covers trivially
    (chi = 1). Returns the fraction of draws where the true unobserved
    rate exceeds chi.
    """
    # imported here, not at module level, so that only the oracle loads numpy
    import numpy as np

    if n < 1 or k < 1:
        raise ValueError(f"n and k must be >= 1, got n={n}, k={k}")
    if not 0 <= population_errors <= n + k:
        raise ValueError(f"population_errors must be in [0, n+k], got {population_errors}")
    check_trials("sampling_trials", trials)
    rng = np.random.default_rng([seed, 1])
    observed = rng.hypergeometric(population_errors, n + k - population_errors, k, size=trials)
    chi = np.empty(trials)
    for obs in np.unique(observed):
        lam = (obs / k) if obs > 0 else 0.5 / k
        if lam >= 0.5:
            value = 1.0
        else:
            value = (lam if obs > 0 else 0.0) + gamma_u(n, k, lam, eps_test)
        chi[observed == obs] = value * bound_scale
    true_rate = (population_errors - observed) / n
    return float(np.mean(true_rate > chi))


def run_oracle_suite(src: SourceModel, det: DetectorModel, protocol: ProtocolParams,
                     trial: TrialConfig, losses_db: tuple[float, ...], *,
                     chernoff_trials: int, sampling_trials: int,
                     bound_scale: float = 1.0) -> dict:
    """Run the model-agreement and bound-coverage checks; return a report.

    Model agreement: sampled click and error fractions at each loss must
    sit within 4 binomial standard deviations of the analytic values.
    Coverage: Chernoff and sampling-bound exceedance at eps_test must stay
    below eps_test plus 3-sigma sampling slack. All randomness derives
    deterministically from trial.seed.
    """
    # imported here, not at module level, so that only the oracle loads numpy
    import numpy as np

    checks: list[dict] = []

    for idx, loss in enumerate(losses_db):
        ch = ChannelModel(loss_db=loss)
        sub_seed = int(np.random.SeedSequence([trial.seed, idx]).generate_state(1)[0])
        session = sample_session(src, ch, det, protocol, TrialConfig(sub_seed, trial.n_pulses))
        p_c, p_e = click_error_probs(src, ch, det, protocol.att)
        n = trial.n_pulses
        for label, observed, expected in (
            ("click", session.n_clicks, p_c),
            ("error", session.n_errors, p_e),
        ):
            sigma = max((n * expected * (1.0 - expected)) ** 0.5, 1.0)
            dev = abs(observed - n * expected) / sigma
            checks.append({
                "name": f"model_agreement_{label}_at_{loss:g}dB",
                "passed": bool(dev <= 4.0),
                "observed": int(observed),
                "expected": n * expected,
                "deviation_sigma": dev,
                "seed": sub_seed,
            })

    # (name, experiment, its leading arguments, trials), in report order
    experiments = [
        (f"chernoff_coverage_xstar_{x_star:g}", chernoff_coverage, (x_star,), chernoff_trials)
        for x_star in (50.0, 0.0)
    ] + [
        (f"sampling_bound_coverage_n{n}_k{k}_m{pop_errors}", sampling_bound_coverage,
         (n, k, pop_errors), sampling_trials)
        for n, k, pop_errors in _SAMPLING_INSTANCES
    ]
    for name, coverage, args, trials in experiments:
        exceed = coverage(*args, trial.eps_test, trials, seed=trial.seed,
                          bound_scale=bound_scale)
        limit = trial.eps_test + 3.0 * (trial.eps_test / trials) ** 0.5
        checks.append({
            "name": name,
            "passed": bool(exceed <= limit),
            "exceedance": exceed,
            "limit": limit,
        })

    return {
        "trial": {"seed": trial.seed, "n_pulses": trial.n_pulses, "eps_test": trial.eps_test},
        "losses_db": list(losses_db),
        "bound_scale": bound_scale,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
