"""Seeded Monte-Carlo session sampler and bound-coverage experiments.

This module is the independent check on the closed-form model: it samples
per-pulse emissions, losses, dark counts, basis choices and errors, and it
measures the empirical failure rate of the concentration bounds at tail
probabilities large enough to observe.

Reproducibility contract
------------------------
Streams come from numpy's PCG64 (``numpy.random.default_rng(seed)``);
uniform doubles are drawn with ``Generator.random``. A session consumes
its stream in fixed-size chunks of at most 2**20 pulses. A chunk of m
pulses takes the next 10*m values row by row: row r is values r*m to
(r+1)*m - 1 of the chunk, and value r*m + i belongs to pulse i. The rows
are used in this order:

    0 photon-number choice   n=2 if u < p2, n=1 if p2 <= u < p2+p1, else 0
    1 pre-attenuation, photon 1   survives iff u < att (and n >= 1)
    2 pre-attenuation, photon 2   survives iff u < att (and n >= 2)
    3 channel+detector, photon 1  detected iff u < eta_ch*eta_det
    4 channel+detector, photon 2  detected iff u < eta_ch*eta_det
    5 dark count                  iff u < p_dc
    6 dead-time thinning          click kept iff u < c_dt
    7 error flag                  signal click errs iff u < p_mis,
                                  dark-only click errs iff u < 1/2
    8 Alice basis                 X iff u < p_x
    9 Bob basis                   X iff u < p_x

Values that no tally depends on are skipped with ``PCG64.advance``
instead of drawn (rows 1-4 matter only where photons are present, rows
6-9 only at click candidates and two-photon pulses, and a row whose
threshold lies outside (0, 1) decides alike for every value), which
leaves every tally as a dense draw of all 10*m values would. Identical
configuration (seed included) therefore yields bit-identical tallies.

The oracle suite derives its streams from the configured seed: the
session at loss index idx is seeded with
``SeedSequence([seed, idx]).generate_state(1)[0]``, the Chernoff coverage
experiment uses ``default_rng([seed, 0])`` and the sampling-bound coverage
experiment ``default_rng([seed, 1])``.

numpy is imported inside the functions that sample, so the validators
and dataclasses that config imports from here load no numpy.
"""
from __future__ import annotations

from collections.abc import Iterator
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

_CHUNK = 1 << 20
# A row that is drawn is drawn this many values at a time into one buffer,
# so a chunk holds no chunk-sized array. The block sets the speed and the
# memory only, never a value.
_BLOCK = 1 << 16
# A row needed at fewer than this fraction of a chunk's pulses is read by
# jumping to each of them. On a shared 2-vCPU x86 VM one jump and draw
# costs about 1.2-2.4 us and a dense 2**20-value row, drawn in 16 blocks
# with 15,000 values kept, about 2.8-4.9 ms: the two ranges move together,
# and a dense row costs about 2,000 jumps. The cut-off sets the speed
# only, never a value.
_JUMP_FRACTION = 2.0**-10
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


def _blocks(rng: np.random.Generator, buf: np.ndarray,
            m: int) -> Iterator[tuple[int, np.ndarray]]:
    """Draw the chunk's next row of m values into buf, _BLOCK at a time.

    Yields (start, block): block holds values start to start + len(block) - 1
    of the row and is valid until the next block is drawn. Consecutive
    Generator.random(out=...) calls take the stream exactly as one call of
    size m does, so each value lands at the pulse a dense draw gives it.
    """
    for start in range(0, m, _BLOCK):
        block = buf[:min(_BLOCK, m - start)]
        rng.random(out=block)
        yield start, block


def _below(rng: np.random.Generator, buf: np.ndarray, m: int,
           top: float) -> tuple[np.ndarray, np.ndarray]:
    """The pulses of the chunk's next row of m draws whose u < top, and their u.

    A row with top <= 0 has no such pulse and is not read.
    """
    # imported here, not at module level, so that only the oracle loads numpy
    import numpy as np

    if top <= 0.0:
        rng.bit_generator.advance(m)
        return np.zeros(0, dtype=np.intp), np.zeros(0)
    pulses, values = [], []
    for start, block in _blocks(rng, buf, m):
        at = np.flatnonzero(block < top)
        pulses.append(at + start)
        values.append(block[at])
    return np.concatenate(pulses), np.concatenate(values)


def _row(rng: np.random.Generator, buf: np.ndarray, m: int, idx: np.ndarray,
         threshold: float) -> np.ndarray:
    """Uniforms of the chunk's next row of m draws at the sorted pulse indices idx.

    Every path leaves the stream at the row's end, where a dense draw
    leaves it, so the values do not depend on the path. threshold is what
    the caller compares u with; a row compared with several passes any of
    them that lies inside (0, 1). A row whose threshold lies outside (0, 1)
    is not read: every u in [0, 1) compares with it alike, so zeros stand
    in. A row needed at fewer than m * _JUMP_FRACTION pulses jumps to each
    of them with PCG64.advance; any other row is drawn block by block,
    keeping the values at idx.
    """
    # imported here, not at module level, so that only the oracle loads numpy
    import numpy as np

    if len(idx) == 0 or threshold <= 0.0 or threshold >= 1.0:
        rng.bit_generator.advance(m)
        return np.zeros(len(idx))
    if len(idx) >= m * _JUMP_FRACTION:
        pieces = np.split(idx, np.searchsorted(idx, range(_BLOCK, m, _BLOCK)))
        return np.concatenate([block[piece - start]
                               for (start, block), piece in zip(_blocks(rng, buf, m), pieces)])
    advance = rng.bit_generator.advance
    values, pos = [], 0
    for i in idx.tolist():
        if i > pos:
            advance(i - pos)
        values.append(rng.random())
        pos = i + 1
    if pos < m:
        advance(m - pos)
    return np.array(values)


def sample_session(src: SourceModel, ch: ChannelModel, det: DetectorModel,
                   protocol: ProtocolParams, trial: TrialConfig) -> SampledSession:
    """Sample one session pulse by pulse; deterministic for a given seed.

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
    f, _ = _raw_click_error(link, att)
    c_dt = _click_error(link, att)[0] / f if f > 0.0 else 1.0

    rng = np.random.default_rng(trial.seed)
    buf = np.empty(min(trial.n_pulses, _BLOCK))
    tallies = np.zeros(8, dtype=np.int64)  # clicks, errors, rx_x, rx_z, m_x, m_z, mp_x, mp_z
    remaining = trial.n_pulses
    while remaining > 0:
        m = min(remaining, _CHUNK)
        remaining -= m
        # each line reads one row, in the stream's order; index sets stay sorted
        emit, u_emit = _below(rng, buf, m, p1 + p2)
        two = emit[u_emit < p2]
        n_chan = (_row(rng, buf, m, emit, att) < att).astype(np.int8)  # over emit
        n_chan[np.searchsorted(emit, two)] += _row(rng, buf, m, two, att) < att
        chan1, multi = emit[n_chan >= 1], emit[n_chan >= 2]
        seen1 = chan1[_row(rng, buf, m, chan1, s_cd) < s_cd]
        seen2 = multi[_row(rng, buf, m, multi, s_cd) < s_cd]
        signal = np.union1d(seen1, seen2)
        dark, _ = _below(rng, buf, m, det.dark_count_prob)
        cand = np.union1d(signal, dark)
        kept = _row(rng, buf, m, cand, c_dt) < c_dt
        click = cand[kept]
        err_thr = np.where(np.isin(cand, signal, assume_unique=True)[kept], mis, 0.5)
        err = click[_row(rng, buf, m, click, 0.5) < err_thr]
        sifted = np.union1d(click, multi)
        alice_x = _row(rng, buf, m, sifted, p_x) < p_x
        bob_x = _row(rng, buf, m, sifted, p_x) < p_x
        both_x = alice_x & bob_x
        both_z = ~alice_x & ~bob_x
        at_click, at_err, at_multi = (np.searchsorted(sifted, i) for i in (click, err, multi))
        tallies += (
            len(click), len(err),
            int(both_x[at_click].sum()), int(both_z[at_click].sum()),
            int(both_x[at_err].sum()), int(both_z[at_err].sum()),
            int(both_x[at_multi].sum()), int(both_z[at_multi].sum()),
        )
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
