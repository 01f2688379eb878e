"""Monte Carlo engine for centered eigenvalue-statistic fluctuations.

For a polynomial test function f, the eigenvalue statistic
``L_n(f) = sum_i f(lambda_i)`` is evaluated through the trace path
(``sum_k a_k Tr M^k``; no eigensolver), centered by the across-trial
sample mean, and compared against the theoretical limiting variance and
a standard-normal shape via the Kolmogorov-Smirnov statistic.

The trace path is Weaver-first: a centrosymmetric M is orthogonally
similar to ``diag(P, Q)`` with blocks of half order, so
``Tr M^k = Tr P^k + Tr Q^k``, and ``trace_powers`` evaluates each block
from its half powers.  Tr M^1 is read off M's own diagonal.
``run_clt``, ``moment_suite`` and ``les_polynomial`` share one trial
loop that samples trials into stacks of about 1 MiB of entries and
traces each stack at once.

Every trial owns a derived seed
(``splitmix64(splitmix64(master_seed) + trial)``), so different master
seeds draw different matrices and the sample multiset is independent of
the execution schedule and the worker count.  Stack boundaries depend
only on the order and the trial count, and reductions run in
trial-index order, so reports are bit-identical for a fixed master seed
and any worker count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .centro import CentroMatrix, sample_centro, weaver_blocks
from .eig import Spectrum, trace_powers
from .errors import ConfigError, DiagnosticError
from .poly import Polynomial
from .variance import closed_form_variance

__all__ = [
    "CltReport",
    "MomentEntry",
    "MomentReport",
    "ks_statistic",
    "les_analytic",
    "les_polynomial",
    "moment_suite",
    "moment_target",
    "run_clt",
    "trial_seed",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def trial_seed(master_seed: int, trial: int) -> int:
    """Derived per-trial seed: ``splitmix64(splitmix64(master_seed) + trial)``.

    Hashing the master seed before adding the trial index keeps the seed
    sets of different master seeds apart; ``splitmix64`` is a bijection
    on 64-bit words, so two masters share a seed only when their hashes
    lie closer together than the trial count.
    """
    return _splitmix64((_splitmix64(master_seed & _MASK64) + trial) & _MASK64)


def default_threads() -> int:
    """Worker count fallback: CENTROLAB_THREADS, else 1."""
    raw = os.environ.get("CENTROLAB_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _ordered_map(work, count: int, threads: int | None) -> list:
    """Apply ``work`` to 0..count-1, results in index order regardless of schedule."""
    threads = default_threads() if threads is None else max(1, threads)
    if threads == 1:
        return [work(t) for t in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, range(count)))


def _stack_size(n: int) -> int:
    """Trials per stack: about 1 MiB (2**17 doubles) of matrix entries, at least one.

    Stacks amortize per-call overhead at small orders; the size cap keeps
    the extra memory of a stack and its powers small.
    """
    return max(1, 2**17 // (n * n))


def _stack_traces(stack: np.ndarray, k_max: int) -> np.ndarray:
    """Tr M^1 .. M^k_max of a ``(trials, n, n)`` stack through its Weaver blocks."""
    blocks = weaver_blocks(stack)
    traces = trace_powers(blocks.plus, k_max) + trace_powers(blocks.minus, k_max)
    traces[:, 0] = np.trace(stack, axis1=-2, axis2=-1)
    return traces


def _trial_traces(
    n: int, trials: int, k_max: int, dist: str, master_seed: int, threads: int | None
) -> np.ndarray:
    """Tr M^1 .. M^k_max of every trial's matrix, shape ``(trials, k_max)``.

    Trial t samples its matrix from ``trial_seed(master_seed, t)``;
    consecutive trials are traced together in stacks of ``_stack_size(n)``.
    """
    size = _stack_size(n)

    def work(s: int) -> np.ndarray:
        first = s * size
        stack = np.stack(
            [
                sample_centro(n, dist, trial_seed(master_seed, t)).entries
                for t in range(first, min(first + size, trials))
            ]
        )
        return _stack_traces(stack, k_max)

    return np.concatenate(_ordered_map(work, (trials + size - 1) // size, threads))


def _les_values(traces: np.ndarray, f: Polynomial, n: int):
    """L_n(f) from rows of traces Tr M^1 .. M^deg f."""
    value = f.coeffs[0] * n + sum(
        f.coeffs[k] * traces[..., k - 1] for k in range(1, f.degree + 1)
    )
    return value.real if f.is_real else value


def les_polynomial(m: CentroMatrix, f: Polynomial):
    """L_n(f) through the trace path: ``a_0 n + sum_k a_k Tr M^k``.

    Uses the Weaver blocks and matrix products only; returns a float for
    real coefficients, complex otherwise.
    """
    if f.degree < 1:
        raise ValueError("test polynomial must have degree at least 1")
    return _les_values(_stack_traces(m.entries[None], f.degree)[0], f, m.n)


def les_analytic(spec: Spectrum, f) -> complex:
    """L_n(f) as a pointwise sum of f over the eigenvalues."""
    if not spec.converged:
        raise DiagnosticError("spectrum did not converge; eigenvalue sum unreliable")
    return complex(np.sum(f(spec.values)))


def ks_statistic(samples) -> float:
    """Kolmogorov-Smirnov distance of standardized samples to N(0, 1).

    Samples are shifted and scaled by their own mean and (unbiased)
    standard deviation first, so the statistic is invariant under affine
    shifts of the input.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise DiagnosticError("need at least two samples")
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        raise DiagnosticError("zero sample variance; cannot standardize")
    return float(stats.kstest((x - x.mean()) / sd, "norm").statistic)


@dataclass(frozen=True)
class CltReport:
    """Centered-statistic draws with variance and normality diagnostics.

    ``samples`` are the centered values (trial mean already subtracted),
    in trial order.  For complex-coefficient f, ``empirical_variance``
    is the mean squared modulus of the centered values and the per-part
    variances are reported separately; the KS statistic then refers to
    the real parts.
    """

    n: int
    trials: int
    f: Polynomial
    samples: np.ndarray
    empirical_variance: float
    theoretical_variance: float
    ks_statistic: float
    dist: str
    seed: int
    runtime_seconds: float
    variance_real: float | None = None
    variance_imag: float | None = None


def run_clt(
    n: int,
    trials: int,
    f: Polynomial,
    dist: str = "gaussian",
    master_seed: int = 0,
    threads: int | None = None,
) -> CltReport:
    """Monte Carlo draw of the centered statistic over independent matrices.

    Each trial samples its own matrix from its derived seed and
    evaluates L_n(f) through the trace path; centering subtracts the
    across-trial sample mean (the finite-n expectation estimate), and
    the unbiased sample variance is reported next to the closed-form
    limiting variance.
    """
    if trials < 2:
        raise ConfigError(f"need at least 2 trials, got {trials}")
    start = time.perf_counter()
    traces = _trial_traces(n, trials, f.degree, dist, master_seed, threads)
    values = _les_values(traces, f, n)
    centered = values - values.mean()
    if f.is_real:
        empirical = float(values.var(ddof=1))
        var_re = var_im = None
        ks = ks_statistic(centered)
    else:
        empirical = float(np.sum(np.abs(centered) ** 2) / (trials - 1))
        var_re = float(values.real.var(ddof=1))
        var_im = float(values.imag.var(ddof=1))
        ks = ks_statistic(centered.real)
    return CltReport(
        n=n,
        trials=trials,
        f=f,
        samples=centered,
        empirical_variance=empirical,
        theoretical_variance=closed_form_variance(f),
        ks_statistic=ks,
        dist=dist,
        seed=master_seed,
        runtime_seconds=time.perf_counter() - start,
        variance_real=var_re,
        variance_imag=var_im,
    )


def moment_target(k: int, l: int | None = None) -> float:
    """Asymptotic constant for a trace-power moment.

    Single chain: 2 for even k, 0 for odd k.  Double chain with k != l:
    4 when both are even, else 0.  Equal powers: 2k + 4 for even k,
    2k for odd k.
    """
    if l is None:
        return 2.0 if k % 2 == 0 else 0.0
    if k != l:
        return 4.0 if k % 2 == 0 and l % 2 == 0 else 0.0
    return 2.0 * k + (4.0 if k % 2 == 0 else 0.0)


@dataclass(frozen=True)
class MomentEntry:
    """One Monte Carlo moment estimate against its asymptotic target."""

    k: int
    l: int | None
    estimate: float
    standard_error: float
    target: float
    z_score: float


@dataclass(frozen=True)
class MomentReport:
    """Estimates of E[Tr M^k] and E[Tr M^k Tr M^l] with z-scores."""

    n: int
    trials: int
    k_max: int
    dist: str
    seed: int
    entries: list[MomentEntry] = field(default_factory=list)

    def entry(self, k: int, l: int | None = None) -> MomentEntry:
        for e in self.entries:
            if e.k == k and e.l == l:
                return e
        raise KeyError(f"no moment entry for k={k}, l={l}")


def _moment_entry(values: np.ndarray, k: int, l: int | None) -> MomentEntry:
    est = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(values.size))
    target = moment_target(k, l)
    z = (est - target) / se if se > 0 else float("inf")
    return MomentEntry(
        k=k, l=l, estimate=est, standard_error=se, target=target, z_score=z
    )


def moment_suite(
    n: int,
    trials: int,
    k_max: int,
    dist: str = "gaussian",
    master_seed: int = 0,
    threads: int | None = None,
) -> MomentReport:
    """Monte Carlo estimates of single and pairwise trace-power moments.

    One matrix per trial (derived seeds as in ``run_clt``); per-trial
    traces of M^1..M^k_max feed estimates of E[Tr M^k] for k <= k_max
    and E[Tr M^k Tr M^l] for all k <= l <= k_max, each with standard
    error and z-score against its asymptotic target.
    """
    if k_max < 2:
        raise ConfigError(f"need k_max >= 2, got {k_max}")
    if trials < 2:
        raise ConfigError(f"need at least 2 trials, got {trials}")
    traces = _trial_traces(n, trials, k_max, dist, master_seed, threads)
    entries: list[MomentEntry] = []
    for k in range(1, k_max + 1):
        entries.append(_moment_entry(traces[:, k - 1], k, None))
    for k in range(1, k_max + 1):
        for l in range(k, k_max + 1):
            entries.append(_moment_entry(traces[:, k - 1] * traces[:, l - 1], k, l))
    return MomentReport(
        n=n, trials=trials, k_max=k_max, dist=dist, seed=master_seed, entries=entries
    )
