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
``run_clt`` and ``moment_suite`` share one trial loop that draws the
class values of consecutive trials into one array per stack (the draws
of about 1 MiB of matrix entries), builds P and Q straight from those
rows with the same Weaver split ``weaver_blocks`` uses, and traces each
stack at once through ``trace_powers``'s core, so every trial's traces
above Tr M^1 are bitwise those of ``trace_powers`` on its blocks; the
mirrored matrix M is never formed.  ``les_polynomial`` runs the trial
loop's own stack step on one given matrix, fed with M's row-major
cells, in a one-matrix workspace.

Each worker thread keeps a generator, one PCG64 state dict and one
workspace for the whole call.  The workspace holds only buffers: P and
Q, and one scratch array that holds the stack's draws until P and Q are
split from them, then P's half powers, then Q's in the leading entries
of the same buffers.  A partial last stack uses the leading rows of all
of them.  Each stack writes Tr M^1, then Tr P^k and adds Tr Q^k for
k >= 2, straight into its own rows of the call's one ``(trials, k_max)``
result, so a stack allocates only arrays of one number per trial.  For
k_max <= 6 the draws and the two half powers fill about the same
n^2 / 2 doubles per trial, so a worker holds about n^2 doubles per
trial of its stack.

Every trial owns a derived seed
(``splitmix64(splitmix64(master_seed) + trial)``), so different master
seeds draw different matrices and the sample multiset is independent of
the execution schedule and the worker count.  Stack boundaries depend
only on the order and the trial count, and reductions run in
trial-index order, so reports are bit-identical for a fixed master seed
and any worker count.  Two settings outside the schedule move the last
bits: the BLAS thread count (OpenBLAS's threaded ``dgemm`` moves traces
at n = 1000 by up to 5.3e-15) and h = ceil(k_max / 2), on which
``_trace_core``'s read rule depends.

Trial t draws exactly what
``sample_centro(n, dist, trial_seed(master_seed, t))`` draws, but the
trial loop builds no PCG64 per trial: it hashes all of a call's trial
seeds into their seed words at once, replaying numpy's SeedSequence on
arrays, and for each trial in turn refills the worker's one state dict
from that trial's words and sets the worker's generator to it.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .centro import (
    CentroMatrix,
    WeaverBlocks,
    _check_dist,
    _draw,
    _weaver_split,
    class_count,
)
from .eig import Spectrum, _trace_core
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

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _splitmix64(x):
    """splitmix64 of a Python int, or of every element of a uint64 array
    (whose arithmetic wraps modulo 2**64 by itself)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def trial_seed(master_seed: int, trial: int) -> int:
    """Derived per-trial seed: ``splitmix64(splitmix64(master_seed) + trial)``.

    Hashing the master seed before adding the trial index keeps the seed
    sets of different master seeds apart; ``splitmix64`` is a bijection
    on 64-bit words, so two masters share a seed only when their hashes
    lie closer together than the trial count.  A master seed outside
    ``0 <= master_seed < 2**64`` raises ValueError rather than aliasing
    one inside, and so does a trial index outside ``0 <= trial < 2**64``.
    """
    if not 0 <= master_seed <= _MASK64:
        raise ValueError(f"master seed must be in [0, 2**64), got {master_seed}")
    if not 0 <= trial <= _MASK64:
        raise ValueError(f"trial index must be in [0, 2**64), got {trial}")
    return _splitmix64((_splitmix64(master_seed) + trial) & _MASK64)


def _trial_seeds(master_seed: int, trials: int) -> np.ndarray:
    """``trial_seed(master_seed, t)`` for t = 0 .. trials-1 as a uint64 array."""
    start = np.uint64(_splitmix64(master_seed))
    return _splitmix64(np.arange(trials, dtype=np.uint64) + start)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every 64-bit seed
    s in ``seeds``, as one ``(len(seeds), 4)`` uint64 array.

    Replays numpy's SeedSequence on whole columns of uint32 words: the
    pool of four words takes the seed's low and high words (a seed
    below 2**32 is one word, and the pool pads it with ``hashmix(0)``,
    the value the zero high word hashes to), every pool word is mixed
    into every other, and eight output words are hashed out of the pool
    in turn.  The hash constants advance the same way for every seed,
    so they stay Python ints.  This pins numpy's SeedSequence and PCG64
    seeding, which numpy keeps stream-stable across releases.
    """
    hash_const = _HASH_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _HASH_MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    zero = np.zeros(len(seeds), dtype=np.uint32)
    low, high = (seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32)
    pool = [hashmix(w) for w in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    state = np.empty((len(seeds), 8), dtype=np.uint32)
    hash_const = _HASH_INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * _HASH_MULT_B) & _MASK32
        value = value * hash_const
        state[:, i] = value ^ (value >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _pcg64_state(words, into: dict) -> dict:
    """Refill ``into``, a PCG64 state dict with no buffered 32-bit word,
    with ``np.random.PCG64(s).state`` from ``s``'s four seed words (Python
    ints), and return it.

    PCG64 seeds its 128-bit LCG with ``words[0:2]`` as the initial state
    and ``words[2:4]`` as the stream: ``inc = 2 stream + 1`` and
    ``state = (inc + initial) * MULT + inc`` modulo 2**128.
    """
    initial = (words[0] << 64) | words[1]
    inc = (((words[2] << 64) | words[3]) << 1 | 1) & _MASK128
    state = ((initial + inc) * _PCG64_MULT + inc) & _MASK128
    into["state"]["state"] = state
    into["state"]["inc"] = inc
    return into


def _ordered_map(work, count: int, threads: int | None) -> list:
    """Apply ``work`` to 0..count-1, results in index order regardless of schedule.

    Runs on at most ``min(threads, count, cpus)`` workers (one when
    ``threads`` is None), where ``cpus`` is the number of CPUs this
    process may run on (its affinity set where the platform reports one,
    else ``os.cpu_count()``): more would only hold more stacks in memory
    at once, since results do not depend on the worker count (bit for
    bit, on the terms the module docstring states).
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(threads or 1, count, cpus)
    if workers <= 1:
        return [work(t) for t in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, range(count)))


def _stack_size(n: int) -> int:
    """Trials per stack: as many as fill about 1 MiB (2**17 doubles) of
    matrix entries, at least one.

    A stack holds only its trials' class draws, about half of that, and
    its Weaver blocks.  Stacks amortize per-call overhead at small
    orders; the size cap keeps the memory of a stack and its block
    powers small.  The size, and so every stack boundary, depends only
    on n.
    """
    return max(1, 2**17 // (n * n))


class _Workspace:
    """The buffers of one stack step for up to ``rows`` matrices, which
    a worker thread reuses for every stack of one call: the two Weaver
    blocks and one scratch array that holds the ``(rows, class_count(n))``
    draws until the blocks are split from them, then
    ``ceil(k_max / 2) - 1`` flat half-power buffers sized for ``plus``,
    which ``minus`` reuses after ``plus`` is traced.
    """

    def __init__(self, n: int, rows: int, k_max: int) -> None:
        h, c = n // 2, class_count(n)
        size = rows * (n - h) ** 2
        powers = (k_max + 1) // 2 - 1
        scratch = np.empty(max(rows * c, powers * size))
        self.draws = scratch[: rows * c].reshape(rows, c)
        self.pool = [scratch[i * size : (i + 1) * size] for i in range(powers)]
        self.plus = np.empty((rows, n - h, n - h))
        self.minus = np.empty((rows, h, h))


def _draw_traces(
    cells: np.ndarray, n: int, k_max: int, ws: _Workspace, out: np.ndarray
) -> None:
    """Write into ``out``, shape ``(len(cells), k_max)``, Tr M^1 .. M^k_max
    of the matrices whose scaled row-major cells, at least the first
    ``class_count(n)``, are the rows of ``cells``, without forming the
    matrices.

    The Weaver blocks and their half powers go into the leading entries
    of ``ws``'s buffers, which must have at least ``len(cells)`` rows;
    ``cells`` are read before any power is formed, so they may be
    ``ws.draws``.  Tr M^1 sums M's diagonal in M's own order: the
    diagonal cells among the first ``class_count(n)`` (the top half, and
    the center for odd n), then the same cells reversed without the
    center, so it equals ``np.trace`` of M bitwise.  Each higher trace is
    Tr P^k, then Tr Q^k added to it.
    """
    rows = len(cells)
    d = cells[:, : class_count(n) : n + 1]
    out[:, 0] = np.concatenate([d, d[:, ::-1][:, n % 2 :]], axis=1).sum(-1)
    blocks = _weaver_split(cells, n, WeaverBlocks(ws.plus[:rows], ws.minus[:rows]))
    _trace_core((blocks.plus, blocks.minus), k_max, ws.pool, out)


def _trial_traces(
    n: int, trials: int, k_max: int, dist: str, master_seed: int, threads: int | None
) -> np.ndarray:
    """Tr M^1 .. M^k_max of every trial's matrix, shape ``(trials, k_max)``.

    Trial t draws its class values from ``trial_seed(master_seed, t)``
    exactly as ``sample_centro`` does; consecutive trials are drawn into
    one array per stack of ``_stack_size(n)`` and traced together from
    their Weaver blocks.  ``dist`` and the master seed, which must lie in
    ``[0, 2**64)``, are checked before any seed is hashed or worker
    started.  The PCG64 states of all trials come from one vectorized
    seed hash.  Each worker thread builds a generator, one state dict and
    one ``_Workspace`` on its first stack and reuses them for the rest of
    the call: the state dict is refilled with each trial's state and the
    generator set to it before drawing that trial's row.  Each stack
    writes its traces straight into its own rows of the result.  A trace
    past the double range is inf or nan, without a warning in any worker
    thread.
    """
    if n < 1:
        raise ValueError(f"matrix order must be positive, got {n}")
    _check_dist(dist)
    if not 0 <= master_seed <= _MASK64:
        raise ConfigError(f"master seed must be in [0, 2**64), got {master_seed}")
    size = _stack_size(n)
    words = _seed_words(_trial_seeds(master_seed, trials))
    traces = np.empty((trials, k_max))
    local = threading.local()

    def work(s: int) -> None:
        stack = words[s * size : (s + 1) * size].tolist()
        if not hasattr(local, "ws"):
            local.ws = _Workspace(n, min(size, trials), k_max)
            local.rng = np.random.Generator(np.random.PCG64(0))
            local.state = local.rng.bit_generator.state
        ws = local.ws
        draws = ws.draws[: len(stack)]
        states = map(_pcg64_state, stack, itertools.repeat(local.state))
        _draw(local.rng, n, dist, draws, states)
        with np.errstate(over="ignore", invalid="ignore"):  # per thread
            _draw_traces(draws, n, k_max, ws, traces[s * size : s * size + len(stack)])

    _ordered_map(work, (trials + size - 1) // size, threads)
    return traces


def _les_values(traces: np.ndarray, f: Polynomial, n: int):
    """L_n(f) from rows of traces Tr M^1 .. M^deg f."""
    value = f.coeffs[0] * n + sum(
        f.coeffs[k] * traces[..., k - 1] for k in range(1, f.degree + 1)
    )
    return value.real if f.is_real else value


def les_polynomial(m: CentroMatrix, f: Polynomial):
    """L_n(f) through the trace path: ``a_0 n + sum_k a_k Tr M^k``.

    Runs the trial loop's stack step on M's row-major cells in a
    one-matrix workspace; the step reads the first ``class_count(n)`` of
    them: Weaver blocks and matrix products only.  Returns a float for
    real coefficients, complex otherwise.
    """
    n, k_max = m.n, f.degree
    traces = np.empty((1, k_max))
    _draw_traces(m.entries.reshape(1, n * n), n, k_max, _Workspace(n, 1, k_max), traces)
    return _les_values(traces[0], f, n)


def les_analytic(spec: Spectrum, f) -> complex:
    """L_n(f) as a pointwise sum of f over the eigenvalues."""
    if not spec.converged:
        raise DiagnosticError("spectrum did not converge; eigenvalue sum unreliable")
    return complex(np.sum(f(spec.values)))


def _unit_scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """``x * 2**-e`` and ``e``, the ``frexp`` exponent of max|x|.

    The scaled entries have magnitude below 1 and the largest at least
    1/2, so their squares and sums of squares neither overflow nor
    vanish.  Scaling by a power of two is exact, so a statistic of
    degree p computed on the scaled samples and multiplied by ``2**(p*e)``
    is bitwise the unscaled one wherever that stays in the normal range.
    """
    e = math.frexp(float(np.max(np.abs(x), initial=0.0)))[1]
    return np.ldexp(x, -e), e


def _variance(x: np.ndarray) -> float:
    """Unbiased sample variance of real samples, computed at unit scale."""
    scaled, e = _unit_scaled(x)
    return float(np.ldexp(scaled.var(ddof=1), 2 * e))


def ks_statistic(samples) -> float:
    """Kolmogorov-Smirnov distance of standardized samples to N(0, 1).

    Samples are shifted and scaled by their own mean and (unbiased)
    standard deviation first, so the statistic is invariant under affine
    shifts of the input; they are brought to unit scale by an exact power
    of two before that, so the invariance holds at any magnitude, where
    their squares would overflow or underflow.  For the sorted
    standardized values z_1..z_n it is
    ``max_i max(i/n - Phi(z_i), Phi(z_i) - (i-1)/n)`` with
    ``Phi(z) = erfc(-z/sqrt(2))/2``.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise DiagnosticError("need at least two samples")
    x, _ = _unit_scaled(x)
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        raise DiagnosticError("zero sample variance; cannot standardize")
    z = np.sort((x - x.mean()) / sd)
    cdf = np.array([math.erfc(-v / math.sqrt(2.0)) / 2.0 for v in z])
    d_plus = np.arange(1.0, z.size + 1) / z.size - cdf
    d_minus = cdf - np.arange(0.0, z.size) / z.size
    return float(max(d_plus.max(), d_minus.max()))


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
    limiting variance.  A sample or sample variance past the double
    range raises ``ConfigError``.
    """
    if trials < 2:
        raise ConfigError(f"need at least 2 trials, got {trials}")
    start = time.perf_counter()
    theoretical = closed_form_variance(f)  # a ConfigError here costs no trial
    traces = _trial_traces(n, trials, f.degree, dist, master_seed, threads)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised below
        values = _les_values(traces, f, n)
        centered = values - values.mean()
        if f.is_real:
            empirical = _variance(values)
            var_re = var_im = None
        else:
            moduli, e = _unit_scaled(np.abs(centered))
            empirical = float(np.ldexp(np.sum(moduli**2) / (trials - 1), 2 * e))
            var_re = _variance(values.real)
            var_im = _variance(values.imag)
    variances = [empirical] if f.is_real else [empirical, var_re, var_im]
    if not (np.isfinite(centered).all() and np.isfinite(variances).all()):
        raise ConfigError(f"L_n(f) or its sample variance overflows the double range at n={n}")
    ks = ks_statistic(centered.real)
    return CltReport(
        n=n,
        trials=trials,
        f=f,
        samples=centered,
        empirical_variance=empirical,
        theoretical_variance=theoretical,
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
        """The entry for E[Tr M^k], or E[Tr M^k Tr M^l] with k and l in either order."""
        if l is not None:
            k, l = min(k, l), max(k, l)
        for e in self.entries:
            if e.k == k and e.l == l:
                return e
        raise KeyError(f"no moment entry for k={k}, l={l}")


def _moment_entry(traces: np.ndarray, k: int, l: int | None) -> MomentEntry:
    """E[Tr M^k], or E[Tr M^k Tr M^l], from rows of traces Tr M^1 .. M^k_max."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised below
        values = traces[:, k - 1] if l is None else traces[:, k - 1] * traces[:, l - 1]
        est = float(values.mean())
        se = float(values.std(ddof=1) / np.sqrt(values.size))
    if not (math.isfinite(est) and math.isfinite(se)):
        chain = f"Tr M^{k}" if l is None else f"Tr M^{k} Tr M^{l}"
        raise ConfigError(f"E[{chain}] or its standard error overflows the double range")
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
    error and z-score against its asymptotic target.  An estimate or
    standard error past the double range raises ``ConfigError``.
    """
    if k_max < 2:
        raise ConfigError(f"need k_max >= 2, got {k_max}")
    if trials < 2:
        raise ConfigError(f"need at least 2 trials, got {trials}")
    traces = _trial_traces(n, trials, k_max, dist, master_seed, threads)
    entries = [_moment_entry(traces, k, None) for k in range(1, k_max + 1)]
    entries += [
        _moment_entry(traces, k, l) for k in range(1, k_max + 1) for l in range(k, k_max + 1)
    ]
    return MomentReport(
        n=n, trials=trials, k_max=k_max, dist=dist, seed=master_seed, entries=entries
    )
