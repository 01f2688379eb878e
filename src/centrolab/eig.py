"""Dense nonsymmetric eigensolver and trace-power evaluation.

Eigenvalues come from the classical dense pipeline: diagonal balancing,
Householder reduction to Hessenberg form, then implicit double-shift
(Francis) QR with deflation.  Complex conjugate pairs emerge from real
2x2 blocks, so the iteration itself never touches complex arithmetic.
``spectra`` is the one QR core: it sweeps a stack of matrices in
lockstep, so the bulges of all of them go through the same numpy calls.
Each bulge-chase step forms every matrix's symmetric 3x3 Householder
reflector (the closing 2x2 one embedded as ``diag(R, 1)``, the identity
where the matrix's window does not reach) from Python floats and
applies them with one stacked in-place product per side, to the rows
and then the columns they touch.  A step costs numpy call overhead far
more than arithmetic, so solving two matrices together takes about as
many calls as solving one.  ``eigenvalues`` is ``spectra`` on one
matrix.  Both are general dense solvers: they do not look for
centrosymmetry.  ``centrolab spectrum`` solves the two Weaver blocks
together in one ``spectra`` call, while tests compare that against the
full-matrix solve as an independent route.

Spectral power sums also have a route that avoids the eigensolver.
``trace_powers`` is the batched core of that route: for a matrix or a
``(..., n, n)`` stack it forms only the half powers A^2 .. A^ceil(k/2)
and reads ``Tr A^k = sum(A^i * (A^j)^T)`` (i + j = k) off two of them.
The Monte Carlo engine applies it to the two Weaver blocks P and Q of a
centrosymmetric matrix, ``Tr M^k = Tr P^k + Tr Q^k``, which needs about
an eighth of the flops of dense powers of M.  ``trace_power`` (repeated
multiplication of the full matrix with one final trace) is the dense
reference that tests and benchmark checks compare the core against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Spectrum",
    "balance",
    "eigenvalues",
    "hessenberg",
    "spectra",
    "spectral_radial_cdf",
    "trace_power",
    "trace_powers",
]

_EPS = np.finfo(float).eps
_DEFLATE = 8.0 * _EPS  # subdiagonal negligibility threshold
_EXCEPTIONAL_EVERY = 10  # stalled sweeps between ad-hoc shifts
# range of the largest balanced entry that the QR sweeps take unscaled:
# products of two entries neither overflow nor underflow there (2**-459
# and 2**459, LAPACK xGEEV's thresholds)
_SAFE_MIN = math.sqrt(np.finfo(float).tiny) / _EPS
_SAFE_MAX = 1.0 / _SAFE_MIN


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset plus solver diagnostics.

    ``values`` holds all n eigenvalues (complex entries in conjugate
    pairs); ``iterations`` counts QR sweeps, ``exceptional_shifts`` the
    sweeps among them that took an ad-hoc shift; ``converged`` is False only
    when some block failed to deflate within the sweep budget, in which
    case ``values`` still has length n but carries best-effort entries
    for the unconverged window.
    """

    values: np.ndarray
    iterations: int
    converged: bool
    exceptional_shifts: int = 0


def _as_array(mat) -> np.ndarray:
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def balance(mat) -> np.ndarray:
    """Diagonal similarity scaling (powers of 2) equalizing row/column norms.

    Scaling by exact powers of the radix is lossless in floating point
    and never touches the diagonal, so trace and spectrum are preserved
    bitwise.
    """
    a = np.array(_as_array(mat), dtype=float)
    n = a.shape[0]
    radix = 2.0
    done = False
    while not done:
        done = True
        for i in range(n):
            row = np.abs(a[i, :])
            col = np.abs(a[:, i])
            row[i] = col[i] = 0.0  # subtracting |a_ii| from the sums would cancel tiny ones
            r = float(np.sum(row))
            c = float(np.sum(col))
            if r == 0.0 or c == 0.0:
                continue
            s = c + r
            f = 1.0
            while c < r / radix:
                c *= radix
                r /= radix
                f *= radix
            while c >= r * radix:
                c /= radix
                r *= radix
                f /= radix
            if c + r < 0.95 * s:
                a[i, :] /= f
                a[:, i] *= f
                done = False
    return a


def hessenberg(mat) -> np.ndarray:
    """Reduce to upper Hessenberg form by Householder orthogonal similarity.

    Each column is scaled by the power of two ``2**-e`` with ``e`` the
    ``frexp`` exponent of its largest entry before its reflector is
    formed, so squaring it neither overflows nor underflows; the
    reflector does not depend on the column's scale, and only ``alpha``
    is scaled back.  Scaling by a power of two is exact, so wherever no
    intermediate value leaves the normal range the result is bitwise
    what the unscaled reduction gives.
    """
    h = np.array(_as_array(mat), dtype=float)
    n = h.shape[0]
    for k in range(n - 2):
        big = float(np.max(np.abs(h[k + 1 :, k])))
        if big == 0.0:
            continue
        exp = math.frexp(big)[1]
        v = np.ldexp(h[k + 1 :, k], -exp)
        alpha = float(np.linalg.norm(v))
        if v[0] > 0:
            alpha = -alpha
        v[0] -= alpha  # |v[0]| + |alpha| >= 1/2: v @ v is never 0
        w = 2.0 / float(v @ v)
        h[k + 1 :, k:] -= np.outer(w * v, v @ h[k + 1 :, k:])
        h[:, k + 1 :] -= np.outer(h[:, k + 1 :] @ v, w * v)
        h[k + 2 :, k] = 0.0
        h[k + 1, k] = math.ldexp(alpha, exp)
    return h


def _eig2x2(a: float, b: float, c: float, d: float) -> tuple[complex, complex]:
    """Eigenvalues of [[a, b], [c, d]], exact conjugates when complex."""
    half = 0.5 * (a + d)
    det = a * d - b * c
    disc = half * half - det
    if disc >= 0.0:
        root = math.sqrt(disc)
        lead = half + root if half >= 0.0 else half - root
        other = det / lead if lead != 0.0 else 0.0
        return complex(lead), complex(other)
    root = math.sqrt(-disc)
    return complex(half, root), complex(half, -root)


_IDENTITY = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def _householder(x: float, y: float, z: float | None = None):
    """Symmetric reflector ``R = I - tau v v^T`` mapping (x, y[, z]) onto +/- e1.

    Returns the nine row-major entries of a 3x3 matrix as Python floats;
    without z, R is 2x2 and comes embedded as ``diag(R, 1)``.  Returns
    None when the column is zero.  The scalars are LAPACK ``dlarfg``'s:
    ``v[0] = 1`` and ``|v[i]| <= 1``, so nothing overflows.
    """
    beta = math.hypot(x, y) if z is None else math.hypot(x, y, z)
    if beta == 0.0:
        return None
    if x > 0:
        beta = -beta
    d = x - beta  # |d| = |x| + |beta|: no cancellation
    tau = -d / beta
    v1 = y / d
    t1 = tau * v1
    if z is None:
        return (1.0 - tau, -t1, 0.0, -t1, 1.0 - t1 * v1, 0.0, 0.0, 0.0, 1.0)
    v2 = z / d
    t2 = tau * v2
    t12 = t1 * v2
    return (1.0 - tau, -t1, -t2, -t1, 1.0 - t1 * v1, -t12, -t2, -t12, 1.0 - t2 * v2)


def _peel_blocks(h: np.ndarray, lo: int, hi: int, values: np.ndarray) -> None:
    """Fill values[lo..hi] from the current 1x1/2x2 diagonal blocks as-is."""
    i = hi
    while i >= lo:
        if i == lo or h[i, i - 1] == 0.0:
            values[i] = h[i, i]
            i -= 1
        else:
            values[i - 1], values[i] = _eig2x2(
                h[i - 1, i - 1], h[i - 1, i], h[i, i - 1], h[i, i]
            )
            i -= 2


def _reduce(mat) -> tuple[np.ndarray, int]:
    """Balanced Hessenberg form of ``mat`` and the power of two it was scaled by.

    A balanced matrix whose largest entry lies outside [2**-459, 2**459]
    is scaled by ``2**-exp`` before the reduction; otherwise ``exp = 0``.
    Entries of -0.0 become +0.0, as the identity steps of a stacked sweep
    would turn them, so a solve alone and in a stack agree to the sign
    of every zero.
    """
    a = _as_array(mat)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    b = balance(a)
    b += 0.0
    amax = float(np.max(np.abs(b), initial=0.0))
    exp = math.frexp(amax)[1] if amax > _SAFE_MAX or 0.0 < amax < _SAFE_MIN else 0
    return hessenberg(np.ldexp(b, -exp) if exp else b), exp


def _bulge(h: np.ndarray, lo: int, hi: int, adhoc: bool) -> list:
    """First column (x, y, z) of the double-shift polynomial on window [lo, hi].

    The shifts are the eigenvalues of the trailing 2x2 block, or with
    ``adhoc`` an exceptional pair built from the stalled subdiagonal
    magnitudes.
    """
    if adhoc:
        mag = abs(h[hi, hi - 1]) + abs(h[hi - 1, hi - 2])
        shift_sum = 1.5 * mag
        shift_prod = -0.4375 * mag * mag
    else:
        shift_sum = h[hi - 1, hi - 1] + h[hi, hi]
        shift_prod = h[hi - 1, hi - 1] * h[hi, hi] - h[hi - 1, hi] * h[hi, hi - 1]
    x = (
        h[lo, lo] * h[lo, lo]
        + h[lo, lo + 1] * h[lo + 1, lo]
        - shift_sum * h[lo, lo]
        + shift_prod
    )
    y = h[lo + 1, lo] * (h[lo, lo] + h[lo + 1, lo + 1] - shift_sum)
    z = h[lo + 1, lo] * h[lo + 2, lo + 1]
    return [x, y, z]


def spectra(mats, max_sweeps: int | None = None) -> list[Spectrum]:
    """Full eigenvalue multisets of real square matrices, solved in lockstep.

    Each matrix goes through ``balance`` -> ``hessenberg`` -> implicit
    double-shift QR with deflation, and its ``Spectrum`` is bitwise the
    one it gets when solved alone (``eigenvalues``).  The Hessenberg
    forms are zero-padded into one stack of the largest order plus one
    spare row and column.  Each round, every unfinished matrix deflates
    what it can and then makes one double-shift sweep on its own active
    window [lo, hi], with its own shifts, stall counter, exceptional
    shifts and sweep budget.  The bulges are chased together: at step k
    every matrix whose window covers k gets its 3x3 reflector (the
    closing 2x2 one embedded as ``diag(R, 1)``), every other matrix the
    identity, and one stacked product per side applies them all.  The
    rows and columns a stacked slice touches beyond a matrix's window
    are never read again by eigenvalue-only QR, except column lo - 1,
    whose three entries at and below the deflated h[lo, lo-1] are
    zeroed so the reflector leaves them zero.

    A balanced matrix whose largest entry lies outside [2**-459, 2**459]
    is scaled by an exact power of two before the Hessenberg reduction
    and its eigenvalues are scaled back, so entries near the overflow or
    underflow limit neither overflow nor stall the sweeps; any other
    input is solved exactly as it is.  Scaling after balancing keeps the
    small entries of graded matrices, which scaling the raw input by its
    largest entry would flush to zero.  A subdiagonal entry h[i+1, i] is
    treated as zero when ``|h[i+1, i]| <= 8*eps*(|h[i, i]| + |h[i+1, i+1]|)``;
    an ad-hoc exceptional shift is used every 10 stalled sweeps and
    counted in ``exceptional_shifts``.  ``max_sweeps`` caps each
    matrix's sweep count (default ``30 * n`` for a matrix of order n);
    on exhaustion that matrix is flagged ``converged=False`` with
    best-effort values.
    """
    reduced = [_reduce(m) for m in mats]
    orders = [h.shape[0] for h, _ in reduced]
    size = max(orders, default=0) + 1
    stack = np.zeros((len(reduced), size, size))
    for padded, (h, _) in zip(stack, reduced):
        padded[: h.shape[0], : h.shape[0]] = h
    values = [np.empty(n, dtype=complex) for n in orders]
    budgets = [30 * n if max_sweeps is None else max_sweeps for n in orders]
    his = [n - 1 for n in orders]
    sweeps = [0] * len(orders)
    stalls = [0] * len(orders)
    exceptional = [0] * len(orders)
    converged = [True] * len(orders)
    slots = list(range(len(orders)))  # stack[j] holds matrix slots[j]

    while slots:
        # one vectorized deflation test per round; peeling leaves it valid
        top = max(his[m] for m in slots) + 1
        diag = np.abs(stack.diagonal(0, 1, 2)[:, :top])
        negligible = (
            np.abs(stack.diagonal(-1, 1, 2)[:, : top - 1])
            <= _DEFLATE * (diag[:, :-1] + diag[:, 1:])
        ).tolist()
        windows = []  # (slot, lo, hi) of each matrix that sweeps this round
        for j, m in enumerate(slots):
            h, hi, split = stack[j], his[m], negligible[j]
            while hi >= 0:
                # the lowest row of the active block: the first negligible subdiagonal above hi
                lo = hi
                while lo > 0 and not split[lo - 1]:
                    lo -= 1
                if lo < hi - 1:
                    break
                _peel_blocks(h, lo, hi, values[m])  # a deflated 1x1 or 2x2 block
                hi = lo - 1
                stalls[m] = 0
            if hi >= 0:
                if lo:  # column lo - 1 then stays zero under the stacked row products
                    h[lo : lo + 3, lo - 1] = 0.0
                if sweeps[m] >= budgets[m]:
                    converged[m] = False
                    _peel_blocks(h, 0, hi, values[m])
                    hi = -1
                else:
                    windows.append((j, lo, hi))
            his[m] = hi
        if len(windows) < len(slots):  # drop the finished matrices from the stack
            stack = stack[[j for j, _, _ in windows]]
            slots = [slots[j] for j, _, _ in windows]
            windows = [(i, lo, hi) for i, (_, lo, hi) in enumerate(windows)]
        if not windows:
            break

        chases = []  # (lo, hi, first bulge column) of stack[j]
        for j, lo, hi in windows:
            m = slots[j]
            sweeps[m] += 1
            stalls[m] += 1
            adhoc = stalls[m] % _EXCEPTIONAL_EVERY == 0
            exceptional[m] += adhoc
            chases.append((lo, hi, _bulge(stack[j], lo, hi, adhoc)))
        k0 = min(lo for lo, _, _ in chases)
        k1 = max(hi for _, hi, _ in chases)
        r = np.empty((len(chases), 3, 3))
        r_entries = r.reshape(-1)
        # chase every bulge down its window; step k is the identity outside [lo, hi)
        for k in range(k0, k1):
            entries = []
            for j, (lo, hi, first) in enumerate(chases):
                if lo <= k < hi:
                    x, y, z = first if k == lo else column[j]
                    entries += _householder(x, y, z if k < hi - 1 else None) or _IDENTITY
                else:
                    entries += _IDENTITY
            r_entries[:] = entries
            rows = stack[:, k : k + 3, max(k0, k - 1) : k1 + 1]
            rows[...] = r @ rows
            cols = stack[:, k0 : min(k + 4, k1 + 1), k : k + 3]
            cols[...] = cols @ r
            column = stack[:, k + 1 : k + 4, k].tolist()  # the bulge each step k + 1 reflects

    out = []
    for vals, (_, exp), n_sweeps, ok, n_exc in zip(values, reduced, sweeps, converged, exceptional):
        if exp:
            vals.real = np.ldexp(vals.real, exp)
            vals.imag = np.ldexp(vals.imag, exp)
        out.append(
            Spectrum(values=vals, iterations=n_sweeps, converged=ok, exceptional_shifts=n_exc)
        )
    return out


def eigenvalues(mat, max_sweeps: int | None = None) -> Spectrum:
    """Full eigenvalue multiset of a real square matrix: ``spectra([mat], max_sweeps)[0]``."""
    return spectra([mat], max_sweeps)[0]


def trace_power(mat, k: int) -> float:
    """Trace of the k-th matrix power by repeated multiplication.

    No eigensolver involvement: this is the independent measurement path
    for spectral power sums.
    """
    if k < 1:
        raise ValueError(f"power must be positive, got {k}")
    a = _as_array(mat)
    p = a
    for _ in range(k - 1):
        p = p @ a
    return float(np.trace(p))


def trace_powers(mat, k_max: int) -> np.ndarray:
    """Traces of A^1 .. A^k_max for a real matrix or a ``(..., n, n)`` stack.

    Forms the half powers A^2 .. A^h with ``h = ceil(k_max / 2)``, that is
    ``h - 1`` products, and reads each trace off two of them:
    ``Tr A^k = sum(A^i * (A^j)^T)`` with ``i = ceil(k/2)``, ``j = floor(k/2)``.
    Returns shape ``(..., k_max)``; Tr A^1 is the diagonal sum.
    """
    if k_max < 1:
        raise ValueError(f"power must be positive, got {k_max}")
    a = np.asarray(mat, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a (..., n, n) array, got shape {a.shape}")
    powers = [None, a]  # powers[i] is A^i
    for _ in range((k_max + 1) // 2 - 1):
        powers.append(powers[-1] @ a)
    out = np.empty(a.shape[:-2] + (k_max,))
    out[..., 0] = np.trace(a, axis1=-2, axis2=-1)
    for k in range(2, k_max + 1):
        out[..., k - 1] = np.einsum("...ij,...ji->...", powers[(k + 1) // 2], powers[k // 2])
    return out


def spectral_radial_cdf(spec: Spectrum, grid) -> np.ndarray:
    """Fraction of eigenvalues with ``|lambda| <= r`` for each grid radius."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("radius grid must be a nonempty 1-d sequence")
    if np.any(g < 0) or np.any(np.diff(g) < 0):
        raise ValueError("radius grid must be sorted ascending and nonnegative")
    radii = np.sort(np.abs(spec.values))
    return np.searchsorted(radii, g, side="right") / radii.size
