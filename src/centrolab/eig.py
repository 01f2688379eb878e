"""Dense nonsymmetric eigensolver and trace-power evaluation.

Eigenvalues come from the classical dense pipeline: diagonal balancing,
Householder reduction to Hessenberg form, then implicit double-shift
(Francis) QR with deflation.  Complex conjugate pairs emerge from real
2x2 blocks, so the iteration itself never touches complex arithmetic.
Each bulge-chase step forms its symmetric 3x3 Householder reflector (2x2
at the last step) from Python floats and applies it with one in-place
matrix product per side, to the rows and then the columns it touches.
``eigenvalues`` is a general dense solver: it does not look for
centrosymmetry.  ``centrolab spectrum`` solves the two Weaver blocks
with it, while tests compare that against the full-matrix solve as an
independent route.

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

from .centro import CentroMatrix

__all__ = [
    "Spectrum",
    "balance",
    "eigenvalues",
    "hessenberg",
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
    a = mat.entries if isinstance(mat, CentroMatrix) else np.asarray(mat, dtype=float)
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
        v[0] -= alpha
        vnorm2 = float(v @ v)
        if vnorm2 == 0.0:
            continue
        w = 2.0 / vnorm2
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


def _householder(x: float, y: float, z: float | None = None):
    """Symmetric reflector ``R = I - tau v v^T`` mapping (x, y[, z]) onto +/- e1.

    Returns R as a 3x3 array (2x2 without z), or None when the column
    is zero.  The scalars are LAPACK ``dlarfg``'s: ``v[0] = 1``
    and ``|v[i]| <= 1``, so nothing overflows, and every entry of R is
    computed in Python floats and packed by one ``np.array`` call.
    Rows are reflected in place by ``rows[...] = r @ rows``, columns by
    ``cols[...] = cols @ r``: one numpy product per side.
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
        return np.array((1.0 - tau, -t1, -t1, 1.0 - t1 * v1)).reshape(2, 2)
    v2 = z / d
    t2 = tau * v2
    t12 = t1 * v2
    return np.array(
        (1.0 - tau, -t1, -t2, -t1, 1.0 - t1 * v1, -t12, -t2, -t12, 1.0 - t2 * v2)
    ).reshape(3, 3)


def _peel_blocks(h: np.ndarray, hi: int, values: np.ndarray) -> None:
    """Fill values[0..hi] from the current 1x1/2x2 diagonal blocks as-is."""
    i = hi
    while i >= 0:
        if i == 0 or h[i, i - 1] == 0.0:
            values[i] = h[i, i]
            i -= 1
        else:
            values[i - 1], values[i] = _eig2x2(
                h[i - 1, i - 1], h[i - 1, i], h[i, i - 1], h[i, i]
            )
            i -= 2


def eigenvalues(mat, max_sweeps: int | None = None) -> Spectrum:
    """Full eigenvalue multiset of a real square matrix.

    Pipeline: ``balance`` -> ``hessenberg`` -> implicit double-shift QR
    with deflation.  A balanced matrix whose largest entry lies outside
    [2**-459, 2**459] is scaled by an exact power of two before the
    Hessenberg reduction and its eigenvalues are scaled back, so entries
    near the overflow or underflow limit neither overflow nor stall the
    sweeps; any other input is solved exactly as it is.  Scaling after
    balancing keeps the small entries of graded matrices, which scaling
    the raw input by its largest entry would flush to zero.  A
    subdiagonal entry h[i+1, i] is treated as zero when
    ``|h[i+1, i]| <= 8*eps*(|h[i, i]| + |h[i+1, i+1]|)``; an ad-hoc
    exceptional shift is used every 10 stalled sweeps and counted in
    ``exceptional_shifts``.  ``max_sweeps`` caps the total sweep count
    (default ``30 * n``); on exhaustion the result is flagged
    ``converged=False`` with best-effort values.
    """
    a = _as_array(mat)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    n = a.shape[0]
    if max_sweeps is None:
        max_sweeps = 30 * n
    values = np.empty(n, dtype=complex)
    if n == 1:
        values[0] = a[0, 0]
        return Spectrum(values=values, iterations=0, converged=True)
    b = balance(a)
    amax = float(np.max(np.abs(b), initial=0.0))
    exp = math.frexp(amax)[1] if amax > _SAFE_MAX or 0.0 < amax < _SAFE_MIN else 0
    h = hessenberg(np.ldexp(b, -exp) if exp else b)

    hi = n - 1
    sweeps = 0
    stall = 0
    exceptional = 0
    converged = True
    while hi >= 0:
        # search upward for a negligible subdiagonal bounding the active block
        lo = hi
        while lo > 0:
            s = abs(h[lo - 1, lo - 1]) + abs(h[lo, lo])
            if abs(h[lo, lo - 1]) <= _DEFLATE * s:
                h[lo, lo - 1] = 0.0
                break
            lo -= 1
        if lo == hi:
            values[hi] = h[hi, hi]
            hi -= 1
            stall = 0
            continue
        if lo == hi - 1:
            values[hi - 1], values[hi] = _eig2x2(
                h[hi - 1, hi - 1], h[hi - 1, hi], h[hi, hi - 1], h[hi, hi]
            )
            hi -= 2
            stall = 0
            continue
        if sweeps >= max_sweeps:
            converged = False
            _peel_blocks(h, hi, values)
            break

        sweeps += 1
        stall += 1
        if stall % _EXCEPTIONAL_EVERY == 0:
            # ad-hoc shift built from the stalled subdiagonal magnitudes
            exceptional += 1
            mag = abs(h[hi, hi - 1]) + abs(h[hi - 1, hi - 2])
            shift_sum = 1.5 * mag
            shift_prod = -0.4375 * mag * mag
        else:
            shift_sum = h[hi - 1, hi - 1] + h[hi, hi]
            shift_prod = (
                h[hi - 1, hi - 1] * h[hi, hi] - h[hi - 1, hi] * h[hi, hi - 1]
            )

        # first column of (H - l1 I)(H - l2 I) restricted to the window
        x = (
            h[lo, lo] * h[lo, lo]
            + h[lo, lo + 1] * h[lo + 1, lo]
            - shift_sum * h[lo, lo]
            + shift_prod
        )
        y = h[lo + 1, lo] * (h[lo, lo] + h[lo + 1, lo + 1] - shift_sum)
        z = h[lo + 1, lo] * h[lo + 2, lo + 1]

        # 3x3 reflectors chase the bulge down; the last step (z = None) is 2x2
        for k in range(lo, hi):
            r = _householder(x, y, z)
            if r is not None:
                rows = h[k : k + len(r), max(lo, k - 1) : hi + 1]
                rows[...] = r @ rows
                cols = h[lo : min(k + len(r) + 1, hi + 1), k : k + len(r)]
                cols[...] = cols @ r
            if k < hi - 1:
                x = h.item(k + 1, k)
                y = h.item(k + 2, k)
                z = h.item(k + 3, k) if k < hi - 2 else None

    if exp:
        values.real = np.ldexp(values.real, exp)
        values.imag = np.ldexp(values.imag, exp)
    return Spectrum(
        values=values,
        iterations=sweeps,
        converged=converged,
        exceptional_shifts=exceptional,
    )


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
    a = mat.entries if isinstance(mat, CentroMatrix) else np.asarray(mat, dtype=float)
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
