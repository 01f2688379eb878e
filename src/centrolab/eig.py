"""Dense nonsymmetric eigensolver and trace-power evaluation.

Eigenvalues come from the classical dense pipeline: diagonal balancing,
Householder reduction to Hessenberg form, then implicit multishift QR
with deflation.  ``hessenberg`` reduces in compact-WY panels of 32
columns (LAPACK ``dgehrd``), 0.2 against 2.6 s for an unblocked loop at
order 1000.  Complex conjugate pairs emerge from real 2x2 blocks, so
the iteration itself never touches complex arithmetic.  ``spectra`` is
the one QR core: it sweeps a stack of matrices in lockstep, so the
bulges of all of them go through the same numpy calls.  A sweep chases
one bulge that carries m = ``_SHIFTS`` = 6 shifts, the multishift QR of
Bai and Demmel (1989): its first column is p(H) e1, p the
characteristic polynomial of the trailing m x m submatrix of the
unreduced block being swept, and (m + 1) x (m + 1) Householder
reflectors chase it down the block.  A block of fewer than m + 2 rows,
and the exceptional shift (LAPACK xLAHQR's) of every tenth stalled
sweep, take the double shift instead, a three-entry bulge in the same
reflectors.  Each round
every unreduced block of every matrix takes one sweep, so the bulges of
the stacked matrices span about the same rows.  A step is one ``take``
that reads every bulge column, the reflectors of all matrices formed
together (their scalars in Python floats, then one ``struct`` write and
one stacked product), and one stacked product per side.  For the two
order-100 Weaver blocks of ``centrolab spectrum --n 200`` a step takes
about 12 us on a 2-vCPU host, nearly all of it call overhead rather
than arithmetic, and a solve about 4,100 steps (the 3x3 steps of a
double-shift chase took about 8 us, and a solve about 10,300 of them).
``eigenvalues`` is ``spectra`` on one matrix.  Both are general dense
solvers: they do not look for centrosymmetry.
``centrolab spectrum`` solves the two Weaver blocks together in one
``spectra`` call, while tests compare that against the full-matrix
solve as an independent route.

Spectral power sums also have a route that avoids the eigensolver.
``trace_powers`` is the batched core of that route: for a matrix or a
``(..., n, n)`` stack it forms only the half powers A^2 .. A^h,
h = ceil(k/2), reads Tr A^1 .. A^h off their diagonals and
``Tr A^k = sum(A^h * (A^(k-h))^T)`` off the top power and A^(k-h).
When h >= 3 the top power A^h is stored transposed, written through a
transposed view of its buffer at 3-9% more than a plain write, so each
Tr A^k with h < k < 2h is a dot of two contiguous flattened arrays;
Tr A^2h, and every trace above h when h <= 2, is reduced over a
transposed operand.  No product reads the transposed power.  The dots
are ``einsum`` reductions, not BLAS calls, since a BLAS dot splits its
sum by the BLAS thread count.  ``_trace_core`` does the work in power
buffers its caller gives, and sums Tr A^2 .. A^k of several stacks into
a result its caller gives; Tr A^1 is the caller's.  ``trace_powers``
allocates both and writes ``np.trace`` of the matrix as Tr A^1.  The
Monte Carlo engine applies the core to the two Weaver blocks P and Q of
a centrosymmetric matrix, ``Tr M^k = Tr P^k + Tr Q^k``, which needs
about an eighth of the flops of dense powers of M, and takes Tr M^1
from M's own diagonal.  How each trace is read off the stored powers
depends on h alone, so k_max = 2h - 1 and 2h give the same bits.
``trace_power`` (repeated multiplication of the full matrix with one
final trace) is the dense reference that tests and benchmark checks
compare the core against.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import chain, repeat

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
_EXCEPTIONAL_EVERY = 10  # stalled sweeps between exceptional shifts
_SHIFTS = 6  # m, the shifts one bulge carries: 6 ran fastest of 4, 6 and 8
_PANEL = 32  # nb, the columns one Hessenberg panel reduces: fastest of 16-64 at order 100
# range of the largest balanced entry that the QR sweeps take unscaled:
# products of two entries neither overflow nor underflow there (2**-459
# and 2**459, LAPACK xGEEV's thresholds)
_SAFE_MIN = math.sqrt(np.finfo(float).tiny) / _EPS
_SAFE_MAX = 1.0 / _SAFE_MIN
# range of ``balance``'s scale factor and scaled sums: 2**-969 and 2**969
_BALANCE_MIN = 2.0 * np.finfo(float).tiny / _EPS
_BALANCE_MAX = 1.0 / _BALANCE_MIN


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset plus solver diagnostics.

    ``values`` holds all n eigenvalues (complex entries in conjugate
    pairs); ``iterations`` counts QR sweeps, one per unreduced block and
    round, ``exceptional_shifts`` the sweeps among them that took an
    exceptional shift.  ``converged`` is False in two cases only.
    Either some block failed to deflate within the sweep budget, in
    which case ``values`` still has length n but carries best-effort
    entries for the unconverged window.  Or an
    eigenvalue lies past the double range, so scaling it back overflowed
    and ``values`` holds an infinite entry.
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
    bitwise.  The off-diagonal magnitude sums are read off one array of
    magnitudes, scaled alongside the matrix.  An index whose row or
    column sum overflows is left for a later pass, and the scale factor
    and both scaled sums stay within [2**-969, 2**969] (LAPACK xGEBAL's
    ``SFMIN2`` and ``SFMAX2``), so finite entries stay finite.  Raises
    ``ValueError`` on non-finite entries.
    """
    a = np.array(_as_array(mat), dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    # the diagonal is left out: subtracting |a_ii| from the sums would cancel tiny ones
    mag = np.abs(a)
    np.fill_diagonal(mag, 0.0)
    add = np.add.reduce
    radix = 2.0
    done = False
    with np.errstate(over="ignore"):  # a sum that overflows only skips its index
        while not done:
            done = True
            for i in range(a.shape[0]):
                r = float(add(mag[i]))
                c = float(add(mag[:, i]))
                if not (0.0 < r < math.inf and 0.0 < c < math.inf):
                    continue
                s = c + r
                f = 1.0
                while c < r / radix and max(f, c) < _BALANCE_MAX and r / radix > _BALANCE_MIN:
                    c *= radix
                    r /= radix
                    f *= radix
                while c >= r * radix and r < _BALANCE_MAX and min(f, c / radix) > _BALANCE_MIN:
                    c /= radix
                    r *= radix
                    f /= radix
                if c + r < 0.95 * s:
                    a[i] /= f
                    a[:, i] *= f
                    mag[i] /= f
                    mag[:, i] *= f
                    done = False
    return a


def hessenberg(mat) -> np.ndarray:
    """Reduce to upper Hessenberg form by Householder orthogonal similarity.

    LAPACK ``dgehrd``'s compact-WY reduction (Quintana-Orti and van de
    Geijn, ACM TOMS 32(2), 2006) in panels of nb = ``_PANEL`` columns, a
    smaller matrix being one panel.  A panel's reflectors multiply to
    ``Q = I - V T V^T``, and ``A Q = A - Y V^T`` with ``Y = A V T``, A as
    the panel started.  Below the panel's first row, each column takes the
    earlier reflectors' updates ``-Y V^T`` and ``I - V T^T V^T`` as
    matrix-vector products, forms its reflector, then extends T and
    ``Z = A V`` (``Y = Z T``).  GEMMs then update the rows above the panel
    and the trailing columns.  The reflector scalars are ``_householder``'s
    (LAPACK ``dlarfg``'s), the norm from ``math.hypot`` over the column's
    ``tolist()``, which neither overflows nor underflows.  Entries below
    the subdiagonal are exact zeros.
    """
    h = np.array(_as_array(mat), dtype=float)
    n = h.shape[0]
    for j in range(0, n - 2, _PANEL):
        nb = min(_PANEL, n - 2 - j)
        low = h[j + 1 :]  # the rows the panel's reflectors act on
        # v[i]: reflector i on the rows of ``low``; z[i]: column i of Z = A V
        v, z, t = np.zeros((nb, n - j - 1)), np.zeros((nb, n - j - 1)), np.zeros((nb, nb))
        for i in range(nb):
            col, ti, vi = low[:, j + i], t[:i, :i], v[:i]
            if i:  # row j + i of V is column i - 1 of v
                col -= (ti @ vi[:, i - 1]) @ z[:i]
                col -= ((vi @ col) @ ti) @ vi
            x = col[i:]
            norm = math.hypot(*x.tolist())
            if not norm:  # nothing to reduce: the identity, tau = 0
                continue
            x0 = x.item(0)
            vx = v[i, i:]
            np.divide(x, x0 + math.copysign(norm, x0), out=vx)  # no cancellation
            vx[0] = 1.0
            x[0] = -math.copysign(norm, x0)
            x[1:] = 0.0
            tau = 1.0 + abs(x0) / norm
            np.matmul(low[:, j + i + 1 :], vx, out=z[i])
            t[:i, i] = ti @ (-tau * (vi[:, i:] @ vx))
            t[i, i] = tau
        top = h[: j + 1, j + 1 :]
        top -= (top @ v.T) @ t @ v
        trailing = low[:, j + nb :]
        trailing -= (z.T @ t) @ v[:, nb - 1 :]
        trailing -= v.T @ (t.T @ (v @ trailing))
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


def _householder(count: int, width: int):
    """Buffers and one call that form ``count`` symmetric reflectors together.

    Returns ``(col, form)``.  ``form()`` reads ``col``, a ``(count, width)``
    stack of columns, and returns the ``(count, width, width)`` stack of
    reflectors ``R_j = I - tau_j v_j v_j^T`` mapping column j onto
    ``beta_j e1``, ``|beta_j|`` its norm; both arrays are reused by the
    next call.  The scalars are LAPACK ``dlarfg``'s, with ``beta_j``
    signed against ``x0 = col[j, 0]``: ``d = x0 - beta_j`` (no
    cancellation), ``v_j = col[j] / d`` with ``v_j[0] = 1``, and
    ``tau_j = 1 + |x0| / |beta_j|``.  They are Python floats, the norm from
    ``math.hypot``, so nothing overflows or underflows; a zero column gets
    the identity.  The numpy work is the same three calls whatever
    ``count`` and ``width`` are: one ``tolist``, one ``struct`` write of
    every ``w_j = sqrt(tau_j) v_j`` and ``-w_j``, and one stacked product
    ``[w_j | I] [-w_j | I]^T``, whose entries for R_j come from w_j alone
    and are exactly symmetric.
    """
    col = np.empty((count, width))
    # factor row 0 holds w_j and -w_j for every j, contiguous; the identity
    # rows below it are written once
    blocks = np.zeros((width + 1, count, 2, width))
    blocks[1:] = np.eye(width)[:, None, None, :]
    left = blocks[:, :, 0].transpose(1, 2, 0)
    right = blocks[:, :, 1].transpose(1, 0, 2)
    r = np.empty((count, width, width))
    write = struct.Struct(f"{2 * count * width}d").pack_into
    block_bytes = memoryview(blocks).cast("B")
    zeros = (0.0,) * (2 * width)
    hypot, copysign, sqrt = math.hypot, math.copysign, math.sqrt

    def form() -> np.ndarray:
        factors = []
        for u in col.tolist():
            norm = hypot(*u)
            if norm:
                x0 = u[0]
                d = x0 + copysign(norm, x0)
                root = sqrt(1.0 + abs(x0) / norm)
                w = [x / d * root for x in u]  # |x / d| <= 1
                w[0] = root
                factors += w
                factors += [-x for x in w]
            else:
                factors += zeros
        write(block_bytes, 0, *factors)
        return np.matmul(left, right, out=r)

    return col, form


def _peel_blocks(h: np.ndarray, n: int) -> np.ndarray:
    """Eigenvalues of h[:n, :n] off its diagonal blocks, bottom up: 1x1 where the
    subdiagonal is exactly zero, else 2x2 (best effort in an unreduced block)."""
    values = np.empty(n, dtype=complex)
    item = h.item
    i = n - 1
    while i >= 0:
        if i == 0 or item(i, i - 1) == 0.0:
            values[i] = item(i, i)
            i -= 1
        else:
            values[i - 1], values[i] = _eig2x2(
                item(i - 1, i - 1), item(i - 1, i), item(i, i - 1), item(i, i)
            )
            i -= 2
    return values


def _reduce(mat) -> tuple[np.ndarray, int]:
    """Balanced Hessenberg form of ``mat`` and the power of two it was scaled by.

    A balanced matrix whose largest entry lies outside [2**-459, 2**459]
    is scaled by ``2**-exp`` before the reduction; otherwise ``exp = 0``.
    Entries of -0.0 become +0.0, as the identity steps of a stacked sweep
    would turn them, so a solve alone and in a stack agree to the sign
    of every zero.
    """
    b = balance(mat)
    b += 0.0
    amax = float(np.max(np.abs(b), initial=0.0))
    exp = math.frexp(amax)[1] if amax > _SAFE_MAX or 0.0 < amax < _SAFE_MIN else 0
    return hessenberg(np.ldexp(b, -exp) if exp else b), exp


def _bulge(h: np.ndarray, lo: int, hi: int, adhoc: str | None) -> list[float]:
    """First column of the shift polynomial p(H) on the unreduced block [lo, hi].

    With ``_SHIFTS`` = m, p is the characteristic polynomial of the
    block's trailing m x m submatrix, and the column has m + 1 entries.
    Its coefficients come from the Hessenberg recurrence and the column
    from Horner's rule, in Python floats, on a copy of the entries it
    reads scaled by the power of two that brings their largest to
    [1/2, 1), so m-fold products neither overflow nor underflow.  A
    block of fewer than m + 2 rows, or ``adhoc``, takes the double shift
    instead, with a column of three entries: the eigenvalues of the
    trailing 2x2 submatrix, or LAPACK xLAHQR's exceptional pair
    ``c +/- i sqrt(0.4375) s``, where ``adhoc`` is ``"bottom"`` or
    ``"top"``, s sums the two subdiagonal magnitudes at that corner of
    the block and ``c = h[r, r] + 0.75 s`` for its corner entry h[r, r].
    """
    item = h.item
    if adhoc or hi - lo < _SHIFTS + 1:
        if adhoc:
            if adhoc == "bottom":
                mag = abs(item(hi, hi - 1)) + abs(item(hi - 1, hi - 2))
                centre = item(hi, hi) + 0.75 * mag
            else:
                mag = abs(item(lo + 1, lo)) + abs(item(lo + 2, lo + 1))
                centre = item(lo, lo) + 0.75 * mag
            shift_sum = 2.0 * centre
            shift_prod = centre * centre + 0.4375 * mag * mag
        else:
            a, b, c, d = item(hi - 1, hi - 1), item(hi - 1, hi), item(hi, hi - 1), item(hi, hi)
            shift_sum = a + d
            shift_prod = a * d - b * c
        h00, h01 = item(lo, lo), item(lo, lo + 1)
        h10, h11, h21 = item(lo + 1, lo), item(lo + 1, lo + 1), item(lo + 2, lo + 1)
        x = h00 * h00 + h01 * h10 - shift_sum * h00 + shift_prod
        y = h10 * (h00 + h11 - shift_sum)
        z = h10 * h21
        return [x, y, z]
    m = _SHIFTS
    tail = h[hi - m + 1 : hi + 1, hi - m + 1 : hi + 1]
    head = h[lo : lo + m + 1, lo : lo + m]
    exp = math.frexp(max(np.abs(tail).max(), np.abs(head).max()))[1]
    t = np.ldexp(tail, -exp).tolist()
    g = np.ldexp(head.T, -exp).tolist()  # g[q]: column q of the head
    # polys[i]: coefficients, constant first, of det(zI - T_i) for the leading
    # i x i block T_i of the tail, by the Hessenberg recurrence
    # p_{i+1} = z p_i - sum_{q<=i} t_qi t_{q+1,q} ... t_{i,i-1} p_q
    polys = [[1.0]]
    for i in range(m):
        nxt = [0.0, *polys[i]]
        chain = 1.0
        for q in range(i, -1, -1):
            coef = t[q][i] * chain
            for e, c in enumerate(polys[q]):
                nxt[e] -= coef * c
            if q:
                chain *= t[q][q - 1]
        polys.append(nxt)
    # Horner's rule on the head, column by column: v <- H v + c_e e1, from the
    # leading coefficient down; column q of H has rows 0 .. q + 1
    columns = [col[: q + 2] for q, col in enumerate(g)]
    v = [1.0]
    for c in reversed(polys[m][:m]):
        w = [0.0] * (len(v) + 1)
        for vq, column in zip(v, columns):
            for r, x in enumerate(column):
                w[r] += x * vq
        w[0] += c
        v = w
    return v


def spectra(mats, max_sweeps: int | None = None) -> list[Spectrum]:
    """Full eigenvalue multisets of real square matrices, solved in lockstep.

    Each matrix goes through ``balance`` -> ``hessenberg`` -> implicit
    multishift QR with deflation, and its ``Spectrum`` is bitwise the
    one it gets when solved alone (``eigenvalues``).  The Hessenberg
    forms are zero-padded into one stack of the largest order plus m - 1
    spare rows and columns (m = ``_SHIFTS``), which take the closing
    steps, and each matrix keeps its slot for the whole solve.  Each
    round, one pass over the stack starts one sweep on each unreduced
    block [lo, hi] of three or more rows of every unfinished matrix, with
    the block's own shifts (``_bulge``) and stall count, and skips its
    deflated 1x1 and 2x2 blocks.  The bulges are chased together: at
    step k every block that covers k reads its bulge column, the first
    column of its sweep at k = lo, and every matrix with no block at k
    reads a zero column, whose reflector is the identity; one stacked
    product per side then applies all the reflectors, and its bits for
    one matrix do not depend on the others.  A stacked slice's reflector
    is the identity on every deflated block's rows and columns, which
    leaves the entries of a deflated block, and of a finished matrix, as
    they are (no entry is -0.0, see ``_reduce``), so every eigenvalue is
    read once, by ``_peel_blocks``, from the final quasi-triangular stack
    after the last round.  The flat buffer behind the stack, the
    reflector buffers and where each step may read a bulge column are
    laid out once per call; the reads of every step once per round.
    When a subdiagonal h[lo, lo-1] is first found negligible, it is set
    to zero with the entries left of and below it, which rounding alone
    made nonzero, so the products of the blocks on either side mix only
    zeros there and the blocks stay apart.  The entries a stacked slice
    changes outside the diagonal blocks are never read by eigenvalue-only
    QR.

    ``balance`` skips an index whose row or column sum overflows and keeps
    its scale factor within [2**-969, 2**969], so finite entries stay
    finite through it.  A balanced matrix whose largest entry lies
    outside [2**-459, 2**459] is scaled by an exact power of two before
    the Hessenberg reduction and its eigenvalues are scaled back, so
    entries near the overflow or underflow limit neither overflow nor
    stall the sweeps; any other input is solved exactly as it is.  An
    eigenvalue past the double range scales back to inf, without a
    warning, and its matrix is flagged ``converged=False``.  Scaling
    after balancing keeps the small entries of graded matrices, which
    scaling the raw input by its largest entry would flush to zero.  A
    subdiagonal entry h[i+1, i] is treated as zero when
    ``|h[i+1, i]| <= 8*eps*(|h[i, i]| + |h[i+1, i+1]|)``.  The tenth,
    thirtieth, ... sweep of a block no deflation has changed takes an
    exceptional shift from the block's bottom corner, the twentieth,
    fortieth, ... one from its top corner, as LAPACK xLAHQR does; they
    are counted in ``exceptional_shifts``.
    ``max_sweeps`` caps each matrix's sweep count, summed over its blocks
    (default ``30 * n`` for a matrix of order n; a negative cap raises
    ``ValueError``); a matrix out of budget with no sweep left to chase
    is flagged ``converged=False`` with best-effort values.
    """
    if max_sweeps is not None and max_sweeps < 0:
        raise ValueError(f"max_sweeps must be nonnegative, got {max_sweeps}")
    reduced = [_reduce(m) for m in mats]
    if not reduced:
        return []
    lanes, orders = len(reduced), [h.shape[0] for h, _ in reduced]
    width = _SHIFTS + 1  # rows and columns a reflector spans
    size = max(orders) + width - 2  # spare rows and columns take the closing steps
    # one flat buffer: the stack of zero-padded Hessenberg forms, a slot per
    # matrix and row for the first bulge column of a sweep starting there, and
    # one zero.  Each step reads every bulge column with one ``take`` from it
    flat = np.zeros(lanes * size * (size + width) + 1)
    stack = flat[: lanes * size * size].reshape(lanes, size, size)
    firsts = flat[stack.size : -1].reshape(lanes, size, width)
    zero_at = flat.size - 1
    for padded, (h, _) in zip(stack, reduced):
        padded[: h.shape[0], : h.shape[0]] = h
    # column_at[j, k]: where h[k .. k + width - 1, k - 1] of stack[j] lies;
    # first_at[j, k]: where the first bulge column of a sweep from row k lies
    ks, offsets = np.ogrid[:size, :width]
    column_at = (size * np.arange(lanes)[:, None, None] + ks + offsets) * size + ks - 1
    first_at = stack.size + width * (size * np.arange(lanes)[:, None, None] + ks) + offsets
    # reads[n][t]: which entries a bulge of length n reads t rows above hi
    reads = {n: np.minimum(n, ks + 1) > offsets for n in {3, width}}
    budgets = [30 * n if max_sweeps is None else max_sweeps for n in orders]
    his = [n - 1 for n in orders]  # where each scan starts: the last row not yet deflated
    sweeps = [0] * lanes
    exceptional = [0] * lanes
    converged = [True] * lanes
    stalls = [{} for _ in orders]  # sweeps each unreduced block [lo, hi] has taken
    cuts = [set() for _ in orders]  # rows lo whose h[lo, lo - 1] has been zeroed
    col, form = _householder(lanes, width)

    while True:
        # one vectorized deflation test per round; zeroing a cut leaves it valid.
        # Byte (size - 1) * j + i is 1 where stack[j]'s h[i + 1, i] is negligible
        diag = np.abs(stack.diagonal(0, 1, 2))
        negligible = (
            np.abs(stack.diagonal(-1, 1, 2)) <= _DEFLATE * (diag[:, :-1] + diag[:, 1:])
        ).tobytes()
        chases = []  # (matrix, lo, hi, length of the first bulge column)
        for j, h in enumerate(stack):
            hi, row = his[j], (size - 1) * j
            if hi < 0:
                continue
            # every unreduced block of rows [lo, i] up to hi takes one sweep while
            # the budget lasts; a matrix out of budget with no sweep left to chase
            # keeps its diagonal blocks as they stand
            queued, exhausted, blocks = len(chases), False, {}
            i = hi
            while i >= 0:
                # the lowest row of the block: just below the first negligible
                # subdiagonal above i, or row 0
                lo = max(negligible.rfind(1, row, row + i) + 1 - row, 0)
                if lo and lo not in cuts[j]:
                    # zero h[lo, lo - 1] and the entries left of and below it, so
                    # the stacked products on either side mix only zeros there
                    h[lo : lo + width, max(lo - width, 0) : lo] = 0.0
                    cuts[j].add(lo)
                if lo >= i - 1:  # a deflated 1x1 or 2x2 block, read after the last round
                    if i == hi:
                        hi = lo - 1
                elif sweeps[j] < budgets[j]:
                    sweeps[j] += 1
                    taken = blocks[lo, i] = stalls[j].get((lo, i), 0) + 1
                    adhoc = None
                    if taken % _EXCEPTIONAL_EVERY == 0:
                        adhoc = "top" if taken % (2 * _EXCEPTIONAL_EVERY) == 0 else "bottom"
                        exceptional[j] += 1
                    first = _bulge(h, lo, i, adhoc)
                    firsts[j, lo, : len(first)] = first
                    chases.append((j, lo, i, len(first)))
                else:
                    exhausted = True
                i = lo - 1
            stalls[j] = blocks
            if exhausted and len(chases) == queued:
                converged[j] = False
                hi = -1
            his[j] = hi
        if not chases:
            break

        k0 = min(lo for _, lo, _, _ in chases)
        k1 = max(hi for _, _, hi, _ in chases)
        # step k reads each bulge column from the sweep's first column at k = lo,
        # from the stack after that, and zero where the bulge is shorter or past
        # hi and at every matrix with no sweep at k
        at = np.full((k1 - k0, lanes, width), zero_at)
        for j, lo, hi, n in chases:
            at[lo - k0, j, :n] = first_at[j, lo, :n]
            np.copyto(
                at[lo - k0 + 1 : hi - k0, j],
                column_at[j, lo + 1 : hi],
                where=reads[n][hi - lo - 1 : 0 : -1],
            )
        # chase every bulge down its window; step k is the identity outside [lo, hi).
        # Step k's rows start at column max(k0, k - 1), its columns end at row
        # min(k + width + 1, k1 + 1)
        row_starts = chain((k0,), range(k0, k1))
        col_ends = chain(range(k0 + width + 1, k1 + 2), repeat(k1 + 1))
        for k, start, end, cells in zip(range(k0, k1), row_starts, col_ends, at):
            flat.take(cells, out=col, mode="clip")
            r = form()
            rows = stack[:, k : k + width, start : k1 + 1]
            rows[...] = r @ rows
            cols = stack[:, k0:end, k : k + width]
            cols[...] = cols @ r

    out = []
    values = map(_peel_blocks, stack, orders)  # every eigenvalue, read once from the final stack
    for vals, (_, exp), n_sweeps, ok, n_exc in zip(values, reduced, sweeps, converged, exceptional):
        if exp:
            with np.errstate(over="ignore"):  # inf past the double range, flagged below
                vals.real = np.ldexp(vals.real, exp)
                vals.imag = np.ldexp(vals.imag, exp)
        ok = ok and bool(np.isfinite(vals).all())
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


def _trace_core(stacks, k_max: int, pool, out: np.ndarray) -> np.ndarray:
    """Traces of A^2 .. A^k_max summed over the sequence ``stacks`` of
    C-contiguous ``(..., m, m)`` stacks, which share their leading axes,
    written into columns 1 .. k_max-1 of ``out``, shape ``(..., k_max)``,
    which is returned.

    Column 0, Tr A^1, is left to the caller.  For each stack in turn, the
    half powers A^i = A^(i-1) A, i = 2 .. h with ``h = ceil(k_max / 2)``,
    go into the leading ``a.size`` entries of the flat buffers
    ``pool[0] .. pool[h-2]``, each formed from plain operands.  Only the
    top power A^h is stored transposed, and only when h >= 3: its product
    writes through a transposed view of the buffer, and no product reads
    it.  Tr A^k is the diagonal sum of A^k for k <= h, and
    Tr(A^h A^(k-h)) above h: a dot of the two flattened buffers when A^h
    is stored transposed and k < 2h, else a reduction over a transposed
    operand.  At h = 2, A^2 stays plain, so Tr A^3 and Tr A^4 stay
    reductions, whose bits the trace pins in the tests hold.  With one
    BLAS thread on a 2-vCPU host the transposed write costs 3-9% more
    than a plain one (41.5 against 40 us for a (33, 32, 32) stack, 5.0
    against 4.65 ms at order 500), while a flat dot takes about 55% of
    the time of a transposed reduction (15 against 26.5 us, 165 against
    290 us).  The first stack's traces are written into ``out`` and each later
    stack's are added to them, in the order of ``stacks``.
    """
    h = (k_max + 1) // 2
    transposed = h >= 3
    for s, a in enumerate(stacks):
        powers = [None, a]  # powers[i] is A^i, or its transpose for the top one
        for i in range(2, h + 1):
            buf = pool[i - 2][: a.size].reshape(a.shape)
            np.matmul(powers[i - 1], a, out=buf.swapaxes(-1, -2) if transposed and i == h else buf)
            powers.append(buf)

        top = powers[h]
        flat = a.shape[:-2] + (a.shape[-1] ** 2,)
        for k in range(2, k_max + 1):
            if k <= h:
                value = np.trace(powers[k], axis1=-2, axis2=-1)
            elif transposed and k < 2 * h:
                value = np.einsum("...i,...i->...", top.reshape(flat), powers[k - h].reshape(flat))
            else:
                value = np.einsum("...ij,...ji->...", top, powers[k - h])
            if s == 0:
                out[..., k - 1] = value
            else:
                out[..., k - 1] += value
    return out


def trace_powers(mat, k_max: int) -> np.ndarray:
    """Traces of A^1 .. A^k_max for a real matrix or a ``(..., n, n)`` stack.

    Forms the half powers A^2 .. A^h with ``h = ceil(k_max / 2)``, that is
    ``h - 1`` products, and reads each trace above A^h off the top power
    and A^(k-h), ``Tr A^k = sum(A^h * (A^(k-h))^T)``.  Returns shape
    ``(..., k_max)``; Tr A^1 .. A^h are diagonal sums.  Allocates the
    result and the power buffers, writes ``np.trace`` of the matrix as
    Tr A^1, and leaves the rest, work and storage layout, to
    ``_trace_core``.  The bits depend on h, not on k_max itself: k_max
    2h - 1 and 2h give bitwise equal traces, but different h need not,
    since Tr A^k is read differently.  ``trace_powers(x, 3)[2]`` (a
    reduction of A^2 and A^1) and ``trace_powers(x, 5)[2]`` (A^3's
    diagonal) differ by 1.8e-15 for one 5x5 Gaussian x (the ROADMAP item
    "one determinism contract" makes them agree).
    """
    if k_max < 1:
        raise ValueError(f"power must be positive, got {k_max}")
    a = np.asarray(mat, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a (..., n, n) array, got shape {a.shape}")
    a = np.ascontiguousarray(a)
    out = np.empty(a.shape[:-2] + (k_max,))
    out[..., 0] = np.trace(a, axis1=-2, axis2=-1)
    pool = [np.empty(a.size) for _ in range((k_max + 1) // 2 - 1)]
    return _trace_core([a], k_max, pool, out)


def spectral_radial_cdf(spec: Spectrum, grid) -> np.ndarray:
    """Fraction of eigenvalues with ``|lambda| <= r`` for each grid radius.

    Raises ``ValueError`` on an empty spectrum, where no fraction is defined.
    """
    if spec.values.size == 0:
        raise ValueError("spectrum is empty: no eigenvalue to count")
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("radius grid must be a nonempty 1-d sequence")
    if not (np.all(g >= 0) and np.all(np.diff(g) >= 0)):  # NaN fails both
        raise ValueError("radius grid must be sorted ascending, nonnegative and not NaN")
    radii = np.sort(np.abs(spec.values))
    return np.searchsorted(radii, g, side="right") / radii.size
