"""Centrosymmetric ensemble: entry classes, sampling, and the Weaver split.

A real square matrix is centrosymmetric when rotating its entry grid by
180 degrees leaves it unchanged: ``m[i, j] == m[n-1-i, n-1-j]``.  Matrices
here are built from one i.i.d. draw per reflection class, copied to both
cells of the class and scaled by ``1/sqrt(n)``, so an order-``n`` matrix
carries exactly ``ceil(n**2 / 2)`` independent random variables.  In
row-major order cell a mirrors to cell ``n**2 - 1 - a``, so the first
``ceil(n**2 / 2)`` cells hold one draw per class; sampling, mirroring
and the Weaver split all read a matrix through that layout.

The Weaver split turns any such matrix, by an explicit orthogonal
similarity, into two independent diagonal blocks whose joint spectrum
equals the spectrum of the original matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "DISTRIBUTIONS",
    "CentroMatrix",
    "EntryClass",
    "WeaverBlocks",
    "assert_centrosymmetric",
    "class_count",
    "counter_identity",
    "entry_class",
    "sample_centro",
    "sample_centro_batch",
    "weaver_blocks",
    "weaver_orthogonal",
]

DISTRIBUTIONS = ("gaussian", "uniform")

_SQRT3 = math.sqrt(3.0)


def counter_identity(n: int) -> np.ndarray:
    """Exchange matrix J: ones on the anti-diagonal, zeros elsewhere.

    J is symmetric, orthogonal, and an involution (``J @ J == I``).
    """
    if n < 1:
        raise ValueError(f"matrix order must be positive, got {n}")
    return np.eye(n)[::-1].copy()


@dataclass(frozen=True)
class EntryClass:
    """Reflection class of a cell: the orbit ``{(i, j), (n-1-i, n-1-j)}``.

    ``rep`` is the lexicographic minimum of the orbit; ``self_paired`` is
    true only for the center cell of an odd-order matrix.
    """

    rep: tuple[int, int]
    self_paired: bool


def entry_class(n: int, i: int, j: int) -> EntryClass:
    """Canonical representative of the reflection class of cell (i, j)."""
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"cell ({i}, {j}) out of range for order {n}")
    ri, rj = n - 1 - i, n - 1 - j
    return EntryClass(rep=min((i, j), (ri, rj)), self_paired=(i, j) == (ri, rj))


def class_count(n: int) -> int:
    """Number of distinct reflection classes: ceil(n**2 / 2)."""
    return (n * n + 1) // 2


def _class_id(cells: np.ndarray, n: int) -> np.ndarray:
    """Reflection class of each row-major cell id ``i * n + j``.

    Cell a mirrors to cell ``n*n - 1 - a``, so the smaller of the two
    names the class: ids run over ``range(class_count(n))``, and the
    class-id cell is the class's lexicographic minimum.
    """
    return np.minimum(cells, n * n - 1 - cells)


@dataclass(frozen=True)
class CentroMatrix:
    """A sampled centrosymmetric matrix with sampling provenance.

    ``entries`` is the dense order-``n`` array already scaled by
    ``1/sqrt(n)``; mirrored cells are bitwise-identical copies of one
    underlying draw.  Instances are immutable (the entry array is marked
    read-only) and safe to share across threads.  A CentroMatrix is an
    array-like: ``np.asarray(m, dtype=float)`` is ``entries`` itself, and
    ``np.array(m)`` a writable copy.
    """

    n: int
    entries: np.ndarray
    seed: int
    dist: str

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype, copy=copy)


def _check_dist(dist: str) -> None:
    if dist not in DISTRIBUTIONS:
        raise ConfigError(
            f"unsupported entry distribution {dist!r}; expected one of {DISTRIBUTIONS}"
        )


def _draw(
    rng: np.random.Generator, n: int, dist: str, out: np.ndarray, states=None
) -> np.ndarray:
    """Fill ``out`` in place with ``dist`` class draws for order ``n``; return it.

    The draws are mean-0, variance-1 variates divided by ``sqrt(n)``, the
    one place either sampler scales.  Without ``states`` all of ``out``
    continues ``rng``'s stream.  With ``states``, an iterable, row i of
    ``out`` is drawn right after ``rng``'s bit generator is set to the
    i-th state it yields, so every row is its own stream.  Each state is
    set before the next is taken, so the iterable may refill one state
    dict every time, as the trial loop does.  ``dist`` must be checked first;
    anything but "gaussian" draws uniform(-sqrt(3), sqrt(3)) as
    ``u * 2 sqrt(3) - sqrt(3)`` over all of ``out`` at once, bitwise what
    ``rng.uniform`` returns, since it computes ``low + (high - low) * u``
    and ``2 sqrt(3)`` is exact.
    """
    fill = rng.standard_normal if dist == "gaussian" else rng.random
    if states is None:
        fill(out=out)
    else:
        bit_generator = rng.bit_generator
        for row, state in zip(out, states):
            bit_generator.state = state
            fill(out=row)
    if dist != "gaussian":
        out *= 2.0 * _SQRT3
        out -= _SQRT3
    out /= math.sqrt(n)
    return out


def _mirror(draws: np.ndarray, n: int) -> np.ndarray:
    """Order-``n`` centrosymmetric matrices from ``(..., class_count(n))`` class draws.

    The draws fill the first ``c = class_count(n)`` cells of the
    row-major grid; cell a mirrors to cell ``n*n - 1 - a``, so the other
    ``n*n - c`` cells are the first ``n*n - c`` draws reversed.
    """
    c = class_count(n)
    flat = np.empty(draws.shape[:-1] + (n * n,))
    flat[..., :c] = draws
    flat[..., c:] = draws[..., : n * n - c][..., ::-1]
    return flat.reshape(draws.shape[:-1] + (n, n))


def sample_centro(n: int, dist: str = "gaussian", seed: int = 0) -> CentroMatrix:
    """Draw one matrix: one variate per entry class, mirrored, scaled by 1/sqrt(n).

    Class draws are consumed in row-major order of the representative
    cells, so a fixed ``(n, dist, seed)`` reproduces the same matrix on
    any platform.  Mirrored cells are plain copies, hence bitwise equal.
    The matrix is the one-trial batch ``sample_centro_batch(n, 1, dist,
    seed)[0]``, made read-only.
    """
    entries = sample_centro_batch(n, 1, dist, seed)[0]
    entries.flags.writeable = False
    return CentroMatrix(n=n, entries=entries, seed=seed, dist=dist)


def sample_centro_batch(
    n: int, trials: int, dist: str = "gaussian", seed: int = 0
) -> np.ndarray:
    """Stack of ``trials`` independent draws as a ``(trials, n, n)`` array.

    Bulk variant for small-order Monte Carlo loops: a single generator
    serves the whole batch, so the result is deterministic in
    ``(n, trials, dist, seed)`` but unrelated to per-trial-seeded draws.
    """
    if n < 1:
        raise ValueError(f"matrix order must be positive, got {n}")
    if trials < 1:
        raise ValueError(f"trial count must be positive, got {trials}")
    _check_dist(dist)
    rng = np.random.Generator(np.random.PCG64(seed))
    return _mirror(_draw(rng, n, dist, np.empty((trials, class_count(n)))), n)


def assert_centrosymmetric(mat: np.ndarray | CentroMatrix, tol: float = 0.0) -> bool:
    """True iff ``max |m[i,j] - m[n-1-i,n-1-j]| <= tol``."""
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if tol < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    return bool(np.max(np.abs(a - a[::-1, ::-1])) <= tol)


@dataclass(frozen=True)
class WeaverBlocks:
    """Orthogonal-similarity halves of a centrosymmetric matrix.

    ``diag(plus, minus)`` has the same eigenvalue multiset as the source
    matrix.  ``plus`` has order ``ceil(n/2)`` (bordered by an extra row
    and column when n is odd), ``minus`` has order ``floor(n/2)``.  Split
    from a ``(..., n, n)`` stack, both blocks keep its leading axes.
    """

    plus: np.ndarray
    minus: np.ndarray


def _weaver_split(cells: np.ndarray, n: int, out: WeaverBlocks) -> WeaverBlocks:
    """Write into ``out``, and return it, the Weaver blocks of order-``n``
    centrosymmetric matrices from their row-major cells, shape ``(..., c)``
    with ``c >= class_count(n)``.

    Only the first ``class_count(n)`` cells are read: the top
    ``h = n // 2`` rows are the first ``h n`` cells, and for odd n the
    next ``h + 1`` are the middle row up to and including the center.
    With A and B the left and right h columns of the top rows,
    ``plus = A + B J`` and ``minus = A - B J``; the odd-n border of
    ``plus`` is ``sqrt(2) u`` (column h of the top rows), ``sqrt(2) p^T``
    (the middle row before the center) and ``q`` (the center).  ``out``
    holds arrays of the blocks' shapes, which must not overlap ``cells``.
    ``B J`` is copied into ``out.minus`` first, so that the sum and the
    difference, formed from it in place, both run over contiguous rows
    rather than over the column-reversed view of B.
    """
    h = n // 2
    lead = cells.shape[:-1]
    top = cells[..., : h * n].reshape(lead + (h, n))
    A = top[..., :h]
    out.minus[...] = top[..., ::-1][..., :h]  # B @ J reverses the columns of B
    np.add(A, out.minus, out=out.plus[..., :h, :h])
    np.subtract(A, out.minus, out=out.minus)
    if n % 2 == 1:
        np.multiply(top[..., h], math.sqrt(2.0), out=out.plus[..., :h, h])
        np.multiply(cells[..., h * n : h * n + h], math.sqrt(2.0), out=out.plus[..., h, :h])
        out.plus[..., h, h] = cells[..., h * n + h]
    return out


def weaver_blocks(m: CentroMatrix | np.ndarray) -> WeaverBlocks:
    """Split a centrosymmetric matrix, or a ``(..., n, n)`` stack of them,
    into its two similarity blocks.

    Even n = 2m, with M = [[A, B], [C, D]] in m-by-m blocks:
    ``plus = A + B J`` and ``minus = A - B J``.  Centrosymmetry gives
    ``B J = J C``, so only the first ``class_count(n)`` row-major cells
    of M are read.

    Odd n = 2m + 1, with center column top-half u, center row left-half
    p^T and center cell q:
    ``plus = [[A + B J, sqrt(2) u], [sqrt(2) p^T, q]]``, ``minus = A - B J``.
    The two blocks are new arrays, filled by the trial loop's own split.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a (..., n, n) array, got shape {a.shape}")
    n, h, lead = a.shape[-1], a.shape[-1] // 2, a.shape[:-2]
    out = WeaverBlocks(plus=np.empty(lead + (n - h, n - h)), minus=np.empty(lead + (h, h)))
    return _weaver_split(a.reshape(lead + (n * n,)), n, out)


def weaver_orthogonal(n: int) -> np.ndarray:
    """Explicit orthogonal Q with ``Q.T @ M @ Q == diag(plus, minus)``.

    Columns: ``(1/sqrt(2)) [I; 0; J]`` spanning the even part, the center
    basis vector for odd n, then ``(1/sqrt(2)) [I; 0; -J]``.
    """
    if n < 1:
        raise ValueError(f"matrix order must be positive, got {n}")
    h = n // 2
    s = 1.0 / math.sqrt(2.0)
    eye = np.eye(h)
    rev = eye[::-1]
    q = np.zeros((n, n))
    q[:h, :h] = s * eye
    q[n - h :, :h] = s * rev
    q[:h, n - h :] = s * eye
    q[n - h :, n - h :] = -s * rev
    if n % 2 == 1:
        q[h, h] = 1.0
    return q
