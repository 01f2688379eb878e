"""Exact Gaussian chain expectations by enumeration over index-chain orbits.

For standard-normal entries the expectation of a product of matrix
entries factorizes over reflection classes into double-factorial
moments, so ``E[Tr M^k]`` and ``E[Tr M^k Tr M^l]`` can be evaluated
exactly at small order by summing a Wick term over every index chain.
These exact values are the ground truth against which both the Monte
Carlo estimates and the asymptotic constants (2, 4, 2k, 2k+4) are
checked.

A chain's Wick term depends only on which reflection classes its cells
hit, so it is the same for every chain in one orbit of the index maps
that commute with ``i -> n-1-i``: permute the ``h = n // 2`` mirror
pairs ``{a, n-1-a}``, optionally swap the two sides of any pair, and
keep the middle index of odd n fixed.  The enumeration visits one
canonical representative per orbit (pairs labelled 0, 1, ... in order
of first visit, the first visit to pair ``a`` at index ``a``) and
weights its term by the orbit size ``(h)_r * 2**r``, where ``r`` is the
number of pairs the chain uses and ``(h)_r = h (h-1) ... (h-r+1)``.
The orbit sizes add up to exactly ``n**w`` for chain width ``w``, which
is asserted on every call; ``terms_enumerated`` still counts those
``n**w`` index tuples.  The ``budget`` caps the number of
representatives, the work actually done; it is counted exactly, before
any representative is generated, from the table that drives the walk.

Representatives are generated depth-first in blocks of at most
``_BLOCK`` rows.  Everything is an exact integer: each Wick term is a
product of entries of one (m-1)!! table, the terms are summed per orbit
size as Python ints and weighted by those sizes, and the total is
divided by ``n**(w // 2)`` once.  So the value is the correctly rounded
exact expectation (``inf`` past the double range) in any block order.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError

__all__ = [
    "DEFAULT_TERM_BUDGET",
    "ChainExpectation",
    "convergence_table",
    "gaussian_moment",
    "oracle_double_chain",
    "oracle_single_chain",
]

DEFAULT_TERM_BUDGET = 10**8
_BLOCK = 1 << 16  # orbit representatives per vectorized block


def _moments(m: int) -> list[int]:
    """Exact ``E[x^j]`` for standard normal x, j = 0 .. m: (j-1)!! or 0 for odd j."""
    table = [1, 0]
    for j in range(2, m + 1):
        table.append((j - 1) * table[j - 2])
    return table[: m + 1]


def _quotient(num: int, den: int) -> float:
    """``num / den`` rounded once to the nearest float, ``inf`` past its range."""
    try:
        return num / den
    except OverflowError:
        return math.inf


def gaussian_moment(m: int) -> float:
    """E[x^m] for standard normal x: (m-1)!! for even m, 0 for odd m."""
    if m < 0:
        raise ValueError(f"moment order must be nonnegative, got {m}")
    return _quotient(_moments(m)[m], 1)


@dataclass(frozen=True)
class ChainExpectation:
    """Exact expectation of a single or double index-chain product.

    ``value`` includes the ``1 / n**((k+l)/2)`` normalization; ``l`` is
    None for single chains.  ``terms_enumerated`` is ``n**k`` or
    ``n**(k+l)``.
    """

    n: int
    k: int
    l: int | None
    value: float
    terms_enumerated: int


def _block_sum(
    digits: np.ndarray, used: np.ndarray, lengths: tuple[int, ...], n: int
) -> int:
    """Exact orbit-weighted sum of the per-row Wick products of one block.

    Each row of ``digits`` holds the concatenated indices of the chains
    in ``lengths``; a chain of length L visits cells
    (i_1, i_2), ..., (i_L, i_1).  A row's term is the product over its
    distinct classes of the centered Gaussian moment of the class
    multiplicity: ``prod (m_c - 1)!!`` if every multiplicity is even,
    else zero.  Row t's term is weighted by the orbit size of ``used[t]`` pairs.
    """
    succ = np.empty_like(digits)  # the column index of each visited cell
    off = 0
    for length in lengths:
        succ[:, off : off + length - 1] = digits[:, off + 1 : off + length]
        succ[:, off + length - 1] = digits[:, off]
        off += length
    # cell (i, j) and its reflection (n-1-i, n-1-j) have linear ids a and
    # n*n - 1 - a; the smaller one names the class
    cell = digits * n + succ
    cls = np.sort(np.minimum(cell, n * n - 1 - cell), axis=1)

    rows, width = cls.shape
    first = np.ones((rows, width), dtype=bool)  # first cell of a run of one class
    np.not_equal(cls[:, 1:], cls[:, :-1], out=first[:, 1:])
    starts = np.flatnonzero(first)
    runs = np.diff(starts, append=first.size)
    moments = np.array(_moments(width), dtype=object)
    if moments.max() * rows < 2**63:  # bounds every sum of terms: int64 is exact
        moments = moments.astype(np.int64)
    term = np.multiply.reduceat(moments[runs], np.flatnonzero(starts % width == 0))
    sizes = _orbit_sizes(n, width)
    return sum(size * int(term[used == r].sum()) for r, size in enumerate(sizes))


def _orbit_sizes(n: int, width: int) -> list[int]:
    """Orbit size ``(h)_r * 2**r`` of a representative using r mirror pairs.

    Indexed by r = 0 .. min(h, width), where h = n // 2.
    """
    h = n // 2
    sizes = [1]
    for r in range(min(h, width)):
        sizes.append(sizes[-1] * (h - r) * 2)
    return sizes


def _extend(
    rows: np.ndarray, used: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every canonical one-index extension of each prefix row.

    A prefix using u mirror pairs continues with either side of a pair
    it already uses (index a or n-1-a for a < u), the middle index of
    odd n, or the next pair at index u.  Returns the child rows, grouped
    by parent in row order, and the number of pairs each uses.
    """
    h, odd = divmod(n, 2)
    branch = 2 * used + odd + (used < h)
    parent = np.repeat(np.arange(used.size), branch)
    c = np.arange(parent.size) - (np.cumsum(branch) - branch)[parent]
    u = used[parent]
    extra = c - 2 * u  # negative: revisit pair c // 2 on side c % 2
    new = extra == odd
    col = np.where(c & 1, n - 1 - (c >> 1), c >> 1)
    col[new] = u[new]
    if odd:
        col[extra == 0] = h
    out = np.empty((parent.size, rows.shape[1] + 1), dtype=rows.dtype)
    out[:, :-1] = rows[parent]
    out[:, -1] = col
    return out, u + new


def _completions(n: int, width: int) -> list[list[int]]:
    """Counts ``table[d][u]`` of representatives completing a depth-d prefix.

    The prefix uses u mirror pairs.  Only reachable states are listed
    (``u <= min(d, n // 2)``), as Python ints, so ``table[0][0]``, the
    number of representatives of width ``width``, bounds every entry
    and never wraps.
    """
    h, odd = divmod(n, 2)
    table = [[1] * (min(width, h) + 1)]
    for depth in range(width - 1, -1, -1):
        after = table[-1]
        table.append(
            [
                (2 * u + odd) * after[u] + (after[u + 1] if u < h else 0)
                for u in range(min(depth, h) + 1)
            ]
        )
    table.reverse()
    return table


def _representatives(
    n: int, table: list[list[int]]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(rows, used)`` blocks of canonical orbit representatives.

    ``table`` is ``_completions(n, width)``.  Each block holds at most
    ``_BLOCK`` rows of ``width`` indices and the number of mirror pairs
    each row uses.  Prefixes are expanded depth-first: consecutive
    prefixes are completed together while their completions fit in one
    block, and a prefix with more completions than that is split into
    its children first.
    """
    width = len(table) - 1
    completions = [np.array(row, dtype=np.int64) for row in table]

    def walk(rows, used):
        count = completions[rows.shape[1]][used]
        ends = np.cumsum(count)
        start = 0
        while start < used.size:
            if count[start] > _BLOCK:
                yield from walk(*_extend(rows[start : start + 1], used[start : start + 1], n))
                start += 1
                continue
            limit = ends[start] - count[start] + _BLOCK
            stop = int(np.searchsorted(ends, limit, side="right"))
            block = rows[start:stop], used[start:stop]
            while block[0].shape[1] < width:
                block = _extend(*block, n)
            yield block
            start = stop

    # linear cell ids reach n*n - 1; int32 halves the memory traffic
    dtype = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    yield from walk(np.empty((1, 0), dtype=dtype), np.zeros(1, dtype=np.int64))


def _enumerate(n: int, lengths: tuple[int, ...], budget: int) -> float:
    """Wick sum over all ``n**w`` chains of the given lengths over ``n**(w/2)``.

    Raises BudgetExceededError before any work when the chains have more
    than ``budget`` orbit representatives, and ValueError for a budget of
    2**63 or more, past the int64 completion counts the walk uses.
    """
    if budget >= 2**63:
        raise ValueError(f"budget must be below 2**63, got {budget}")
    width = sum(lengths)
    table = _completions(n, width)
    if table[0][0] > budget:
        label = ", ".join(f"k={p}" for p in lengths)
        raise BudgetExceededError(
            f"enumeration for n={n}, {label} needs {table[0][0]} orbit "
            f"representatives, exceeding the budget of {budget}"
        )
    sizes = _orbit_sizes(n, width)
    total = covered = 0
    for rows, used in _representatives(n, table):
        total += _block_sum(rows, used, lengths, n)
        counts = np.bincount(used, minlength=len(sizes))
        covered += sum(int(c) * size for c, size in zip(counts, sizes))
    assert covered == n**width, f"orbits cover {covered} of {n**width} index tuples"
    return _quotient(total, n ** (width // 2))


def oracle_single_chain(
    n: int, k: int, budget: int = DEFAULT_TERM_BUDGET
) -> ChainExpectation:
    """Exact ``E[Tr M^k]`` for Gaussian entries at order n.

    Sums the Wick products (reflection-class multiplicity moments) of
    all ``n**k`` index chains, one orbit representative at a time,
    normalized by ``n**(k/2)``.  Exactly zero for odd k at every n (each chain then
    has some odd-multiplicity class).
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    value = _enumerate(n, (k,), budget)
    return ChainExpectation(n=n, k=k, l=None, value=value, terms_enumerated=n**k)


def oracle_double_chain(
    n: int, k: int, l: int, budget: int = DEFAULT_TERM_BUDGET
) -> ChainExpectation:
    """Exact ``E[Tr M^k  Tr M^l]`` for Gaussian entries at order n.

    Same Wick evaluation over joint chains of ``n**(k+l)`` index tuples,
    normalized by ``n**((k+l)/2)``.
    """
    if n < 1 or k < 1 or l < 1:
        raise ValueError(f"need n, k, l >= 1, got n={n}, k={k}, l={l}")
    value = _enumerate(n, (k, l), budget)
    return ChainExpectation(n=n, k=k, l=l, value=value, terms_enumerated=n ** (k + l))


def convergence_table(
    k_list,
    l_list,
    n_list,
    budget: int = DEFAULT_TERM_BUDGET,
) -> list[ChainExpectation]:
    """Exact values on a (n, k[, l]) grid for trend inspection.

    For every n: one single-chain row per k in ``k_list``, then one
    double-chain row per (k, l) in ``k_list x l_list``.  Rows are
    ordered n-major so gaps against the asymptotic constants can be read
    down a column.
    """
    rows: list[ChainExpectation] = []
    for n in n_list:
        for k in k_list:
            rows.append(oracle_single_chain(n, k, budget))
        for k in k_list:
            for l in l_list:
                rows.append(oracle_double_chain(n, k, l, budget))
    return rows
