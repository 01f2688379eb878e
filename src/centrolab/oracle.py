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
``n**w`` index tuples.

Representatives are generated depth-first in blocks of at most
``_BLOCK`` rows.  Every term and weight is a nonnegative integer, so
each block sum is exact while the total stays below ``2**53``, and then
the value is bitwise independent of the enumeration order; blocks are
combined with compensated (Kahan) accumulation for larger totals.
"""

from __future__ import annotations

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


def gaussian_moment(m: int) -> float:
    """E[x^m] for standard normal x: (m-1)!! for even m, 0 for odd m."""
    if m < 0:
        raise ValueError(f"moment order must be nonnegative, got {m}")
    if m % 2 == 1:
        return 0.0
    out = 1.0
    for j in range(m - 1, 1, -2):
        out *= j
    return out


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


class _Kahan:
    """Compensated accumulator for combining per-block partial sums."""

    def __init__(self) -> None:
        self.total = 0.0
        self.carry = 0.0

    def add(self, value: float) -> None:
        value += self.carry
        new_total = self.total + value
        self.carry = value - (new_total - self.total)
        self.total = new_total


def _block_sum(
    digits: np.ndarray, weights: np.ndarray, lengths: tuple[int, ...], n: int
) -> float:
    """Weighted sum of per-row Wick products for one block of index tuples.

    Each row of ``digits`` holds the concatenated indices of the chains
    in ``lengths``; a chain of length L visits cells
    (i_1, i_2), ..., (i_L, i_1).  A row's term is the product over its
    distinct classes of the centered Gaussian moment of the class
    multiplicity: ``prod (m_c - 1)!!`` if every multiplicity is even,
    else zero.  Returns ``sum(term * weights)``.
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
    moments = np.zeros(width + 1)  # (m - 1)!! for even m, 0 for odd m
    moments[::2] = np.cumprod(np.r_[1.0, np.arange(1, width, 2)])
    term = np.multiply.reduceat(moments[runs], np.flatnonzero(starts % width == 0))
    return float(term @ weights)


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


def _representatives(n: int, width: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(rows, used)`` blocks of canonical orbit representatives.

    Each block holds at most ``_BLOCK`` rows of ``width`` indices and the
    number of mirror pairs each row uses.  Prefixes are expanded
    depth-first: consecutive prefixes are completed together while
    their completions fit in one block, and a prefix with more
    completions than that is split into its children first.
    """
    h, odd = divmod(n, 2)
    r = np.arange(min(h, width) + 1)
    # completions[d][u]: representatives extending a depth-d prefix using u pairs
    completions = [np.ones(r.size, dtype=np.int64)]
    for _ in range(width):
        after = completions[-1]
        here = (2 * r + odd) * after
        here[:-1] += after[1:]
        completions.append(here)
    completions.reverse()

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


def _enumerate(n: int, lengths: tuple[int, ...], terms: int) -> float:
    width = sum(lengths)
    sizes = _orbit_sizes(n, width)
    weights = np.array(sizes, dtype=float)
    acc = _Kahan()
    covered = 0
    for rows, used in _representatives(n, width):
        acc.add(_block_sum(rows, weights[used], lengths, n))
        counts = np.bincount(used, minlength=len(sizes))
        covered += sum(int(c) * size for c, size in zip(counts, sizes))
    assert covered == terms, f"orbits cover {covered} of {terms} index tuples"
    return acc.total


def _check_budget(n: int, powers: tuple[int, ...], budget: int) -> int:
    terms = 1
    for p in powers:
        terms *= n**p
    if terms > budget:
        label = ", ".join(f"k={p}" for p in powers)
        raise BudgetExceededError(
            f"enumeration for n={n}, {label} needs {terms} terms, "
            f"exceeding the budget of {budget}"
        )
    return terms


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
    terms = _check_budget(n, (k,), budget)
    value = _enumerate(n, (k,), terms) / float(n) ** (k / 2)
    return ChainExpectation(n=n, k=k, l=None, value=value, terms_enumerated=terms)


def oracle_double_chain(
    n: int, k: int, l: int, budget: int = DEFAULT_TERM_BUDGET
) -> ChainExpectation:
    """Exact ``E[Tr M^k  Tr M^l]`` for Gaussian entries at order n.

    Same Wick evaluation over joint chains of ``n**(k+l)`` index tuples,
    normalized by ``n**((k+l)/2)``.
    """
    if n < 1 or k < 1 or l < 1:
        raise ValueError(f"need n, k, l >= 1, got n={n}, k={k}, l={l}")
    terms = _check_budget(n, (k, l), budget)
    value = _enumerate(n, (k, l), terms) / float(n) ** ((k + l) / 2)
    return ChainExpectation(n=n, k=k, l=l, value=value, terms_enumerated=terms)


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
