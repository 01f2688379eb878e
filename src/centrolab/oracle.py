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
is checked on every call; ``terms_enumerated`` still counts those
``n**w`` index tuples.

Representatives are generated depth-first, one index at a time, and the
walk drops every prefix that can no longer close its odd classes: a
chain's term is nonzero only if it hits every class an even number of
times, so a prefix whose determined cells hit more classes an odd
number of times than it has cells left open, or whose open cells have
the wrong parity, has only zero terms below it.  An odd total width
drops the root, so no representative is evaluated.  A dropped depth-d
prefix still counts the index tuples below it, its orbit size times
``n**(w-d)``, so the ``n**w`` check stays exact.  The ``budget`` caps
the number of representatives before pruning: it is counted exactly,
before the walk starts, from the completion table that drives the walk,
and it bounds the rows evaluated (``ChainExpectation.representatives``).

Surviving representatives are evaluated in blocks of at most
``_BLOCK`` rows.  A block is evaluated from its rows' class ids, sorted
within each row so that the cells of one class form a run: one pass
over the sorted columns tracks each row's run length and multiplies in
a run's moment where the run ends.  Everything is an exact integer: each
Wick term is a product of entries of one (m-1)!! table, held in int64
where ``(w-1)!!`` times the block's rows stays below ``2**63`` and as
Python ints otherwise; the terms are summed per orbit size as Python
ints and weighted by those sizes, and the total is divided by
``n**(w // 2)`` once.  So the value is the correctly rounded exact
expectation (``inf`` past the double range) in any block order.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import accumulate
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
    ``n**(k+l)``; ``representatives`` is the number of orbit
    representatives evaluated, the work done, after the walk dropped
    every prefix whose completions all have a zero term.
    """

    n: int
    k: int
    l: int | None
    value: float
    terms_enumerated: int
    representatives: int


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

    Sorting each row's class ids makes a class's cells one run; one pass
    over the columns carries every row's run length and product, and
    where column p differs from column p - 1 the run that just ended
    contributes its moment.
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
    moments = np.array(_moments(width), dtype=object)
    if moments.max() * rows < 2**63:  # bounds every sum of terms: int64 is exact
        moments = moments.astype(np.int64)
    run = np.ones(rows, dtype=np.intp)  # length of each row's current run
    term = np.ones(rows, dtype=moments.dtype)
    for p in range(1, width):
        ends = cls[:, p] != cls[:, p - 1]
        term *= np.where(ends, moments[run], 1)
        run = np.where(ends, 1, run + 1)
    term *= moments[run]
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every canonical one-index extension of each prefix row.

    A prefix using u mirror pairs continues with either side of a pair
    it already uses (index a or n-1-a for a < u), the middle index of
    odd n, or the next pair at index u.  Returns the child rows, grouped
    by parent in row order, the number of pairs each uses, and each
    child's parent row.
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
    return out, u + new, parent


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


def _fixed_cells(lengths: tuple[int, ...]) -> list[list[tuple[int, int]]]:
    """Cells ``(p, q)``, as index positions, that placing index p determines.

    A chain's cell (i_t, i_{t+1}) is determined when i_{t+1} is placed,
    its closing cell (i_L, i_1) when i_L is.
    """
    cells = []
    off = 0
    for length in lengths:
        for t in range(length):
            placed = [(off + t - 1, off + t)] if t else []
            if t == length - 1:
                placed.append((off + t, off))
            cells.append(placed)
        off += length
    return cells


def _representatives(
    n: int, lengths: tuple[int, ...], table: list[list[int]]
) -> Iterator[tuple[np.ndarray, np.ndarray, bool]]:
    """Yield ``(rows, used, dropped)`` blocks of canonical orbit prefixes.

    ``table`` is ``_completions(n, sum(lengths))``.  ``rows`` holds one
    prefix of indices per row and ``used`` the number of mirror pairs
    each uses.  A block with ``dropped`` false holds at most ``_BLOCK``
    full-width representatives to evaluate.  A dropped block holds
    prefixes every completion of which hits some class an odd number of
    times, so that its Wick term is zero.

    The rule: a prefix whose determined cells hit o classes an odd number
    of times, with r cells still open, is dropped unless o <= r and
    o = r (mod 2).  o has the parity of the determined cells, so the
    parity test fails, at every depth, exactly when the width is odd; then
    the root is dropped.  At even width a prefix fails only if
    o >= r + 2, which needs more determined cells than open ones and at
    least r + 2 classes.  Where some proper prefix can fail, each row's
    odd classes are counted as its indices are placed, down to the full
    rows, where the rule drops exactly the zero terms.  Elsewhere (n <= 2,
    or too few determined cells) nothing is counted, and the block sums
    meet the zero terms themselves.

    Prefixes are expanded depth-first: consecutive prefixes are completed
    together while their unpruned completions fit in one block, and a
    prefix with more completions than that is split into its children first.
    """
    width = len(table) - 1
    completions = [np.array(row, dtype=np.int64) for row in table]
    cells = _fixed_cells(lengths)
    fixed = list(accumulate((len(c) for c in cells), initial=0))  # determined at depth d
    classes = (n * n + 1) // 2
    tracked = any(2 * f >= width + 2 and width - f <= classes - 2 for f in fixed[1:width])

    def class_ids(rows, p, q):
        cell = rows[:, p] * n + rows[:, q]
        return np.minimum(cell, n * n - 1 - cell)

    def grow(rows, used, seen, odd):
        # extend by one index: the children kept, and the block dropped or None
        rows, used, parent = _extend(rows, used, n)
        if seen is None:
            return (rows, used, None, None), None
        # seen[j] holds each row's class of its j-th determined cell
        depth = rows.shape[1]
        known, odd = seen.shape[0], odd[parent]
        grown = np.empty((fixed[depth], parent.size), dtype=seen.dtype)
        # "clip" writes straight into out; the default mode buffers a copy
        np.take(seen, parent, axis=1, out=grown[:known], mode="clip")
        for j, (p, q) in enumerate(cells[depth - 1], known):
            cls = grown[j] = class_ids(rows, p, q)
            odd += 1 - 2 * np.logical_xor.reduce(grown[:j] == cls, axis=0)
        keep = odd <= width - fixed[depth]
        if keep.all():
            return (rows, used, grown, odd), None
        dropped = rows[~keep], used[~keep], True
        return (rows[keep], used[keep], grown[:, keep], odd[keep]), dropped

    def part(state, index):
        rows, used, seen, odd = state
        if seen is None:
            return rows[index], used[index], None, None
        return rows[index], used[index], seen[:, index], odd[index]

    def walk(state):
        rows, used = state[:2]
        count = completions[rows.shape[1]][used]
        ends = np.cumsum(count)
        start = 0
        while start < used.size:
            if count[start] > _BLOCK:
                children, dropped = grow(*part(state, slice(start, start + 1)))
                if dropped:
                    yield dropped
                yield from walk(children)
                start += 1
                continue
            limit = ends[start] - count[start] + _BLOCK
            stop = int(np.searchsorted(ends, limit, side="right"))
            block = part(state, slice(start, stop))
            while block[1].size and block[0].shape[1] < width:
                block, dropped = grow(*block)
                if dropped:
                    yield dropped
            if block[1].size:
                yield *block[:2], False
            start = stop

    # linear cell ids reach n*n - 1; int32 halves the memory traffic
    dtype = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    root = np.empty((1, 0), dtype=dtype), np.zeros(1, dtype=np.int64)
    if width % 2:
        yield *root, True
    elif tracked:  # no cell determined yet, so no odd class
        yield from walk((*root, np.empty((0, 1), dtype=dtype), np.zeros(1, dtype=np.int64)))
    else:
        yield from walk((*root, None, None))


def _enumerate(n: int, lengths: tuple[int, ...], budget: int) -> tuple[float, int]:
    """Wick sum over all ``n**w`` chains of the given lengths over ``n**(w/2)``.

    Returns the value and the number of representatives evaluated.
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
    total = covered = evaluated = 0
    for rows, used, dropped in _representatives(n, lengths, table):
        if not dropped:
            total += _block_sum(rows, used, lengths, n)
            evaluated += used.size
        # a depth-d prefix using u pairs stands for the sizes[u] prefixes of
        # its orbit, each completed by all n**(w-d) index tuples
        counts = np.bincount(used)
        orbits = sum(int(c) * size for c, size in zip(counts, sizes))
        covered += orbits * n ** (width - rows.shape[1])
    if covered != n**width:
        raise AssertionError(f"orbits cover {covered} of {n**width} index tuples")
    return _quotient(total, n ** (width // 2)), evaluated


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
    value, evaluated = _enumerate(n, (k,), budget)
    return ChainExpectation(
        n=n, k=k, l=None, value=value, terms_enumerated=n**k, representatives=evaluated
    )


def oracle_double_chain(
    n: int, k: int, l: int, budget: int = DEFAULT_TERM_BUDGET
) -> ChainExpectation:
    """Exact ``E[Tr M^k  Tr M^l]`` for Gaussian entries at order n.

    Same Wick evaluation over joint chains of ``n**(k+l)`` index tuples,
    normalized by ``n**((k+l)/2)``.
    """
    if n < 1 or k < 1 or l < 1:
        raise ValueError(f"need n, k, l >= 1, got n={n}, k={k}, l={l}")
    value, evaluated = _enumerate(n, (k, l), budget)
    return ChainExpectation(
        n=n, k=k, l=l, value=value, terms_enumerated=n ** (k + l), representatives=evaluated
    )


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
