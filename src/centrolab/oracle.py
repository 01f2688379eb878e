"""Exact Gaussian chain expectations by enumeration over index-chain orbits.

For standard-normal entries the expectation of a product of matrix
entries factorizes over reflection classes into double-factorial
moments, so ``E[Tr M^k]`` and ``E[Tr M^k Tr M^l]`` can be evaluated
exactly at small order by summing a Wick term over every index chain.
These exact values are the ground truth against which both the Monte
Carlo estimates and the asymptotic constants (2, 4, 2k, 2k+4) are
checked.  The class of a cell is ``centro._class_id`` of its row-major
id, the one spelling of the reflection rule in code; ``entry_class``
spells it independently, as a tuple minimum, for the references the
tests check this module against.

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
is checked on every walk; ``terms_enumerated`` still counts those
``n**w`` index tuples.

Pairs are labelled by their order of first visit, so a representative's
Wick term depends on its sequence of pair symbols (pair, side, or the
middle index), not on n; and the representatives at order n are those
at any larger order of the same parity that use at most ``h`` pairs.
One walk therefore gives the exact sums ``S_r`` of the terms of the
representatives using r pairs (``ChainExpectation.pair_sums``), and
``n**(w/2) E = sum_r S_r (h)_r 2**r`` at every order of that parity up
to the walked one.  An even-order representative is an odd-order one
that never visits the middle index, so the sums of the representatives
off the middle index of an odd walk (``even_pair_sums``) give every
even order below it the same way.  ``convergence_table`` walks each
chain shape once, at the largest odd order, and serves the other orders
from those sums; only even orders above it take a second walk.

Representatives are generated one index at a time, depth first, and
the walk drops every prefix that can no longer close its odd classes: a
chain's term is nonzero only if it hits every class an even number of
times, so a prefix whose determined cells hit more classes an odd number
of times than it has cells left open, or whose open cells have the wrong
parity, has only zero terms below it.  An odd total width drops the
root, so no representative is evaluated.  The last index is placed only
where it closes: a full-width row is built only for a child whose one or
two new cells close its parent's odd classes (a parent with none needs
two cells of one class, a parent with two needs cells of exactly those
two), and the other children are counted, not built.  (6,6) at n = 25
builds the 357,333 full-width rows it evaluates, where building every
child of the last level made 5,985,604.  No dropped prefix is built
either: it is counted by the pairs it uses, and a dropped depth-d prefix
still stands for the index tuples below it, its orbit size times
``n**(w-d)``, so the ``n**w`` check stays exact.  The ``budget``
caps the number of representatives before pruning: it is counted
exactly, from the completion table, before the walk starts, and it
bounds the rows evaluated (``ChainExpectation.representatives``).

The walk scores each Wick term as it tallies classes: a new cell whose
class the row has already hit an odd number j of times multiplies the
row's term by j, so the (2t)-th hit of a class brings the factor
2t - 1 and a closed chain's term is the product of ``(m_c - 1)!!`` over
its classes.  Everything is an exact integer: the terms are int64 where
``(w-1)!!``, which bounds each of them, times ``_BLOCK`` stays below
``2**63``, and Python ints otherwise; the closing rows come in chunks of
at most ``_BLOCK``, each chunk's terms are summed per number of pairs
used, those sums are added as Python ints and weighted by the orbit
sizes, and the total is divided by ``n**(w // 2)`` once.  So the value
is the correctly rounded exact expectation (``inf`` past the double
range) in any chunk order.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import accumulate
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .centro import _class_id
from .errors import BudgetExceededError

__all__ = [
    "DEFAULT_TERM_BUDGET",
    "ChainExpectation",
    "convergence_table",
    "oracle_double_chain",
    "oracle_single_chain",
]

DEFAULT_TERM_BUDGET = 10**8
_BLOCK = 1 << 16  # most children grown from one chunk of prefixes


def _quotient(num: int, den: int) -> float:
    """``num / den`` rounded once to the nearest float, ``inf`` past its range."""
    try:
        return num / den
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ChainExpectation:
    """Exact expectation of a single or double index-chain product.

    ``value`` includes the ``1 / n**((k+l)/2)`` normalization; ``l`` is
    None for single chains.  ``terms_enumerated``, the number of index
    tuples summed over, is derived from the fields: ``n**k`` or
    ``n**(k+l)``.  ``pair_sums[r]`` is the exact sum of the Wick terms of
    the orbit representatives that use r mirror pairs, for
    r = 0 .. min(h, w) with ``h = n // 2`` and total width w, so that
    ``n**(w/2) * value = sum(pair_sums[r] * (h)_r * 2**r)`` up to the one
    final rounding.  A representative's term depends only on its sequence
    of pair symbols, not on n, so the sums of one walk hold for every
    order of the same parity with fewer pairs.  ``representatives`` is the
    number of orbit representatives with a nonzero term, the rows the
    walk builds and scores at full width; it is 0 on a
    ``convergence_table`` row served from the walk at a larger order.

    ``pair_sums[r]`` is 0 for r > w/2.  A nonzero term hits each of its
    classes at least twice, so it hits at most w/2 classes.  The class
    ``{(i, j), (n-1-i, n-1-j)}`` lies on one arc from the pair symbol of
    i to that of j.  Each chain is a closed walk, so every symbol a
    representative visits is the tail of one of its arcs: it visits no
    more symbols than it has distinct arcs, and has no more arcs than
    classes.  Each pair it uses is a symbol, so r <= w/2.  Hence a walk
    at n = w + 1, where h = w/2 for even w, already holds every nonzero
    sum.

    An even-order representative is an odd-order one that never visits
    the middle index, with the same term and orbit size, so
    ``even_pair_sums`` splits off the sums of those at odd n: it is the
    ``pair_sums`` of order ``n - 1``, and truncated to
    ``min(m // 2, w) + 1`` entries, of every even order ``m < n``.  At
    even n it equals ``pair_sums``.
    """

    n: int
    k: int
    l: int | None
    value: float
    representatives: int
    pair_sums: tuple[int, ...]
    even_pair_sums: tuple[int, ...]

    @property
    def terms_enumerated(self) -> int:
        return self.n ** (self.k + (self.l or 0))


def _orbit_sizes(n: int, width: int) -> list[int]:
    """Orbit size ``(h)_r * 2**r`` of a representative using r mirror pairs.

    Indexed by r = 0 .. min(h, width), where h = n // 2.
    """
    h = n // 2
    sizes = [1]
    for r in range(min(h, width)):
        sizes.append(sizes[-1] * (h - r) * 2)
    return sizes


def _weigh(pair_sums: Sequence[int], n: int, width: int) -> float:
    """The expectation at order n from its Wick sums split by pairs used.

    Each sum is weighted by its orbit size at n (sums past
    ``min(n // 2, width)`` pairs have no orbit there) and the exact total
    is divided by ``n**(width // 2)`` once.
    """
    total = sum(size * s for size, s in zip(_orbit_sizes(n, width), pair_sums))
    return _quotient(total, n ** (width // 2))


def _child_tables(n: int, width: int, dtype) -> tuple[np.ndarray, ...]:
    """The canonical one-index extensions of a prefix, by pairs it uses.

    A prefix using u mirror pairs continues with either side of a pair
    it already uses (index a or n-1-a for a < u), the middle index of
    odd n, or the next pair at index u if u < n // 2.  Returns, for
    u = 0 .. min(n // 2, width), the number of children ``branch[u]`` and
    where they start (``first[u]``) in two flat tables: each child's new
    index (``digit``, of the walk's row type ``dtype``) and the number of
    pairs it uses (``after``).
    """
    h, odd = divmod(n, 2)
    branch, digit, after = [], [], []
    for u in range(min(h, width) + 1):
        kids = [i for a in range(u) for i in (a, n - 1 - a)] + [h] * odd + [u] * (u < h)
        branch.append(len(kids))
        digit += kids
        after += [u] * (2 * u + odd) + [u + 1] * (u < h)
    branch = np.array(branch, dtype=np.int64)
    first = np.cumsum(branch) - branch
    return branch, first, np.array(digit, dtype=dtype), np.array(after, dtype=np.int64)


def _children(
    used: np.ndarray, tables: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every canonical one-index extension of each prefix, without its row.

    ``used`` holds the number of pairs each prefix uses and ``tables`` is
    ``_child_tables(n, width, dtype)``.  Returns, for the children grouped by
    parent in row order, each child's parent row, its new index and the
    number of pairs it uses.
    """
    branch, first, digit, after = tables
    count = branch[used]
    parent = np.arange(used.size).repeat(count)
    # child c of parent t sits at first[used[t]] + c in the flat tables
    at = np.arange(parent.size) + (first[used] - count.cumsum() + count).repeat(count)
    return parent, digit[at], after[at]


def _rows(rows: np.ndarray, parent: np.ndarray, digit: np.ndarray) -> np.ndarray:
    """The prefix rows ``rows[parent]``, each extended by its new index ``digit``."""
    out = np.empty((parent.size, rows.shape[1] + 1), dtype=rows.dtype)
    out[:, :-1] = rows.take(parent, axis=0)  # a fancy index copies row by row
    out[:, -1] = digit
    return out


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


@cache
def _unpruned(n: int, width: int) -> int:
    """The number of representatives of width ``width`` before pruning.

    ``_completions(n, width)[0][0]``, made once per (n, width): a grid's
    budget checks and its walks count each order and width once.
    """
    return _completions(n, width)[0][0]


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
    n: int, lengths: tuple[int, ...]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """Yield ``(rows, used, term)`` chunks of canonical orbit prefixes.

    ``rows`` holds one prefix of indices per row and ``used`` the number
    of mirror pairs each uses.  A chunk with a ``term`` holds at most
    ``_BLOCK`` full-width representatives that close, each with its exact
    Wick term.  A dropped chunk, with ``term`` None, stands for prefixes
    every completion of which hits some class an odd number of times, so
    that its Wick term is zero.  It holds no rows (its ``rows`` has shape
    ``(0, depth)``), only the pairs each of its prefixes uses: those are
    counted, never built.

    The rule: a prefix whose determined cells hit o classes an odd number
    of times, with r cells still open, is dropped unless o <= r and
    o = r (mod 2).  o has the parity of the determined cells, so the
    parity test fails, at every depth, exactly when the width is odd; then
    the root is dropped, as a chunk of depth 0.  At even width each row's
    classes are tallied as its indices are placed: how many it hits an
    odd number of times, and its term so far, which the (2t)-th hit of a
    class multiplies by 2t - 1.  At full width the rule drops exactly the
    zero terms.

    The last index is placed without building the rows it cannot close.
    Its one or two new cells close a parent with o odd classes (o <= 2
    once pruned) only if o = 0 and the two cells share a class, or o = 2
    and they hit exactly the parent's odd pair (o = 1: the one cell hits
    the odd class).  The classes of a closed chain XOR to 0, so each
    child's new classes are XORed into its parent's XOR of classes first,
    from the parent's columns alone.  Only the children whose XOR
    vanishes are tallied in full, and only those that close are built,
    so the full-width rows built are the rows scored.

    The walk is depth first, from one stack of ``(state, start)``
    entries: a state holds the root or the children kept from one chunk
    of parents, with their tallies, and ``start`` is its first prefix not
    yet grown.  Each step pops an entry, pushes it back if prefixes are
    left past the chunk it takes, grows or closes that chunk and pushes
    the children kept on top.  A depth-d prefix uses u <= min(d, n // 2)
    pairs and has ``2u + odd + (u < h)`` children, so a chunk of
    ``_BLOCK`` over that count at the largest u has at most ``_BLOCK``
    children.  The depths on the stack rise strictly from bottom to top,
    so it holds at most ``width`` states of at most ``_BLOCK`` prefixes
    each, and no recursion limits the width.
    """
    width = sum(lengths)
    # linear cell ids reach n*n - 1; the narrowest type that holds them
    # moves the least memory
    dtype = next(t for t in (np.int16, np.int32, np.int64) if n * n <= np.iinfo(t).max)
    if width % 2:
        yield np.empty((0, 0), dtype=dtype), np.zeros(1, dtype=np.int64), None
        return
    h = n // 2
    cells = _fixed_cells(lengths)
    fixed = list(accumulate((len(c) for c in cells), initial=0))  # determined at depth d
    tables = _child_tables(n, width, dtype)
    # (w-1)!! bounds every term: int64 holds the sum of a chunk's terms
    exact = np.int64 if math.prod(range(width - 1, 0, -2)) * _BLOCK < 2**63 else object
    # a class is hit at most width times; a narrow count keeps the tally fast
    count = np.int16 if width < 2**15 else np.int64

    def placed(rows, parent, digit):
        # each child's class of each cell its new index determines
        depth = rows.shape[1] + 1
        for p, q in cells[depth - 1]:
            i, k = (digit if x == depth - 1 else rows[:, x].take(parent) for x in (p, q))
            yield _class_id(i * n + k, n)

    def tally(seen, odd, term, parent, classes):
        # each child's classes, its parent's then its new ones, how many it
        # hits an odd number of times, and its term so far
        known = seen.shape[0]
        grown = np.empty((known + len(classes), parent.size), dtype=seen.dtype)
        # "clip" writes straight into out; the default mode buffers a copy
        seen.take(parent, axis=1, out=grown[:known], mode="clip")
        odd, term = odd[parent], term[parent]
        for j, cls in enumerate(classes, known):
            grown[j] = cls
            hits = np.add.reduce(grown[:j] == cls, axis=0, dtype=count)
            odd_hits = hits & 1
            odd += 1 - 2 * odd_hits
            term *= np.where(odd_hits, hits, 1)
        return grown, odd, term

    def dropped(used, depth):
        # prefixes counted, not built: no rows, only the pairs each uses
        return (np.empty((0, depth), dtype=dtype), used, None) if used.size else None

    def grow(rows, used, seen, odd, term):
        # extend by one index short of full width: the children kept, and
        # the chunk dropped or None
        depth = rows.shape[1] + 1
        parent, digit, used = _children(used, tables)
        grown, odd, term = tally(seen, odd, term, parent, list(placed(rows, parent, digit)))
        keep = odd <= width - fixed[depth]
        if keep.all():
            return (_rows(rows, parent, digit), used, grown, odd, term), None
        # compress copies contiguous runs; a boolean index goes item by item
        kept = _rows(rows, parent.compress(keep), digit.compress(keep)), used.compress(keep)
        tallied = grown.compress(keep, axis=1), odd.compress(keep), term.compress(keep)
        return (*kept, *tallied), dropped(used.compress(~keep), depth)

    def close(rows, used, seen, odd, term):
        # place the last index: the full rows that close, with their terms,
        # and the chunk of the other children, counted but not built, or None
        parent, digit, used = _children(used, tables)
        classes = list(placed(rows, parent, digit))
        # the classes of a closed chain XOR to 0: only the children whose
        # classes do are tallied in full
        xor = np.bitwise_xor.reduce(seen, axis=0).take(parent)
        for cls in classes:
            xor ^= cls
        test = np.flatnonzero(xor == 0)
        _, left, term = tally(seen, odd, term, parent[test], [cls[test] for cls in classes])
        shut = left == 0
        built = test[shut]
        unbuilt = np.ones(used.size, dtype=bool)
        unbuilt[built] = False
        full = _rows(rows, parent[built], digit[built]), used[built], term[shut]
        return full, dropped(used.compress(unbuilt), width)

    # no cell is determined at the root: no class is odd, the term is 1
    root = np.empty((1, 0), dtype), np.zeros(1, np.int64), np.empty((0, 1), dtype)
    stack = [((*root, np.zeros(1, np.int64), np.ones(1, exact)), 0)]
    branch = tables[0].tolist()  # most children at depth d: at u = min(d, h) pairs
    chunk = [_BLOCK // branch[min(d, h)] for d in range(width)]
    while stack:
        state, start = stack.pop()
        rows, used, seen, odd, term = state
        depth = rows.shape[1]
        stop = start + chunk[depth]
        if stop < used.size:
            stack.append((state, stop))  # under its children: they go first
        cut = slice(start, stop)
        last = depth + 1 == width
        step = close if last else grow
        children, lost = step(rows[cut], used[cut], seen[:, cut], odd[cut], term[cut])
        if lost:
            yield lost
        if not children[1].size:
            continue
        if last:
            yield children
        else:
            stack.append((children, 0))


def _by_pairs(sums: list[int], used: np.ndarray, term: np.ndarray) -> list[int]:
    """``sums`` plus each row's ``term`` at the entry of the pairs it ``used``."""
    out = np.zeros(len(sums), dtype=term.dtype)
    np.add.at(out, used, term)  # one unbuffered pass
    return [s + int(t) for s, t in zip(sums, out)]


def _check_args(n: int, lengths: tuple[int, ...]) -> None:
    """Raise ValueError for an order or chain length below 1."""
    if n < 1 or min(lengths) < 1:
        raise ValueError(f"need n >= 1 and chain lengths >= 1, got n={n}, lengths={lengths}")


def _check_budget(n: int, lengths: tuple[int, ...], budget: int, count: int) -> None:
    """Raise BudgetExceededError past ``budget`` orbit representatives.

    ``count`` is the number of representatives before pruning,
    ``_unpruned(n, width)``.  A budget of 2**63 or more raises
    ValueError, the range the CLI's setting has too.
    """
    if budget >= 2**63:
        raise ValueError(f"budget must be below 2**63, got {budget}")
    if count > budget:
        label = ", ".join(f"{name}={p}" for name, p in zip("kl", lengths))
        raise BudgetExceededError(
            f"enumeration for n={n}, {label} needs {count} orbit "
            f"representatives, exceeding the budget of {budget}"
        )


def _enumerate(
    n: int, lengths: tuple[int, ...], budget: int
) -> tuple[float, int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Wick sum over all ``n**w`` chains of the given lengths over ``n**(w/2)``.

    Returns the value, the number of representatives with a nonzero term
    and the exact Wick sums split by pairs used, of all representatives and of
    those off the middle index (``ChainExpectation.pair_sums`` and
    ``even_pair_sums``).  Raises as ``_check_budget`` does before any work.
    """
    width = sum(lengths)
    _check_budget(n, lengths, budget, _unpruned(n, width))
    sizes = _orbit_sizes(n, width)
    sums = even = [0] * len(sizes)
    covered = evaluated = 0
    for rows, used, term in _representatives(n, lengths):
        if term is not None:
            sums = _by_pairs(sums, used, term)
            if n % 2:  # the even sums keep the rows off the middle index
                term[(rows == n // 2).any(axis=1)] = 0
                even = _by_pairs(even, used, term)
            evaluated += used.size
        # a depth-d prefix using u pairs stands for the sizes[u] prefixes of
        # its orbit, each completed by all n**(w-d) index tuples
        counts = np.bincount(used)
        orbits = sum(int(c) * size for c, size in zip(counts, sizes))
        covered += orbits * n ** (width - rows.shape[1])
    if covered != n**width:
        raise AssertionError(f"orbits cover {covered} of {n**width} index tuples")
    return _weigh(sums, n, width), evaluated, (tuple(sums), tuple(even if n % 2 else sums))


def _chain(n: int, lengths: tuple[int, ...], budget: int) -> ChainExpectation:
    """The exact expectation of the product of ``Tr M^L`` over L in ``lengths``.

    One chain length or two; raises as ``_check_args`` and ``_enumerate`` do.
    """
    _check_args(n, lengths)
    value, evaluated, (sums, even) = _enumerate(n, lengths, budget)
    k, *l = lengths
    return ChainExpectation(n, k, l[0] if l else None, value, evaluated, sums, even)


def oracle_single_chain(
    n: int, k: int, budget: int = DEFAULT_TERM_BUDGET
) -> ChainExpectation:
    """Exact ``E[Tr M^k]`` for Gaussian entries at order n.

    Sums the Wick products (reflection-class multiplicity moments) of
    all ``n**k`` index chains, one orbit representative at a time,
    normalized by ``n**(k/2)``.  Exactly zero for odd k at every n (each chain then
    has some odd-multiplicity class).
    """
    return _chain(n, (k,), budget)


def oracle_double_chain(
    n: int, k: int, l: int, budget: int = DEFAULT_TERM_BUDGET
) -> ChainExpectation:
    """Exact ``E[Tr M^k  Tr M^l]`` for Gaussian entries at order n.

    Same Wick evaluation over joint chains of ``n**(k+l)`` index tuples,
    normalized by ``n**((k+l)/2)``.
    """
    return _chain(n, (k, l), budget)


def _served(walk: ChainExpectation, n: int) -> ChainExpectation:
    """The row at order n from the walk at ``walk.n``, by its sums.

    n has the parity of ``walk.n`` and is at most ``walk.n``, or n is even
    and below an odd ``walk.n``; an even n reads ``even_pair_sums``.
    """
    if n == walk.n:
        return walk
    width = walk.k + (walk.l or 0)
    sums = walk.pair_sums if n % 2 else walk.even_pair_sums
    cut = min(n // 2, width) + 1
    return replace(
        walk,
        n=n,
        value=_weigh(sums, n, width),
        representatives=0,
        pair_sums=sums[:cut],
        even_pair_sums=walk.even_pair_sums[:cut],
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

    Every grid point is first checked, in grid order, as its own call
    would check it (arguments, then its unpruned count against
    ``budget``), so the first failing point raises before any work.
    Each chain shape is then walked by ``oracle_single_chain`` or
    ``oracle_double_chain`` at the largest odd order in ``n_list``, which
    serves every odd order and every even order below it; only where
    ``n_list`` has even orders above that one is each shape walked again,
    at the largest even order.  Every other row is served from a walk's ``pair_sums`` or
    ``even_pair_sums``: bitwise what a call at that order returns, but
    for ``representatives``, which is 0.
    """
    points = []
    for n in n_list:
        points += [(n, (k,)) for k in k_list]
        points += [(n, (k, l)) for k in k_list for l in l_list]
    for n, lengths in points:
        _check_args(n, lengths)
        _check_budget(n, lengths, budget, _unpruned(n, sum(lengths)))
    odd = max((n for n, _ in points if n % 2), default=0)
    even = max((n for n, _ in points if not n % 2), default=0)
    walks: dict[tuple, ChainExpectation] = {}
    rows = []
    for n, lengths in points:
        key = lengths, odd if n % 2 or n < odd else even
        if key not in walks:
            chain = oracle_single_chain if len(lengths) == 1 else oracle_double_chain
            walks[key] = chain(key[1], *lengths, budget)
        rows.append(_served(walks[key], n))
    return rows
