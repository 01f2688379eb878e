import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import centrolab as cl
from centrolab import oracle
from centrolab.cli import main

SRC = Path(cl.__file__).resolve().parents[1]


def _squared_entry_classes(n: int) -> int:
    """Independent count of cells (i, j) whose transpose cell lies in the
    same reflection class, which is exactly when E[x_ij * x_ji] = 1."""
    return sum(
        cl.entry_class(n, i, j) == cl.entry_class(n, j, i)
        for i in range(n)
        for j in range(n)
    )


class TestSingleChain:
    def test_n2_k2_exact(self):
        r = cl.oracle_single_chain(2, 2)
        assert r.value == 2.0
        assert r.terms_enumerated == 4

    def test_n3_k2_exact(self):
        r = cl.oracle_single_chain(3, 2)
        assert r.value == 5.0 / 3.0
        assert r.terms_enumerated == 9

    def test_k2_matches_coincidence_count(self):
        # E[Tr M^2] = (#cells with transpose in the same class) / n,
        # counted independently of the enumerator
        for n in range(2, 9):
            assert cl.oracle_single_chain(n, 2).value == _squared_entry_classes(n) / n

    def test_odd_powers_vanish_exactly(self):
        assert cl.oracle_single_chain(6, 3).value == 0.0
        for n in (2, 3, 4, 5):
            for k in (1, 3, 5):
                assert cl.oracle_single_chain(n, k).value == 0.0

    def test_terms_enumerated(self):
        assert cl.oracle_single_chain(4, 3).terms_enumerated == 64

    def test_budget_error_names_the_bound(self):
        with pytest.raises(cl.BudgetExceededError, match="100000000"):
            cl.oracle_single_chain(20, 12)
        with pytest.raises(cl.BudgetExceededError, match="n=3, k=4"):
            cl.oracle_single_chain(3, 4, budget=10)

    def test_double_chain_budget_error_names_k_and_l(self):
        with pytest.raises(cl.BudgetExceededError, match="n=20, k=6, l=6 needs "):
            cl.oracle_double_chain(20, 6, 6)
        # k = 2 alone fits (5 representatives), (2, 4) does not (365)
        with pytest.raises(cl.BudgetExceededError, match="n=3, k=2, l=4 needs 365 "):
            cl.convergence_table([2], [4], [3], budget=10)

    def test_budget_past_int64_rejected(self):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            cl.oracle_single_chain(30, 40, budget=2**63)
        largest = cl.oracle_single_chain(3, 2, budget=2**63 - 1)
        assert largest.value == cl.oracle_single_chain(3, 2).value

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            cl.oracle_single_chain(0, 2)
        with pytest.raises(ValueError):
            cl.oracle_single_chain(2, 0)

    def test_monte_carlo_corroboration(self):
        stack = cl.sample_centro_batch(3, 100_000, "gaussian", 314)
        traces = cl.trace_powers(stack, 4)
        for k in (2, 3, 4):
            x = traces[:, k - 1]
            se = x.std(ddof=1) / np.sqrt(x.size)
            exact = cl.oracle_single_chain(3, k).value
            assert abs(x.mean() - exact) <= 4.0 * se


class TestDoubleChain:
    def test_n2_trace_squared_exact(self):
        # Tr M = sqrt(2) x for n = 2 (both diagonal cells share one class),
        # so E[(Tr M)^2] = 2 exactly
        r = cl.oracle_double_chain(2, 1, 1)
        assert r.value == 2.0
        assert r.terms_enumerated == 4

    def test_n2_trace_squared_monte_carlo(self):
        stack = cl.sample_centro_batch(2, 1_000_000, "gaussian", 2718)
        tr = np.einsum("tii->t", stack)
        x = tr * tr
        se = x.std(ddof=1) / np.sqrt(x.size)
        assert abs(x.mean() - 2.0) <= 3.0 * se

    def test_odd_total_power_vanishes(self):
        assert cl.oracle_double_chain(3, 2, 1).value == 0.0
        assert cl.oracle_double_chain(2, 3, 2).value == 0.0

    def test_equal_even_powers_trend_toward_asymptote(self):
        values = [cl.oracle_double_chain(n, 2, 2).value for n in (2, 4, 6)]
        gaps = [abs(v - 8.0) for v in values]
        assert gaps[0] >= gaps[1] >= gaps[2]

    def test_symmetry_in_chain_order(self):
        assert (
            cl.oracle_double_chain(3, 2, 4).value
            == cl.oracle_double_chain(3, 4, 2).value
        )
        assert (
            cl.oracle_double_chain(4, 2, 3).value
            == cl.oracle_double_chain(4, 3, 2).value
        )

    def test_variance_nonnegativity(self):
        for n in (2, 3, 4):
            for k in (2, 3):
                second = cl.oracle_double_chain(n, k, k).value
                mean = cl.oracle_single_chain(n, k).value
                assert second >= mean * mean - 1e-12

    def test_terms_enumerated(self):
        assert cl.oracle_double_chain(3, 2, 2).terms_enumerated == 81

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="chain lengths >= 1"):
            cl.oracle_double_chain(3, 2, 0)


def _record_chain_calls(monkeypatch) -> list[tuple[str, tuple]]:
    """Record every call made to the module's two chain functions."""
    seen = []
    for name in ("oracle_single_chain", "oracle_double_chain"):
        inner = getattr(oracle, name)

        def wrapped(*args, _inner=inner, _name=name):
            seen.append((_name, args))
            return _inner(*args)

        monkeypatch.setattr(oracle, name, wrapped)
    return seen


def _assert_rows_match_calls(rows) -> None:
    """Each table row is bitwise what its own call returns, but for the work."""
    for row in rows:
        if row.l is None:
            point = cl.oracle_single_chain(row.n, row.k)
        else:
            point = cl.oracle_double_chain(row.n, row.k, row.l)
        assert row.value.hex() == point.value.hex(), row
        assert replace(row, representatives=0) == replace(point, representatives=0)
        assert row.representatives in (0, point.representatives)


class TestConvergenceTable:
    def test_k2_gap_non_increasing_over_even_orders(self):
        rows = cl.convergence_table([2], [], [2, 4, 6, 8])
        gaps = [abs(r.value - 2.0) for r in rows]
        assert gaps == sorted(gaps, reverse=True)

    def test_k1_rows_exactly_zero(self):
        rows = cl.convergence_table([1], [], [2, 3, 4, 5, 6])
        assert all(r.value == 0.0 for r in rows)

    def test_k3_rows_exactly_zero(self):
        rows = cl.convergence_table([3], [], [2, 3, 4, 5, 6])
        assert all(r.value == 0.0 for r in rows)

    def test_row_layout(self):
        rows = cl.convergence_table([2, 3], [2], [2, 3])
        assert len(rows) == 2 * (2 + 2)
        assert rows[0].n == 2 and rows[0].k == 2 and rows[0].l is None
        assert rows[2].l == 2

    def test_one_walk_per_shape(self, monkeypatch):
        # 9 chain shapes, each walked once at n = 7: the n = 5 rows come
        # from its pair_sums, the n = 6 rows from its even_pair_sums
        seen = _record_chain_calls(monkeypatch)
        rows = cl.convergence_table([2, 3, 4], [2, 3], [5, 6, 7])
        assert len(seen) == 9
        assert {args[0] for _, args in seen} == {7}
        assert [r.representatives for r in rows if r.n in (5, 6)] == [0] * 18
        _assert_rows_match_calls(rows)

    def test_even_orders_past_the_largest_odd_walk_again(self, monkeypatch):
        # n = 6 is past the n = 5 walk, so each shape is also walked at 6;
        # n = 4 is served from the n = 5 walk
        seen = _record_chain_calls(monkeypatch)
        rows = cl.convergence_table([2, 3], [2], [4, 5, 6])
        assert sorted(args for _, args in seen) == sorted(
            (n, *shape, oracle.DEFAULT_TERM_BUDGET)
            for n in (5, 6)
            for shape in [(2,), (3,), (2, 2), (3, 2)]
        )
        assert [r.representatives for r in rows if r.n == 4] == [0] * 4
        _assert_rows_match_calls(rows)

    @pytest.mark.parametrize(
        "k_list, l_list, n_list",
        [([k], list(range(1, 9 - k)), list(range(1, 13))) for k in range(1, 9)]
        + [([1, 2, 3, 4], [1, 2, 3], [3, 1, 2, 5, 4, 3]), ([5, 3, 5], [1, 3], [2, 9, 4, 7])],
    )
    def test_rows_equal_per_point_calls(self, k_list, l_list, n_list):
        # every shape of width <= 8 at n = 1..12, an unordered n_list with
        # a repeat, a repeated k and odd widths
        rows = cl.convergence_table(k_list, l_list, n_list)
        shapes = [(k, None) for k in k_list] + [(k, l) for k in k_list for l in l_list]
        assert [(r.n, r.k, r.l) for r in rows] == [(n, k, l) for n in n_list for k, l in shapes]
        _assert_rows_match_calls(rows)

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_even_pair_sums_are_the_next_lower_order(self, n):
        # every shape of width <= 8: the middle-free sums at odd n are the
        # pair_sums of the walk at n - 1 (both have min(n // 2, w) + 1 entries)
        for w in range(1, 9):
            for lengths in [(w,)] + [(k, w - k) for k in range(1, w)]:
                walk = oracle._chain(n, lengths, oracle.DEFAULT_TERM_BUDGET)
                below = oracle._chain(n - 1, lengths, oracle.DEFAULT_TERM_BUDGET)
                assert walk.even_pair_sums == below.pair_sums, (n, lengths)
                assert below.even_pair_sums == below.pair_sums

    def test_budget_checked_in_grid_order_before_any_walk(self, monkeypatch):
        # n = 4 fits the budget and n = 20 does not, nor does n = 22, the
        # order its parity is walked at: the error names the first failing
        # point, and no chain is walked
        seen = _record_chain_calls(monkeypatch)
        with pytest.raises(cl.BudgetExceededError, match="n=20, k=12 "):
            cl.convergence_table([12], [], [4, 20])
        with pytest.raises(cl.BudgetExceededError, match="n=20, k=12 "):
            cl.convergence_table([12], [], [20, 22])
        assert seen == []

    def test_budget_counts_each_order_and_width_once(self, monkeypatch):
        # 27 grid points but 18 distinct (n, width) counts, in grid order,
        # all before the walks; the 9 walks build no table again
        counted = []
        completions = oracle._completions

        def record(n, width):
            counted.append((n, width))
            return completions(n, width)

        monkeypatch.setattr(oracle, "_completions", record)
        oracle._unpruned.cache_clear()
        cl.convergence_table([2, 3, 4], [2, 3], [5, 6, 7])
        widths = [2, 3, 4, 4, 5, 5, 6, 6, 7]
        grid = [(n, w) for n in (5, 6, 7) for w in widths]
        assert counted == list(dict.fromkeys(grid))
        assert len(counted) == 18
        # a call of its own counts for itself, once per (n, width)
        cl.oracle_double_chain(8, 3, 3)
        cl.oracle_single_chain(8, 6)
        assert counted[18:] == [(8, 6)]

    def test_rows_agree_across_the_int16_bound(self):
        # a walk's rows are int16 up to n = 181, where cell ids reach
        # 181**2 - 1 = 32,760, and int32 from n = 182; the rows at 180 and
        # 181 are served from the int32 walks at 182 and 183 and must equal
        # their own int16 walks bitwise
        for n, dtype in [(181, np.int16), (182, np.int32)]:
            assert next(oracle._representatives(n, (3, 3)))[0].dtype == dtype
        _assert_rows_match_calls(cl.convergence_table([4], [2], [180, 181, 182, 183]))

    def test_bad_length_checked_before_any_walk(self, monkeypatch):
        # the single chain k = 2 is fine, the double chain (2, 0) is not
        seen = _record_chain_calls(monkeypatch)
        with pytest.raises(ValueError, match="chain lengths >= 1"):
            cl.convergence_table([2], [0], [3])
        assert seen == []


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 5), k=st.sampled_from([1, 3, 5]))
def test_parity_law_odd_powers(n, k):
    assert cl.oracle_single_chain(n, k).value == 0.0


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 4), k=st.integers(1, 3), l=st.integers(1, 3))
def test_double_chain_symmetry_property(n, k, l):
    assert (
        cl.oracle_double_chain(n, k, l).value == cl.oracle_double_chain(n, l, k).value
    )


def _brute_force(
    n: int, lengths: tuple[int, ...]
) -> tuple[float, tuple[int, ...], tuple[int, ...]]:
    """Independent reference for a walk's value, ``pair_sums`` and ``even_pair_sums``.

    Every index tuple, its classes by ``entry_class`` and its term an exact
    product of (m - 1)!!.  A tuple visiting r mirror pairs lies in an orbit
    of ``(h)_r * 2**r`` tuples whose representative uses r pairs, so the
    sum of the terms of those tuples over that size is the r-th pair sum;
    the even sums keep only the tuples off the middle index of odd n.
    """
    h, odd = divmod(n, 2)
    width = sum(lengths)
    cls = {(i, j): cl.entry_class(n, i, j) for i in range(n) for j in range(n)}
    sums = [0] * (min(h, width) + 1)
    even = list(sums)
    for tup in itertools.product(range(n), repeat=width):
        cells = []
        off = 0
        for length in lengths:
            chain = tup[off : off + length]
            cells += [cls[chain[t], chain[(t + 1) % length]] for t in range(length)]
            off += length
        mults = Counter(cells).values()
        if any(m % 2 for m in mults):
            continue
        term = math.prod(math.prod(range(m - 1, 0, -2)) for m in mults)
        pairs = len({min(i, n - 1 - i) for i in tup if 2 * i != n - 1})
        sums[pairs] += term
        if not (odd and h in tup):
            even[pairs] += term
    value = float(Fraction(sum(sums), n ** (width // 2)))
    sizes = [math.perm(h, r) * 2**r for r in range(len(sums))]
    assert all(s % size == 0 for s, size in zip(sums + even, sizes + sizes))
    return value, *(tuple(s // z for s, z in zip(part, sizes)) for part in (sums, even))


def _pairs(n: int, tup) -> int:
    """The number of mirror pairs the indices of ``tup`` visit."""
    return len({min(i, n - 1 - i) for i in tup if 2 * i != n - 1})


def _canonical(n: int, tup) -> bool:
    """Whether ``tup`` is its orbit's representative.

    Each new mirror pair enters by its lower index, in order: pair u is
    first visited at index u.
    """
    u = 0
    for i in tup:
        if 2 * i == n - 1 or min(i, n - 1 - i) < u:
            continue
        if i != u:
            return False
        u += 1
    return True


def _odd_classes(n: int, lengths: tuple[int, ...], prefix) -> tuple[int, int]:
    """Classes a prefix's determined cells hit an odd number of times, and cells left open."""
    cells = []
    off = 0
    for length in lengths:
        chain = prefix[off : off + length]
        cells += [(chain[t], chain[t + 1]) for t in range(len(chain) - 1)]
        if len(chain) == length:
            cells.append((chain[-1], chain[0]))
        off += length
    counts = Counter(cl.entry_class(n, i, j) for i, j in cells)
    return sum(m % 2 for m in counts.values()), sum(lengths) - len(cells)


class TestOrbitEnumeration:
    def test_matches_brute_force_reference(self):
        for n in range(1, 7):
            for w in range(1, 7):
                assert cl.oracle_single_chain(n, w).value == _brute_force(n, (w,))[0]
                for k in range(1, w):
                    got = cl.oracle_double_chain(n, k, w - k).value
                    assert got == _brute_force(n, (k, w - k))[0], (n, k, w - k)

    @staticmethod
    def _record_chunks(monkeypatch) -> tuple[list[int], list[tuple[int, int]]]:
        """Record the chunks the walks yield.

        The number of rows of each scored chunk, and the number of rows and
        of ``used`` entries of each dropped one.
        """
        rows, dropped = [], []
        walk = oracle._representatives

        def record(n, lengths):
            for chunk in walk(n, lengths):
                if chunk[2] is not None:
                    rows.append(chunk[1].size)
                else:
                    dropped.append((chunk[0].shape[0], chunk[1].size))
                yield chunk

        monkeypatch.setattr(oracle, "_representatives", record)
        return rows, dropped

    @pytest.mark.parametrize("call", [(2, (18,)), (8, (3, 3, 3, 3))])
    def test_blocks_stay_bounded(self, monkeypatch, call):
        # n = 2 drops nothing; (3,3,3,3) at n = 8 keeps 208,880 of its
        # 202,943,744 representatives (past the default budget); both
        # score their rows in several chunks of at most _BLOCK; a dropped
        # chunk builds no rows and counts at most _BLOCK prefixes
        rows, dropped = self._record_chunks(monkeypatch)
        _, evaluated, _ = oracle._enumerate(*call, 2**62)
        assert len(rows) > 1
        assert max(rows) <= oracle._BLOCK
        assert evaluated == sum(rows)
        assert bool(dropped) == (call[0] > 2)
        assert all(built == 0 and 0 < size <= oracle._BLOCK for built, size in dropped)

    def test_odd_width_evaluates_no_row(self, monkeypatch):
        # an odd total width leaves some class hit an odd number of times in
        # every chain: the root itself is dropped, covering all n**w tuples
        rows, _ = self._record_chunks(monkeypatch)
        got = cl.oracle_double_chain(3, 6, 5)
        assert got.value == 0.0 and got.representatives == 0 and rows == []
        walk = list(oracle._representatives(3, (6, 5)))
        assert [(r.shape, u.tolist(), term) for r, u, term in walk] == [((0, 0), [0], None)]

    def test_pruning_counts_rows_evaluated(self):
        # only the chains whose every class is hit an even number of times
        # are scored; at n = 2 every chain closes and all 2**17 are scored
        assert cl.oracle_double_chain(9, 4, 4).representatives == 2_121
        assert cl.oracle_double_chain(40, 5, 5).representatives == 9_162
        assert cl.oracle_single_chain(2, 18).representatives == 2**17
        assert cl.oracle_single_chain(5, 7).representatives == 0
        assert cl.oracle_single_chain(9, 4).representatives == 15

    @pytest.mark.parametrize("lengths", [(2,), (4,), (2, 2), (1, 3)])
    def test_representatives_count_nonzero_terms(self, lengths):
        # at every n, the canonical representatives whose every class is
        # hit an even number of times, recounted from every index tuple
        width = sum(lengths)
        for n in range(3, 10):
            expected = sum(
                1
                for tup in itertools.product(range(n), repeat=width)
                if _canonical(n, tup) and not _odd_classes(n, lengths, tup)[0]
            )
            got = oracle._chain(n, lengths, oracle.DEFAULT_TERM_BUDGET)
            assert got.representatives == expected, n

    @pytest.mark.parametrize("n, lengths", [(5, (3, 3)), (6, (2, 1, 3)), (4, (4, 4)), (7, (1, 5))])
    def test_dropped_prefixes_cannot_close(self, n, lengths):
        # recount, level by level from every canonical prefix, the prefixes
        # the rule drops at their first failing depth: more classes hit an
        # odd number of times than cells left open, or the wrong parity (at
        # full width, any odd class), so no completion has a nonzero term.
        # A dropped chunk holds no rows, only the pairs each prefix uses:
        # the walk's dropped (depth, pairs used) are exactly the recount's
        width = sum(lengths)
        expected, kept = Counter(), [()]
        for depth in range(1, width + 1):
            grown = [p + (i,) for p in kept for i in range(n) if _canonical(n, p + (i,))]
            kept = []
            for prefix in grown:
                odd, left = _odd_classes(n, lengths, prefix)
                if odd > left or (odd - left) % 2:
                    expected[depth, _pairs(n, prefix)] += 1
                else:
                    kept.append(prefix)
        dropped = Counter()
        for rows, used, term in oracle._representatives(n, lengths):
            if term is None:
                assert len(rows) == 0
                dropped.update((rows.shape[1], u) for u in used.tolist())
        assert dropped == expected
        assert {d == width for d, _ in expected} == {False, True}

    @pytest.mark.parametrize(
        "n, lengths",
        [
            (n, lengths)
            for lengths in [(1, 1, 2), (2, 2, 2), (1, 2, 3), (2, 2, 1, 1), (3, 1, 1, 1)]
            for n in range(1, 5)
        ]
        + [(3, (1, 3, 1, 3)), (3, (2, 1, 2, 3))],
    )
    def test_several_chains_match_brute_force(self, n, lengths):
        # three and four chains: each chain's closing cell is determined
        # when its last index is placed, mid-row
        got = oracle._enumerate(n, lengths, oracle.DEFAULT_TERM_BUDGET)[0]
        assert got == _brute_force(n, lengths)[0]

    @pytest.mark.parametrize("n, lengths", [(9, (4, 4)), (40, (5, 5))])
    def test_walked_terms_match_per_row_reference(self, n, lengths):
        # widths 8 and 10, past the brute-force reference: each scored
        # row's classes counted one at a time, its term a product of
        # (m - 1)!!; the sums of all rows and of the rows off the middle
        # index of odd n (at even n, every row) are the walk's sums
        pairs = min(n // 2, sum(lengths)) + 1
        expected, free = [0] * pairs, [0] * pairs
        terms = []
        for rows, used, term in oracle._representatives(n, lengths):
            if term is None:
                continue
            for row, u, got in zip(rows.tolist(), used.tolist(), term.tolist()):
                cells = []
                off = 0
                for length in lengths:
                    chain = row[off : off + length]
                    cells += [
                        cl.entry_class(n, chain[t], chain[(t + 1) % length])
                        for t in range(length)
                    ]
                    off += length
                mults = Counter(cells).values()
                assert not any(m % 2 for m in mults), row
                assert got == math.prod(math.prod(range(m - 1, 0, -2)) for m in mults), row
                terms.append(got)
                expected[u] += got
                if n % 2 == 0 or n // 2 not in row:
                    free[u] += got
        assert max(terms) > 1 and sum(x > 0 for x in expected) > 2
        assert free != expected if n % 2 else free == expected
        walk = oracle._chain(n, lengths, oracle.DEFAULT_TERM_BUDGET)
        assert (walk.pair_sums, walk.even_pair_sums) == (tuple(expected), tuple(free))
        assert walk.representatives == len(terms)

    def test_walk_wider_than_the_recursion_limit(self):
        # n = 1 has one prefix per depth, so the walk goes as deep as the
        # width: a walk that recursed once per index would overflow the stack
        assert sys.getrecursionlimit() < 2000
        for got in (cl.oracle_single_chain(1, 2000), cl.oracle_double_chain(1, 1500, 1500)):
            assert got.value == math.inf and got.representatives == 1

    @staticmethod
    def _record_full_rows(monkeypatch, width: int) -> list[int]:
        """Record the number of full-width rows each row build makes."""
        built = []
        rows = oracle._rows

        def record(prefixes, parent, digit):
            out = rows(prefixes, parent, digit)
            if out.shape[1] == width:
                built.append(out.shape[0])
            return out

        monkeypatch.setattr(oracle, "_rows", record)
        return built

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 13])
    @pytest.mark.parametrize("lengths", [(4,), (6,), (3, 3), (4, 2), (2, 1), (1, 1)])
    def test_last_level_builds_only_rows_it_evaluates(self, monkeypatch, n, lengths):
        # the last index is placed only where its new cells close the
        # parent's odd classes, also at n <= 2 where every chain closes;
        # the values and sums are the reference's
        width = sum(lengths)
        built = self._record_full_rows(monkeypatch, width)
        got = oracle._chain(n, lengths, oracle.DEFAULT_TERM_BUDGET)
        assert sum(built) == got.representatives
        if n ** width > 10**6:
            return  # 13**6 tuples: past the reference's reach
        value, sums, even = _brute_force(n, lengths)
        assert (got.value, got.pair_sums, got.even_pair_sums) == (value, sums, even)

    @pytest.mark.parametrize("n, lengths, rows", [(20, (12,), 142_358), (25, (6, 6), 357_333)])
    def test_wide_walks_build_only_rows_they_evaluate(self, monkeypatch, n, lengths, rows):
        # building every child of the last level made 1,995,096 and
        # 5,985,604 full-width rows
        built = self._record_full_rows(monkeypatch, sum(lengths))
        _, evaluated, _ = oracle._enumerate(n, lengths, 2**62)
        assert sum(built) == evaluated == rows

    def test_coverage_check_survives_optimized_mode(self):
        # a bare assert would vanish under python -O and let a wrong value through
        code = (
            "from centrolab import oracle\n"
            "sizes = oracle._orbit_sizes\n"
            "oracle._orbit_sizes = lambda n, w: [2 * s for s in sizes(n, w)]\n"
            "try:\n"
            "    print(oracle.oracle_single_chain(4, 4).value)\n"
            "except AssertionError as err:\n"
            "    print(err)\n"
        )
        path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "orbits cover 512 of 256 index tuples"

    def test_convergence_table_calls_module_globals(self, monkeypatch):
        # bench/tracing.py wraps the two chain functions where they live
        seen = _record_chain_calls(monkeypatch)
        cl.convergence_table([2], [2], [3])
        assert [name for name, _ in seen] == ["oracle_single_chain", "oracle_double_chain"]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    lengths=st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(lambda ls: sum(ls) <= 8),
)
def test_orbit_sizes_cover_every_tuple(n, lengths):
    # a dropped depth-d prefix using u pairs stands for table[d][u]
    # representatives and sizes[u] * n**(w - d) index tuples
    w = sum(lengths)
    sizes = oracle._orbit_sizes(n, w)
    table = oracle._completions(n, w)
    covered = visited = evaluated = 0
    for rows, used, term in oracle._representatives(n, tuple(lengths)):
        depth = rows.shape[1]
        assert depth == w or term is None
        assert term is None or (term > 0).all()
        assert used.size > 0 and used.max() < len(table[depth])
        covered += sum(sizes[u] * n ** (w - depth) for u in used.tolist())
        visited += sum(table[depth][u] for u in used.tolist())
        evaluated += 0 if term is None else used.size
    assert covered == n**w
    assert visited == table[0][0]  # the count the budget is checked against
    assert evaluated <= table[0][0]


_SHAPES_TO_WIDTH_10 = [(w,) for w in range(1, 11)] + [
    (k, w - k) for w in range(2, 11) for k in range(1, w)
]


@pytest.mark.parametrize("lengths", _SHAPES_TO_WIDTH_10)
def test_pair_sums_vanish_past_half_the_width(lengths):
    # a nonzero term uses at most w/2 pairs (see ChainExpectation), so the
    # walk at n = w + 1 holds every nonzero sum of the walk at 2w + 1,
    # which pads them with zeros
    w = sum(lengths)
    wide = oracle._chain(2 * w + 1, lengths, oracle.DEFAULT_TERM_BUDGET)
    half = w // 2 + 1
    assert wide.pair_sums[half:] == wide.even_pair_sums[half:] == (0,) * (w + 1 - half)
    assert w % 2 or any(wide.pair_sums)
    narrow = oracle._chain(w + 1, lengths, oracle.DEFAULT_TERM_BUDGET)
    pad = (0,) * (w + 1 - len(narrow.pair_sums))
    assert narrow.pair_sums + pad == wide.pair_sums
    assert narrow.even_pair_sums + pad == wide.even_pair_sums


def _double_factorial(m: int) -> float:
    """(m - 1)!! for even m, rounded once to a float."""
    return float(math.prod(range(m - 1, 1, -2)))


class TestExactRounding:
    def test_single_index_chain_is_correctly_rounded(self):
        # at n = 1 the only chain puts all k cells in one class: (k - 1)!!,
        # which leaves 2**53 at k = 32, where a float running product would
        # round at every step and drift off the correctly rounded value
        for k in range(2, 81, 2):
            assert cl.oracle_single_chain(1, k).value == _double_factorial(k), k

    def test_beyond_double_range_is_inf(self, tmp_path):
        assert cl.oracle_single_chain(1, 400).value == math.inf
        assert cl.oracle_double_chain(1, 200, 200).value == math.inf
        argv = ["oracle", "--n", "1", "--k_list", "400", "--out", str(tmp_path)]
        assert main(argv) == 0
        rows = (tmp_path / "oracle_table.csv").read_text().splitlines()
        assert rows[1].split(",")[3] == "inf"

    def test_pair_sums_give_closed_forms(self):
        # the sums of one walk give n**(w/2) E exactly at every order of
        # that parity: sum of pair_sums[r] (h)_r 2**r, with h = n // 2
        def exact(walk, n):
            w = walk.k + (walk.l or 0)
            total = sum(s * math.perm(n // 2, r) * 2**r for r, s in enumerate(walk.pair_sums))
            return Fraction(total, n ** (w // 2))

        tr6 = cl.oracle_single_chain(12, 6)
        tr44 = cl.oracle_double_chain(16, 4, 4)
        for n in (8, 10, 100, 1000, 10**6):
            assert exact(tr6, n) == 2 + Fraction(24, n) + Fraction(64, n * n)
            tr44_n = 12 + Fraction(32, n) + Fraction(544, n * n) + Fraction(512, n**3)
            assert exact(tr44, n) == tr44_n

    def test_one_odd_walk_gives_both_parities(self):
        # E Tr M^4 = 2 + 8/n - 7/n**2 at odd n and 2 + 8/n at even n: the
        # n = 13 walk (h = 6 >= w) gives the first from pair_sums and the
        # second from even_pair_sums, at every order
        walk = cl.oracle_single_chain(13, 4)

        def exact(sums, n):
            total = sum(s * math.perm(n // 2, r) * 2**r for r, s in enumerate(sums))
            return Fraction(total, n * n)

        for n in (3, 5, 13, 101, 999, 10**6 - 1):
            assert exact(walk.pair_sums, n) == 2 + Fraction(8, n) - Fraction(7, n * n)
        for n in (2, 4, 14, 100, 1000, 10**6):
            assert exact(walk.even_pair_sums, n) == 2 + Fraction(8, n)

    @pytest.mark.parametrize("n", [7, 8, 13, 100, 101, 999, 1000])
    def test_large_n_matches_closed_forms(self, n):
        # n**(w/2) E[Tr M^w] is a polynomial in n for each parity of n,
        # so these hold exactly where brute force cannot reach
        tr4 = 2 + Fraction(8, n) - Fraction(7, n * n) * (n % 2)
        assert cl.oracle_single_chain(n, 4).value == float(tr4)
        if n % 2 == 0:
            tr6 = 2 + Fraction(24, n) + Fraction(64, n * n)
            assert cl.oracle_single_chain(n, 6).value == float(tr6)
            tr44 = 12 + Fraction(32, n) + Fraction(544, n * n) + Fraction(512, n**3)
            assert cl.oracle_double_chain(n, 4, 4).value == float(tr44)
