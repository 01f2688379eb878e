import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import centrolab as cl
from centrolab import oracle


class TestGaussianMoment:
    def test_table(self):
        assert cl.gaussian_moment(0) == 1.0
        assert cl.gaussian_moment(1) == 0.0
        assert cl.gaussian_moment(2) == 1.0
        assert cl.gaussian_moment(4) == 3.0
        assert cl.gaussian_moment(6) == 5.0 * 3.0 * 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            cl.gaussian_moment(-1)


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
            cl.oracle_single_chain(10, 9)
        with pytest.raises(cl.BudgetExceededError, match="n=3, k=4"):
            cl.oracle_single_chain(3, 4, budget=10)

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


def _brute_force(n: int, lengths: tuple[int, ...]) -> float:
    """Independent reference: every index tuple, classes by ``entry_class``."""
    cls = {(i, j): cl.entry_class(n, i, j) for i in range(n) for j in range(n)}
    total = 0.0
    for tup in itertools.product(range(n), repeat=sum(lengths)):
        cells = []
        off = 0
        for length in lengths:
            chain = tup[off : off + length]
            cells += [cls[chain[t], chain[(t + 1) % length]] for t in range(length)]
            off += length
        term = 1.0
        for mult in Counter(cells).values():
            term *= cl.gaussian_moment(mult)
        total += term
    return total / float(n) ** (sum(lengths) / 2)


class TestOrbitEnumeration:
    def test_matches_brute_force_reference(self):
        for n in range(1, 7):
            for w in range(1, 7):
                assert cl.oracle_single_chain(n, w).value == _brute_force(n, (w,))
                for k in range(1, w):
                    got = cl.oracle_double_chain(n, k, w - k).value
                    assert got == _brute_force(n, (k, w - k)), (n, k, w - k)

    @pytest.mark.parametrize("call", [(2, 18), (3, 6, 5)])
    def test_blocks_stay_bounded(self, monkeypatch, call):
        rows = []
        block_sum = oracle._block_sum

        def record(digits, weights, lengths, n):
            rows.append(digits.shape[0])
            return block_sum(digits, weights, lengths, n)

        monkeypatch.setattr(oracle, "_block_sum", record)
        if len(call) == 2:
            cl.oracle_single_chain(*call)
        else:
            cl.oracle_double_chain(*call)
        assert len(rows) > 1
        assert max(rows) <= oracle._BLOCK

    def test_convergence_table_calls_module_globals(self, monkeypatch):
        # bench/tracing.py wraps the two chain functions where they live
        seen = []
        for name in ("oracle_single_chain", "oracle_double_chain"):
            inner = getattr(oracle, name)

            def wrapped(*args, _inner=inner, _name=name):
                seen.append(_name)
                return _inner(*args)

            monkeypatch.setattr(oracle, name, wrapped)
        cl.convergence_table([2], [2], [3])
        assert seen == ["oracle_single_chain", "oracle_double_chain"]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), w=st.integers(1, 8))
def test_orbit_sizes_cover_every_tuple(n, w):
    sizes = oracle._orbit_sizes(n, w)
    covered = 0
    for rows, used in oracle._representatives(n, w):
        assert rows.shape[1] == w
        covered += sum(sizes[u] for u in used.tolist())
    assert covered == n**w
