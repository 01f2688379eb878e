import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import centrolab as cl
from centrolab import oracle
from centrolab.cli import main


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
            cl.oracle_single_chain(20, 12)
        with pytest.raises(cl.BudgetExceededError, match="n=3, k=4"):
            cl.oracle_single_chain(3, 4, budget=10)

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
    table = oracle._completions(n, w)
    covered = visited = 0
    for rows, used in oracle._representatives(n, table):
        assert rows.shape[1] == w
        covered += sum(sizes[u] for u in used.tolist())
        visited += used.size
    assert covered == n**w
    assert visited == table[0][0]  # the count the budget is checked against


def _double_factorial(m: int) -> float:
    """(m - 1)!! for even m, rounded once to a float."""
    return float(math.prod(range(m - 1, 1, -2)))


class TestExactRounding:
    def test_moments_are_correctly_rounded(self):
        # (m - 1)!! leaves 2**53 at m = 32; a float running product then
        # rounds at every step and drifts off the correctly rounded value
        for m in range(0, 121, 2):
            assert cl.gaussian_moment(m) == _double_factorial(m), m

    def test_single_index_chain_is_correctly_rounded(self):
        # at n = 1 the only chain puts all k cells in one class: (k - 1)!!
        for k in range(2, 81, 2):
            assert cl.oracle_single_chain(1, k).value == _double_factorial(k), k

    def test_beyond_double_range_is_inf(self, tmp_path):
        assert cl.gaussian_moment(400) == math.inf
        assert cl.oracle_single_chain(1, 400).value == math.inf
        assert cl.oracle_double_chain(1, 200, 200).value == math.inf
        argv = ["oracle", "--n", "1", "--k_list", "400", "--out", str(tmp_path)]
        assert main(argv) == 0
        rows = (tmp_path / "oracle_table.csv").read_text().splitlines()
        assert rows[1].split(",")[3] == "inf"

    @pytest.mark.parametrize("n", [7, 8, 13, 100, 101, 999, 1000])
    def test_large_n_matches_closed_forms(self, n):
        # n**(w/2) E[Tr M^w] is a polynomial in n for each parity of n,
        # so these hold exactly where brute force cannot reach
        tr4 = 2 + Fraction(8, n) - Fraction(7, n * n) * (n % 2)
        assert cl.oracle_single_chain(n, 4).value == float(tr4)
        if n % 2 == 0:
            tr6 = 2 + Fraction(24, n) + Fraction(64, n * n)
            assert cl.oracle_single_chain(n, 6).value == float(tr6)
