import math

import numpy as np
import pytest

import centrolab as cl
from centrolab.eig import _householder

from _helpers import multiset_gap

_EPS = np.finfo(float).eps


class TestKnownSpectra:
    def test_permutation_matrix(self):
        s = cl.eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert s.converged
        assert multiset_gap(s.values, [1.0, -1.0]) < 1e-12

    def test_quarter_rotation(self):
        s = cl.eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert multiset_gap(s.values, [1j, -1j]) < 1e-12

    def test_companion_of_cubic_roots_of_unity(self):
        comp = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        s = cl.eigenvalues(comp)
        roots = np.exp(2j * np.pi * np.arange(3) / 3)
        assert multiset_gap(s.values, roots) < 1e-10

    def test_order_one(self):
        s = cl.eigenvalues(np.array([[4.25]]))
        assert s.values.tolist() == [4.25 + 0j]

    def test_upper_triangular(self):
        a = np.triu(np.arange(1.0, 17.0).reshape(4, 4))
        s = cl.eigenvalues(a)
        assert multiset_gap(s.values, np.diag(a)) < 1e-10


class TestSolverContracts:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            cl.eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            cl.eigenvalues(np.zeros((2, 3)))

    def test_exhausted_budget_flags_unconverged(self):
        a = cl.sample_centro(6, "gaussian", 12).entries
        s = cl.eigenvalues(a, max_sweeps=0)
        assert not s.converged
        assert s.values.shape == (6,)

    def test_sum_matches_trace(self):
        for n in (3, 10, 40):
            a = cl.sample_centro(n, "gaussian", n).entries
            s = cl.eigenvalues(a)
            assert abs(s.values.sum() - np.trace(a)) <= 1e-8 * n

    def test_conjugate_pair_closure(self):
        a = cl.sample_centro(14, "gaussian", 7).entries
        v = cl.eigenvalues(a).values
        nonreal = v[np.abs(v.imag) > 0]
        assert multiset_gap(nonreal, np.conj(nonreal)) < 1e-10

    def test_matches_numpy_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 5, 8, 13, 30):
            a = rng.standard_normal((n, n))
            gap = multiset_gap(cl.eigenvalues(a).values, np.linalg.eigvals(a))
            assert gap < 1e-8, (n, gap)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((12, 12))
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        gap = multiset_gap(
            cl.eigenvalues(a).values, cl.eigenvalues(q.T @ a @ q).values
        )
        assert gap < 1e-8

    def test_accepts_centro_matrix(self):
        m = cl.sample_centro(5, "gaussian", 1)
        s = cl.eigenvalues(m)
        assert s.values.shape == (5,)

    @pytest.mark.parametrize(
        "a, expected",
        [
            (np.triu(np.arange(1.0, 26.0).reshape(5, 5)), [1.0, 7.0, 13.0, 19.0, 25.0]),
            (
                np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 3.0]]),
                [3.0, 1j, -1j],
            ),
        ],
        ids=["upper-triangular", "rotation-plus-1x1"],
    )
    def test_deflated_input_needs_no_sweep(self, a, expected):
        s = cl.eigenvalues(a, max_sweeps=0)
        assert s.converged and s.iterations == 0
        assert np.array_equal(np.sort(s.values), np.sort(np.array(expected, dtype=complex)))


class TestExtremeMagnitudes:
    @pytest.mark.parametrize(
        "a",
        [
            np.array([[0.0, 1e200], [1e200, 0.0]]),
            np.array([[0.0, 1e160], [-1e160, 0.0]]),
            np.array([[0.0, 1e-200], [1e-200, 0.0]]),
            3e155 * cl.sample_centro(6, "gaussian", 1).entries,
            1e-170 * cl.sample_centro(6, "gaussian", 1).entries,
            np.array([[5e300]]),
            np.array([[-1e-310]]),
        ],
        ids=[
            "overflow-real",
            "overflow-complex",
            "underflow",
            "huge-centro",
            "tiny-centro",
            "huge-1x1",
            "subnormal-1x1",
        ],
    )
    def test_matches_numpy(self, a):
        s = cl.eigenvalues(a)
        ref = np.linalg.eigvals(a)
        assert s.converged
        assert multiset_gap(s.values, ref) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("power", [600, -600, 300, -300])
    def test_power_of_two_scaling_is_exact(self, power):
        a = cl.sample_centro(9, "gaussian", 4).entries
        base = cl.eigenvalues(a)
        scaled = cl.eigenvalues(np.ldexp(a, power))
        assert scaled.iterations == base.iterations
        assert np.array_equal(scaled.values, np.ldexp(base.values.real, power)
                              + 1j * np.ldexp(base.values.imag, power))


class TestHouseholder:
    @pytest.mark.parametrize(
        "col",
        [
            (3.0, 4.0),
            (-3.0, 4.0),
            (0.0, 2.5),
            (7.0, 0.0),
            (1e300, -1e300),
            (-1e-300, 3e-300),
            (1.0, -2.0, 2.0),
            (-0.5, 1e-8, 3.0),
            (0.0, 0.0, 5.0),
            (-4.0, 0.0, 0.0),
            (1e300, 1e300, -1e300),
            (-2e-300, 1e-300, 1e-300),
        ],
    )
    def test_symmetric_involution_mapping_onto_e1(self, col):
        entries = _householder(*col)
        assert len(entries) == 9 and all(type(e) is float for e in entries)
        full = np.array(entries).reshape(3, 3)
        x = np.array(col)
        norm = math.hypot(*col)
        r = full[: x.size, : x.size]
        if x.size == 2:  # the 2x2 reflector comes embedded as diag(R, 1)
            assert full[2].tolist() == [0.0, 0.0, 1.0] and full[:2, 2].tolist() == [0.0, 0.0]
        assert np.array_equal(r, r.T)
        assert np.max(np.abs(r @ r - np.eye(x.size))) <= 4 * _EPS
        image = r @ x
        assert abs(abs(image[0]) - norm) <= 4 * _EPS * norm
        assert np.max(np.abs(image[1:])) <= 4 * _EPS * norm

    def test_zero_column_has_no_reflector(self):
        assert _householder(0.0, 0.0) is None
        assert _householder(0.0, 0.0, 0.0) is None


def _solve_key(s):
    return s.values.tobytes(), s.iterations, s.exceptional_shifts, s.converged


class TestSpectra:
    """``spectra`` solves a stack in lockstep, bitwise as each matrix alone."""

    def test_mixed_orders_match_solo_solves(self):
        rng = np.random.default_rng(8)
        mats = [rng.standard_normal((n, n)) for n in (1, 2, 3, 7, 20, 41)]
        mats.append(cl.sample_centro(30, "uniform", 4).entries)
        mats.append(np.roll(np.eye(7), 1, 0))  # stalls into exceptional shifts
        mats.append(np.zeros((0, 0)))
        got = cl.spectra(mats)
        assert len(got) == len(mats)
        assert got[7].exceptional_shifts > 0
        for a, s in zip(mats, got):
            assert _solve_key(s) == _solve_key(cl.eigenvalues(a))

    @pytest.mark.parametrize("split", [2, 5, 9])
    def test_lower_window_beside_a_full_window(self, split):
        # block upper triangular: the lower window starts at row ``split``,
        # stacked beside matrices whose first window starts at row 0
        rng = np.random.default_rng(split)
        tri = rng.standard_normal((14, 14))
        tri[split:, :split] = 0.0
        assert cl.hessenberg(tri)[split, split - 1] == 0.0
        mats = [rng.standard_normal((14, 14)), tri, rng.standard_normal((9, 9))]
        for a, s in zip(mats, cl.spectra(mats)):
            assert _solve_key(s) == _solve_key(cl.eigenvalues(a))

    def test_zero_budget_flags_every_matrix(self):
        mats = [cl.sample_centro(n, "gaussian", n).entries for n in (3, 6, 11)]
        got = cl.spectra(mats, max_sweeps=0)
        for a, s in zip(mats, got):
            assert not s.converged and s.iterations == 0
            assert s.values.shape == (a.shape[0],)
            assert _solve_key(s) == _solve_key(cl.eigenvalues(a, max_sweeps=0))

    def test_weaver_blocks_match_solo_solves(self):
        for n in (12, 13, 64):
            blocks = cl.weaver_blocks(cl.sample_centro(n, "gaussian", 2))
            plus, minus = cl.spectra([blocks.plus, blocks.minus])
            assert _solve_key(plus) == _solve_key(cl.eigenvalues(blocks.plus))
            assert _solve_key(minus) == _solve_key(cl.eigenvalues(blocks.minus))

    def test_negative_zero_entries_match_solo_solves(self):
        # Hessenberg inputs, half their entries -0.0: an identity step turns
        # -0.0 into +0.0, and zero eigenvalues kept the sign they met
        rng = np.random.default_rng(13)
        mats = []
        for n in (4, 8, 12):
            a = rng.standard_normal((n, n))
            a[rng.random((n, n)) < 0.5] = -0.0
            mats.append(np.triu(a, -1))
        for a, s in zip(mats, cl.spectra(mats)):
            assert _solve_key(s) == _solve_key(cl.eigenvalues(a))

    def test_empty_list(self):
        assert cl.spectra([]) == []

    def test_rejects_a_bad_matrix_before_solving(self):
        with pytest.raises(ValueError):
            cl.spectra([np.eye(3), np.zeros((2, 3))])
        with pytest.raises(ValueError):
            cl.spectra([np.eye(3), np.array([[np.inf]])])


class TestStallsAndScale:
    @pytest.mark.parametrize("n", range(4, 10))
    def test_cyclic_shift_needs_exceptional_shifts(self, n):
        # standard Francis shifts stall on a cyclic permutation
        a = np.roll(np.eye(n), 1, 0)
        s = cl.eigenvalues(a)
        assert s.converged
        assert s.exceptional_shifts > 0
        assert multiset_gap(s.values, np.linalg.eigvals(a)) < 1e-12

    def test_ordinary_matrix_takes_no_exceptional_shift(self):
        s = cl.eigenvalues(cl.sample_centro(30, "gaussian", 3).entries)
        assert s.converged and s.exceptional_shifts == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_weaver_blocks_match_lapack_at_n200(self, seed):
        m = cl.sample_centro(200, "gaussian", seed)
        blocks = cl.weaver_blocks(m)
        plus, minus = cl.eigenvalues(blocks.plus), cl.eigenvalues(blocks.minus)
        assert plus.converged and minus.converged
        ref = np.linalg.eigvals(m.entries)
        got = np.concatenate([plus.values, minus.values])
        assert multiset_gap(got, ref) <= 1e-12 * np.max(np.abs(ref))


class TestHessenbergAndBalance:
    def test_hessenberg_structure(self):
        a = np.random.default_rng(0).standard_normal((8, 8))
        h = cl.hessenberg(a)
        assert np.max(np.abs(np.tril(h, -2))) == 0.0

    def test_hessenberg_preserves_trace(self):
        a = np.random.default_rng(1).standard_normal((20, 20))
        h = cl.hessenberg(a)
        assert abs(np.trace(h) - np.trace(a)) <= 1e-12 * abs(np.trace(a)) + 1e-12

    def test_hessenberg_preserves_spectrum(self):
        a = np.random.default_rng(2).standard_normal((9, 9))
        assert multiset_gap(np.linalg.eigvals(a), np.linalg.eigvals(cl.hessenberg(a))) < 1e-10

    @pytest.mark.parametrize("power", [600, -600])
    def test_hessenberg_power_of_two_scaling_is_exact(self, power):
        a = np.random.default_rng(3).standard_normal((7, 7))
        scaled = cl.hessenberg(np.ldexp(a, power))
        assert np.array_equal(scaled, np.ldexp(cl.hessenberg(a), power))

    def test_hessenberg_of_huge_entries(self):
        # squaring a column of 1e200 entries overflowed to inf/nan
        a = np.random.default_rng(4).standard_normal((3, 3))
        h = cl.hessenberg(1e200 * a)
        assert np.all(np.isfinite(h))
        ref = cl.hessenberg(a)
        assert np.max(np.abs(h / 1e200 - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [3, 8, 31])
    def test_hessenberg_ordinary_input_unchanged(self, n):
        # the unscaled reduction, frozen: ordinary inputs stay bit for bit
        a = cl.sample_centro(n, "gaussian", n).entries
        ref = np.array(a, dtype=float)
        for k in range(n - 2):
            x = ref[k + 1 :, k]
            alpha = float(np.linalg.norm(x))
            if x[0] > 0:
                alpha = -alpha
            v = x.copy()
            v[0] -= alpha
            w = 2.0 / float(v @ v)
            ref[k + 1 :, k:] -= np.outer(w * v, v @ ref[k + 1 :, k:])
            ref[:, k + 1 :] -= np.outer(ref[:, k + 1 :] @ v, w * v)
            ref[k + 2 :, k] = 0.0
            ref[k + 1, k] = alpha
        assert np.array_equal(cl.hessenberg(a), ref)

    def test_balance_preserves_diagonal_and_spectrum(self):
        a = np.random.default_rng(3).standard_normal((7, 7))
        a[0] *= 1e6
        a[:, 3] *= 1e-5
        b = cl.balance(a)
        assert np.array_equal(np.diag(b), np.diag(a))
        assert multiset_gap(np.linalg.eigvals(a), np.linalg.eigvals(b)) < 1e-8

    @staticmethod
    def _graded(core, exponents):
        """``D core D^-1`` with ``D = diag(10**exponents)``: the spectrum of ``core``."""
        d = 10.0 ** np.asarray(exponents, dtype=float)
        return d[:, None] * core / d[None, :]

    @pytest.mark.parametrize(
        "core, exponents",
        [
            (np.array([[1.0, 1.0], [1.0, 2.0]]), [150, -150]),
            (np.array([[0.0, 1.0], [1.0, 0.0]]), [150, -150]),
            (np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 3.0]]), [-150, 150, -150]),
            (np.random.default_rng(6).standard_normal((40, 40)), np.linspace(-150, 150, 40)),
        ],
        ids=["2x2", "2x2-zero-diagonal", "3x3", "graded-40"],
    )
    def test_balance_undoes_extreme_grading(self, core, exponents):
        # LAPACK is the reference on ``core``: on the graded matrix itself it
        # scales by max|a| before balancing, which flushes the 1e-300 entries
        a = self._graded(core, exponents)
        assert np.max(np.abs(a)) > 1e100
        b = cl.balance(a)
        assert np.all(np.isfinite(b))
        assert np.array_equal(np.diag(b), np.diag(a))
        assert np.max(np.abs(b)) < 1e3 * np.max(np.abs(core))
        ref = np.linalg.eigvals(core)
        tol = 1e-10 * np.max(np.abs(ref))
        assert multiset_gap(np.linalg.eigvals(b), ref) <= tol
        assert multiset_gap(cl.eigenvalues(a).values, ref) <= tol


class TestTracePowers:
    def test_identity(self):
        for k in (1, 2, 5):
            assert cl.trace_power(np.eye(6), k) == 6.0

    def test_first_power_is_diagonal_sum(self):
        a = np.random.default_rng(4).standard_normal((5, 5))
        assert cl.trace_power(a, 1) == float(np.trace(a))

    def test_matches_eigenvalue_power_sums(self):
        for seed in range(5):
            a = cl.sample_centro(8, "gaussian", seed).entries
            lam = cl.eigenvalues(a).values
            for k in range(1, 6):
                t = cl.trace_power(a, k)
                e = np.sum(lam**k).real
                assert abs(t - e) <= 1e-8 * max(1.0, abs(t))

    def test_moment_matching_at_n50(self):
        a = cl.sample_centro(50, "gaussian", 77).entries
        lam = cl.eigenvalues(a).values
        traces = cl.trace_powers(a, 5)
        for k in range(1, 6):
            e = np.sum(lam**k).real
            assert abs(traces[k - 1] - e) <= 1e-7 * max(1.0, abs(e))

    def test_running_powers_match_single_calls(self):
        a = cl.sample_centro(6, "gaussian", 9).entries
        traces = cl.trace_powers(a, 4)
        for k in range(1, 5):
            assert traces[k - 1] == pytest.approx(cl.trace_power(a, k), rel=1e-13)

    def test_batch_matches_loop(self):
        stack = cl.sample_centro_batch(4, 10, "gaussian", 3)
        batch = cl.trace_powers(stack, 3)
        for t in range(10):
            assert np.allclose(batch[t], cl.trace_powers(stack[t], 3), rtol=1e-13)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            cl.trace_power(np.eye(2), 0)
        with pytest.raises(ValueError):
            cl.trace_powers(np.eye(2), 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 13, 64])
    def test_half_power_core_matches_dense_reference(self, n):
        a = np.random.default_rng(n).standard_normal((n, n)) / np.sqrt(n)
        for k_max in (1, 2, 5, 6):
            traces = cl.trace_powers(a, k_max)
            assert traces.shape == (k_max,)
            for k in range(1, k_max + 1):
                assert traces[k - 1] == pytest.approx(cl.trace_power(a, k), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 6, 33])
    def test_stack_matches_per_matrix_calls(self, n):
        stack = np.random.default_rng(n).standard_normal((2, 3, n, n))
        traces = cl.trace_powers(stack, 6)
        assert traces.shape == (2, 3, 6)
        for s in range(2):
            for t in range(3):
                assert np.array_equal(traces[s, t], cl.trace_powers(stack[s, t], 6))

    def test_empty_block_has_zero_traces(self):
        assert np.array_equal(cl.trace_powers(np.zeros((3, 0, 0)), 4), np.zeros((3, 4)))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            cl.trace_powers(np.zeros((2, 3)), 2)


class TestRadialCdf:
    def test_everything_inside_large_radius(self):
        s = cl.eigenvalues(cl.sample_centro(30, "gaussian", 5).entries)
        assert cl.spectral_radial_cdf(s, [10.0]) == pytest.approx([1.0])

    def test_monotone_and_bounded(self):
        s = cl.eigenvalues(cl.sample_centro(40, "gaussian", 6).entries)
        cdf = cl.spectral_radial_cdf(s, [0.25, 0.5, 0.75, 1.0, 1.05])
        assert np.all(np.diff(cdf) >= 0)
        assert np.all((cdf >= 0) & (cdf <= 1))

    def test_rejects_unsorted_or_negative_grid(self):
        s = cl.eigenvalues(np.eye(2))
        with pytest.raises(ValueError):
            cl.spectral_radial_cdf(s, [1.0, 0.5])
        with pytest.raises(ValueError):
            cl.spectral_radial_cdf(s, [-1.0, 0.5])
