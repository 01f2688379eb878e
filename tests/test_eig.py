import hashlib
import math

import numpy as np
import pytest

import centrolab as cl
from centrolab.eig import _SHIFTS, _householder, _trace_core

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

    @pytest.mark.parametrize("solve", [cl.eigenvalues, lambda a, m: cl.spectra([a], m)])
    def test_rejects_negative_sweep_budget(self, solve):
        with pytest.raises(ValueError, match="max_sweeps"):
            solve(np.eye(3), -1)

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
        # every order up to three m-shift windows: double-shift windows alone,
        # then m-shift windows whose deflated ends take the double shift
        rng = np.random.default_rng(42)
        for n in [*range(1, 3 * (_SHIFTS + 2) + 1), 30]:
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
            # solved unscaled, but m-fold products of their entries leave the
            # double range: the m-shift start vector must scale its copy
            np.ldexp(np.random.default_rng(12).standard_normal((12, 12)), 400),
            np.ldexp(np.random.default_rng(12).standard_normal((12, 12)), -400),
            np.array([[5e300]]),
            np.array([[-1e-310]]),
        ],
        ids=[
            "overflow-real",
            "overflow-complex",
            "underflow",
            "huge-centro",
            "tiny-centro",
            "m-shift-huge",
            "m-shift-tiny",
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

    def test_eigenvalue_past_double_range_is_flagged(self):
        # eigenvalues 2e308 and 0: the first scales back to inf, with no warning
        s = cl.eigenvalues([[1e308, 1e308], [1e308, 1e308]])
        assert not s.converged
        assert s.values.tolist() == [math.inf, 0.0]


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
        x = np.array(col)
        stacked, form = _householder(1, 3)
        stacked[0] = np.pad(x, (0, 3 - x.size))
        full = form()[0]
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
        col, form = _householder(2, 3)
        col[...] = 0.0
        assert np.array_equal(form(), np.broadcast_to(np.eye(3), (2, 3, 3)))

    def test_columns_formed_together_match_each_alone(self):
        # a reflector's bits do not depend on the columns stacked beside it
        rng = np.random.default_rng(29)
        cols = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-200, 200, (5, 1))
        cols[2] = 0.0
        cols[3, 4:] = 0.0  # a shorter bulge, embedded in the identity
        together, form = _householder(5, 7)
        together[...] = cols
        got = form().copy()
        for j in range(5):
            alone, form_alone = _householder(1, 7)
            alone[0] = cols[j]
            assert np.array_equal(got[j], form_alone()[0]), j


def _solve_key(s):
    return s.values.tobytes(), s.iterations, s.exceptional_shifts, s.converged


class TestQRPin:
    """The QR core, frozen: a digest of each solve's values, sweeps,
    exceptional shifts and flag.  Work on the solver's bookkeeping keeps
    every bit of these ordinary inputs."""

    @staticmethod
    def _graded():
        core = np.random.default_rng(6).standard_normal((12, 12))
        d = 10.0 ** np.linspace(-120, 120, 12)
        return d[:, None] * core / d[None, :]

    @staticmethod
    def _digest(s):
        h = hashlib.sha256(s.values.tobytes())
        h.update(repr((s.iterations, s.exceptional_shifts, s.converged)).encode())
        return h.hexdigest()[:16]

    @pytest.mark.parametrize(
        "n, law, seed, digests",
        [
            (40, "gaussian", 7, ("dde8abc1ab443d77", "fbeec86bc4bf5231")),
            (31, "uniform", 5, ("16b553a2264e52d1", "dbc4290421d99f37")),
        ],
    )
    def test_weaver_blocks(self, n, law, seed, digests):
        blocks = cl.weaver_blocks(cl.sample_centro(n, law, seed))
        got = (cl.eigenvalues(blocks.plus), cl.eigenvalues(blocks.minus))
        assert tuple(self._digest(s) for s in got) == digests

    def test_graded_matrix(self):
        s = cl.eigenvalues(self._graded())
        assert (s.iterations, s.exceptional_shifts, s.converged) == (14, 0, True)
        assert self._digest(s) == "5bd7106e55e7c278"

    def test_stacked_solve(self):
        # mixed orders that finish after 5, 11 and 24 sweeps (the cyclic shift
        # after one exceptional shift, at the cap), and an order-16 matrix
        # stopped at the cap
        rng = np.random.default_rng(27)
        mats = [rng.standard_normal((n, n)) for n in (3, 16, 9)]
        mats.append(np.roll(np.eye(7), 1, 0))
        got = cl.spectra(mats, max_sweeps=24)
        assert [(s.iterations, s.exceptional_shifts, s.converged) for s in got] == [
            (5, 0, True),
            (24, 0, False),
            (11, 0, True),
            (24, 1, True),
        ]
        assert [self._digest(s) for s in got] == [
            "35374d228b0edacf",
            "9b3351981f7f3ee0",
            "56da04b6b5c5b0cf",
            "f808dc1e0847ecf1",
        ]


class TestTracePin:
    """The trace core, frozen: a digest of ``trace_powers`` at every k_max
    from 1 to 6 on fixed single matrices and batches.  Work on how the
    core stores and reads its powers keeps every bit of these traces."""

    @pytest.mark.parametrize(
        "n, digests",
        [
            (0, ("e3c2af35d1dfc500", "696bda342649ec92")),
            (1, ("d87ff2ede2a47d12", "1327797321d48a2b")),
            (5, ("4ca9b3776fa8b66b", "78fac4495fcab5d7")),
            (32, ("9a613f769ebcf238", "d1ea586aaf94793b")),
            (61, ("4044da97e9c2896f", "598d846bacf4cc99")),
        ],
    )
    def test_trace_powers(self, n, digests):
        rng = np.random.default_rng(280 + n)
        single = rng.standard_normal((n, n)) / np.sqrt(max(n, 1))
        batch = rng.standard_normal((3, n, n)) / np.sqrt(max(n, 1))
        got = []
        for a in (single, batch):
            h = hashlib.sha256()
            for k_max in range(1, 7):
                h.update(cl.trace_powers(a, k_max).tobytes())
            got.append(h.hexdigest()[:16])
        assert tuple(got) == digests


class TestSpectra:
    """``spectra`` solves a stack in lockstep, bitwise as each matrix alone."""

    def test_mixed_orders_match_solo_solves(self):
        rng = np.random.default_rng(8)
        orders = [*range(1, 3 * (_SHIFTS + 2) + 1), 41]
        mats = [rng.standard_normal((n, n)) for n in orders]
        mats.append(cl.sample_centro(30, "uniform", 4).entries)
        mats.append(np.roll(np.eye(7), 1, 0))  # stalls into exceptional shifts
        mats.append(np.zeros((0, 0)))
        got = cl.spectra(mats)
        assert len(got) == len(mats)
        assert got[-2].exceptional_shifts > 0
        for a, s in zip(mats, got):
            assert _solve_key(s) == _solve_key(cl.eigenvalues(a))

    def test_mixed_windows_match_solo_solves(self):
        # an m-shift window, a double-shift window (fewer than m + 2 rows), the
        # cyclic shift, which takes exceptional shifts, and a matrix that
        # finishes while the others still sweep
        rng = np.random.default_rng(31)
        big, small = 3 * (_SHIFTS + 2), _SHIFTS + 1
        mats = [
            rng.standard_normal((big, big)),
            rng.standard_normal((small, small)),
            np.roll(np.eye(7), 1, 0),
            np.diag([1.0, 2.0, 3.0, 4.0]) + np.diag([1e-3, 1e-3, 1e-3], -1),
        ]
        got = cl.spectra(mats)
        assert got[2].exceptional_shifts > 0
        assert got[3].iterations < min(s.iterations for s in got[:3])
        for a, s in zip(mats, got):
            assert s.converged
            assert _solve_key(s) == _solve_key(cl.eigenvalues(a))

    @pytest.mark.parametrize("split", [2, 5, 9, 31, 32, 33, 64])
    def test_lower_window_beside_a_full_window(self, split):
        # block upper triangular: the lower window starts at row ``split``,
        # stacked beside matrices whose first window starts at row 0.  The
        # zero subcolumn h[split:, split - 1] is reduced inside the first
        # 32-column Hessenberg panel, at its last column (31), at the second
        # panel's first (32) or at its last (63)
        rng = np.random.default_rng(split)
        tri = rng.standard_normal((80, 80))
        tri[split:, :split] = 0.0
        assert cl.hessenberg(tri)[split, split - 1] == 0.0
        mats = [rng.standard_normal((80, 80)), tri, rng.standard_normal((9, 9))]
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
        # -0.0 into +0.0, and zero eigenvalues kept the sign they met.  Then
        # exact zero eigenvalues (a nilpotent Jordan block, a triangular
        # matrix with zeroed diagonal entries) and the cyclic shift, which
        # finish while an order-40 matrix still sweeps: their deflated blocks
        # stand unchanged under the identity steps until the last round
        rng = np.random.default_rng(13)
        mats = []
        for n in (4, 8, 12):
            a = rng.standard_normal((n, n))
            a[rng.random((n, n)) < 0.5] = -0.0
            mats.append(np.triu(a, -1))
        tri = np.triu(rng.standard_normal((8, 8)))
        tri[[1, 4, 6], [1, 4, 6]] = 0.0
        late = [rng.standard_normal((40, 40)), np.diag(np.ones(4), 1), tri, np.roll(np.eye(7), 1, 0)]
        for stack in (mats, late):
            got = cl.spectra(stack)
            for a, s in zip(stack, got):
                assert _solve_key(s) == _solve_key(cl.eigenvalues(a))
        assert got[0].iterations > max(s.iterations for s in got[1:])
        assert np.count_nonzero(got[1].values) == 0 and np.count_nonzero(got[2].values) == 5

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

    def test_exceptional_shifts_break_a_francis_cycle(self):
        # two complex pairs close to the real axis: the Francis double shift
        # cycles here, as did an exceptional shift without the corner entry
        rows = (
            "0.5108753713819921 -0.45832438037978207 0.08353540278356275 -0.14369160455137478",
            "-0.5137789221459965 -0.3681163972932919 0.08458982561281694 -0.09462356441705815",
            "0 0.08360049044889536 0.4065985820740063 -0.5935686221366869",
            "0 0 -0.5328371593052281 -0.24495985746016652",
        )
        a = np.array([[float(x) for x in row.split()] for row in rows])
        s = cl.eigenvalues(a)
        assert s.converged and s.exceptional_shifts > 0
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

    def test_blocked_form_at_every_panel_edge(self):
        # one panel up to order 34, two up to 66, three from 67 on
        rng = np.random.default_rng(32)
        for n in [*range(71), 200]:
            a = rng.standard_normal((n, n))
            h = cl.hessenberg(a)
            assert np.count_nonzero(np.tril(h, -2)) == 0, n
            assert abs(np.trace(h) - np.trace(a)) <= 1e-12 * abs(np.trace(a)) + 1e-12 * n, n
            if n:
                gap = multiset_gap(np.linalg.eigvals(h), np.linalg.eigvals(a))
                assert gap < 1e-8, (n, gap)

    @pytest.mark.parametrize("power", [600, -600])
    def test_hessenberg_power_of_two_scaling_is_exact(self, power):
        for n in (7, 70):  # one panel, then three
            a = np.random.default_rng(3).standard_normal((n, n))
            scaled = cl.hessenberg(np.ldexp(a, power))
            assert np.array_equal(scaled, np.ldexp(cl.hessenberg(a), power)), n

    def test_hessenberg_of_huge_entries(self):
        # squaring a column of 1e200 entries overflowed to inf/nan
        a = np.random.default_rng(4).standard_normal((3, 3))
        h = cl.hessenberg(1e200 * a)
        assert np.all(np.isfinite(h))
        ref = cl.hessenberg(a)
        assert np.max(np.abs(h / 1e200 - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "n, digest",
        [
            (3, "62ad3e5c45c9174d"),
            (8, "da458343d3ecd06a"),
            (31, "ed24cf8457263e3f"),
            (70, "ab79880da02b6342"),
        ],
        ids=["3", "8", "31", "70"],
    )
    def test_hessenberg_ordinary_input_unchanged(self, n, digest):
        # the blocked reduction, frozen: ordinary inputs stay bit for bit
        a = cl.sample_centro(n, "gaussian", n).entries
        assert hashlib.sha256(cl.hessenberg(a).tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("n", [3, 8, 31, 70])
    def test_hessenberg_matches_unblocked_reference(self, n):
        # the same reflectors applied one column at a time, two rank-1 updates each
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
        h = cl.hessenberg(a)
        assert np.max(np.abs(h - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_balance_skips_an_overflowing_sum(self):
        # row 0 sums to inf: balancing skips it rather than scale it without end
        s = cl.eigenvalues([[0.0, 1e308, 1e308], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert s.converged
        root = math.sqrt(2.0) * 1e154  # the roots of x^3 - 2e308 x
        assert multiset_gap(s.values, [root, -root, 0.0]) <= 1e-14 * root

    def test_balance_keeps_its_factor_finite(self):
        # matching the sums would take a factor near 2**1030, past the largest double
        s = cl.eigenvalues([[0.0, 1e300], [1e-320, 0.0]])
        assert s.converged
        root = math.sqrt(1e300 * 1e-320)
        assert multiset_gap(s.values, [root, -root]) <= 1e-14 * root

    def test_balance_rejects_nonfinite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                cl.balance([[1.0, bad], [0.0, 1.0]])

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

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
    def test_every_layout_case_matches_dense_reference(self, n):
        # k_max 1-10 takes h = ceil(k_max/2) from 1 to 5: traces above h are
        # reductions of two plain powers (h <= 2), dots with the transposed
        # top power and its reduction with itself (h >= 3)
        a = np.random.default_rng(40 + n).standard_normal((n, n)) / np.sqrt(max(n, 1))
        dense = [cl.trace_power(a, k) for k in range(1, 11)]
        for k_max in range(1, 11):
            traces = cl.trace_powers(a, k_max)
            assert traces.shape == (k_max,)
            assert traces[0] == float(np.trace(a))
            for k in range(1, k_max + 1):
                assert traces[k - 1] == pytest.approx(dense[k - 1], rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("shape", [(), (3,)])
    @pytest.mark.parametrize("n", [1, 5, 32])
    def test_bits_depend_on_half_power_count_alone(self, shape, n):
        # k_max 2h - 1 and 2h form and read the same powers the same way
        a = np.random.default_rng(90 + n).standard_normal(shape + (n, n)) / np.sqrt(n)
        for h in range(1, 6):
            odd, even = cl.trace_powers(a, 2 * h - 1), cl.trace_powers(a, 2 * h)
            assert np.array_equal(odd, even[..., : 2 * h - 1]), h

    @pytest.mark.parametrize("n", [1, 6, 33])
    def test_stack_matches_per_matrix_calls(self, n):
        stack = np.random.default_rng(n).standard_normal((2, 3, n, n))
        for k_max in (3, 4, 6, 7):
            traces = cl.trace_powers(stack, k_max)
            assert traces.shape == (2, 3, k_max)
            for s in range(2):
                for t in range(3):
                    assert np.array_equal(traces[s, t], cl.trace_powers(stack[s, t], k_max))

    @pytest.mark.parametrize("shape", [(), (2, 3)])
    @pytest.mark.parametrize("n", [4, 9])
    def test_core_leaves_first_power_to_its_caller(self, shape, n):
        # the trial loop writes M's own diagonal sum into column 0, so the
        # core must leave that column alone
        a = np.random.default_rng(60 + n).standard_normal(shape + (n, n)) / np.sqrt(n)
        for k_max in range(1, 9):
            out = np.full(shape + (k_max,), np.nan)
            pool = [np.empty(a.size) for _ in range((k_max + 1) // 2 - 1)]
            assert _trace_core([a], k_max, pool, out) is out
            assert np.isnan(out[..., 0]).all()
            assert np.array_equal(out[..., 1:], cl.trace_powers(a, k_max)[..., 1:])

    def test_non_contiguous_input_traces_as_its_copy(self):
        a = np.random.default_rng(5).standard_normal((7, 7))
        assert np.array_equal(cl.trace_powers(a.T, 6), cl.trace_powers(a.T.copy(), 6))

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

    def test_rejects_empty_spectrum(self):
        with pytest.raises(ValueError, match="empty"):
            cl.spectral_radial_cdf(cl.eigenvalues(np.zeros((0, 0))), [0.5])

    @pytest.mark.parametrize("grid", [[0.5, np.nan], [np.nan], [np.nan, 0.5]])
    def test_rejects_nan_radius(self, grid):
        with pytest.raises(ValueError, match="NaN"):
            cl.spectral_radial_cdf(cl.eigenvalues(np.eye(2)), grid)
