import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import centrolab as cl
from centrolab import io
from centrolab.centro import WeaverBlocks, _class_id, _weaver_split

from _helpers import multiset_gap


class TestEntryClass:
    def test_reflection_shares_representative(self):
        assert cl.entry_class(5, 0, 4).rep == (0, 4)
        assert cl.entry_class(5, 4, 0).rep == (0, 4)

    def test_center_cell_of_odd_order_is_self_paired(self):
        c = cl.entry_class(5, 2, 2)
        assert c.self_paired
        assert c.rep == (2, 2)
        assert not cl.entry_class(5, 1, 2).self_paired

    def test_distinct_class_count_n4_by_union_find(self):
        # independent count: union-find over the reflection pairing of all cells
        n = 4
        parent = {(i, j): (i, j) for i in range(n) for j in range(n)}

        def find(c):
            while parent[c] != c:
                parent[c] = parent[parent[c]]
                c = parent[c]
            return c

        for i in range(n):
            for j in range(n):
                parent[find((i, j))] = find((n - 1 - i, n - 1 - j))
        roots = {find(c) for c in parent}
        assert len(roots) == 8
        reps = {cl.entry_class(n, i, j).rep for i in range(n) for j in range(n)}
        assert len(reps) == 8 == cl.class_count(n)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cl.entry_class(3, 3, 0)
        with pytest.raises(ValueError):
            cl.entry_class(3, 0, -1)

    @given(n=st.integers(1, 16), data=st.data())
    def test_reflection_invariance_and_count(self, n, data):
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        assert cl.entry_class(n, i, j) == cl.entry_class(n, n - 1 - i, n - 1 - j)
        reps = {cl.entry_class(n, a, b).rep for a in range(n) for b in range(n)}
        assert len(reps) == cl.class_count(n) == (n * n + 1) // 2

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 7])
    def test_class_id_matches_entry_class(self, n):
        ids = _class_id(np.arange(n * n), n)
        for i in range(n):
            for j in range(n):
                assert divmod(int(ids[i * n + j]), n) == cl.entry_class(n, i, j).rep
        assert sorted(set(ids.tolist())) == list(range(cl.class_count(n)))


class TestSampler:
    def test_bitwise_centrosymmetry(self):
        for n in (1, 2, 5, 8):
            m = cl.sample_centro(n, "gaussian", 99)
            assert cl.assert_centrosymmetric(m, tol=0.0)
            e = m.entries
            for i in range(n):
                for j in range(n):
                    assert e[i, j] == e[n - 1 - i, n - 1 - j]

    def test_deterministic_for_fixed_seed(self):
        a = cl.sample_centro(7, "uniform", 5)
        b = cl.sample_centro(7, "uniform", 5)
        assert np.array_equal(a.entries, b.entries)
        c = cl.sample_centro(7, "uniform", 6)
        assert not np.array_equal(a.entries, c.entries)

    def test_class_mean_gate_n1000(self):
        # CLT bound on the mean of ceil(n^2/2) unit-variance draws is
        # ~3/sqrt(5e5) ~= 0.0042; the 0.1 gate is deliberately loose
        m = cl.sample_centro(1000, "gaussian", 2024)
        raw_mean = float(m.entries.reshape(-1)[: cl.class_count(1000)].mean()) * math.sqrt(1000)
        assert -0.1 < raw_mean < 0.1

    def test_uniform_support_bound(self):
        m = cl.sample_centro(50, "uniform", 8)
        assert np.max(np.abs(m.entries)) <= math.sqrt(3.0) / math.sqrt(50)

    def test_unknown_distribution_rejected(self):
        with pytest.raises(cl.ConfigError):
            cl.sample_centro(4, "bernoulli", 0)

    def test_nonpositive_order_rejected(self):
        with pytest.raises(ValueError):
            cl.sample_centro(0, "gaussian", 0)

    def test_entries_read_only(self):
        m = cl.sample_centro(3, "gaussian", 0)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 1.0

    @pytest.mark.parametrize("cell", [(0, 1), (1, 1)])
    def test_per_class_variance_over_many_seeds(self, cell):
        # raw (unscaled) draws at a fixed cell across 10^4 seeds have
        # unit variance; sampling error of the estimate is ~1.4%
        n = 3
        i, j = cell
        vals = np.array(
            [cl.sample_centro(n, "gaussian", s).entries[i, j] for s in range(10_000)]
        ) * math.sqrt(n)
        assert abs(vals.var(ddof=1) - 1.0) < 0.05

    @pytest.mark.parametrize("dist", cl.DISTRIBUTIONS)
    @pytest.mark.parametrize("n", [*range(1, 13), 1000])
    def test_sliced_sampler_matches_class_fill_reference(self, n, dist):
        # reference: draws fill the representative cells in row-major
        # order, each draw is copied to its mirror cell, then all cells
        # are divided by sqrt(n)
        def reference(seed, trials=None):
            rng = np.random.Generator(np.random.PCG64(seed))
            shape = (cl.class_count(n),) if trials is None else (trials, cl.class_count(n))
            if dist == "gaussian":
                draws = rng.standard_normal(shape)
            else:
                draws = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), shape)
            rows, cols = divmod(np.arange(cl.class_count(n)), n)
            raw = np.full(shape[:-1] + (n, n), np.nan)
            raw[..., rows, cols] = draws
            raw[..., n - 1 - rows, n - 1 - cols] = draws
            assert not np.isnan(raw).any()
            return raw / math.sqrt(n)

        single = cl.sample_centro(n, dist, 40 + n).entries
        assert single.tobytes() == reference(40 + n).tobytes()
        trials = 2 if n == 1000 else 5
        batch = cl.sample_centro_batch(n, trials, dist, 7 * n)
        assert batch.tobytes() == reference(7 * n, trials).tobytes()

    def test_batch_matches_contract(self):
        stack = cl.sample_centro_batch(5, 20, "gaussian", 33)
        assert stack.shape == (20, 5, 5)
        for t in range(20):
            assert cl.assert_centrosymmetric(stack[t], tol=0.0)
        again = cl.sample_centro_batch(5, 20, "gaussian", 33)
        assert np.array_equal(stack, again)


class TestArrayProtocol:
    def test_asarray_is_the_entries_and_array_a_writable_copy(self):
        m = cl.sample_centro(5, "gaussian", 2)
        view = np.asarray(m, dtype=float)
        assert view is m.entries and not view.flags.writeable
        copy = np.array(m)
        assert copy.flags.writeable and not np.shares_memory(copy, m.entries)
        assert np.array_equal(copy, m.entries)

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_consumers_match_the_entries_bitwise(self, n, tmp_path):
        m = cl.sample_centro(n, "uniform", 3)
        a, b = cl.eigenvalues(m), cl.eigenvalues(m.entries)
        assert a.values.tobytes() == b.values.tobytes() and a.iterations == b.iterations
        assert cl.trace_powers(m, 5).tobytes() == cl.trace_powers(m.entries, 5).tobytes()
        wa, wb = cl.weaver_blocks(m), cl.weaver_blocks(m.entries)
        assert wa.plus.tobytes() == wb.plus.tobytes()
        assert wa.minus.tobytes() == wb.minus.tobytes()
        pa = io.write_matrix_csv(tmp_path / "a.csv", m)
        pb = io.write_matrix_csv(tmp_path / "b.csv", m.entries)
        assert pa.read_bytes() == pb.read_bytes()


class TestAssertCentrosymmetric:
    def test_identity(self):
        assert cl.assert_centrosymmetric(np.eye(3), tol=0.0)

    def test_counterexample(self):
        assert not cl.assert_centrosymmetric(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0)

    def test_tolerance(self):
        a = np.eye(3)
        a[0, 0] += 1e-12
        assert not cl.assert_centrosymmetric(a, tol=0.0)
        assert cl.assert_centrosymmetric(a, tol=1e-10)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            cl.assert_centrosymmetric(np.zeros((2, 3)))


class TestWeaver:
    def test_scaled_identity_even_order(self):
        m = 3.5 * np.eye(6)
        blocks = cl.weaver_blocks(m)
        assert np.array_equal(blocks.plus, 3.5 * np.eye(3))
        assert np.array_equal(blocks.minus, 3.5 * np.eye(3))

    def test_block_orders_sum_to_n(self):
        for n in range(1, 10):
            b = cl.weaver_blocks(cl.sample_centro(n, "gaussian", n))
            assert b.plus.shape[0] + b.minus.shape[0] == n
            assert b.plus.shape[0] == (n + 1) // 2

    def test_spectrum_preserved_even(self):
        m = cl.sample_centro(4, "gaussian", 17)
        b = cl.weaver_blocks(m)
        full = cl.eigenvalues(m.entries).values
        halves = np.concatenate(
            [cl.eigenvalues(b.plus).values, cl.eigenvalues(b.minus).values]
        )
        assert multiset_gap(full, halves) < 1e-8

    def test_spectrum_preserved_odd_with_bordered_block(self):
        m = cl.sample_centro(5, "gaussian", 18)
        b = cl.weaver_blocks(m)
        assert b.plus.shape == (3, 3)
        full = cl.eigenvalues(m.entries).values
        halves = np.concatenate(
            [cl.eigenvalues(b.plus).values, cl.eigenvalues(b.minus).values]
        )
        assert multiset_gap(full, halves) < 1e-8
        q = cl.weaver_orthogonal(5)
        t = q.T @ m.entries @ q
        assert np.max(np.abs(t[:3, 3:])) < 1e-12
        assert np.max(np.abs(t[3:, :3])) < 1e-12

    @pytest.mark.parametrize("n", range(2, 13))
    def test_explicit_q_is_orthogonal_and_block_diagonalizes(self, n):
        q = cl.weaver_orthogonal(n)
        assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-12
        m = cl.sample_centro(n, "gaussian", 100 + n)
        t = q.T @ m.entries @ q
        p = (n + 1) // 2
        scale = np.max(np.abs(m.entries))
        off = max(np.max(np.abs(t[:p, p:])), np.max(np.abs(t[p:, :p])))
        assert off <= 1e-12 * scale
        blocks = cl.weaver_blocks(m)
        assert np.allclose(t[:p, :p], blocks.plus, atol=1e-12)
        assert np.allclose(t[p:, p:], blocks.minus, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_stack_split_matches_per_matrix_split(self, n):
        stack = cl.sample_centro_batch(n, 4, "gaussian", 60 + n)
        # F-ordered and reversed stacks take the reshape-copy path
        for view in (stack, np.asfortranarray(stack), stack[::-1]):
            blocks = cl.weaver_blocks(view)
            assert blocks.plus.shape == (4, (n + 1) // 2, (n + 1) // 2)
            assert blocks.minus.shape == (4, n // 2, n // 2)
            for t in range(4):
                one = cl.weaver_blocks(np.ascontiguousarray(view[t]))
                assert np.array_equal(blocks.plus[t], one.plus)
                assert np.array_equal(blocks.minus[t], one.minus)

    @pytest.mark.parametrize("dist", cl.DISTRIBUTIONS)
    @pytest.mark.parametrize("n", range(1, 14))
    def test_matches_lower_rows_reference(self, n, dist):
        # reference: the split read from the bottom rows, A +- J C plus border
        def reference(a):
            h = n // 2
            A = a[..., :h, :h]
            jc = a[..., n - h :, :h][..., ::-1, :]
            if n % 2 == 0:
                return A + jc, A - jc
            plus = np.empty(a.shape[:-2] + (h + 1, h + 1))
            plus[..., :h, :h] = A + jc
            plus[..., :h, h] = math.sqrt(2.0) * a[..., :h, h]
            plus[..., h, :h] = math.sqrt(2.0) * a[..., h, :h]
            plus[..., h, h] = a[..., h, h]
            return plus, A - jc

        for a in (
            cl.sample_centro(n, dist, 300 + n).entries,
            cl.sample_centro_batch(n, 5, dist, 400 + n),
        ):
            plus, minus = reference(a)
            blocks = cl.weaver_blocks(a)
            assert np.array_equal(blocks.plus, plus)
            assert np.array_equal(blocks.minus, minus)
            # the trial loop's path: every cell of preallocated blocks written
            out = WeaverBlocks(np.full(plus.shape, np.nan), np.full(minus.shape, np.nan))
            assert _weaver_split(a.reshape(a.shape[:-2] + (n * n,)), n, out) is out
            assert np.array_equal(out.plus, plus)
            assert np.array_equal(out.minus, minus)

    def test_split_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            cl.weaver_blocks(np.zeros((3, 2, 3)))

    def test_spectrum_preservation_over_50_draws(self):
        for s in range(50):
            n = 2 + s % 11
            m = cl.sample_centro(n, "gaussian", 1000 + s)
            b = cl.weaver_blocks(m)
            full = cl.eigenvalues(m.entries).values
            halves = np.concatenate(
                [cl.eigenvalues(b.plus).values, cl.eigenvalues(b.minus).values]
            )
            assert multiset_gap(full, halves) < 1e-8


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32))
def test_sampled_matrices_always_centrosymmetric(n, seed):
    assert cl.assert_centrosymmetric(cl.sample_centro(n, "gaussian", seed), tol=0.0)
