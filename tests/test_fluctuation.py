import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import centrolab as cl
from centrolab import centro, fluctuation
from centrolab.fluctuation import (
    _draw_traces,
    _ordered_map,
    _pcg64_state,
    _seed_words,
    _splitmix64,
    _trial_seeds,
    _trial_traces,
)

SRC = Path(cl.__file__).resolve().parents[1]


class TestLesPolynomial:
    def test_identity_gives_trace(self):
        m = cl.sample_centro(6, "gaussian", 3)
        assert cl.les_polynomial(m, cl.Polynomial([0, 1])) == float(
            np.trace(m.entries)
        )

    def test_fixed_draw_matches_direct_multiplication(self):
        m = cl.sample_centro(4, "gaussian", 123)
        f = cl.Polynomial([0, 0, 1, 0, 0, 4])
        direct = np.trace(np.linalg.matrix_power(m.entries, 2)) + 4.0 * np.trace(
            np.linalg.matrix_power(m.entries, 5)
        )
        assert cl.les_polynomial(m, f) == pytest.approx(direct, rel=1e-13)

    def test_constant_term_contributes_a0_times_n(self):
        m = cl.sample_centro(5, "gaussian", 8)
        with_const = cl.les_polynomial(m, cl.Polynomial([2.5, 1]))
        without = cl.les_polynomial(m, cl.Polynomial([0, 1]))
        assert with_const == pytest.approx(without + 2.5 * 5, rel=1e-14)

    def test_complex_coefficients_give_complex_value(self):
        m = cl.sample_centro(4, "gaussian", 8)
        v = cl.les_polynomial(m, cl.Polynomial([0, 1j]))
        assert isinstance(v, complex)
        assert v == pytest.approx(1j * np.trace(m.entries))

    def test_two_path_agreement(self):
        f = cl.Polynomial([0, 0, 1])
        for seed in range(100):
            n = 2 + seed % 11
            m = cl.sample_centro(n, "gaussian", seed)
            trace_path = cl.les_polynomial(m, f)
            eig_path = cl.les_analytic(cl.eigenvalues(m.entries), lambda z: z**2)
            assert abs(trace_path - eig_path) <= 1e-7 * max(1.0, abs(trace_path))


class TestWeaverFirstTraces:
    @pytest.mark.parametrize("dist", cl.DISTRIBUTIONS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 12, 31])
    def test_matches_dense_reference(self, n, dist):
        traces = _trial_traces(n, 3, 6, dist, 5, 1)
        f = cl.Polynomial([0.5, 0, 1, 0, 0, 4])
        for t in range(3):
            m = cl.sample_centro(n, dist, cl.trial_seed(5, t))
            dense = [cl.trace_power(m.entries, k) for k in range(1, 7)]
            for k in range(1, 7):
                assert traces[t, k - 1] == pytest.approx(dense[k - 1], rel=1e-12)
            assert traces[t, 0] == float(np.trace(m.entries))
            expected = 0.5 * n + dense[1] + 4.0 * dense[4]
            assert cl.les_polynomial(m, f) == pytest.approx(expected, rel=1e-12)

    def test_stacks_match_per_matrix_calls(self, monkeypatch):
        # size + 9 trials make a full and a partial stack (order 40 stacks 81
        # trials); stacks are capped at 200 trials to keep small orders fast
        stack_size = fluctuation._stack_size
        monkeypatch.setattr(fluctuation, "_stack_size", lambda n: min(stack_size(n), 200))
        for n in (1, 2, 3, 9, 13, 31, 40, 63, 64):
            trials = fluctuation._stack_size(n) + 9
            for dist in cl.DISTRIBUTIONS:
                expected = np.empty((trials, 4))
                for t in range(trials):
                    stack = cl.sample_centro(n, dist, cl.trial_seed(8, t)).entries[None]
                    blocks = cl.weaver_blocks(stack)
                    traces = cl.trace_powers(blocks.plus, 4) + cl.trace_powers(blocks.minus, 4)
                    traces[..., 0] = np.trace(stack, axis1=-2, axis2=-1)
                    expected[t] = traces[0]
                for threads in (1, 2):
                    traces = _trial_traces(n, trials, 4, dist, 8, threads)
                    assert np.array_equal(traces, expected), (n, dist, threads)

    @pytest.mark.parametrize("n", range(1, 14))
    def test_full_rows_trace_as_their_first_class_cells(self, n):
        # les_polynomial passes all n*n cells; the trial loop only the classes
        cells = cl.sample_centro_batch(n, 3, "gaussian", 70 + n).reshape(3, n * n)
        full = _draw_traces(cells, n, 5)
        assert np.array_equal(full, _draw_traces(cells[:, : cl.class_count(n)].copy(), n, 5))
        assert np.array_equal(full[:, 0], np.trace(cells.reshape(3, n, n), axis1=1, axis2=2))

    def test_trial_loop_never_forms_the_matrix(self, monkeypatch):
        def refuse(draws, n):
            raise AssertionError("trial loop mirrored a full matrix")

        monkeypatch.setattr(centro, "_mirror", refuse)
        cl.moment_suite(7, 40, 4, "uniform", 3)
        cl.run_clt(6, 40, cl.Polynomial([0, 0, 1]), "gaussian", 3, threads=2)

    def test_trial_loop_builds_at_most_one_generator_per_stack(self, monkeypatch):
        built = []
        pcg64 = np.random.PCG64

        def counting(*args, **kwargs):
            built.append(args)
            return pcg64(*args, **kwargs)

        monkeypatch.setattr(np.random, "PCG64", counting)
        cl.moment_suite(9, 200, 4, "uniform", 3)
        stacks = -(-200 // fluctuation._stack_size(9))
        assert 1 <= len(built) <= stacks

    @pytest.mark.parametrize("threads", [1, 2])
    def test_unknown_dist_rejected_before_seeding(self, monkeypatch, threads):
        def refuse(*args):
            raise AssertionError("hashed seeds or started workers for a bad dist")

        monkeypatch.setattr(fluctuation, "_seed_words", refuse)
        monkeypatch.setattr(fluctuation, "_ordered_map", refuse)
        with pytest.raises(cl.ConfigError, match="cauchy"):
            cl.moment_suite(5, 10, 3, "cauchy", 1, threads)
        with pytest.raises(cl.ConfigError, match="cauchy"):
            cl.run_clt(5, 10, cl.Polynomial([0, 1]), "cauchy", 1, threads)


class TestLesAnalytic:
    def test_identity_gives_trace(self):
        m = cl.sample_centro(8, "gaussian", 4)
        s = cl.eigenvalues(m.entries)
        assert cl.les_analytic(s, lambda z: z) == pytest.approx(
            np.trace(m.entries), abs=1e-8
        )

    def test_square_on_conjugate_pair(self):
        s = cl.Spectrum(values=np.array([1j, -1j]), iterations=0, converged=True)
        assert cl.les_analytic(s, lambda z: z**2) == pytest.approx(-2.0)

    def test_exponential_matches_series_truncation(self):
        m = cl.sample_centro(8, "gaussian", 21)
        s = cl.eigenvalues(m.entries)
        analytic = cl.les_analytic(s, np.exp)
        series = cl.Polynomial([1.0 / math.factorial(k) for k in range(31)])
        truncated = cl.les_polynomial(m, series)
        assert abs(analytic - truncated) < 1e-8

    def test_unconverged_spectrum_rejected(self):
        s = cl.Spectrum(values=np.array([0j]), iterations=5, converged=False)
        with pytest.raises(cl.DiagnosticError):
            cl.les_analytic(s, lambda z: z)


class TestKsStatistic:
    def test_normal_samples_small_statistic(self):
        x = np.random.default_rng(1).standard_normal(1000)
        assert cl.ks_statistic(x) < 0.06

    def test_shift_invariance(self):
        x = np.random.default_rng(2).standard_normal(500)
        assert cl.ks_statistic(x) == pytest.approx(cl.ks_statistic(x + 7.5), abs=1e-9)

    @pytest.mark.parametrize("power", [-700, 0, 600])
    def test_power_of_two_scaling_is_exact(self, power):
        # at 2**600 the squares overflowed (ks 0.5), at 2**-700 they vanished
        x = np.random.default_rng(2).standard_normal(500)
        assert cl.ks_statistic(np.ldexp(x, power)) == cl.ks_statistic(x)

    def test_two_point_sample_far_from_normal(self):
        assert cl.ks_statistic(np.array([-1.0, 1.0] * 50)) >= 0.3

    def test_zero_variance_rejected(self):
        with pytest.raises(cl.DiagnosticError):
            cl.ks_statistic(np.ones(10))

    def test_too_few_samples_rejected(self):
        with pytest.raises(cl.DiagnosticError):
            cl.ks_statistic(np.array([1.0]))

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([-1.0, 0.0, 2.5]),
            min_size=2,
            max_size=300,
        )
    )
    def test_matches_scipy_kstest(self, x):
        # the sampled_from branch makes ties common
        from scipy import stats

        x = np.array(x)
        assume(x.std(ddof=1) > 0.0)
        # standardized at unit scale, where the squares of tiny samples keep their bits
        u = np.ldexp(x, -math.frexp(np.max(np.abs(x)))[1])
        expected = stats.kstest((u - u.mean()) / u.std(ddof=1), "norm").statistic
        assert cl.ks_statistic(x) == pytest.approx(expected, abs=1e-14)

    def test_ties_match_scipy_kstest(self):
        from scipy import stats

        x = np.repeat(np.random.default_rng(3).standard_normal(40).round(1), 5)
        expected = stats.kstest((x - x.mean()) / x.std(ddof=1), "norm").statistic
        assert cl.ks_statistic(x) == pytest.approx(expected, abs=1e-14)


def test_import_loads_no_scipy():
    code = (
        "import sys, centrolab; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_worker_pool_bounded_by_tasks_and_cpus():
    used = set()

    def work(t):
        used.add(threading.get_ident())
        time.sleep(0.005)
        return t

    assert _ordered_map(work, 32, 10**6) == list(range(32))
    assert len(used) <= min(32, os.cpu_count() or 1)


class TestTrialSeeds:
    def test_splitmix64_known_vector(self):
        # published first output of splitmix64 for state 0
        assert _splitmix64(0) == 0xE220A8397B1DCDAF

    def test_distinct_and_in_range(self):
        seeds = {cl.trial_seed(5, t) for t in range(10_000)}
        assert len(seeds) == 10_000
        assert all(0 <= s < 2**64 for s in seeds)

    def test_deterministic(self):
        assert cl.trial_seed(99, 3) == cl.trial_seed(99, 3)

    @settings(max_examples=20, deadline=None)
    @given(a=st.integers(0, 2**64 - 1), b=st.integers(0, 2**64 - 1))
    def test_distinct_masters_give_disjoint_seed_sets(self, a, b):
        assume(a != b)
        seeds_a = {cl.trial_seed(a, t) for t in range(10_000)}
        seeds_b = {cl.trial_seed(b, t) for t in range(10_000)}
        assert seeds_a.isdisjoint(seeds_b)

    @settings(max_examples=50, deadline=None)
    @given(master=st.integers(0, 2**64 - 1) | st.sampled_from([0, 2**64 - 1]))
    def test_vectorized_seeds_match_trial_seed(self, master):
        seeds = _trial_seeds(master, 300)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [cl.trial_seed(master, t) for t in range(300)]

    @pytest.mark.parametrize("master", [-1, 2**64, 2**64 + 5])
    def test_master_seed_outside_64_bits_rejected(self, master, monkeypatch):
        # 2**64 used to alias master seed 0
        with pytest.raises(ValueError, match="2\\*\\*64"):
            cl.trial_seed(master, 0)

        def refuse(*args):
            raise AssertionError("hashed trial seeds for an out-of-range master seed")

        monkeypatch.setattr(fluctuation, "_seed_words", refuse)
        with pytest.raises(cl.ConfigError, match="2\\*\\*64"):
            cl.run_clt(8, 4, cl.Polynomial([0, 0, 1]), master_seed=master)
        with pytest.raises(cl.ConfigError, match="2\\*\\*64"):
            cl.moment_suite(8, 4, 2, master_seed=master)

    def test_adjacent_masters_draw_different_matrices(self):
        f = cl.Polynomial([0, 0, 1])
        r0 = cl.run_clt(20, 64, f, "gaussian", 0)
        r1 = cl.run_clt(20, 64, f, "gaussian", 1)
        assert not np.allclose(np.sort(r0.samples), np.sort(r1.samples))


class TestPcg64States:
    """The trial loop's PCG64 states against ``np.random.PCG64(seed).state``.

    The hash replays numpy's SeedSequence and PCG64 seeding, both of
    which numpy keeps stream-stable across releases; a failure here means
    numpy changed one of those algorithms, and trial streams no longer
    match ``sample_centro``.
    """

    @staticmethod
    def states(seeds):
        words = _seed_words(np.array(seeds, dtype=np.uint64))
        assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
        return [_pcg64_state(w) for w in words.tolist()]

    def test_edge_seeds(self):
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        assert self.states(seeds) == [np.random.PCG64(s).state for s in seeds]

    @settings(max_examples=200, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
    def test_drawn_seeds(self, seeds):
        assert self.states(seeds) == [np.random.PCG64(s).state for s in seeds]


class TestRunClt:
    def test_linear_statistic_variance_window(self):
        r = cl.run_clt(400, 400, cl.Polynomial([0, 1]), "gaussian", 424)
        assert 1.7 <= r.empirical_variance <= 2.3
        assert r.theoretical_variance == 2.0

    def test_cubic_statistic_variance_window(self):
        r = cl.run_clt(400, 400, cl.Polynomial([0, 0, 0, 1]), "gaussian", 9)
        assert 6.0 * 0.8 <= r.empirical_variance <= 6.0 * 1.2

    def test_centering(self):
        r = cl.run_clt(50, 80, cl.Polynomial([0, 0, 1]), "gaussian", 5)
        scale = np.abs(r.samples).max()
        assert abs(r.samples.mean()) <= 1e-12 * max(1.0, scale)

    def test_requires_two_trials(self):
        with pytest.raises(cl.ConfigError):
            cl.run_clt(10, 1, cl.Polynomial([0, 1]))

    def test_thread_count_does_not_change_samples(self):
        f = cl.Polynomial([0, 0, 1])
        r1 = cl.run_clt(40, 36, f, "gaussian", 77, threads=1)
        r2 = cl.run_clt(40, 36, f, "gaussian", 77, threads=2)
        r8 = cl.run_clt(40, 36, f, "gaussian", 77, threads=8)
        assert np.array_equal(r1.samples, r2.samples)
        assert np.array_equal(r1.samples, r8.samples)

    def test_universality_probe_gaussian_vs_uniform(self):
        f = cl.Polynomial([0, 0, 1])
        trials = 600
        rg = cl.run_clt(256, trials, f, "gaussian", 31)
        ru = cl.run_clt(256, trials, f, "uniform", 31)
        se = 4.0 * np.sqrt(2.0 / (trials - 1))
        assert abs(rg.empirical_variance - ru.empirical_variance) <= 3.0 * (se + se)

    def test_complex_coefficients_report_part_variances(self):
        r = cl.run_clt(30, 50, cl.Polynomial([0, 1j, 1]), "gaussian", 3)
        assert r.variance_real is not None and r.variance_imag is not None
        assert r.empirical_variance >= 0.0
        assert np.iscomplexobj(r.samples)

    def test_report_carries_provenance(self):
        f = cl.Polynomial([0, 1])
        r = cl.run_clt(20, 10, f, "uniform", 123)
        assert (r.n, r.trials, r.dist, r.seed) == (20, 10, "uniform", 123)
        assert r.samples.shape == (10,)
        assert r.runtime_seconds > 0


class TestMomentSuite:
    def test_targets_table(self):
        assert cl.moment_target(2) == 2.0
        assert cl.moment_target(3) == 0.0
        assert cl.moment_target(2, 4) == 4.0
        assert cl.moment_target(2, 3) == 0.0
        assert cl.moment_target(3, 3) == 6.0
        assert cl.moment_target(2, 2) == 8.0
        assert cl.moment_target(4, 4) == 12.0

    def test_requires_kmax_at_least_two(self):
        with pytest.raises(cl.ConfigError):
            cl.moment_suite(10, 10, 1)

    def test_entries_cover_singles_and_ordered_pairs(self):
        r = cl.moment_suite(30, 40, 3, "gaussian", 11)
        singles = [(e.k, e.l) for e in r.entries if e.l is None]
        doubles = [(e.k, e.l) for e in r.entries if e.l is not None]
        assert singles == [(1, None), (2, None), (3, None)]
        assert doubles == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
        assert all(e.standard_error > 0 for e in r.entries)

    def test_worker_count_does_not_change_entries(self):
        # order 40 stacks 81 trials: 200 trials make three stacks
        reports = [cl.moment_suite(40, 200, 4, "gaussian", 19, threads=w) for w in (1, 2, 8)]
        assert reports[0].entries == reports[1].entries == reports[2].entries

    def test_deterministic(self):
        a = cl.moment_suite(25, 30, 2, "gaussian", 13)
        b = cl.moment_suite(25, 30, 2, "gaussian", 13)
        assert [e.estimate for e in a.entries] == [e.estimate for e in b.entries]

    def test_statistically_consistent_at_moderate_size(self):
        r = cl.moment_suite(300, 400, 4, "gaussian", 47)
        for e in r.entries:
            assert abs(e.z_score) < 6.0, (e.k, e.l, e.z_score)

    def test_entry_accessor(self):
        r = cl.moment_suite(20, 20, 2, "gaussian", 1)
        assert r.entry(2).target == 2.0
        assert r.entry(1, 2).l == 2
        with pytest.raises(KeyError):
            r.entry(9)
