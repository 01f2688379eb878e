"""End-to-end acceptance suite: one test per exit criterion.

Each test prints one ``ACCEPTANCE <name>: PASS/FAIL`` line (visible with
``pytest -s``).  The Monte Carlo criteria run at full stated size with
frozen master seeds and take a few minutes in total.
"""

import json

import numpy as np
import pytest

import centrolab as cl
from centrolab.cli import main
from centrolab.variance import KernelVariant

from _helpers import multiset_gap

FIGURE_SEED = 1
SUITE_SEED = 20250811
FIGURE_POLY = cl.Polynomial([0, 0, 1, 0, 0, 4])  # z^2 + 4 z^5


def verdict(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def figure_report() -> cl.CltReport:
    # shared by criteria 1 and 7: 750 draws at order 1000 (about 25 s on 2 cores)
    return cl.run_clt(1000, 750, FIGURE_POLY, "gaussian", FIGURE_SEED)


def test_c01_variance_reproduction_scaled(figure_report):
    target = 164.0
    var = figure_report.empirical_variance
    ok = abs(var - target) <= 0.15 * target
    print(f"  empirical variance {var:.4f}, gate 164 +/- 15%")
    verdict("c01 variance reproduction (n=1000, 750 trials)", ok)


def test_c02_closed_form_vs_quadrature():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        degree = int(rng.integers(1, 9))
        coeffs = rng.standard_normal(degree + 1)
        if coeffs[-1] == 0.0:
            coeffs[-1] = 1.0
        f = cl.Polynomial(coeffs)
        quad = cl.contour_variance(f, KernelVariant.DIAGONAL, radius=1.5, nodes=256)
        worst = max(worst, abs(quad - cl.closed_form_variance(f)))
    print(f"  worst |quadrature - closed form| over 20 polynomials: {worst:.3e}")
    verdict("c02 closed form vs quadrature (20 random polynomials)", worst <= 1e-8)


def test_c03_trace_moment_lemmas():
    report = cl.moment_suite(1000, 2000, 5, "gaussian", SUITE_SEED)
    gates = [(2, None), (4, None), (3, None), (5, None), (2, 4), (3, 3), (2, 2)]
    ok = True
    for k, l in gates:
        e = report.entry(k, l)
        inside = abs(e.estimate - e.target) <= 4.0 * e.standard_error
        ok &= inside
        print(
            f"  k={k} l={l}: estimate {e.estimate:.4f}, target {e.target}, "
            f"z={e.z_score:+.2f}"
        )
    verdict("c03 trace-moment lemmas (n=1000, 2000 trials)", ok)


def test_c04_oracle_equivalence():
    ok = True
    for n in (2, 3, 4):
        stack = cl.sample_centro_batch(n, 100_000, "gaussian", 41 + n)
        traces = cl.trace_powers(stack, 4)
        for k in (2, 3, 4):
            exact = cl.oracle_single_chain(n, k).value
            x = traces[:, k - 1]
            se = x.std(ddof=1) / np.sqrt(x.size)
            inside = abs(x.mean() - exact) <= 4.0 * se
            ok &= inside
            if k % 2 == 1:
                ok &= exact == 0.0
            print(
                f"  n={n} k={k}: monte carlo {x.mean():+.4f} vs exact {exact:+.4f} "
                f"(se {se:.4f})"
            )
    ok &= cl.oracle_single_chain(3, 2).value == 5.0 / 3.0
    verdict("c04 oracle equivalence (10^5 draws per order)", ok)


def test_c05_weaver_similarity():
    worst_gap = 0.0
    worst_off = 0.0
    for s in range(50):
        n = 2 + s % 11
        m = cl.sample_centro(n, "gaussian", 5000 + s)
        blocks = cl.weaver_blocks(m)
        full = cl.eigenvalues(m.entries).values
        halves = np.concatenate(
            [cl.eigenvalues(blocks.plus).values, cl.eigenvalues(blocks.minus).values]
        )
        worst_gap = max(worst_gap, multiset_gap(full, halves))
        q = cl.weaver_orthogonal(n)
        t = q.T @ m.entries @ q
        p = (n + 1) // 2
        off = max(np.max(np.abs(t[:p, p:])), np.max(np.abs(t[p:, :p])))
        worst_off = max(worst_off, off / np.max(np.abs(m.entries)))
        assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-12
    print(f"  worst eigenvalue pairing gap {worst_gap:.3e}, worst relative off-diagonal {worst_off:.3e}")
    verdict(
        "c05 weaver similarity (50 draws, orders 2..12)",
        worst_gap <= 1e-8 and worst_off <= 1e-12,
    )


def test_c06_circular_law_support():
    m = cl.sample_centro(1000, "gaussian", SUITE_SEED)
    spec = cl.eigenvalues(m.entries)
    cdf = cl.spectral_radial_cdf(spec, [0.5, 1.05])
    print(f"  converged={spec.converged} inside r=1.05: {cdf[1]:.4f}, cdf(0.5)={cdf[0]:.4f}")
    ok = spec.converged and cdf[1] >= 0.99 and abs(cdf[0] - 0.25) <= 0.05
    verdict("c06 circular law support (n=1000)", ok)


def test_c07_normality_ks(figure_report):
    ks = figure_report.ks_statistic
    print(f"  KS statistic {ks:.4f}, gate < 0.08")
    verdict("c07 normality of centered samples", ks < 0.08)


def test_c08_universality_uniform_entries():
    report = cl.run_clt(500, 400, cl.Polynomial([0, 0, 1]), "uniform", SUITE_SEED)
    var = report.empirical_variance
    print(f"  empirical variance {var:.4f}, gate 4 +/- 20%")
    verdict("c08 universality probe (uniform entries)", abs(var - 4.0) <= 0.8)


def test_c09_determinism_across_worker_counts(tmp_path):
    reports = []
    samples = []
    for threads in (1, 2, 8):
        out = tmp_path / f"w{threads}"
        code = main(
            [
                "clt",
                "--n", "60",
                "--trials", "64",
                "--f", "0,0,1",
                "--seed", "17",
                "--threads", str(threads),
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "clt_n60_gaussian_seed17.json").read_text())
        payload.pop("runtime_seconds")
        reports.append(payload)
        samples.append(
            cl.run_clt(60, 64, cl.Polynomial([0, 0, 1]), "gaussian", 17, threads).samples
        )
    identical_reports = reports[0] == reports[1] == reports[2]
    identical_samples = np.array_equal(samples[0], samples[1]) and np.array_equal(
        samples[0], samples[2]
    )
    print(f"  reports identical: {identical_reports}, sample multisets identical: {identical_samples}")
    verdict(
        "c09 determinism for 1, 2, 8 worker threads",
        identical_reports and identical_samples,
    )


def test_c10_kernel_discrepancy_report():
    report = cl.variance_report(cl.Polynomial([0, 1]), radius=1.5, nodes=256)
    full_gap = report.discrepancy["full"]
    diag_gap = report.discrepancy["diagonal"]
    print(f"  discrepancy: full {full_gap:.3e} (nonzero), diagonal {diag_gap:.3e} (< 1e-10)")
    verdict(
        "c10 kernel-discrepancy report",
        full_gap != 0.0 and diag_gap < 1e-10,
    )
