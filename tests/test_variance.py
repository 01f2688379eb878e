import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import centrolab as cl
from centrolab.variance import KernelVariant


def coefficient_projection(f: cl.Polynomial, variant: KernelVariant) -> float:
    """Independent prediction of the contour value by projecting each
    kernel series term onto the polynomial coefficients.

    The diagonal series contributes ``sum 2k |a_k|^2``; the full variant
    adds ``4 sum_{even k>=1} |a_k|^2`` from the even-power series and
    ``4 (|sum a_k|^2 - sum |a_k|^2)`` from the cross-power series.
    """
    a = list(f.coeffs)
    value = sum(2.0 * k * abs(a[k]) ** 2 for k in range(1, len(a)))
    if variant is KernelVariant.FULL:
        value += 4.0 * sum(abs(a[k]) ** 2 for k in range(2, len(a), 2))
        total = sum(a[1:])
        value += 4.0 * (abs(total) ** 2 - sum(abs(c) ** 2 for c in a[1:]))
    return float(value)


def series_tail_bound(k_max: int, z: complex, eta_bar: complex, variant) -> float:
    """Upper bound on the truncation error of the kernel series at k_max."""
    qu = 1.0 / abs(z * eta_bar)
    bound = 2.0 * qu ** (k_max + 2) * (
        (k_max + 1) / (1 - qu) + qu / (1 - qu) ** 2
    )
    if variant is KernelVariant.FULL:
        bound += 4.0 * qu ** (k_max + 2) / (1 - qu)
        qz = 1.0 / abs(z)
        qe = 1.0 / abs(eta_bar)
        sz = qz**2 / (1 - qz)
        se = qe**2 / (1 - qe)
        tz = qz ** (k_max + 2) / (1 - qz)
        te = qe ** (k_max + 2) / (1 - qe)
        bound += 4.0 * (sz * te + tz * se + tz * te)
        bound += 4.0 * qu ** (k_max + 2) / (1 - qu)
    return bound


class TestClosedForm:
    def test_linear(self):
        assert cl.closed_form_variance(cl.Polynomial([0, 1])) == 2.0

    def test_figure_polynomial(self):
        f = cl.Polynomial([0, 0, 1, 0, 0, 4])
        assert cl.closed_form_variance(f) == 164.0

    def test_scaled_quartic(self):
        assert cl.closed_form_variance(cl.Polynomial([0, 0, 0, 0, 3])) == 72.0

    def test_complex_coefficients_use_modulus(self):
        assert cl.closed_form_variance(cl.Polynomial([0, 3 + 4j])) == 50.0

    @pytest.mark.parametrize("coeffs", [[0, 1e200], [0, 1e154], [0, 1e150j, 0, 0, 0, 1e154]])
    def test_overflow_is_config_error(self, coeffs):
        # |1e200|**2 raised OverflowError; 2 * 1e154**2 summed to inf
        with pytest.raises(cl.ConfigError):
            cl.closed_form_variance(cl.Polynomial(coeffs))
        assert cl.closed_form_variance(cl.Polynomial([0, 1e153])) == 2.0 * (1e153 * 1e153)

    @settings(max_examples=30, deadline=None)
    @given(
        coeffs=st.lists(
            st.floats(-5, 5).filter(lambda x: x == x), min_size=2, max_size=6
        ),
        a0=st.floats(-10, 10),
    )
    def test_constant_term_invariance(self, coeffs, a0):
        if coeffs[-1] == 0:
            coeffs = coeffs[:-1] + [1.0]
        base = cl.Polynomial(coeffs)
        shifted = cl.Polynomial([a0] + coeffs[1:])
        assert cl.closed_form_variance(base) == cl.closed_form_variance(shifted)

    def test_degree_zero_rejected_at_construction(self):
        with pytest.raises(ValueError):
            cl.Polynomial([3.0])
        with pytest.raises(ValueError):
            cl.Polynomial([1.0, 0.0])


class TestKernelEval:
    def test_diagonal_at_two_two(self):
        assert cl.kernel_eval(2, 2, KernelVariant.DIAGONAL) == pytest.approx(
            2.0 / 9.0, abs=1e-15
        )

    def test_full_at_two_two_term_by_term(self):
        # independent re-evaluation of each displayed term at z = etabar = 2
        first = 2.0 / (1.0 - 4.0) ** 2
        second = 4.0 / (4.0 * (16.0 - 1.0))
        third = 4.0 * (1.0 / (4.0 * 1.0 * 1.0) - 1.0 / (4.0 * 3.0))
        assert first == pytest.approx(2.0 / 9.0)
        assert second == pytest.approx(1.0 / 15.0)
        assert third == pytest.approx(2.0 / 3.0)
        assert cl.kernel_eval(2, 2, KernelVariant.FULL) == pytest.approx(
            first + second + third, abs=1e-15
        )
        assert first + second + third == pytest.approx(43.0 / 45.0, abs=1e-15)

    def test_diagonal_symmetric_in_product(self):
        for z, e in [(2.0, 3.0), (1.5 + 0.5j, 2.0 - 1.0j)]:
            assert cl.kernel_eval(z, e, KernelVariant.DIAGONAL) == cl.kernel_eval(
                e, z, KernelVariant.DIAGONAL
            )

    def test_pole_proximity_raises(self):
        with pytest.raises(cl.SingularityError):
            cl.kernel_eval(1.0 + 5e-10, 1.0, KernelVariant.DIAGONAL)  # u near 1
        with pytest.raises(cl.SingularityError):
            cl.kernel_eval(2.0, -0.5, KernelVariant.DIAGONAL)  # u == -1
        with pytest.raises(cl.SingularityError):
            cl.kernel_eval(1e-12, 2.0, KernelVariant.FULL)  # u near 0
        with pytest.raises(cl.SingularityError):
            cl.kernel_eval(1.0, 3.0, KernelVariant.FULL)  # z == 1, full only

    def test_full_only_restriction_not_applied_to_diagonal(self):
        assert cl.kernel_eval(1.0, 0.5, KernelVariant.DIAGONAL) == pytest.approx(8.0)


class TestContourVariance:
    def test_linear_diagonal_64_nodes(self):
        v = cl.contour_variance(
            cl.Polynomial([0, 1]), KernelVariant.DIAGONAL, 1.5, 64
        )
        assert abs(v - 2.0) < 1e-10

    def test_figure_polynomial_diagonal(self):
        f = cl.Polynomial([0, 0, 1, 0, 0, 4])
        v = cl.contour_variance(f, KernelVariant.DIAGONAL, 1.5, 128)
        assert abs(v - 164.0) < 1e-8

    def test_random_polynomials_match_closed_form(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            d = int(rng.integers(1, 9))
            coeffs = rng.standard_normal(d + 1)
            if coeffs[-1] == 0.0:
                coeffs[-1] = 1.0
            f = cl.Polynomial(coeffs)
            v = cl.contour_variance(f, KernelVariant.DIAGONAL, 1.5, 256)
            assert abs(v - cl.closed_form_variance(f)) < 1e-8

    def test_node_doubling_stability(self):
        f = cl.Polynomial([0, 0, 1, 0, 0, 4])
        a = cl.contour_variance(f, KernelVariant.DIAGONAL, 1.5, 256)
        b = cl.contour_variance(f, KernelVariant.DIAGONAL, 1.5, 512)
        assert abs(a - b) < 1e-10

    def test_radius_choice_immaterial_for_diagonal(self):
        f = cl.Polynomial([0, 1, 2])
        a = cl.contour_variance(f, KernelVariant.DIAGONAL, 1.2, 256)
        b = cl.contour_variance(f, KernelVariant.DIAGONAL, 2.5, 256)
        assert abs(a - b) < 1e-9

    def test_full_kernel_matches_coefficient_projection(self):
        cases = [
            cl.Polynomial([0, 1]),  # projection equals the closed form here
            cl.Polynomial([0, 0, 1]),  # projection 8 vs closed form 4
            cl.Polynomial([0, 0, 1, 0, 0, 4]),  # projection 200 vs closed 164
        ]
        rng = np.random.default_rng(23)
        for _ in range(5):
            c = rng.standard_normal(int(rng.integers(2, 8)))
            if c[-1] == 0.0:
                c[-1] = 1.0
            cases.append(cl.Polynomial(c))
        for f in cases:
            v = cl.contour_variance(f, KernelVariant.FULL, 1.5, 256)
            assert abs(v - coefficient_projection(f, KernelVariant.FULL)) < 1e-7

    def test_rejects_radius_at_or_below_one(self):
        with pytest.raises(cl.ConfigError):
            cl.contour_variance(cl.Polynomial([0, 1]), KernelVariant.DIAGONAL, 1.0, 64)
        with pytest.raises(cl.ConfigError):
            cl.contour_variance(cl.Polynomial([0, 1]), KernelVariant.DIAGONAL, 0.5, 64)


class TestVarianceReport:
    def test_diagonal_discrepancy_tiny_full_nonzero(self):
        report = cl.variance_report(cl.Polynomial([0, 1]), radius=1.5, nodes=256)
        assert report.discrepancy["diagonal"] < 1e-10
        assert report.discrepancy["full"] != 0.0

    def test_structural_full_gap_for_quadratic(self):
        report = cl.variance_report(cl.Polynomial([0, 0, 1]), radius=1.5, nodes=128)
        assert report.closed_form == 4.0
        assert report.discrepancy["full"] == pytest.approx(4.0, abs=1e-8)

    def test_diagonal_discrepancy_measures_roundoff_at_high_degree(self):
        f = cl.Polynomial([0] * 40 + [1])
        report = cl.variance_report(f)
        assert (report.radius, report.nodes) == (1.5, 256)
        assert report.discrepancy["diagonal"] > 1e-6
        report = cl.variance_report(f, radius=1.05, nodes=2048)
        assert report.discrepancy["diagonal"] < 1e-10


class TestResolventSeries:
    def test_converges_to_full_kernel(self):
        partial = cl.resolvent_series_check(60, 2, 2, KernelVariant.FULL)
        assert abs(partial - 43.0 / 45.0) < 1e-12

    def test_truncation_within_analytic_tail(self):
        kernel = cl.kernel_eval(2, 2, KernelVariant.FULL)
        partial = cl.resolvent_series_check(2, 2, 2, KernelVariant.FULL)
        gap = abs(partial - kernel)
        assert 0 < gap <= series_tail_bound(2, 2, 2, KernelVariant.FULL)

    def test_diagonal_series_matches_diagonal_kernel(self):
        partial = cl.resolvent_series_check(60, 2, 2, KernelVariant.DIAGONAL)
        assert abs(partial - 2.0 / 9.0) < 1e-12

    def test_random_points_within_tail_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            z = rng.uniform(1.3, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            e = rng.uniform(1.3, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            try:
                kernel = cl.kernel_eval(z, e, KernelVariant.FULL)
            except cl.SingularityError:
                continue
            partial = cl.resolvent_series_check(80, z, e, KernelVariant.FULL)
            assert abs(partial - kernel) <= series_tail_bound(
                80, z, e, KernelVariant.FULL
            ) + 1e-13

    def test_requires_points_outside_unit_circle(self):
        with pytest.raises(ValueError):
            cl.resolvent_series_check(10, 0.9, 2.0)
        with pytest.raises(ValueError):
            cl.resolvent_series_check(1, 2.0, 2.0)
