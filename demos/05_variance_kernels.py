"""Limiting variance: closed form, contour quadrature, and kernel gap.

The closed form sum(2k |a_k|^2) and the contour integral of the
diagonal covariance kernel agree to quadrature precision.  The fuller
kernel transcription carries extra even-power and cross-power series;
its quadrature is reported side by side so the disagreement is a
measured number rather than a buried assumption.  (For f(z) = z the
extra terms cancel exactly and only roundoff remains; polynomials with
several terms or even powers show a structural gap.)
"""

import centrolab as cl
from centrolab.variance import KernelVariant


def main():
    cases = [
        cl.Polynomial([0, 1]),
        cl.Polynomial([0, 0, 1]),
        cl.Polynomial([0, 0, 0, 1]),
        cl.Polynomial([0, 0, 1, 0, 0, 4]),
    ]
    print(f"{'f':>16}  {'closed':>10}  {'diag quad':>12}  {'full quad':>12}  {'full gap':>10}")
    for f in cases:
        report = cl.variance_report(f, radius=1.5, nodes=256)
        diag = report.quadrature["diagonal"].real
        full = report.quadrature["full"].real
        print(
            f"{f.label():>16}  {report.closed_form:10.4f}  {diag:12.6f}  "
            f"{full:12.6f}  {report.discrepancy['full']:10.3e}"
        )

    print("\nkernel value at z = etabar = 2:")
    print("  diagonal:", cl.kernel_eval(2, 2, KernelVariant.DIAGONAL), "(= 2/9)")
    print("  full:    ", cl.kernel_eval(2, 2, KernelVariant.FULL), "(= 43/45)")

    print("\ntruncated trace-power series converging to the full kernel:")
    for k_max in (4, 8, 16, 32, 64):
        partial = cl.resolvent_series_check(k_max, 2, 2, KernelVariant.FULL)
        gap = abs(partial - cl.kernel_eval(2, 2, KernelVariant.FULL))
        print(f"  k_max={k_max:3d}: partial sum {partial.real:.12f}, gap {gap:.2e}")


if __name__ == "__main__":
    main()
