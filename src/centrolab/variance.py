"""Limiting variance of centered polynomial eigenvalue statistics.

Two routes to the same number are kept side by side:

* the coefficient closed form ``sum_k 2 k |a_k|^2``, and
* double contour quadrature of a covariance kernel over two circles of
  radius > 1.

Two kernel transcriptions are first-class citizens.  The ``DIAGONAL``
kernel ``2 (1 - z*etabar)**-2`` is generated by the diagonal variance
constants ``Var(Tr M^k) = 2k`` alone and reproduces the closed form.
The ``FULL`` kernel additionally carries an even-power series and a
cross-power series; the tool measures and reports its disagreement with
the closed form instead of silently choosing a side.

Contours are placed at radius 1.5 by default rather than on the unit
circle: the series defining the kernels converge only for
``|z * etabar| > 1`` and the kernels have poles on ``z * etabar = +/-1``.
For polynomial test functions the radius is immaterial in exact
arithmetic only.  In floating point the integrand of ``z^d`` grows like
``radius^(2d)`` while the variance does not, so roundoff grows with the
radius and the degree: at radius 1.5 and 256 nodes the DIAGONAL
discrepancy is 1.8e-4 for ``z^40`` and 3.8e4 for ``z^63``, and more
nodes do not help (``z^71``: 9.5e6 at 256 nodes, 3.3e7 at 288), while
radius 1.05 with 2048 nodes brings ``z^71`` to 1.4e-14.  The DIAGONAL
discrepancy is the quadrature's measured error; ``variance_report``
states it next to the settings that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, SingularityError
from .poly import Polynomial

__all__ = [
    "KernelVariant",
    "VarianceReport",
    "closed_form_variance",
    "contour_variance",
    "kernel_eval",
    "resolvent_series_check",
    "variance_report",
]

_POLE_TOL = 1e-9


class KernelVariant(str, Enum):
    """Covariance-kernel transcription used inside the contour integral."""

    FULL = "full"
    DIAGONAL = "diagonal"


def closed_form_variance(f: Polynomial) -> float:
    """Closed-form limiting variance ``sum_{k=1..d} 2 k |a_k|^2``.

    The constant coefficient a_0 is ignored: adding a constant to the
    test function shifts every sample identically and does not
    fluctuate.  Raises ``ConfigError`` when the sum overflows.
    """
    total = float(sum(2.0 * k * (abs(c) * abs(c)) for k, c in enumerate(f.coeffs) if k >= 1))
    if not math.isfinite(total):
        raise ConfigError(f"limiting variance of f overflows ({total})")
    return total


def _check_poles(z, eta_bar, variant: KernelVariant) -> None:
    u = np.asarray(z) * np.asarray(eta_bar)
    dist = np.minimum(np.abs(u), np.minimum(np.abs(u - 1.0), np.abs(u + 1.0)))
    if variant is KernelVariant.FULL:
        dist = np.minimum(dist, np.abs(np.asarray(z) - 1.0))
        dist = np.minimum(dist, np.abs(np.asarray(eta_bar) - 1.0))
    if np.min(dist) < _POLE_TOL:
        raise SingularityError(
            f"kernel evaluated within {_POLE_TOL} of a pole "
            f"(z*etabar near 0 or +/-1, or z, etabar near 1)"
        )


def kernel_eval(z, eta_bar, variant: KernelVariant = KernelVariant.FULL):
    """Pointwise covariance kernel K(z, etabar).

    DIAGONAL: ``2 (1 - z etabar)^-2``.
    FULL adds ``4 / (z etabar ((z etabar)^2 - 1))`` and
    ``4 (1 / (z etabar (z-1)(etabar-1)) - 1 / (z etabar (z etabar - 1)))``.

    Accepts scalars or broadcastable arrays; raises SingularityError
    when any point lies within 1e-9 of an excluded pole.
    """
    variant = KernelVariant(variant)
    _check_poles(z, eta_bar, variant)
    z = np.asarray(z, dtype=complex)
    eta_bar = np.asarray(eta_bar, dtype=complex)
    u = z * eta_bar
    k = 2.0 / (1.0 - u) ** 2
    if variant is KernelVariant.DIAGONAL:
        return k if k.ndim else complex(k)
    k = k + 4.0 / (u * (u * u - 1.0))
    k = k + 4.0 * (1.0 / (u * (z - 1.0) * (eta_bar - 1.0)) - 1.0 / (u * (u - 1.0)))
    return k if k.ndim else complex(k)


def contour_variance(
    f: Polynomial,
    variant: KernelVariant = KernelVariant.DIAGONAL,
    radius: float = 1.5,
    nodes: int = 256,
) -> complex:
    """Variance by trapezoidal double contour quadrature of the kernel.

    Both circles are traversed counterclockwise at the given radius; the
    second factor is the conjugated-coefficient polynomial, so for real
    coefficients the integrand is exactly ``f(z) f(etabar) K(z, etabar)``
    and the DIAGONAL kernel reproduces the closed form (this calibration
    fixes the orientation once; it is frozen here).  The trapezoid rule
    on a periodic integrand converges spectrally, but roundoff grows like
    ``radius^(2 deg f)``: high degrees need a radius near 1 (and then
    more nodes), see the module docstring.
    """
    variant = KernelVariant(variant)
    if radius <= 1.0:
        raise ConfigError(f"contour radius must exceed 1, got {radius}")
    if nodes < 2:
        raise ConfigError(f"need at least 2 quadrature nodes, got {nodes}")
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    zs = radius * np.exp(1j * theta)
    kernel = kernel_eval(zs[:, None], zs[None, :], variant)
    step = 2.0 * math.pi / nodes
    left = f(zs) * (1j * zs) * step
    right = f.conjugate()(zs) * (1j * zs) * step
    value = -(left @ kernel @ right) / (4.0 * math.pi**2)
    return complex(value)


@dataclass(frozen=True)
class VarianceReport:
    """Closed form next to both kernel quadratures and their gaps.

    ``radius`` and ``nodes`` are the quadrature settings of every entry
    in ``quadrature``; ``discrepancy`` holds ``|quadrature - closed_form|``
    per kernel, and the diagonal one is the quadrature's own error.
    """

    f: Polynomial
    closed_form: float
    radius: float
    nodes: int
    quadrature: dict[str, complex]
    discrepancy: dict[str, float]


def variance_report(
    f: Polynomial, radius: float = 1.5, nodes: int = 256
) -> VarianceReport:
    """Evaluate the closed form and both kernel quadratures for one f."""
    closed = closed_form_variance(f)
    quad = {
        v.value: contour_variance(f, v, radius, nodes)
        for v in (KernelVariant.DIAGONAL, KernelVariant.FULL)
    }
    gap = {tag: abs(value - closed) for tag, value in quad.items()}
    return VarianceReport(f, closed, radius, nodes, quad, gap)


def resolvent_series_check(
    k_max: int,
    z: complex,
    eta_bar: complex,
    variant: KernelVariant = KernelVariant.FULL,
) -> complex:
    """Partial sum of the trace-power series that assembles the kernel.

    DIAGONAL: ``2 sum_{k<=K} k u^(-k-1)`` with ``u = z * etabar``.
    FULL adds ``4 sum_{even k<=K} u^(-k-1)`` and
    ``4 sum_{k != l <= K} z^(-k-1) etabar^(-l-1)``.

    Requires ``|z| > 1`` and ``|etabar| > 1``; converges to
    ``kernel_eval(z, etabar, variant)`` geometrically as K grows.
    """
    variant = KernelVariant(variant)
    if k_max < 2:
        raise ValueError(f"need k_max >= 2, got {k_max}")
    z = complex(z)
    eta_bar = complex(eta_bar)
    if abs(z) <= 1.0 or abs(eta_bar) <= 1.0:
        raise ValueError("series expansion requires |z| > 1 and |etabar| > 1")
    ks = np.arange(1, k_max + 1)
    u = z * eta_bar
    total = 2.0 * np.sum(ks * u ** (-ks - 1.0))
    if variant is KernelVariant.DIAGONAL:
        return complex(total)
    evens = ks[ks % 2 == 0]
    total += 4.0 * np.sum(u ** (-evens - 1.0))
    zpow = z ** (-ks - 1.0)
    epow = eta_bar ** (-ks - 1.0)
    total += 4.0 * (np.sum(zpow) * np.sum(epow) - np.sum(zpow * epow))
    return complex(total)
