"""Numerical laboratory for eigenvalue fluctuations of centrosymmetric matrices.

Capabilities: ensemble sampling, the Weaver orthogonal block split, a
self-contained dense nonsymmetric eigensolver, exact Gaussian chain
expectations by enumeration, Monte Carlo fluctuation statistics, and
the limiting variance both in closed form and by contour quadrature.
"""

from .centro import (
    DISTRIBUTIONS,
    CentroMatrix,
    EntryClass,
    WeaverBlocks,
    assert_centrosymmetric,
    class_count,
    counter_identity,
    entry_class,
    sample_centro,
    sample_centro_batch,
    weaver_blocks,
    weaver_orthogonal,
)
from .eig import (
    Spectrum,
    balance,
    eigenvalues,
    hessenberg,
    spectral_radial_cdf,
    trace_power,
    trace_powers,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    DiagnosticError,
    SingularityError,
    SolverConvergenceError,
)
from .fluctuation import (
    CltReport,
    MomentEntry,
    MomentReport,
    ks_statistic,
    les_analytic,
    les_polynomial,
    moment_suite,
    moment_target,
    run_clt,
    trial_seed,
)
from .oracle import (
    DEFAULT_TERM_BUDGET,
    ChainExpectation,
    convergence_table,
    gaussian_moment,
    oracle_double_chain,
    oracle_single_chain,
)
from .poly import Polynomial
from .variance import (
    KernelVariant,
    QuadratureResult,
    VarianceReport,
    closed_form_variance,
    contour_variance,
    kernel_eval,
    resolvent_series_check,
    variance_report,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CentroMatrix",
    "ChainExpectation",
    "CltReport",
    "ConfigError",
    "DEFAULT_TERM_BUDGET",
    "DISTRIBUTIONS",
    "DiagnosticError",
    "EntryClass",
    "KernelVariant",
    "MomentEntry",
    "MomentReport",
    "Polynomial",
    "QuadratureResult",
    "SingularityError",
    "SolverConvergenceError",
    "Spectrum",
    "VarianceReport",
    "WeaverBlocks",
    "assert_centrosymmetric",
    "balance",
    "class_count",
    "closed_form_variance",
    "contour_variance",
    "convergence_table",
    "counter_identity",
    "eigenvalues",
    "entry_class",
    "gaussian_moment",
    "hessenberg",
    "kernel_eval",
    "ks_statistic",
    "les_analytic",
    "les_polynomial",
    "moment_suite",
    "moment_target",
    "oracle_double_chain",
    "oracle_single_chain",
    "resolvent_series_check",
    "run_clt",
    "sample_centro",
    "sample_centro_batch",
    "spectral_radial_cdf",
    "trace_power",
    "trace_powers",
    "trial_seed",
    "variance_report",
    "weaver_blocks",
    "weaver_orthogonal",
]
