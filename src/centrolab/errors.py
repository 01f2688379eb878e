"""Exception taxonomy shared across the package.

The command-line front end maps these onto its exit codes (config 1,
I/O 2, solver 3, enumeration budget 4); a kernel pole hit by a contour
the configuration asked for, and samples too degenerate for a statistic
(``DiagnosticError``), are config errors, exit 1.  Library callers catch
them like any other exception.
"""

__all__ = [
    "BudgetExceededError",
    "ConfigError",
    "DiagnosticError",
    "SingularityError",
    "SolverConvergenceError",
]


class ConfigError(ValueError):
    """Invalid run configuration or unsupported option."""


class BudgetExceededError(RuntimeError):
    """Exact enumeration would exceed the term budget."""


class SolverConvergenceError(RuntimeError):
    """Eigensolver failed to deflate within its sweep budget."""


class SingularityError(ValueError):
    """Kernel evaluated too close to one of its poles."""


class DiagnosticError(RuntimeError):
    """Input fails a precondition needed for a meaningful statistic."""
