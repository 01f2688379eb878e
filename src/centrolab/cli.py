"""Batch command-line front end.

Commands: ``sample | spectrum | clt | moments | oracle | variance``.
Each setting is declared once, in ``SETTINGS``; ``_COMMANDS`` names the
keys each command reads, and a command takes ``--config`` plus one
``--<key>`` flag per key it reads.  A call naming a known command builds
only that command's parser, so its fixed cost does not grow with the
number of commands; top-level help and usage errors build them all.  A
config file is flat ``key = value`` text ('#' starts a comment) that may
set any known key, so one file can serve several commands; flags
override it.  File and flag values pass the same parse and check.  Every
command is deterministic given its configuration (the
``runtime_seconds`` report field excluded).

Exit codes: 0 ok, 1 config or usage (a contour radius whose nodes hit a
kernel pole, and a test function whose samples are all equal, included),
2 I/O, 3 solver, 4 enumeration budget.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

import numpy as np

from . import io
from .centro import DISTRIBUTIONS, assert_centrosymmetric, sample_centro, weaver_blocks
from .eig import Spectrum, spectra, spectral_radial_cdf, trace_power
from .errors import (
    BudgetExceededError,
    ConfigError,
    DiagnosticError,
    SingularityError,
    SolverConvergenceError,
)
from .fluctuation import moment_suite, run_clt
from .oracle import DEFAULT_TERM_BUDGET, convergence_table
from .poly import Polynomial
from .variance import variance_report

__all__ = ["SETTINGS", "main", "parse_config_file"]

RADIAL_GRID = (0.25, 0.5, 0.75, 1.0, 1.05)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_SOLVER = 3
EXIT_BUDGET = 4


class Setting(NamedTuple):
    """One configuration key: how its text is parsed, its default, its check and help."""

    parse: Callable[[str], Any]
    default: Any
    check: Callable[[Any], bool]
    help: str


def _list(item: Callable[[str], Any]) -> Callable[[str], list]:
    return lambda text: [item(v) for v in text.split(",") if v.strip()]


def _positive_entries(values: list[int]) -> bool:
    return min(values, default=1) >= 1


SETTINGS = {
    "n": Setting(int, 1000, lambda v: v >= 1, "matrix order, >= 1"),
    "trials": Setting(
        int, None, lambda v: v >= 2, "Monte Carlo trials, >= 2; default: clt 750, moments 2000"
    ),
    "kmax": Setting(int, 4, lambda v: v >= 2, "largest trace power, >= 2"),
    "dist": Setting(str, "gaussian", DISTRIBUTIONS.__contains__, "entries: gaussian or uniform"),
    "seed": Setting(int, 1, lambda v: 0 <= v < 2**64, "master seed, 0 <= seed < 2**64"),
    "f": Setting(
        _list(float), None, lambda v: all(map(math.isfinite, v)), "finite coefficients c0,...,cd"
    ),
    "radius": Setting(float, 1.5, lambda v: 1.0 < v < math.inf, "contour radius, finite, > 1"),
    "nodes": Setting(int, 256, lambda v: v >= 2, "quadrature nodes, >= 2"),
    "threads": Setting(
        int,
        None,
        lambda v: v >= 1,
        "worker threads, >= 1, capped at one per usable CPU and per trial stack; default 1",
    ),
    "n_list": Setting(_list(int), None, _positive_entries, "orders n1,n2,... >= 1; default: n"),
    "k_list": Setting(_list(int), None, _positive_entries, "powers k1,... >= 1; default: 2..kmax"),
    "l_list": Setting(_list(int), None, _positive_entries, "double-chain powers l1,... >= 1"),
    "budget": Setting(
        int,
        DEFAULT_TERM_BUDGET,
        lambda v: 1 <= v < 2**63,
        "orbit representatives per grid point, counted before pruning "
        "(an upper bound on the rows evaluated), 1 <= budget < 2**63",
    ),
    "out": Setting(str, ".", lambda v: "\0" not in v, "output directory"),
}


def _value(key: str, text: str):
    """Parse and check one setting; file and flag values both pass through here."""
    setting = SETTINGS[key]
    try:
        value = setting.parse(text)
        ok = setting.check(value)
    except ValueError:
        ok = False
    if not ok:
        raise ConfigError(f"bad value for {key!r}: {text!r} ({setting.help})")
    return value


def parse_config_file(path) -> dict:
    """Parse a flat ``key = value`` file; unknown keys and bad values are rejected."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise ConfigError(f"cannot read config file {str(path)!r}: {exc}") from exc
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _value(key, value.strip())
    return values


def _polynomial(cfg: SimpleNamespace) -> Polynomial:
    if not cfg.f:
        raise ConfigError("a test polynomial is required (--f c0,c1,...,cd)")
    try:
        return Polynomial(cfg.f)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _out_dir(cfg: SimpleNamespace) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_sample(cfg: SimpleNamespace) -> int:
    """Draw one matrix and write it as CSV."""
    m = sample_centro(cfg.n, cfg.dist, cfg.seed)
    path = io.write_matrix_csv(
        _out_dir(cfg) / f"matrix_n{cfg.n}_{cfg.dist}_seed{cfg.seed}.csv", m
    )
    ok = assert_centrosymmetric(m, tol=0.0)
    print(f"{path} centrosymmetric={ok}")
    return EXIT_OK


def cmd_spectrum(cfg: SimpleNamespace) -> int:
    """Eigenvalues of one draw, solved as its two Weaver blocks, plus radial summary."""
    m = sample_centro(cfg.n, cfg.dist, cfg.seed)
    blocks = weaver_blocks(m)
    plus, minus = spectra([blocks.plus, blocks.minus])
    spec = Spectrum(
        values=np.concatenate([plus.values, minus.values]),
        iterations=plus.iterations + minus.iterations,
        converged=plus.converged and minus.converged,
        exceptional_shifts=plus.exceptional_shifts + minus.exceptional_shifts,
    )
    out = _out_dir(cfg)
    csv_path = io.write_spectrum_csv(
        out / f"spectrum_n{cfg.n}_{cfg.dist}_seed{cfg.seed}.csv", spec
    )
    cdf = spectral_radial_cdf(spec, RADIAL_GRID)
    # two-route check on the full matrix, independent of the split; an
    # eigenvalue or a power past the double range leaves an inf or NaN residual
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = {
            str(k): abs(np.sum(spec.values**k) - trace_power(m, k)) for k in (1, 2, 3)
        }
    payload = {
        "n": cfg.n,
        "dist": cfg.dist,
        "seed": cfg.seed,
        "converged": spec.converged,
        "iterations": spec.iterations,
        "exceptional_shifts": spec.exceptional_shifts,
        "radial_cdf": {str(r): float(c) for r, c in zip(RADIAL_GRID, cdf)},
        "trace_residuals": residuals,
    }
    json_path = io.write_json(
        out / f"radial_n{cfg.n}_{cfg.dist}_seed{cfg.seed}.json", payload
    )
    print(f"{csv_path} {json_path}")
    if not spec.converged:
        if np.isfinite(spec.values).all():
            cause = f"eigensolver did not converge after {spec.iterations} sweeps"
        else:
            cause = "an eigenvalue overflows the double range"
        raise SolverConvergenceError(f"{cause}; partial output written to {csv_path}")
    return EXIT_OK


def cmd_clt(cfg: SimpleNamespace) -> int:
    """Monte Carlo fluctuation run with variance and KS report."""
    f = _polynomial(cfg)
    trials = 750 if cfg.trials is None else cfg.trials
    report = run_clt(cfg.n, trials, f, cfg.dist, cfg.seed, cfg.threads)
    out = _out_dir(cfg)
    payload = {
        "n": report.n,
        "trials": report.trials,
        "dist": report.dist,
        "seed": report.seed,
        "f": f.coefficient_list(),
        "empirical_variance": report.empirical_variance,
        "theoretical_variance": report.theoretical_variance,
        "ks": report.ks_statistic,
        "runtime_seconds": report.runtime_seconds,
    }
    stem = f"clt_n{cfg.n}_{cfg.dist}_seed{cfg.seed}"
    json_path = io.write_json(out / f"{stem}.json", payload)
    hist_path = io.write_histogram_csv(out / f"{stem}_hist.csv", report.samples)
    print(f"{json_path} {hist_path}")
    return EXIT_OK


def cmd_moments(cfg: SimpleNamespace) -> int:
    """Monte Carlo trace-moment estimates against targets."""
    trials = 2000 if cfg.trials is None else cfg.trials
    report = moment_suite(cfg.n, trials, cfg.kmax, cfg.dist, cfg.seed, cfg.threads)
    rows = []
    for e in report.entries:
        rows.append(
            {
                "k": e.k,
                "l": e.l,
                "estimate": e.estimate,
                "standard_error": e.standard_error,
                "target": e.target,
                "z_score": e.z_score,
                "flag": "PASS" if abs(e.z_score) <= 4.0 else "FAIL",
            }
        )
    payload = {
        "n": report.n,
        "trials": report.trials,
        "kmax": report.k_max,
        "dist": report.dist,
        "seed": report.seed,
        "rows": rows,
    }
    path = io.write_json(
        _out_dir(cfg) / f"moments_n{cfg.n}_{cfg.dist}_seed{cfg.seed}.json", payload
    )
    print(path)
    return EXIT_OK


def cmd_oracle(cfg: SimpleNamespace) -> int:
    """Exact chain-expectation table by enumeration."""
    n_list = cfg.n_list if cfg.n_list else [cfg.n]
    k_list = cfg.k_list if cfg.k_list else list(range(2, cfg.kmax + 1))
    l_list = cfg.l_list if cfg.l_list else []
    rows = convergence_table(k_list, l_list, n_list, cfg.budget)
    path = io.write_chain_table_csv(_out_dir(cfg) / "oracle_table.csv", rows)
    print(path)
    return EXIT_OK


def cmd_variance(cfg: SimpleNamespace) -> int:
    """Closed form and contour quadratures of the variance."""
    f = _polynomial(cfg)
    report = variance_report(f, cfg.radius, cfg.nodes)
    payload = {
        "f": f.coefficient_list(),
        "closed_form": report.closed_form,
        "radius": report.radius,
        "nodes": report.nodes,
        "quadrature": {
            tag: {"value_re": value.real, "value_im": value.imag}
            for tag, value in report.quadrature.items()
        },
        "discrepancy": report.discrepancy,
    }
    path = io.write_json(_out_dir(cfg) / "variance_report.json", payload)
    print(path)
    return EXIT_OK


_COMMANDS = {  # name: (handler, the keys it reads); the handler's docstring is its help
    "sample": (cmd_sample, ("n", "dist", "seed", "out")),
    "spectrum": (cmd_spectrum, ("n", "dist", "seed", "out")),
    "clt": (cmd_clt, ("n", "trials", "f", "dist", "seed", "threads", "out")),
    "moments": (cmd_moments, ("n", "trials", "kmax", "dist", "seed", "threads", "out")),
    "oracle": (cmd_oracle, ("n", "kmax", "n_list", "k_list", "l_list", "budget", "out")),
    "variance": (cmd_variance, ("f", "radius", "nodes", "out")),
}


class _Parser(argparse.ArgumentParser):
    """Raises ``ConfigError`` on a usage error instead of exiting with status 2."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser(names) -> argparse.ArgumentParser:
    """The parser with one subparser for each command in ``names``."""
    parser = _Parser(
        prog="centrolab",
        description="Centrosymmetric random-matrix experiments: sampling, "
        "spectra, trace moments, fluctuation statistics, and limiting variance.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        run, keys = _COMMANDS[name]
        # allow_abbrev=False, or ``variance --n 5`` would set --nodes
        p = sub.add_parser(
            name, help=run.__doc__, allow_abbrev=False, argument_default=argparse.SUPPRESS
        )
        p.add_argument("--config", help="flat key = value file; may set any key")
        for key in keys:
            p.add_argument(f"--{key}", help=SETTINGS[key].help)
    return parser


def _configure(argv) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace]:
    """The command's handler and its settings: defaults, then the config file, then flags.

    The namespace holds exactly the keys the command reads.  ``--help``
    exits; every other bad input raises ``ConfigError``.  A known command
    builds only its own parser; help, a missing command and an unknown
    one build them all, for the usage, help and error text that list them.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    flags = vars(_build_parser(names).parse_args(argv))
    run, keys = _COMMANDS[flags.pop("command")]
    values = parse_config_file(flags.pop("config")) if "config" in flags else {}
    values.update((key, _value(key, text)) for key, text in flags.items())
    return run, SimpleNamespace(**{k: values.get(k, SETTINGS[k].default) for k in keys})


def main(argv=None) -> int:
    try:
        run, cfg = _configure(argv)
        return run(cfg)
    except (ConfigError, SingularityError, DiagnosticError) as exc:  # pole hit, equal samples
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SolverConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
