"""Correctness checks on the files one operation wrote.

Each check returns ``(failures, stats)``: a list of failure messages,
empty when the output is right, and statistics that are recorded but
never gated (z-scores, KS distance, sweep counts).  No check depends on
the seed's luck: every gate is an exact identity, a closed form, or
agreement between two independent routes to the same number.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

import centrolab as cl
from workloads import F_COEFFS, F_VARIANCE

ROUTE_TOL = 1e-8  # relative agreement between two numerical routes


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_clt(out: Path, params: dict, seed: int, deep: bool = False):
    """``clt`` + ``variance`` outputs; ``deep`` adds one trial against LAPACK."""
    n, trials = params["n"], params["trials"]
    failures: list[str] = []
    report = json.loads((out / f"clt_n{n}_gaussian_seed{seed}.json").read_text())
    if (report["n"], report["trials"], report["seed"]) != (n, trials, seed):
        failures.append(f"clt report header {report['n'], report['trials'], report['seed']}")
    if not _finite(report["empirical_variance"], report["ks"]) or report["empirical_variance"] <= 0:
        failures.append(f"clt report not finite: {report['empirical_variance']}, {report['ks']}")
    if report["theoretical_variance"] != F_VARIANCE:
        failures.append(f"theoretical_variance {report['theoretical_variance']} != {F_VARIANCE}")
    hist = _read_csv(out / f"clt_n{n}_gaussian_seed{seed}_hist.csv")
    if sum(int(row["count"]) for row in hist) != trials:
        failures.append("histogram counts do not add up to the trial count")
    var = json.loads((out / "variance_report.json").read_text())
    if var["closed_form"] != F_VARIANCE:
        failures.append(f"variance closed_form {var['closed_form']} != {F_VARIANCE}")
    diag = var["quadrature"]["diagonal"]["value_re"]
    if not abs(diag - F_VARIANCE) <= ROUTE_TOL * F_VARIANCE:
        failures.append(f"diagonal-kernel quadrature {diag} != {F_VARIANCE}")
    stats = {"empirical_variance": report["empirical_variance"], "ks": report["ks"]}
    if deep:
        f = cl.Polynomial([float(c) for c in F_COEFFS.split(",")])
        m = cl.sample_centro(n, "gaussian", cl.trial_seed(seed, 0))
        trace_route = cl.les_polynomial(m, f)
        eig_route = float(np.sum(f(np.linalg.eigvals(m.entries))).real)
        stats["les_gap"] = abs(trace_route - eig_route)
        if not stats["les_gap"] <= ROUTE_TOL * n:
            failures.append(f"les_polynomial {trace_route} vs sum f(eigvals) {eig_route}")
    return failures, stats


def moment_constant(k: int, l: int | None) -> float:
    """Asymptotic trace-moment constant, written out independently of the library."""
    if l is None:
        return 2.0 if k % 2 == 0 else 0.0
    if k != l:
        return 4.0 if k % 2 == 0 and l % 2 == 0 else 0.0
    return 2.0 * k + 4.0 if k % 2 == 0 else 2.0 * k


def check_moments(out: Path, params: dict, seed: int, deep: bool = False):
    n, kmax = params["n"], params["kmax"]
    failures: list[str] = []
    report = json.loads((out / f"moments_n{n}_uniform_seed{seed}.json").read_text())
    rows = report["rows"]
    expected = [(k, None) for k in range(1, kmax + 1)]
    expected += [(k, l) for k in range(1, kmax + 1) for l in range(k, kmax + 1)]
    if [(r["k"], r["l"]) for r in rows] != expected:
        failures.append(f"moments rows {len(rows)}, expected {len(expected)} in order")
    for r in rows:
        if r["target"] != moment_constant(r["k"], r["l"]):
            failures.append(f"target for k={r['k']}, l={r['l']} is {r['target']}")
        if not _finite(r["estimate"], r["standard_error"]) or r["standard_error"] <= 0:
            failures.append(f"moment k={r['k']}, l={r['l']} not finite")
    z = [abs(r["z_score"]) for r in rows if _finite(r["z_score"])]
    return failures, {"max_abs_z": max(z, default=0.0)}


def read_spectrum(out: Path, n: int, seed: int) -> np.ndarray:
    rows = _read_csv(out / f"spectrum_n{n}_gaussian_seed{seed}.csv")
    return np.array([complex(float(r["re"]), float(r["im"])) for r in rows])


def spectrum_failures(values: np.ndarray, converged: bool, mat: np.ndarray) -> list[str]:
    """Solver output against LAPACK (a test reference only) and the trace route."""
    n = mat.shape[0]
    if not converged:
        return ["eigensolver did not converge"]
    if values.size != n:
        return [f"{values.size} eigenvalues for order {n}"]
    failures = []
    ref = np.linalg.eigvals(mat)
    rows, cols = linear_sum_assignment(np.abs(values[:, None] - ref[None, :]))
    gap = np.abs(values[rows] - ref[cols]) / np.maximum(1.0, np.abs(ref[cols]))
    if not gap.max() <= ROUTE_TOL:
        failures.append(f"eigenvalues differ from LAPACK by {gap.max():.3g}")
    for k in (1, 2, 3):
        power_sum = complex(np.sum(values**k))
        trace = cl.trace_power(mat, k)
        if not abs(power_sum - trace) <= ROUTE_TOL * n:
            failures.append(f"sum lambda^{k} = {power_sum} but Tr M^{k} = {trace}")
    return failures


def check_spectrum(out: Path, params: dict, seed: int, deep: bool = False):
    n = params["n"]
    radial = json.loads((out / f"radial_n{n}_gaussian_seed{seed}.json").read_text())
    values = read_spectrum(out, n, seed)
    mat = cl.sample_centro(n, "gaussian", seed).entries
    return spectrum_failures(values, radial["converged"], mat), {"sweeps": radial["iterations"]}


def oracle_failures(rows: list[dict], params: dict) -> list[str]:
    """Exact identities of the chain table: parity zeros and E Tr M^2."""
    expected = []
    for n in params["n_list"]:
        expected += [(n, k, None) for k in params["k_list"]]
        expected += [(n, k, l) for k in params["k_list"] for l in params["l_list"]]
    got = [(int(r["n"]), int(r["k"]), int(r["l"]) if r["l"] else None) for r in rows]
    if got != expected:
        return [f"oracle table has rows {got}, expected {expected}"]
    failures = []
    for (n, k, l), r in zip(got, rows):
        value = float(r["value"])
        power = k + (l or 0)
        if int(r["terms"]) != n**power:
            failures.append(f"n={n} k={k} l={l}: {r['terms']} terms, expected {n**power}")
        if power % 2 == 1 and value != 0.0:
            failures.append(f"n={n} k={k} l={l}: odd total power gives {value}, not 0")
        if l is None and k == 2:
            exact = (2 * n - n % 2) / n
            if not abs(value - exact) <= 1e-12:
                failures.append(f"n={n}: E Tr M^2 = {value}, expected {exact}")
    return failures


def check_oracle(out: Path, params: dict, seed: int, deep: bool = False):
    rows = _read_csv(out / "oracle_table.csv")
    return oracle_failures(rows, params), {"rows": len(rows)}


CHECKS = {
    "clt": check_clt,
    "moments": check_moments,
    "spectrum": check_spectrum,
    "oracle": check_oracle,
}
