"""The benchmark's own tests: tiny runs end to end, and checks that catch corrupted output.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from centrolab import cli
import checks
from workloads import WORKLOADS, invocations

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, listed", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_reports_every_metric(trace, listed):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {
        f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[listed]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def run_op(name, tmp_path, seed=7):
    wl = WORKLOADS[name]
    params = wl.sized(tiny=True)
    for argv in invocations(wl, params, seed, 1, tmp_path):
        assert cli.main(argv) == 0
    return params, seed


def rewrite_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def test_clt_check_catches_wrong_variance_and_counts(tmp_path):
    params, seed = run_op("clt-n1000", tmp_path)
    assert checks.check_clt(tmp_path, params, seed, deep=True)[0] == []
    report = tmp_path / f"clt_n{params['n']}_gaussian_seed{seed}.json"
    rewrite_json(report, lambda p: p.update(theoretical_variance=163.5))
    assert checks.check_clt(tmp_path, params, seed)[0]
    rewrite_json(report, lambda p: p.update(theoretical_variance=164.0, trials=p["trials"] + 1))
    assert checks.check_clt(tmp_path, params, seed)[0]


def test_moments_check_catches_wrong_target_and_missing_row(tmp_path):
    params, seed = run_op("moments-n63", tmp_path)
    assert checks.check_moments(tmp_path, params, seed)[0] == []
    report = tmp_path / f"moments_n{params['n']}_uniform_seed{seed}.json"
    rewrite_json(report, lambda p: p["rows"][1].update(target=0.0))
    assert checks.check_moments(tmp_path, params, seed)[0]
    rewrite_json(report, lambda p: p["rows"].pop())
    assert checks.check_moments(tmp_path, params, seed)[0]


def test_spectrum_check_catches_perturbed_eigenvalue(tmp_path):
    params, seed = run_op("spectrum-n200", tmp_path)
    assert checks.check_spectrum(tmp_path, params, seed)[0] == []
    path = tmp_path / f"spectrum_n{params['n']}_gaussian_seed{seed}.csv"
    lines = path.read_text().splitlines()
    re, im = lines[3].split(",")
    lines[3] = f"{float(re) + 1e-6!r},{im}"
    path.write_text("\n".join(lines) + "\n")
    failures, _ = checks.check_spectrum(tmp_path, params, seed)
    assert any("LAPACK" in f for f in failures)


def test_spectrum_check_rejects_unconverged(tmp_path):
    params, seed = run_op("spectrum-n200", tmp_path)
    radial = tmp_path / f"radial_n{params['n']}_gaussian_seed{seed}.json"
    rewrite_json(radial, lambda p: p.update(converged=False))
    assert checks.check_spectrum(tmp_path, params, seed)[0] == ["eigensolver did not converge"]


@pytest.mark.parametrize("row, value", [(1, "1e-300"), (0, "2.5")])
def test_oracle_check_catches_odd_power_and_second_moment(tmp_path, row, value):
    # row 1 is k=3 at the first n (odd total power); row 0 is E Tr M^2
    params, seed = run_op("oracle-grid", tmp_path)
    assert checks.check_oracle(tmp_path, params, seed)[0] == []
    path = tmp_path / "oracle_table.csv"
    lines = path.read_text().splitlines()
    fields = lines[1 + row].split(",")
    fields[3] = value
    lines[1 + row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_oracle(tmp_path, params, seed)[0]
