"""Benchmark of the centrolab CLI: end-to-end timings and a traced per-layer run.

Usage, from the root of a checkout::

    python3 bench/run.py --workload clt-n1000 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads are defined in ``bench/workloads.py``; ``BENCHMARK.json``
lists them with the metric names and units.  Each workload runs in a
fresh process with one BLAS thread (``OPENBLAS_NUM_THREADS`` and
friends) and the worker count the workload states, never more than the
usable CPUs.  Set-up time is the median over several fresh processes,
from launch until centrolab is imported and the first BLAS product has
run.  ``wall_ref_s`` is the median operation wall time scaled to the
host's reference speed, which calibration loops timed around each
operation measure (see ``bench/worker.py``); the raw ``wall_s`` is
printed beside it.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics; both print a readable summary with quartiles and sample counts,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Full results, with the run manifest, go to
``.bench_out/``.  An operation fails on a nonzero exit code, an
unconverged spectrum or a failed check; ``fail_ratio`` is
``failed / attempted`` and the gated ``ok_ratio`` is ``1 - fail_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5  # plus the workload process itself
TIMEOUT_S = 170.0

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def launch(args: list[str], env: dict, deadline: float) -> tuple[float, dict, dict | None]:
    """Start the workload process; return (seconds to ready, ready line, result)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not first:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    lines = [json.loads(line) for line in [first, *rest.splitlines()] if line.strip()]
    results = [line for line in lines if line["event"] == "result"]
    return ready_s, lines[0], results[-1] if results else None


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool,
                 spec: dict, deadline: float) -> tuple[dict, list[str]]:
    """One workload: set-up probes, then the workload process; (result, summary)."""
    wl = WORKLOADS[name]
    workers = min(wl.workers, len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", CENTROLAB_THREADS=str(workers))
    setup, ready = [], []
    for _ in range(SETUP_PROBES):
        ready_s, info, _ = launch(["--probe"], env, deadline)
        setup.append(ready_s)
        ready.append(info)
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--tiny"] if tiny else [])
    ready_s, info, res = launch(args, env, deadline)
    if res is None:
        raise BenchError(f"{name}: workload process printed no result")
    setup.append(ready_s)
    ready.append(info)

    attempted = len(res["ops"])
    failed = sum(1 for op in res["ops"] if op["failures"])
    samples = {
        "setup_s": setup,
        "wall_ref_s": res["wall_ref"],
        "peak_rss_mb": [res["peak_rss_mb"]],
        "ok_ratio": [1.0 - failed / attempted],
    }
    if trace:
        values = dict(res["layers"])
        values["setup.import_s"] = statistics.median(r["import_s"] for r in ready)
        values["setup.blas_warm_s"] = statistics.median(r["blas_warm_s"] for r in ready)
        listed = spec["per_layer"]
    else:
        values = {key: statistics.median(v) for key, v in samples.items()}
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    res["manifest"].update(commit=git_commit(), seed=seed, workload=name,
                           seconds=seconds, trace=trace, tiny=tiny)
    summary = [f"# {name}  seed={seed}  seconds={seconds}  trace={trace}  "
               f"workers={workers}  blas_threads=1  ops={attempted}"]
    if trace:
        summary += [f"  {k:28s} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
        total = sum(res["self_s"].values())
        summary.append("  self time by layer (traced ops):")
        summary += [f"    {k:32s} {v:9.4f} s  {v / total:6.1%}"
                    for k, v in sorted(res["self_s"].items(), key=lambda kv: -kv[1])]
    else:
        for key, vals in samples.items():
            q1, q2, q3 = quartiles(vals)
            summary.append(f"  {key:12s} {q2:.6g} {metrics[key]['unit']}  "
                           f"q1={q1:.6g} q3={q3:.6g}  samples={len(vals)}")
        calib_ms = [1e3 * sum(c[k] for k in WORKLOADS[name].calib) for c in res["calib"]]
        for key, vals, unit in (("wall_s", res["wall"], "s"), ("calib_ms", calib_ms, "ms")):
            q1, q2, q3 = quartiles(vals)
            summary.append(f"  {key:12s} {q2:.6g} {unit}  q1={q1:.6g} q3={q3:.6g}  "
                           f"samples={len(vals)}  (not gated)")
        summary.append(f"  fail_ratio   {failed / attempted:.6g}  ({failed}/{attempted})")
    for op in res["ops"]:
        if op["failures"]:
            summary.append(f"  FAILED {op['tag']}{op['index']} seed={op['seed']}: {op['failures']}")
    summary.append("# manifest " + json.dumps(res["manifest"], sort_keys=True))

    OUT.mkdir(exist_ok=True)
    detail = {"samples": samples, "metrics": metrics, "setup_ready": ready, **res}
    (OUT / f"result_{name}_seed{seed}_trace{trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="test-size inputs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "centrolab" / "__init__.py").is_file():
        print(f"bench: no centrolab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.perf_counter() + TIMEOUT_S * len(names)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result, summary = run_workload(name, args.seed, args.seconds, args.trace,
                                           args.tiny, spec, deadline)
            print("\n".join(summary), flush=True)
            if len(names) == 1:
                combined = result
                break
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(
                {f"{name}.{k}": v for k, v in result["metrics"].items()})
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
