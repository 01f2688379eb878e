"""Workload process: set-up, timed CLI operations, traced pass and checks.

Started by ``run.py`` with the BLAS and worker thread counts already in
its environment.  It prints JSON lines on standard output: ``ready``
once centrolab is imported and the first BLAS product has run, then
``result`` at the end.  The CLI's own prints are captured so they do not
mix with these lines.

The host's speed drifts: on a shared 2-vCPU VM the same operation runs
up to 1.8x slower for tens of seconds to minutes at a time, longer than
a run.  So fixed calibration loops, the benchmark's own code, are timed
before and after every operation, and each operation's wall time is
also reported scaled to the host's reference speed (``wall_ref``):
``wall * sum(CALIB_REF_S[k]) / sum(calib[k])`` over the loops ``k``
whose kind of work matches the workload's hot path.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, invocations, op_seed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
MIN_OPS = 3  # every phase runs at least these, so counts over them repeat exactly
BLAS_WARM_N = 256
# Median seconds of each calibration loop over six minutes on the reference
# host (a 2.1 GHz Xeon vCPU, OpenBLAS on 1 thread): the unit of ``wall_ref``.
CALIB_REF_S = {"interp": 0.0099, "small": 0.0120, "blas": 0.0153, "stream": 0.0188}


def emit(event: str, **payload) -> None:
    sys.__stdout__.write(json.dumps({"event": event, **payload}) + "\n")
    sys.__stdout__.flush()


def set_up() -> dict:
    """Import centrolab from this checkout and run the first BLAS product."""
    t0 = time.perf_counter()
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy as np

    import centrolab

    t1 = time.perf_counter()
    if src not in Path(centrolab.__file__).resolve().parents:
        raise ImportError(f"centrolab imported from {centrolab.__file__}, not from {src}")
    a = np.random.default_rng(0).standard_normal((BLAS_WARM_N, BLAS_WARM_N))
    float((a @ a).sum())
    return {"import_s": t1 - t0, "blas_warm_s": time.perf_counter() - t1}


class Calibration:
    """Fixed loops of the kinds of work the workloads do.

    They call nothing in centrolab, so a change to the program does not
    move them; timed next to an operation, they measure the host's speed
    at that moment.  Each kind is timed on its own: ``interp`` is
    interpreter work, ``small`` tiny-array numpy calls, ``blas`` dense
    products and ``stream`` elementwise passes over arrays larger than
    the cache.  All four run every time, so each result file records how
    every kind of work drifted, not only the kinds the workload uses.
    """

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((384, 384))
        self.h = rng.standard_normal((64, 64))
        self.q = np.linalg.qr(rng.standard_normal((3, 3)))[0]  # orthogonal: h stays bounded
        self.digits = rng.integers(0, 8, size=(1 << 16, 7))
        self()

    def __call__(self) -> dict[str, float]:
        np, h, q = self.np, self.h, self.q
        t0 = time.perf_counter()
        s = 0
        for i in range(100_000):
            s += i * i % 7
        t1 = time.perf_counter()
        for k in range(4_000):
            r = k % 61
            h[r : r + 3] = q @ h[r : r + 3]
        t2 = time.perf_counter()
        for _ in range(6):
            self.a @ self.a
        t3 = time.perf_counter()
        for _ in range(2):
            srt = np.sort(self.digits, axis=1)
            run = np.ones(srt.shape[0], dtype=np.int64)
            for c in range(1, srt.shape[1]):
                run = np.where(srt[:, c] == srt[:, c - 1], run + 1, 1)
        t4 = time.perf_counter()
        return {"interp": t1 - t0, "small": t2 - t1, "blas": t3 - t2, "stream": t4 - t3}


def manifest(workers: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "CENTROLAB_THREADS")
        },
        "workers": workers,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


class Runner:
    """Runs the operations of one workload and keeps what the checks need."""

    def __init__(self, wl, params: dict, master_seed: int, out: Path) -> None:
        from centrolab import cli

        self.cli = cli
        self.wl = wl
        self.params = params
        self.master_seed = master_seed
        self.out = out
        self.sink = io.StringIO()
        self.calibrate = Calibration()

    def call(self, argv: list[str]) -> int:
        try:
            with contextlib.redirect_stdout(self.sink):
                return self.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an operation that raises counts as failed; keep measuring
            traceback.print_exc()
            return -1
        finally:
            self.sink.seek(0)
            self.sink.truncate()

    def op(self, tag: str, index: int, workers: int, tracer=None, params=None) -> dict:
        seed = op_seed(self.wl.name, self.master_seed, index)
        out = self.out / f"{tag}{index}"
        argvs = invocations(self.wl, params or self.params, seed, workers, out)
        if tracer is None:
            start = time.perf_counter()
            rcs = [self.call(argv) for argv in argvs]
            wall = time.perf_counter() - start
        else:
            tracer.op = index
            start = time.perf_counter()
            with tracer.span("bench.op"):
                rcs = []
                for argv in argvs:
                    with tracer.span("cli.main", command=argv[0]):
                        rcs.append(self.call(argv))
            wall = time.perf_counter() - start
            self.time_weaver(tracer, seed)
        return {"tag": tag, "index": index, "seed": seed, "wall": wall, "rcs": rcs, "out": out}

    def time_weaver(self, tracer, seed: int) -> None:
        """Cost of the Weaver split on a matrix of this workload's order."""
        if "n" not in self.params:
            return
        from centrolab import centro

        dist = "uniform" if self.wl.command == "moments" else "gaussian"
        m = centro.sample_centro(self.params["n"], dist, seed)
        with tracer.span("centro.weaver_blocks"):
            centro.weaver_blocks(m)

    def phase(self, tag: str, seconds: float, workers: int, tracer=None) -> list[dict]:
        """Operations 0, 1, ... until the next one would end after ``seconds``.

        The calibration loops run between operations; an operation's
        ``calib`` holds the mean time of each loop just before and just
        after it.
        """
        records: list[dict] = []
        start = time.perf_counter()
        before = self.calibrate()
        while len(records) < MIN_OPS or (
            time.perf_counter() - start + statistics.median(r["wall"] for r in records)
            <= seconds
        ):
            record = self.op(tag, len(records), workers, tracer)
            after = self.calibrate()
            record["calib"] = {k: (before[k] + after[k]) / 2.0 for k in before}
            ref = sum(CALIB_REF_S[k] for k in self.wl.calib)
            now = sum(record["calib"][k] for k in self.wl.calib)
            record["wall_ref"] = record["wall"] * ref / now
            before = after
            records.append(record)
        return records

    def check(self, record: dict, deep: bool) -> tuple[list[str], dict]:
        from checks import CHECKS

        if any(rc != 0 for rc in record["rcs"]):
            return [f"exit codes {record['rcs']}"], {}
        try:
            return CHECKS[self.wl.command](record["out"], self.params, record["seed"], deep)
        except Exception as exc:  # unreadable output fails the operation
            return [f"check raised {exc!r}"], {}


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    params = wl.sized(args.tiny)
    workers = int(os.environ["CENTROLAB_THREADS"])
    runner = Runner(wl, params, args.seed, OUT / f"{wl.name}-{os.getpid()}")
    result: dict = {"manifest": manifest(workers)}
    try:
        runner.op("warm", 0, workers, params={**params, **wl.warm})
        if not args.trace:
            records = runner.phase("timed", args.seconds, workers)
            for key in ("wall", "wall_ref", "calib"):
                result[key] = [r[key] for r in records]
        else:
            records = run_traced(runner, wl.name, args, workers, result)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ops = []
        for r in records:
            failures, stats = runner.check(r, deep=r is records[0])
            kept = ("tag", "index", "seed", "wall", "wall_ref", "calib", "rcs")
            ops.append({k: r[k] for k in kept} | {"failures": failures, "stats": stats})
        result["ops"] = ops
    finally:
        shutil.rmtree(runner.out, ignore_errors=True)
    return result


def run_traced(runner: Runner, name: str, args, workers: int, result: dict) -> list[dict]:
    """Untraced, single-worker (when the workload uses more) and traced phases.

    All phases start at operation 0, so they run the same inputs and
    their medians compare directly.
    """
    from tracing import Tracer, layer_metrics, self_times

    share = args.seconds / (3 if workers > 1 else 2)
    plain = runner.phase("plain", share, workers)
    single = runner.phase("single", share, 1) if workers > 1 else []
    tracer = Tracer()
    with tracer.installed():
        traced = runner.phase("traced", share, workers, tracer)

    def med(records):
        return statistics.median(r["wall_ref"] for r in records)

    layers = layer_metrics(tracer.spans, MIN_OPS, workers)
    layers["fluctuation.parallel_eff"] = med(single) / (workers * med(plain)) if single else 0.0
    layers["trace.overhead_share"] = med(traced) / med(plain) - 1.0
    result["layers"] = layers
    result["self_s"] = self_times(tracer.spans)
    for key in ("wall", "wall_ref", "calib"):
        result[key] = [r[key] for r in plain]
    result["wall_single"] = [r["wall"] for r in single]
    result["wall_traced"] = [r["wall"] for r in traced]
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans_{name}_seed{args.seed}.json"
    spans_path.write_text(json.dumps(tracer.spans))
    result["spans_file"] = str(spans_path.relative_to(ROOT))
    return plain + single + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", action="store_true", help="set up, report, exit")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    emit("ready", **set_up())
    if not args.probe:
        emit("result", **run(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
