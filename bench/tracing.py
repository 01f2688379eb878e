"""Spans around the calls the CLI makes into each centrolab layer.

The tracer wraps public functions where their caller looks them up
(``centrolab.cli.run_clt``, ``centrolab.fluctuation.sample_centro``,
``centrolab.eig.balance``, ...), so the program runs unchanged and only
the traced run pays for the wrappers.  Spans are kept in memory as
(id, parent, name, start, end, op, attrs) and written out at the end.
A layer's self time is its span time minus the union of its children.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path


def _order(mat) -> int:
    return getattr(mat, "entries", mat).shape[0]


def _bytes_written(args, kwargs, result) -> dict:
    return {"bytes": Path(result).stat().st_size}


def _chain(args, kwargs, result) -> dict:
    return {"n": result.n, "k": result.k, "l": result.l, "terms": result.terms_enumerated}


# (module, attribute, span name, attrs(args, kwargs, result) or None)
PATCHES = [
    ("centrolab.cli", "run_clt", "fluctuation.run_clt", None),
    ("centrolab.cli", "moment_suite", "fluctuation.moment_suite", None),
    ("centrolab.cli", "sample_centro", "centro.sample_centro", lambda a, k, r: {"n": r.n}),
    ("centrolab.cli", "eigenvalues", "eig.eigenvalues",
     lambda a, k, r: {"n": r.values.size, "sweeps": r.iterations, "converged": r.converged}),
    ("centrolab.cli", "spectral_radial_cdf", "eig.spectral_radial_cdf", None),
    ("centrolab.cli", "convergence_table", "oracle.convergence_table", None),
    ("centrolab.cli", "variance_report", "variance.variance_report", None),
    ("centrolab.fluctuation", "sample_centro", "centro.sample_centro",
     lambda a, k, r: {"n": r.n}),
    ("centrolab.fluctuation", "trace_powers", "eig.trace_powers",
     lambda a, k, r: {"n": _order(a[0]), "k": int(a[1])}),
    ("centrolab.fluctuation", "ks_statistic", "fluctuation.ks_statistic", None),
    ("centrolab.eig", "balance", "eig.balance", None),
    ("centrolab.eig", "hessenberg", "eig.hessenberg", None),
    ("centrolab.oracle", "oracle_single_chain", "oracle.single_chain", _chain),
    ("centrolab.oracle", "oracle_double_chain", "oracle.double_chain", _chain),
    ("centrolab.io", "write_json", "io.write", _bytes_written),
    ("centrolab.io", "write_histogram_csv", "io.write", _bytes_written),
    ("centrolab.io", "write_spectrum_csv", "io.write", _bytes_written),
    ("centrolab.io", "write_chain_table_csv", "io.write", _bytes_written),
]


class Tracer:
    """In-memory span recorder, safe to call from worker threads.

    A span opened on a worker thread with nothing open on that thread
    takes the innermost span open on the main thread as its parent (the
    ``run_clt`` call that owns the pool).
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.get_ident()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            sid = len(self.spans)
            record = {"id": sid, "parent": parent, "name": name, "op": self.op, "attrs": attrs}
            self.spans.append(record)
        stack.append(sid)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    record["attrs"] = attrs(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every function in ``PATCHES`` that exists; restore on exit."""
        saved = []
        try:
            for module_name, attr, name, attrs in PATCHES:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name, attrs))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _union(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _self_time(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: _dur(s) - _union(children.get(s["id"], [])) for s in spans}


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name."""
    own = _self_time(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + own[s["id"]]
    return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def layer_metrics(spans: list[dict], count_ops: int, workers: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced phase.

    Timings use every traced operation; counts use only the first
    ``count_ops`` operations, which every run executes on the same
    inputs, so they repeat exactly for a given seed.  A layer the
    workload never reaches reads 0.

    ``eig.trace_matmuls``, ``eig.trace_gflop`` and ``eig.trace_bytes``
    are computed, not counted: from each ``trace_powers`` call's order n
    and power k, assuming one product per extra power (2 n^3 flop and
    3 * 8 n^2 bytes each).  ``eig.trace_gflops`` divides that computed
    work by the measured time.
    """
    by: dict[str, list[dict]] = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)
    counted = {name: [s for s in group if s["op"] < count_ops] for name, group in by.items()}

    def durs(name):
        return [_dur(s) for s in by.get(name, [])]

    def per_op(name, key=None):
        group = counted.get(name, [])
        return sum(1 if key is None else s["attrs"][key] for s in group) / count_ops

    worker_time = sum(durs("bench.op")) * workers
    sample = durs("centro.sample_centro")
    trace = by.get("eig.trace_powers", [])
    m: dict[str, float] = {}

    m["centro.sample_ms_p50"] = 1e3 * _median(sample)
    m["centro.sample_ms_p90"] = 1e3 * _p90(sample)
    m["centro.sample_count"] = per_op("centro.sample_centro")
    m["centro.sample_share"] = sum(sample) / worker_time if worker_time else 0.0
    m["centro.weaver_ms"] = 1e3 * _median(durs("centro.weaver_blocks"))

    trace_s = [_dur(s) for s in trace]
    matmuls = [s["attrs"]["k"] - 1 for s in trace]  # one product per extra power
    gflop = [mm * 2.0 * s["attrs"]["n"] ** 3 / 1e9 for mm, s in zip(matmuls, trace)]
    m["eig.trace_powers_ms_p50"] = 1e3 * _median(trace_s)
    m["eig.trace_powers_ms_p90"] = 1e3 * _p90(trace_s)
    m["eig.trace_matmuls"] = _median(matmuls)
    m["eig.trace_gflop"] = _median(gflop)
    m["eig.trace_gflops"] = sum(gflop) / sum(trace_s) if trace_s else 0.0
    m["eig.trace_bytes"] = _median(
        [mm * 3 * 8 * s["attrs"]["n"] ** 2 for mm, s in zip(matmuls, trace)]
    )

    eig_calls = by.get("eig.eigenvalues", [])
    phases = {sid: {} for sid in (s["id"] for s in eig_calls)}
    for name in ("eig.balance", "eig.hessenberg"):
        for s in by.get(name, []):
            if s["parent"] in phases:
                phases[s["parent"]][name] = _dur(s)
    m["eig.balance_s"] = _median([p.get("eig.balance", 0.0) for p in phases.values()])
    m["eig.hessenberg_s"] = _median([p.get("eig.hessenberg", 0.0) for p in phases.values()])
    m["eig.qr_s"] = _median([_dur(s) - sum(phases[s["id"]].values()) for s in eig_calls])
    counted_eig = counted.get("eig.eigenvalues", [])
    sweeps = sum(s["attrs"]["sweeps"] for s in counted_eig)
    order = sum(s["attrs"]["n"] for s in counted_eig)
    m["eig.sweeps"] = sweeps / len(counted_eig) if counted_eig else 0.0
    m["eig.sweeps_per_eig"] = sweeps / order if order else 0.0
    m["eig.converged_ratio"] = (
        sum(s["attrs"]["converged"] for s in eig_calls) / len(eig_calls) if eig_calls else 0.0
    )

    runs = by.get("fluctuation.run_clt", []) + by.get("fluctuation.moment_suite", [])
    run_time = sum(_dur(s) for s in runs)
    run_ids = {s["id"] for s in runs}
    per_trial = sum(
        _dur(s)
        for name in ("centro.sample_centro", "eig.trace_powers")
        for s in by.get(name, [])
        if s["parent"] in run_ids
    )
    m["fluctuation.run_s"] = _median([_dur(s) for s in runs])
    m["fluctuation.overhead_share"] = 1.0 - per_trial / (run_time * workers) if runs else 0.0
    m["fluctuation.ks_ms"] = 1e3 * _median(durs("fluctuation.ks_statistic"))

    chains = counted.get("oracle.single_chain", []) + counted.get("oracle.double_chain", [])
    terms = sum(s["attrs"]["terms"] for s in chains)
    all_chains = by.get("oracle.single_chain", []) + by.get("oracle.double_chain", [])
    chain_time = sum(_dur(s) for s in all_chains)
    m["oracle.terms"] = terms / count_ops
    m["oracle.terms_per_s"] = (
        sum(s["attrs"]["terms"] for s in all_chains) / chain_time if chain_time else 0.0
    )
    odd = sum(
        s["attrs"]["terms"] for s in chains if (s["attrs"]["k"] + (s["attrs"]["l"] or 0)) % 2
    )
    double = sum(s["attrs"]["terms"] for s in counted.get("oracle.double_chain", []))
    m["oracle.odd_share"] = odd / terms if terms else 0.0
    m["oracle.double_share"] = double / terms if terms else 0.0

    m["variance.report_ms"] = 1e3 * _median(durs("variance.variance_report"))
    io_by_op: dict[int, float] = {}
    for s in by.get("io.write", []):
        io_by_op[s["op"]] = io_by_op.get(s["op"], 0.0) + _dur(s)
    m["io.write_ms"] = 1e3 * _median(list(io_by_op.values()))
    m["io.bytes"] = per_op("io.write", "bytes")

    own = _self_time(spans)
    m["cli.overhead_ms"] = 1e3 * _median([own[s["id"]] for s in by.get("cli.main", [])])
    m["trace.spans"] = sum(1 for s in spans if s["op"] < count_ops) / count_ops
    return m
