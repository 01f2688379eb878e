"""File formats: matrix/spectrum/table/histogram CSV and report JSON.

All numeric text uses 17 significant digits so doubles round-trip
exactly and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .eig import Spectrum
from .oracle import ChainExpectation

__all__ = [
    "fmt",
    "read_matrix_csv",
    "write_chain_table_csv",
    "write_histogram_csv",
    "write_json",
    "write_matrix_csv",
    "write_spectrum_csv",
]


def fmt(value: float) -> str:
    """17-significant-digit decimal text (round-trip exact for doubles)."""
    return format(float(value), ".17g")


def _write_lines(path, lines) -> Path:
    """Write ``lines`` as text, one per line with a trailing newline."""
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_matrix_csv(path, mat) -> Path:
    """Matrix CSV: first line ``n=<int>``, then n rows of n comma-separated values."""
    a = np.asarray(mat, dtype=float)
    return _write_lines(path, [f"n={a.shape[0]}", *(",".join(map(fmt, row)) for row in a)])


def read_matrix_csv(path) -> np.ndarray:
    """Parse a matrix CSV written by ``write_matrix_csv``."""
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].strip()
    if not header.startswith("n="):
        raise ValueError(f"matrix CSV must start with 'n=<int>', got {header!r}")
    n = int(header[2:])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows after the header, got {len(lines) - 1}")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    a = np.array(rows, dtype=float)
    if a.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {a.shape}")
    return a


def write_spectrum_csv(path, spec: Spectrum) -> Path:
    """Spectrum CSV: header ``re,im`` then one row per eigenvalue."""
    return _write_lines(path, ["re,im", *(f"{fmt(v.real)},{fmt(v.imag)}" for v in spec.values)])


def write_chain_table_csv(path, rows: list[ChainExpectation]) -> Path:
    """Chain-expectation CSV: header ``n,k,l,value,terms``; l empty for singles."""
    lines = ["n,k,l,value,terms"]
    for r in rows:
        l_text = "" if r.l is None else str(r.l)
        lines.append(f"{r.n},{r.k},{l_text},{fmt(r.value)},{r.terms_enumerated}")
    return _write_lines(path, lines)


def write_histogram_csv(path, samples) -> Path:
    """Histogram CSV with Freedman-Diaconis bins: ``bin_left,bin_right,count``.

    numpy's ``bins="fd"`` count, ``ceil(range / (2 IQR size**(-1/3)))`` or
    1 for a zero IQR, capped at one bin per sample: a heavy tail can ask
    for billions.  Below the cap the edges are numpy's own.
    """
    x = np.asarray(samples, dtype=float)
    bins = 1
    if x.size:
        q75, q25 = np.percentile(x, [75, 25])
        width = 2.0 * float(q75 - q25) * x.size ** (-1.0 / 3.0)
        if width:
            bins = math.ceil(min(float(x.max() - x.min()) / width, x.size))
    counts, edges = np.histogram(x, bins=bins)
    lines = ["bin_left,bin_right,count"]
    lines.extend(
        f"{fmt(edges[i])},{fmt(edges[i + 1])},{counts[i]}" for i in range(counts.size)
    )
    return _write_lines(path, lines)


def write_json(path, payload: dict) -> Path:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    return _write_lines(path, [json.dumps(payload, indent=2, sort_keys=True)])
