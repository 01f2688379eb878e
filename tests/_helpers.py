"""Shared test utilities."""

import json

import numpy as np
from scipy.optimize import linear_sum_assignment


def multiset_gap(a, b) -> float:
    """Largest pairwise distance under the minimal-cost matching of two
    equal-size multisets of complex numbers."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert a.size == b.size
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def loads_strict(text: str):
    """``json.loads`` that fails on the tokens ``NaN``, ``Infinity`` and
    ``-Infinity``, which strict JSON does not have."""

    def refuse(token):
        raise AssertionError(f"non-strict JSON token {token}")

    return json.loads(text, parse_constant=refuse)
