"""The benchmark's workloads: which CLI invocations make up one operation.

An operation is what a user runs to get one checked answer.  Its inputs
come from the master seed and the operation index only, so the same
seed gives the same inputs on any machine.  The table imports neither
numpy nor centrolab, so the launcher can read it cheaply.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

F_COEFFS = "0,0,1,0,0,4"  # f(z) = z^2 + 4 z^5, limiting variance 2*2*1 + 2*5*16 = 164
F_VARIANCE = 164.0


@dataclass(frozen=True)
class Workload:
    """One workload: a CLI command at a fixed size, with its worker count.

    Why each gated workload exists is recorded in ``BENCHMARK.json``.

    ``params`` are the full-size inputs and ``tiny`` overrides them for
    the benchmark's own tests; ``warm`` overrides them for the untimed
    warm-up operation that lets allocator and import caches settle.
    ``calib`` names the calibration loops (``worker.Calibration``) whose
    kind of work matches the workload's hot path; they scale its wall
    time to the host's reference speed.
    """

    name: str
    command: str
    workers: int
    params: dict
    calib: tuple[str, ...]
    tiny: dict = field(default_factory=dict)
    warm: dict = field(default_factory=dict)

    def sized(self, tiny: bool) -> dict:
        return {**self.params, **self.tiny} if tiny else dict(self.params)


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="clt-n1000",
            command="clt",
            workers=2,
            params={"n": 1000, "trials": 12},
            calib=("blas",),  # trace_powers: n=1000 products
            tiny={"n": 24, "trials": 4},
            warm={"trials": 2},
        ),
        # Many small odd-order uniform-entry trials: sampling and per-call
        # overhead outweigh the 63x63 products.
        Workload(
            name="moments-n63",
            command="moments",
            workers=1,
            params={"n": 63, "trials": 10000, "kmax": 6},
            calib=("interp", "small"),  # per-trial calls on 63x63 arrays
            tiny={"n": 9, "trials": 40},
        ),
        # n=200 rather than 400: operations of about 1 s rather than 4 s,
        # some 17 in a 20-s run, and the calibration loops around each one
        # follow the host's speed more closely.
        Workload(
            name="spectrum-n200",
            command="spectrum",
            workers=1,
            params={"n": 200},
            calib=("interp", "small"),  # QR sweeps: bytecode and 3-row slices
            tiny={"n": 24},
            warm={"n": 60},
        ),
        # n up to 7 rather than 8, for the same reason: about 0.9 s rather
        # than 2.3 s per operation.
        Workload(
            name="oracle-grid",
            command="oracle",
            workers=1,
            params={"n_list": [5, 6, 7], "k_list": [2, 3, 4], "l_list": [2, 3]},
            calib=("stream",),  # sorts and passes over 65536-row blocks
            tiny={"n_list": [2, 3], "k_list": [2, 3], "l_list": [2]},
            warm={"n_list": [3], "k_list": [2, 3], "l_list": [2]},
        ),
    ]
}


def op_seed(workload: str, master_seed: int, index: int) -> int:
    """Seed of operation ``index``: a 32-bit value hashed from the master seed.

    Hashing rather than ``master + index`` keeps the per-trial seeds of
    different operations apart (trial seeds are derived by XOR with the
    trial index).
    """
    return random.Random(f"{workload}:{master_seed}:{index}").getrandbits(32)


def invocations(
    wl: Workload, params: dict, seed: int, workers: int, out: Path
) -> list[list[str]]:
    """The ``centrolab`` argument lists that make up one operation.

    ``oracle`` reads its grid from a config file, which this writes into
    ``out`` (input preparation, outside the timed call).
    """
    out.mkdir(parents=True, exist_ok=True)
    o = str(out)
    if wl.command == "clt":
        return [
            ["clt", "--n", str(params["n"]), "--trials", str(params["trials"]),
             "--f", F_COEFFS, "--seed", str(seed), "--threads", str(workers), "--out", o],
            ["variance", "--f", F_COEFFS, "--out", o],
        ]
    if wl.command == "moments":
        return [
            ["moments", "--n", str(params["n"]), "--trials", str(params["trials"]),
             "--kmax", str(params["kmax"]), "--dist", "uniform", "--seed", str(seed),
             "--threads", str(workers), "--out", o],
        ]
    if wl.command == "spectrum":
        return [["spectrum", "--n", str(params["n"]), "--seed", str(seed), "--out", o]]
    if wl.command == "oracle":
        cfg = out / "oracle.cfg"
        cfg.write_text(
            "".join(
                f"{key} = {','.join(str(v) for v in params[key])}\n"
                for key in ("n_list", "k_list", "l_list")
            )
        )
        return [["oracle", "--config", str(cfg), "--out", o]]
    raise ValueError(f"unknown command {wl.command!r}")
