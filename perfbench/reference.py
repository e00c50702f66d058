"""Reference kernels that measure how fast this host is at the moment.

The host's speed drifts by 20% and more over seconds to minutes, and it
drifts alike for the program and for any other code doing the same kind of
work. So the runner runs a fixed kernel right after each block of
operations and reports operation time in units of the kernel's time. The
kernels use numpy only, never the program, so a change to the program
cannot change them.

- ``dense``: one product of two 648 x 648 complex matrices, a permuted copy
  of the result and a Frobenius norm: the matrix products, factor
  permutations (``embed``) and residual norms (``acts_trivially_on``) that
  the GHZM workloads, on the 648-dimensional space, spend their time in.
- ``python``: an argparse parse, validated dataclasses, 6 x 6 Kronecker
  products and CSV rows: the kind of work that dominates the
  36-dimensional EPRB workload, where a CLI call spends its time in parsing,
  small numpy calls and output rather than in large products.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
from dataclasses import dataclass
from functools import cache
from time import perf_counter
from typing import Callable

import numpy as np

#: kernel seconds run per second of operation time
SHARE = 0.2


@cache
def _matrix(n: int) -> np.ndarray:
    # allocated on first use, so that a workload's peak memory holds only
    # the kernel it uses
    rng = np.random.default_rng(n)
    return rng.random((n, n)) + 1j * rng.random((n, n))


def dense_kernel() -> None:
    big = _matrix(648)
    product = big @ big
    permuted = np.ascontiguousarray(product.reshape(18, 36, 18, 36).transpose(1, 0, 3, 2))
    np.linalg.norm(permuted.reshape(648, 648) - big)


@dataclass(frozen=True)
class _Step:
    angle: float
    matrix: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.angle) or self.matrix.shape != (6, 6):
            raise ValueError("bad step")


def python_kernel() -> None:
    parser = argparse.ArgumentParser(prog="kernel")
    parser.add_argument("--theta", type=float, nargs=2, required=True)
    parser.add_argument("--phi", type=float, nargs=2, required=True)
    parser.add_argument("--entangled", choices=("true", "false"), default="true")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(["--theta", "37.5", "80.25", "--phi", "10.0", "200.0",
                              "--format", "csv"])
    a2, a3, v36 = _matrix(2), _matrix(3), _matrix(36)[0]
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["k", "angle", "value"])
    for k in range(40):
        step = _Step(math.radians(args.theta[k % 2]) * k, np.kron(a2, a3) / 3.0)
        x = complex((np.kron(step.matrix, step.matrix).diagonal() * v36).sum())
        writer.writerow([k, repr(step.angle), f"{x.real:.17g}"])


KERNELS: dict[str, Callable[[], None]] = {"dense": dense_kernel, "python": python_kernel}


class Reference:
    """Wall times of one kernel, measured between blocks of operations."""

    def __init__(self, name: str):
        self.kernel = KERNELS[name]
        self.samples: list[float] = []
        for _ in range(2):  # first calls allocate
            self.kernel()

    def measure(self, op_seconds: float) -> float:
        """Run the kernel for ``SHARE`` of ``op_seconds``, at least once, and
        return its mean wall time over these runs."""
        first = len(self.samples)
        spent = 0.0
        while spent < SHARE * op_seconds or len(self.samples) == first:
            start = perf_counter()
            self.kernel()
            wall = perf_counter() - start
            self.samples.append(wall)
            spent += wall
        return spent / (len(self.samples) - first)
