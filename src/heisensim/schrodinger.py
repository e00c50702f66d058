"""State-evolution oracle for cross-checking the operator-evolution path.

Evolving the state and keeping operators fixed must give every expectation
value that evolving the operators and keeping the state fixed gives:
``<psi0| U' A U |psi0> == <U psi0| A |U psi0>``. This module evolves the
state tensor, contracting each step's block with the state's axes of that
step's factors: a deliberately different code path from the operator
evolution (no label sums, no operator ever conjugated or embedded), so
agreement between the two is a meaningful end-to-end check.
"""

from __future__ import annotations

import numpy as np

from .measure import InteractionSequence, heisenberg_evolve
from .tensor import (
    STATE_NORM_TOL,
    InvariantError,
    LayoutError,
    Operator,
    StateVector,
    SubsystemLayout,
)


def _apply(u: Operator, amps: np.ndarray, layout: SubsystemLayout) -> np.ndarray:
    """``u`` applied to its factors of the state tensor ``amps`` (shape ``layout.dims``)."""
    axes = [layout.position(label) for label in u.layout.labels]
    k = len(axes)
    block = u.matrix.reshape(u.layout.dims * 2)
    return np.moveaxis(np.tensordot(block, amps, axes=(range(k, 2 * k), axes)), range(k), axes)


def schrodinger_evolve(initial: StateVector, seq: InteractionSequence) -> StateVector:
    """Apply the sequence unitaries to the state, earliest first, each on its
    own factors of the state tensor; no step is embedded in the layout."""
    if seq.layout != initial.layout:
        raise LayoutError("state and sequence live on different layouts")
    seq._one_point()
    layout = initial.layout
    amps = initial.amplitudes.reshape(layout.dims)
    for tag, u in seq.steps:
        amps = _apply(u, amps, layout)
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > STATE_NORM_TOL:
            raise InvariantError(f"norm drifted to {norm!r} after step {tag!r}")
    return StateVector(layout, amps.reshape(-1))


def product_expectation(state: StateVector, *ops: Operator) -> complex:
    """``<psi|A_1 ... A_n|psi>`` for operators each on some factors of the
    state's layout, applied to the state tensor in turn, latest first,
    without embedding or multiplying them."""
    psi = state.amplitudes.reshape(state.layout.dims)
    out = psi
    for op in reversed(ops):
        out = _apply(op, out, state.layout)
    return complex(np.vdot(psi, out))


def cross_check(op: Operator, seq: InteractionSequence, initial: StateVector) -> float:
    """Absolute difference between the two pictures' expectation values, for
    ``op`` on some factors of the initial state's layout."""
    via_operators = product_expectation(initial, heisenberg_evolve(op, seq))
    via_state = product_expectation(schrodinger_evolve(initial, seq), op)
    return abs(via_operators - via_state)
