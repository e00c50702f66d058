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

from typing import Iterable

import numpy as np

from .measure import InteractionSequence, heisenberg_evolve
from .tensor import InvariantError, LayoutError, Operator, StateVector, SubsystemLayout

#: Gates the discrete Schmidt-rank decision; looser than the operator
#: tolerance because singular values are compared against it directly.
SCHMIDT_THRESHOLD = 1e-8

_NORM_DRIFT_TOL = 1e-12


def _apply(u: Operator, amps: np.ndarray, layout: SubsystemLayout) -> np.ndarray:
    """``u`` applied to its factors of the state tensor ``amps`` (shape ``layout.dims``)."""
    axes = [layout.position(label) for label in u.layout.labels]
    k = len(axes)
    block = u.matrix.reshape(u.layout.dims * 2)
    return np.moveaxis(np.tensordot(block, amps, axes=(range(k, 2 * k), axes)), range(k), axes)


def schrodinger_evolve(initial: StateVector, seq: InteractionSequence) -> StateVector:
    """Apply the sequence unitaries to the state, earliest first, each on its
    own factors of the state tensor; no step is embedded in the layout."""
    if seq.layout is not None and seq.layout != initial.layout:
        raise LayoutError("state and sequence live on different layouts")
    layout = initial.layout
    amps = initial.amplitudes.reshape(layout.dims)
    for tag, u in seq.steps:
        amps = _apply(u, amps, layout)
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > _NORM_DRIFT_TOL:
            raise InvariantError(f"norm drifted to {norm!r} after step {tag!r}")
    return StateVector(layout, amps.reshape(-1))


def product_expectation(state: StateVector, op: Operator) -> complex:
    """``<psi|A|psi>`` for ``A`` on some factors of the state's layout (a
    product of observables, say), applied to the state tensor without
    embedding it."""
    psi = state.amplitudes.reshape(state.layout.dims)
    return complex(np.vdot(psi, _apply(op, psi, state.layout)))


def cross_check(op: Operator, seq: InteractionSequence, initial: StateVector) -> float:
    """Absolute difference between the two pictures' expectation values, for
    ``op`` on some factors of the initial state's layout."""
    via_operators = product_expectation(initial, heisenberg_evolve(op, seq))
    via_state = product_expectation(schrodinger_evolve(initial, seq), op)
    return abs(via_operators - via_state)


def schmidt_rank(state: StateVector, left_labels: Iterable[str]) -> int:
    """Schmidt rank of the state across the given bipartition.

    Rank 1 means a product state across the cut; rank > 1 means
    entanglement between the two sides.
    """
    layout = state.layout
    wanted = set(left_labels)
    unknown = wanted - set(layout.labels)
    if unknown:
        raise LayoutError(f"unknown factor labels {sorted(unknown)}")
    left = [k for k, (label, _) in enumerate(layout.factors) if label in wanted]
    right = [k for k in range(len(layout)) if k not in left]
    if not left or not right:
        raise ValueError("bipartition must leave factors on both sides")
    tensor = state.amplitudes.reshape(layout.dims)
    tensor = tensor.transpose(left + right)
    d_left = int(np.prod([layout.dims[k] for k in left]))
    singulars = np.linalg.svd(tensor.reshape(d_left, -1), compute_uv=False)
    return int(np.count_nonzero(singulars > SCHMIDT_THRESHOLD))
