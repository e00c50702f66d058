"""Dense references the tests check the package against.

The program never builds these: it reads means off label sums and
projectors off their closed forms. Each is kept here, small and direct, so
a property test can compare the package's result with an independent one.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Sequence

import numpy as np

from heisensim.measure import DOWN, UP, Direction, InteractionSequence, LabelSum
from heisensim.tensor import (
    LayoutError,
    Operator,
    StateVector,
    SubsystemLayout,
    embed,
    expectation,
    real_part,
    single_factor,
)

#: Gates the discrete Schmidt-rank decision; looser than the operator
#: tolerance because singular values are compared against it directly.
SCHMIDT_THRESHOLD = 1e-8


def identity(layout: SubsystemLayout) -> Operator:
    return Operator(layout, np.eye(layout.total_dim, dtype=complex))


def belief(label: str, eigenvalues: Sequence[float]) -> Operator:
    """The diagonal belief operator with these eigenvalues on one factor."""
    return Operator(single_factor(label, len(eigenvalues)), np.diag(eigenvalues))


def dense(label_sum: LabelSum) -> Operator:
    """The sum as one operator on its layout: its block embedded once."""
    return embed(label_sum.block(), label_sum.layout)


def copied_residual(op: Operator, label: str) -> float:
    """One factor's residual read off one copy of the whole operator: its
    ``(outer, d, inner)`` tensor with the factor's row and column axes moved
    first, so each ``d × d`` block is contiguous. The normalized trace is
    taken as the first diagonal block plus the mean offset of the others and
    subtracted from each diagonal block, and the Frobenius norm of what is
    left is the residual. :func:`heisensim.labels.acts_trivially_on` reads
    these bits on an operator with no exactly diagonal factor."""
    layout = op.layout
    k, d = layout.position(label), layout.dim_of(label)
    inner = int(np.prod(layout.dims[k + 1 :], dtype=int))
    outer = op.dim // (d * inner)
    # a copy, not ascontiguousarray: on a one-factor layout that is a read-only view
    blocks = op.matrix.reshape(outer, d, inner, outer, d, inner).transpose(1, 4, 0, 2, 3, 5).copy()
    first = blocks[0, 0]
    reduced = first + sum(blocks[i, i] - first for i in range(1, d)) / d
    for i in range(d):
        blocks[i, i] -= reduced
    return float(np.linalg.norm(blocks))


def strided_residual(op: Operator, label: str) -> float:
    """:func:`copied_residual` read in place: the same reduced block, the
    first diagonal block plus the mean offset of the others, subtracted from
    strided views of the ``(outer, d, inner)`` tensor rather than from one
    copy with the factor's axes first."""
    layout = op.layout
    k, d = layout.position(label), layout.dim_of(label)
    inner = int(np.prod(layout.dims[k + 1 :], dtype=int))
    tensor = op.matrix.reshape(2 * (op.dim // (d * inner), d, inner))
    first = tensor[:, 0, :, :, 0, :]
    reduced = first + sum(tensor[:, i, :, :, i, :] - first for i in range(1, d)) / d
    rest = tensor.copy()
    for i in range(d):
        rest[:, i, :, :, i, :] -= reduced
    return float(np.linalg.norm(rest))


def is_hermitian(op: Operator, tol: float) -> bool:
    return float(np.linalg.norm(op.matrix - op.matrix.conj().T)) < tol


def normalized(layout: SubsystemLayout, amplitudes) -> StateVector:
    """The state with these amplitudes scaled to unit norm."""
    amps = np.asarray(amplitudes, dtype=complex)
    norm = float(np.linalg.norm(amps))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return StateVector(layout, amps / norm)


def reordered(seq: InteractionSequence, tag_order: Sequence[str]) -> InteractionSequence:
    """The sequence's steps, permuted into the given tag order."""
    by_tag = dict(seq.steps)
    if sorted(tag_order) != sorted(by_tag):
        raise ValueError(f"tag order {tag_order} does not permute {seq.tags}")
    return InteractionSequence(tuple((t, by_tag[t]) for t in tag_order), seq.layout)


def cos_between(n1: Direction, n2: Direction) -> float:
    """Cosine of the angle between two analyzer directions:
    ``cos θ1 cos θ2 + sin θ1 sin θ2 cos(φ1 − φ2)``."""
    return (math.cos(n1.theta) * math.cos(n2.theta)
            + math.sin(n1.theta) * math.sin(n2.theta) * math.cos(n1.phi - n2.phi))


def unit_vector(n: Direction) -> np.ndarray:
    """The analyzer direction as a Cartesian unit vector."""
    st = math.sin(n.theta)
    return np.array([st * math.cos(n.phi), st * math.sin(n.phi), math.cos(n.theta)])


def real_expectation(state: StateVector, op: Operator) -> float:
    """Expectation of a Hermitian observable; rejects stray imaginary parts."""
    return real_part(expectation(state, op))


def projector_from_state(v: StateVector) -> Operator:
    """Rank-1 projector |v><v|."""
    return Operator(v.layout, np.outer(v.amplitudes, v.amplitudes.conj()))


def spin_eigenstate(n: Direction, outcome: str) -> StateVector:
    """Spin-1/2 eigenstate on factor ``S`` along ``n``, half-angle, half-phase convention.

    Up is ``(e^{-i phi/2} cos(theta/2), e^{i phi/2} sin(theta/2))`` in the
    z basis; down is its orthogonal partner. At theta = 0 the azimuth only
    contributes a global phase, so any phi is accepted there. Its outer
    product with itself is :func:`heisensim.measure.spin_projector`.
    """
    half_theta = 0.5 * n.theta
    c, s = math.cos(half_theta), math.sin(half_theta)
    minus, plus = cmath.exp(-0.5j * n.phi), cmath.exp(0.5j * n.phi)
    if outcome == UP:
        amps = np.array([minus * c, plus * s])
    elif outcome == DOWN:
        amps = np.array([-minus * s, plus * c])
    else:
        raise ValueError(f"outcome must be {UP!r} or {DOWN!r}, got {outcome!r}")
    return StateVector(single_factor("S", 2), amps)


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
