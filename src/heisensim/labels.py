"""Detect which tensor factors an operator acts on nontrivially.

An operator acts trivially on a factor when it equals the embedding of its
normalized partial trace over that factor, i.e. when it is (up to
reordering) something-tensor-identity there. The Frobenius distance
between the operator and that reconstruction is a constructive residual:
below tolerance the factor is excluded from the support, and the residual
is reported either way so borderline cases are auditable.

Operators that start local pick up support on other factors through
measurement interactions; the growing support set is the machine-readable
record of which systems an observable has become entangled with.

:func:`support` also takes an evolved observable as a
:class:`~heisensim.measure.LabelSum`. Its groups merge into one block on
their own factors, and the sum is that block tensored with the identity on
every other factor. So each factor of the block is tested on the block, its
residual scaled by the square root of the dimension outside it (the
Frobenius norm of a Kronecker product with the identity), and every other
factor reads exactly 0, all without embedding anything. It may be asked for
some factors only, and forms no block when none of them lies in it.

A factor's residual is final once no interaction still to be applied acts
on it: for a unitary ``V`` on other factors the partial trace over this one
commutes with conjugation by ``V``, so ``acts_trivially_on(V† A V, k)``
equals ``acts_trivially_on(A, k)`` in exact arithmetic. The support ledger
reads each factor at that point of its walk, on the smallest block that
holds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .measure import LabelSum
from .tensor import DEFAULT_TOL, Operator


@dataclass(frozen=True)
class SupportSet:
    """Labels an operator acts on nontrivially, plus per-label residuals.

    ``residuals`` maps every label read to its reconstruction error; a
    label is in ``labels`` iff its residual reached the tolerance.
    """

    labels: frozenset[str]
    residuals: dict[str, float]


def acts_trivially_on(op: Operator, label: str) -> float:
    """How far ``op`` is from identity-like on one factor: 0 when it is.

    Views rows and columns as ``(outer factors, factor, inner factors)`` and
    copies the matrix once with the factor's row and column axes first, so
    each of its ``d × d`` blocks is contiguous; then subtracts the factor's
    normalized trace from its diagonal blocks and takes the Frobenius norm of
    what is left.
    """
    layout = op.layout
    k, d = layout.position(label), layout.dim_of(label)
    inner = int(np.prod(layout.dims[k + 1 :], dtype=int))
    outer = op.dim // (d * inner)
    # a copy, not ascontiguousarray: on a one-factor layout that is a read-only view
    blocks = op.matrix.reshape(outer, d, inner, outer, d, inner).transpose(1, 4, 0, 2, 3, 5).copy()
    # the normalized trace as the first diagonal block plus the mean offset of
    # the others: a factor where ``op`` is exactly the identity leaves 0, where
    # trace / d would leave the rounding of dividing a sum by d
    first = blocks[0, 0]
    reduced = first + sum(blocks[i, i] - first for i in range(1, d)) / d
    for i in range(d):
        blocks[i, i] -= reduced
    return float(np.linalg.norm(blocks))


def support(op: Operator | LabelSum, tol: float = DEFAULT_TOL,
            labels: Iterable[str] | None = None) -> SupportSet:
    """Support set of ``op`` among ``labels``, by default every factor of its
    layout: the labels it acts on nontrivially. A :class:`LabelSum` is tested
    on its block alone, and when every label lies outside the block no block
    is formed."""
    residuals = dict.fromkeys(op.layout.labels if labels is None else labels, 0.0)
    block, scale, read = op, 1.0, list(residuals)
    if isinstance(op, LabelSum):
        inside = {k for positions, _ in op.groups for k in positions}
        read = [label for label in residuals if op.layout.position(label) in inside]
        if read:
            block = op.block()
            scale = math.sqrt(op.layout.total_dim // block.dim)
    for label in read:
        residuals[label] = acts_trivially_on(block, label) * scale
    # a NaN residual is not below the tolerance either
    nontrivial = frozenset(label for label, r in residuals.items() if not r < tol)
    return SupportSet(labels=nontrivial, residuals=residuals)
