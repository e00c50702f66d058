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

An observable that a measurement has evolved is block-diagonal in its
observer's record basis: it holds one definite record per copy. So an
operator is read on its record blocks, each factor asked for on one copy
of them. The unsplit walk of :func:`~heisensim.measure.evolve_label_sum`
carries such factors as a record index, found from its steps, so their
blocks are read as they are: a GHZM referee at 648 dimensions is 81 record
blocks of 8 x 8, and no 648-dim matrix is formed. A dense operator's
exactly diagonal factors are found from its values instead, and one with
none is read on the whole matrix, its entries added in the order of one
copy of it with the factor's row and column axes first.

:func:`support` also takes an evolved observable as a
:class:`~heisensim.measure.LabelSum`. Its groups and records make up one
block on their own factors, and the sum is that block tensored with the
identity on every other factor. So each factor of the block is read on the
block, its residual scaled by the square root of the dimension outside it
(the Frobenius norm of a Kronecker product with the identity), and every
other factor reads exactly 0, all without embedding anything. It may be
asked for some factors only, and forms no block when none of them lies in
it.

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
from typing import Iterable, Sequence

import numpy as np

from .measure import LabelSum
from .tensor import DEFAULT_TOL, InvariantError, Operator, SubsystemLayout, _record_blocks


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

    The one-label read of :func:`support`: on the operator's record blocks,
    the factor's normalized trace, taken as its first diagonal block plus
    the mean offset of the others, is subtracted from each of its diagonal
    blocks, and the Frobenius norm of what is left is its residual.
    """
    return support(op, labels=(label,)).residuals[label]


def _carried_blocks(op: LabelSum) -> tuple[tuple[int, ...], np.ndarray, list[tuple[int, ...]]]:
    """The block positions of a sum that carries records, the view of its
    record blocks and the axes of each of the block's factors in it, laid
    out as :func:`~heisensim.tensor._record_blocks` lays out the dense
    block: the group's row then column axes, then one axis per record, in
    layout order."""
    ((group, a),), records, dims = op.groups, op.records, op.layout.dims
    g, order = len(group), sorted(range(len(records)), key=records.__getitem__)
    view = a.reshape(*(dims[k] for k in records), *(dims[k] for k in group * 2))
    view = view.transpose(*range(len(records), len(records) + 2 * g), *order)
    axes = {k: (j, g + j) for j, k in enumerate(group)}
    axes.update((records[i], (2 * g + j,)) for j, i in enumerate(order))
    positions = tuple(sorted(axes))
    return positions, view, [axes[k] for k in positions]


def _residuals(view: np.ndarray, axes: Sequence[tuple[int, ...]], layout: SubsystemLayout,
               labels: Sequence[str]) -> list[float]:
    """The residual of each of ``labels``, read on ``view``, the record
    blocks of an operator on ``layout``, in which ``axes`` holds each
    factor's record axis, or its row and column axes.

    Each factor's axes are copied first, so each of its ``d`` diagonal
    blocks is contiguous. The first diagonal block plus the mean offset of
    the others is subtracted from each: a factor where the operator is
    exactly the identity leaves 0, where trace / d would leave the rounding
    of dividing a sum by d. With no record axis the copy is the whole matrix
    with the factor's row and column axes first, and the norm adds its
    entries in that order.
    """
    positions = [layout.position(label) for label in labels]
    out = []
    # inf - inf is NaN, and a residual that is not finite raises below
    with np.errstate(invalid="ignore"):
        for label, k in zip(labels, positions):
            d, own = layout.dims[k], axes[k]
            blocks = view.transpose(*own, *(a for a in range(view.ndim) if a not in own)).copy()
            parts = [blocks[(i,) * len(own) + (...,)] for i in range(d)]  # views, even of one entry
            first = parts[0]
            reduced = first + sum(parts[i] - first for i in range(1, d)) / d
            for part in parts:
                part -= reduced
            out.append(float(np.linalg.norm(blocks)))
    for label, residual in zip(labels, out):
        if not math.isfinite(residual):
            raise InvariantError(f"residual on {label} is {residual}: the operator holds"
                                 f" a non-finite entry")
    return out


def support(op: Operator | LabelSum, tol: float = DEFAULT_TOL,
            labels: Iterable[str] | None = None) -> SupportSet:
    """Support set of ``op`` among ``labels``, by default every factor of its
    layout: the labels it acts on nontrivially. A :class:`LabelSum` is read
    on its block alone, and when every label lies outside the block no block
    is formed; one that carries records is read on its record blocks as they
    are, and any other on those found from the values. Every label is read
    in one pass over the record blocks. The tolerance must be finite and
    positive."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    residuals = dict.fromkeys(op.layout.labels if labels is None else labels, 0.0)
    if isinstance(op, LabelSum):
        inside = {k for positions, _ in op.groups for k in positions}.union(op.records)
        read = [label for label in residuals if op.layout.position(label) in inside]
        if read:
            if op.records:
                positions, view, axes = _carried_blocks(op)
            else:
                positions, matrix = op._block_matrix()
                view, axes = _record_blocks(matrix, tuple(op.layout.dims[k] for k in positions))
            block = SubsystemLayout(tuple(op.layout.factors[k] for k in positions))
            scale = math.sqrt(op.layout.total_dim // block.total_dim)
            residuals.update(zip(read, (r * scale for r in _residuals(view, axes, block, read))))
    else:
        residuals.update(zip(residuals, _residuals(*_record_blocks(op.matrix, op.layout.dims),
                                                   op.layout, list(residuals))))
    # a NaN residual is not below the tolerance either
    nontrivial = frozenset(label for label, r in residuals.items() if not r < tol)
    return SupportSet(labels=nontrivial, residuals=residuals)
