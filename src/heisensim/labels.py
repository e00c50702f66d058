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
operator is read on its record blocks. The factors on which every
off-diagonal entry is exactly 0 are found from the values, and the blocks
left when each of them is fixed to one record are gathered once; each
factor asked for is then read on them. A GHZM referee at 648 dimensions is
81 record blocks of 8 x 8. An operator with no such factor is read on the
whole matrix, its entries added in the order of one copy of it with the
factor's row and column axes first.

:func:`support` also takes an evolved observable as a
:class:`~heisensim.measure.LabelSum`. Its groups merge into one block on
their own factors, and the sum is that block tensored with the identity on
every other factor. So each factor of the block is read on the block, its
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
from typing import Iterable, Sequence

import numpy as np

from .measure import LabelSum
from .tensor import DEFAULT_TOL, InvariantError, Operator, SubsystemLayout


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
    return _residuals(op.matrix, op.layout, [label])[0]


def _record_blocks(matrix: np.ndarray,
                   dims: tuple[int, ...]) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """A view of the record blocks of ``matrix``, an operator on factors of
    ``dims``, and the axes of each factor in it: one, its record, for a
    factor on which every off-diagonal entry is exactly 0, and its row and
    column axes for any other.

    Every entry the view leaves out is exactly 0, so a NaN or an inf is
    always in it. Each factor is tested on the blocks that the diagonal
    factors before it leave, and with no diagonal factor the view is the
    whole matrix.
    """
    n = len(dims)
    view = matrix.reshape(dims + dims)
    # what each axis of the view indexes: factor k's row k, its column n + k,
    # and its record 2n + k
    tags = list(range(2 * n))
    for k, d in enumerate(dims):
        i, j = tags.index(k), tags.index(n + k)
        pairs = view.transpose(i, j, *(a for a in range(view.ndim) if a not in (i, j)))
        if not any(pairs[a, b].any() for a in range(d) for b in range(d) if a != b):
            view = np.diagonal(view, axis1=i, axis2=j)
            tags = [t for t in tags if t not in (k, n + k)] + [2 * n + k]
    return view, [(tags.index(2 * n + k),) if 2 * n + k in tags
                  else (tags.index(k), tags.index(n + k)) for k in range(n)]


def _residuals(matrix: np.ndarray, layout: SubsystemLayout, labels: Sequence[str]) -> list[float]:
    """The residual of each of ``labels``, read on the record blocks of
    ``matrix``, an operator on ``layout``, found once for them all.

    Each factor's axes are copied first, so each of its ``d`` diagonal
    blocks is contiguous: its record axis, or its row and column axes. The
    first diagonal block plus the mean offset of the others is subtracted
    from each: a factor where the operator is exactly the identity leaves 0,
    where trace / d would leave the rounding of dividing a sum by d. With no
    diagonal factor the copy is the whole matrix with the factor's row and
    column axes first, and the norm adds its entries in that order.
    """
    positions = [layout.position(label) for label in labels]
    view, axes = _record_blocks(matrix, layout.dims)
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
    is formed. Every label is read in one pass over the record blocks. The
    tolerance must be finite and positive."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    residuals = dict.fromkeys(op.layout.labels if labels is None else labels, 0.0)
    if isinstance(op, LabelSum):
        inside = {k for positions, _ in op.groups for k in positions}
        read = [label for label in residuals if op.layout.position(label) in inside]
        if read:
            positions, matrix = op._block_matrix()
            block = SubsystemLayout(tuple(op.layout.factors[k] for k in positions))
            scale = math.sqrt(op.layout.total_dim // block.total_dim)
            residuals.update(zip(read, (r * scale for r in _residuals(matrix, block, read))))
    else:
        residuals.update(zip(residuals, _residuals(op.matrix, op.layout, list(residuals))))
    # a NaN residual is not below the tolerance either
    nontrivial = frozenset(label for label, r in residuals.items() if not r < tol)
    return SupportSet(labels=nontrivial, residuals=residuals)
