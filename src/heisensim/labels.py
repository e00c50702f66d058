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
factor reads exactly 0, all without embedding anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .measure import LabelSum
from .tensor import DEFAULT_TOL, Operator, embed, single_factor


class NotLocallySupportedError(ValueError):
    """Asked for the local factor of an operator whose support is not that
    single label."""


class TrivialityCheck(NamedTuple):
    trivial: bool
    residual: float


@dataclass(frozen=True)
class SupportSet:
    """Labels an operator acts on nontrivially, plus per-label residuals.

    ``residuals`` maps every layout label to its reconstruction error; a
    label is in ``labels`` iff its residual reached the tolerance.
    """

    labels: frozenset[str]
    residuals: dict[str, float]


def acts_trivially_on(op: Operator, label: str, tol: float = DEFAULT_TOL) -> TrivialityCheck:
    """Test whether ``op`` is identity-like on one factor.

    Views rows and columns as ``(outer factors, factor, inner factors)``,
    subtracts the factor's normalized trace from its diagonal and takes the
    Frobenius norm of what is left.
    """
    layout = op.layout
    k, d = layout.position(label), layout.dim_of(label)
    inner = int(np.prod(layout.dims[k + 1 :], dtype=int))
    tensor = op.matrix.reshape(2 * (op.dim // (d * inner), d, inner))
    # the normalized trace as the first diagonal block plus the mean offset of
    # the others: a factor where ``op`` is exactly the identity leaves 0, where
    # trace / d would leave the rounding of dividing a sum by d
    first = tensor[:, 0, :, :, 0, :]
    reduced = first + sum(tensor[:, i, :, :, i, :] - first for i in range(1, d)) / d
    rest = tensor.copy()
    for i in range(d):
        rest[:, i, :, :, i, :] -= reduced
    residual = float(np.linalg.norm(rest))
    return TrivialityCheck(residual < tol, residual)


def support(op: Operator | LabelSum, tol: float = DEFAULT_TOL) -> SupportSet:
    """Support set of ``op``: every factor it acts on nontrivially. A
    :class:`LabelSum` is tested on its block alone."""
    block, scale = op, 1.0
    if isinstance(op, LabelSum):
        block = op.block()
        scale = math.sqrt(op.layout.total_dim // block.dim)
    residuals = dict.fromkeys(op.layout.labels, 0.0)
    for label in block.layout.labels:
        residuals[label] = acts_trivially_on(block, label, tol).residual * scale
    # a NaN residual is not below the tolerance either
    nontrivial = frozenset(label for label, r in residuals.items() if not r < tol)
    return SupportSet(labels=nontrivial, residuals=residuals)


def local_factor(op: Operator, label: str) -> Operator:
    """Extract the single-factor operator F with embed(F) == op.

    Requires the support of ``op`` to be exactly ``{label}``.
    """
    layout = op.layout
    k, m, d = layout.position(label), len(layout), layout.dim_of(label)
    sup = support(op)
    if sup.labels != {label}:
        raise NotLocallySupportedError(
            f"support is {sorted(sup.labels)}, not [{label!r}]; no local factor exists"
        )
    # the factor's row and column axes first, then one trace over the rest
    tensor = np.moveaxis(op.matrix.reshape(layout.dims + layout.dims), (k, m + k), (0, 1))
    rest = op.dim // d
    reduced = np.trace(tensor.reshape(d, d, rest, rest), axis1=2, axis2=3) / rest
    extracted = Operator(single_factor(label, d), reduced)
    residual = float(np.linalg.norm(embed(extracted, op.layout).matrix - op.matrix))
    if residual >= DEFAULT_TOL:
        raise NotLocallySupportedError(
            f"reconstruction from factor {label!r} misses by {residual:.3e}"
        )
    return extracted
