"""Ideal-measurement builders and Heisenberg evolution.

An ideal measurement couples an observer factor to a system factor through
a unitary of the form ``sum_i u_i (x) P_i``: the shift operator ``u_i``
moves the observer from its ignorant state to the awareness state for
outcome ``i``, gated by the projector ``P_i`` onto the system eigenstate
for that outcome. Heisenberg-picture observables then evolve by
conjugation with the interaction unitaries, one local step at a time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .tensor import (
    DEFAULT_TOL,
    LayoutError,
    NonUnitaryError,
    Operator,
    SubsystemLayout,
    StateVector,
    embed,
    single_factor,
)

UP = "up"
DOWN = "down"
SPIN_OUTCOMES = (UP, DOWN)
#: Observer belief eigenvalues matching the spin labels: ignorant 0, up +1,
#: down -1.
SPIN_BETA = (0.0, 1.0, -1.0)


@dataclass(frozen=True)
class ObserverSpec:
    """An observer factor: its label and belief eigenvalues ``(b0, ..., bN)``.

    ``b0`` labels the ignorant state; ``b1..bN`` label awareness of outcome
    1..N and must be pairwise distinct so outcomes are distinguishable.
    ``b0`` may coincide with an outcome value: the probability preset
    ``(0, 1, 0)`` deliberately reuses 0 so the belief operator becomes the
    projector onto the outcome-1 awareness state.
    """

    label: str
    eigenvalues: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", tuple(float(v) for v in self.eigenvalues))
        if len(self.eigenvalues) < 2:
            raise ValueError("an observer needs the ignorant state plus at least one outcome")
        outcomes = self.eigenvalues[1:]
        if len(set(outcomes)) != len(outcomes):
            raise ValueError(f"outcome eigenvalues {outcomes} must be pairwise distinct")

    @property
    def n_outcomes(self) -> int:
        return len(self.eigenvalues) - 1

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def belief_operator(self) -> Operator:
        """Diagonal observable whose eigenvalues are the belief labels."""
        return Operator(single_factor(self.label, self.dim), np.diag(self.eigenvalues))


def shift_operator(label: str, dim: int, outcome: int) -> Operator:
    """Cyclic shift by ``outcome`` on the ``dim`` observer basis states, mod ``dim``.

    Sends the ignorant basis state to the awareness state for the given
    outcome. The action on already-aware states is fixed to the cyclic
    completion so the operator is unitary; experiment outputs do not depend
    on that choice (see the completion-invariance test).
    """
    if not 1 <= outcome < dim:
        raise ValueError(f"outcome index {outcome} out of range 1..{dim - 1}")
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        m[(i + outcome) % dim, i] = 1.0
    return Operator(single_factor(label, dim), m)


@dataclass(frozen=True)
class Direction:
    """Analyzer orientation: polar angle theta and azimuth phi, radians."""

    theta: float
    phi: float

    def __post_init__(self):
        for name, value in (("theta", self.theta), ("phi", self.phi)):
            if not math.isfinite(value):
                raise ValueError(f"analyzer angle {name} must be finite, got {value}")

    @property
    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )

    def dot(self, other: "Direction") -> float:
        return float(np.dot(self.unit_vector, other.unit_vector))


def spin_eigenstate(n: Direction, outcome: str) -> StateVector:
    """Spin-1/2 eigenstate on factor ``S`` along ``n``, half-angle, half-phase convention.

    Up is ``(e^{-i phi/2} cos(theta/2), e^{i phi/2} sin(theta/2))`` in the
    z basis; down is its orthogonal partner. At theta = 0 the azimuth only
    contributes a global phase, so any phi is accepted there.
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


def spin_projector(n: Direction, outcome: str, label: str = "S") -> Operator:
    """Projector onto the spin eigenstate along ``n``.

    Assembled from the z-basis projectors plus the two transition operators
    |up><down| and |down><up| weighted by ``sin(theta) e^{-+i phi}/2``;
    equal to the outer product of :func:`spin_eigenstate` with itself.
    """
    c2 = math.cos(0.5 * n.theta) ** 2
    s2 = math.sin(0.5 * n.theta) ** 2
    cross = 0.5 * math.sin(n.theta) * cmath.exp(-1j * n.phi)
    if outcome == UP:
        m = np.array([[c2, cross], [np.conj(cross), s2]])
    elif outcome == DOWN:
        m = np.array([[s2, -cross], [-np.conj(cross), c2]])
    else:
        raise ValueError(f"outcome must be {UP!r} or {DOWN!r}, got {outcome!r}")
    return Operator(single_factor(label, 2), m)


@dataclass(frozen=True)
class InteractionSequence:
    """Ordered ``(tag, unitary)`` interaction steps on one shared layout.

    Order is time order: the first step acts first. Each step acts on some
    factors of ``layout`` (default: the first step's layout), in any order,
    and is verified unitary on that block at construction. Tags name the
    steps, so no two steps share one.
    """

    steps: tuple[tuple[str, Operator], ...]
    layout: SubsystemLayout | None = None

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple((str(t), u) for t, u in self.steps))
        if self.layout is None and self.steps:
            object.__setattr__(self, "layout", self.steps[0][1].layout)
        if len(set(self.tags)) != len(self.steps):
            raise ValueError(f"step tags {self.tags} repeat")
        for tag, u in self.steps:
            if not set(u.layout.factors) <= set(self.layout.factors):
                raise LayoutError(f"step {tag!r} is not on factors of {self.layout.factors}")
            if not u.is_unitary(DEFAULT_TOL):
                raise NonUnitaryError(f"step {tag!r} is not unitary within {DEFAULT_TOL}")

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.steps)

    @cached_property
    def _local_steps(self) -> list[tuple]:
        # per step, latest first: the axis order of the layout's dims + dims
        # tensor with the step's row axes first and its column axes last, the
        # inverse order, the block and its adjoint
        m = len(self.layout)
        plan = []
        for _, u in reversed(self.steps):
            rows = [self.layout.position(label) for label in u.layout.labels]
            rest = [k for k in range(m) if k not in rows]
            axes = (*rows, *rest, *(m + k for k in rest), *(m + k for k in rows))
            plan.append((axes, np.argsort(axes), u.matrix, u.matrix.conj().T))
        return plan

    def total_unitary(self) -> Operator:
        """Product of all steps embedded in the layout, earliest step
        rightmost: the dense reference for :func:`heisenberg_evolve`."""
        if not self.steps:
            raise ValueError("empty sequence has no total unitary")
        total = embed(self.steps[0][1], self.layout).matrix
        for _, u in self.steps[1:]:
            total = embed(u, self.layout).matrix @ total
        return Operator(self.layout, total)

    def reordered(self, tag_order: Sequence[str]) -> "InteractionSequence":
        """Same steps, permuted into the given tag order."""
        by_tag = dict(self.steps)
        if sorted(tag_order) != sorted(by_tag):
            raise ValueError(f"tag order {tag_order} does not permute {self.tags}")
        return InteractionSequence(tuple((t, by_tag[t]) for t in tag_order), self.layout)


def measurement_block(observer: str, projectors: Iterable[Operator]) -> Operator:
    """Ideal-measurement unitary ``sum_i u_i (x) P_i`` on ``[observer, system]``: the projectors,
    complete and orthogonal, share the system factor, and the observer has one state more."""
    projectors = tuple(projectors)
    layouts = {p.layout for p in projectors}
    factors = layouts.pop().factors if len(layouts) == 1 else ()
    if len(factors) != 1:
        raise LayoutError("projectors must share one single-factor layout")
    [(system, sys_dim)] = factors
    if observer == system:
        raise LayoutError(f"observer and system share the label {observer!r}")
    total = np.zeros((sys_dim, sys_dim), dtype=complex)
    for i, p in enumerate(projectors):
        total += p.matrix
        for j, q in enumerate(projectors):
            target = p.matrix if i == j else 0.0
            if float(np.linalg.norm(p.matrix @ q.matrix - target)) >= DEFAULT_TOL:
                raise ValueError("projector family is not orthogonal within tolerance")
    if float(np.linalg.norm(total - np.eye(sys_dim))) >= DEFAULT_TOL:
        raise ValueError("projector family does not sum to the identity (incomplete family)")

    obs_dim = len(projectors) + 1
    block = np.zeros((obs_dim * sys_dim, obs_dim * sys_dim), dtype=complex)
    for i, p in enumerate(projectors):
        block += np.kron(shift_operator(observer, obs_dim, i + 1).matrix, p.matrix)
    block_op = Operator(SubsystemLayout(((observer, obs_dim), (system, sys_dim))), block)
    if not block_op.is_unitary():
        raise NonUnitaryError("measurement unitary failed its unitarity post-check")
    return block_op


def measurement_unitary(layout: SubsystemLayout, observer: str,
                        projectors: Iterable[Operator]) -> Operator:
    """Ideal-measurement unitary ``sum_i u_i (x) P_i`` on the full layout:
    :func:`measurement_block` embedded."""
    return embed(measurement_block(observer, projectors), layout)


def heisenberg_evolve(op: Operator, seq: InteractionSequence) -> Operator:
    """``U† op U`` for the sequence product ``U`` (earliest step rightmost),
    without forming ``U``: the operator's ``dims + dims`` tensor is conjugated
    by one step's block at a time, latest step first."""
    if seq.layout is not None and seq.layout != op.layout:
        raise LayoutError("operator and sequence live on different layouts")
    if not seq.steps:
        return op
    x = op.matrix.reshape(op.layout.dims * 2)
    for axes, inverse, block, adjoint in seq._local_steps:
        b, t = len(block), x.transpose(axes)
        y = (adjoint @ t.reshape(b, -1)).reshape(-1, b) @ block
        x = y.reshape(t.shape).transpose(inverse)
    return Operator(op.layout, x.reshape(op.matrix.shape))
