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
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .tensor import (
    DEFAULT_TOL,
    LayoutError,
    NonUnitaryError,
    Operator,
    SubsystemLayout,
    _basis_index,
    embed,
    single_factor,
)

UP = "up"
DOWN = "down"
SPIN_OUTCOMES = (UP, DOWN)
#: Observer belief eigenvalues matching the spin labels: ignorant 0, up +1,
#: down -1.
SPIN_BETA = (0.0, 1.0, -1.0)


def shift_operator(label: str, dim: int, outcome: int) -> Operator:
    """Cyclic shift by ``outcome`` on the ``dim`` observer basis states, mod ``dim``.

    Sends the ignorant basis state to the awareness state for the given
    outcome. The action on already-aware states is fixed to the cyclic
    completion so the operator is unitary; experiment outputs do not depend
    on that choice (see the completion-invariance test).
    """
    if not 1 <= outcome < dim:
        raise ValueError(f"outcome index {outcome} out of range 1..{dim - 1}")
    return Operator(single_factor(label, dim), _shifts(dim)[outcome])


def _shifts(dim: int) -> np.ndarray:
    """The read-only ``(dim, dim, dim)`` stack of cyclic shifts: entry ``s`` is
    ``X^s``, whose row ``r`` is row ``r - s`` of the identity."""
    u = np.eye(dim, dtype=complex)[(np.arange(dim) - np.arange(dim)[:, None]) % dim]
    u.setflags(write=False)
    return u


@dataclass(frozen=True)
class Direction:
    """Analyzer orientation: polar angle theta and azimuth phi, radians."""

    theta: float
    phi: float

    def __post_init__(self):
        for name, value in (("theta", self.theta), ("phi", self.phi)):
            if not math.isfinite(value):
                raise ValueError(f"analyzer angle {name} must be finite, got {value}")


def spin_projector(n: Direction, outcome: str, label: str = "S") -> Operator:
    """Projector onto the spin eigenstate along ``n``.

    Assembled from the z-basis projectors plus the two transition operators
    |up><down| and |down><up| weighted by ``sin(theta) e^{-+i phi}/2``.
    """
    if outcome not in SPIN_OUTCOMES:
        raise ValueError(f"outcome must be {UP!r} or {DOWN!r}, got {outcome!r}")
    return Operator(single_factor(label, 2), _spin_stack((n,))[0, SPIN_OUTCOMES.index(outcome)])


def _spin_stack(directions: Sequence[Direction]) -> np.ndarray:
    """The ``(k, 2, 2, 2)`` stack of the :func:`spin_projector` matrices along
    each direction, one per outcome in ``SPIN_OUTCOMES`` order: the same
    scalar formula per direction, so the same bits."""
    entries = []
    for n in directions:
        c2 = math.cos(0.5 * n.theta) ** 2
        s2 = math.sin(0.5 * n.theta) ** 2
        cross = 0.5 * math.sin(n.theta) * cmath.exp(-1j * n.phi)
        entries.append((((c2, cross), (cross.conjugate(), s2)),
                        ((s2, -cross), (-cross.conjugate(), c2))))
    return np.array(entries, dtype=complex).reshape(len(entries), 2, 2, 2)


@dataclass(frozen=True)
class InteractionSequence:
    """Ordered ``(tag, unitary)`` interaction steps on one shared layout.

    Order is time order: the first step acts first. Each step acts on some
    factors of ``layout``, in any order, and is verified unitary on that
    block at construction; a block that :func:`measurement_block` built
    was checked there, so its residual is read, not recomputed. Tags name
    the steps, so no two steps share one.
    """

    steps: tuple[tuple[str, Operator], ...]
    layout: SubsystemLayout

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple((str(t), u) for t, u in self.steps))
        if len(set(self.tags)) != len(self.steps):
            raise ValueError(f"step tags {self.tags} repeat")
        factors = set(self.layout.factors)
        for tag, u in self.steps:
            if not factors.issuperset(u.layout.factors):
                raise LayoutError(f"step {tag!r} is not on factors of {self.layout.factors}")
            if not u.is_unitary(DEFAULT_TOL):
                raise NonUnitaryError(f"step {tag!r} is not unitary within {DEFAULT_TOL}")

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.steps)

    @cached_property
    def _plan(self) -> list[tuple]:
        return _plan((self,))

    def total_unitary(self) -> Operator:
        """Product of all steps embedded in the layout, earliest step
        rightmost: the dense reference for :func:`heisenberg_evolve`."""
        if not self.steps:
            raise ValueError("empty sequence has no total unitary")
        total = embed(self.steps[0][1], self.layout).matrix
        for _, u in self.steps[1:]:
            total = embed(u, self.layout).matrix @ total
        return Operator(self.layout, total)


@dataclass(frozen=True, eq=False)
class Measurement(Operator):
    """An ideal-measurement block ``sum_i u_i (x) P_i`` on ``[observer, system
    factors]`` that keeps its terms beside the dense matrix: the ``u_i``
    stacked on the observer's factor, and the ``P_i`` as the ``(labels,
    stack)`` groups it was built from, whose per-term Kronecker product they
    are."""

    shifts: np.ndarray
    projectors: tuple[tuple[tuple[str, ...], np.ndarray], ...]


@lru_cache(maxsize=64)
def _structure(layout: SubsystemLayout, steps: tuple) -> tuple:
    """Per step on ``layout``, latest first: its layout positions and, for a
    measurement, the positions of each projector group and those that any
    earlier step acts on. ``steps`` holds each step's layout and, for a
    measurement, its groups' labels (else None), which is all these depend
    on: every sequence of one experiment and entangler setting shares them."""
    out, earlier = [], set()
    for step_layout, groups in steps:
        rows = tuple(layout.position(label) for label in step_layout.labels)
        controls = None if groups is None else (
            tuple(tuple(layout.position(label) for label in labels) for labels in groups),
            frozenset(earlier))
        earlier.update(rows)
        out.append((rows, controls))
    return tuple(out[::-1])


def _stacked(u: Operator, more: list[Operator], get) -> np.ndarray:
    """``get`` of a step at the first point, ``u``, when the step at every
    other point, in ``more``, gives that same array; else the points' arrays
    stacked on a leading point axis."""
    first = get(u)
    return first if all(get(v) is first for v in more) else np.stack([first, *map(get, more)])


def _signature(seq: InteractionSequence) -> tuple:
    """Each step's layout and, for a measurement, its projector groups' labels."""
    return tuple((u.layout, tuple(labels for labels, _ in u.projectors)
                  if isinstance(u, Measurement) else None) for _, u in seq.steps)


def _plan(seqs: Sequence[InteractionSequence]) -> list[tuple]:
    """Per step, latest first: its layout positions, its block as a stack of
    one, and for a measurement the terms of rule (b): the observer's
    positions and shifts, the projectors' groups on the layout, and the
    positions that any earlier step acts on.

    ``seqs`` is a grid: one sequence per point, on one layout and with one
    :func:`_signature`. A step's matrix, shifts or projector group that is
    not one object at every point is stacked on a leading point axis; the
    rest is shared, as everything is for one sequence.
    """
    first = seqs[0]
    layout, signature = first.layout, _signature(first)
    if any(s.layout != layout or _signature(s) != signature for s in seqs[1:]):
        raise LayoutError("the sequences of a grid differ in layout or in their steps' factors")
    plan = []
    for i, (rows, controls) in zip(reversed(range(len(signature))), _structure(layout, signature)):
        u, more = first.steps[i][1], [s.steps[i][1] for s in seqs[1:]]
        terms = None
        if controls is not None:
            groups, earlier = controls
            projectors = [_stacked(u, more, lambda v: v.projectors[g][1])
                          for g in range(len(groups))]
            terms = (rows[:1], _stacked(u, more, lambda v: v.shifts),
                     tuple(_merge(layout, [part]) for part in zip(groups, projectors)), earlier)
        plan.append((rows, _stacked(u, more, lambda v: v.matrix)[..., None, :, :], terms))
    return plan


def measurement_block(observer: str, projectors: Sequence[Sequence[Operator]],
                      shifts: Sequence[Operator] | None = None) -> Measurement:
    """Ideal-measurement unitary ``sum_i u_i (x) P_i`` on ``[observer, system factors]``.

    ``projectors`` holds groups on disjoint factors, each ``n`` operators on
    one layout: ``P_i`` is the Kronecker product of every group's ``i``-th
    entry, in group order, and the system is the groups' factors in that
    order. The ``P_i`` are complete and orthogonal. ``shifts`` are the
    ``u_i``, unitaries on the observer's factor; by default ``u_i`` shifts an
    observer with one state more than there are outcomes from ignorant to
    aware of outcome ``i``.
    """
    groups = [tuple(group) for group in projectors]
    n = len(groups[0]) if groups else 0
    if not n:
        raise LayoutError("a measurement needs at least one projector group, and no empty one")
    if any(len(group) != n for group in groups):
        raise LayoutError(f"projector groups differ in length: {[len(g) for g in groups]}")
    layouts = [group[0].layout for group in groups]
    if any(q.layout != layout for layout, group in zip(layouts, groups) for q in group):
        raise LayoutError("the projectors of a group must share one layout")
    labels = [label for layout in layouts for label in layout.labels]
    shared = sorted({label for label in labels if labels.count(label) > 1})
    if shared:
        raise LayoutError(f"projector groups share the factors {shared}")
    if observer in labels:
        raise LayoutError(f"observer and system share the label {observer!r}")
    if shifts is None:
        u = _shifts(n + 1)[1:]
        observer_layout = single_factor(observer, n + 1)
    else:
        if bad := [i for i, v in enumerate(shifts) if not v.is_unitary()]:
            raise ValueError(f"shift {bad[0]} on {observer!r} is not unitary within {DEFAULT_TOL}")
        if (len(shifts) != n or len({v.layout for v in shifts}) != 1
                or shifts[0].layout.labels != (observer,)):
            raise LayoutError(f"need one shift on factor {observer!r} per projector")
        u = np.stack([v.matrix for v in shifts])
        observer_layout = shifts[0].layout
    layout = SubsystemLayout((*observer_layout.factors, *(f for g in layouts for f in g.factors)))
    stacks = [np.stack([q.matrix for q in group])[None] for group in groups]
    block, = _measurement_blocks([layout], u, [tuple(g.labels for g in layouts)], stacks)
    return block


def _measurement_blocks(layouts: Sequence[SubsystemLayout], u: np.ndarray,
                        labels: Sequence[tuple[tuple[str, ...], ...]],
                        stacks: Sequence[np.ndarray]) -> list[Measurement]:
    """The ``k`` blocks ``sum_i u_i (x) P_i``, built and checked at once: block
    ``j`` on ``layouts[j]``, the observer then its groups' factors, whose
    labels are ``labels[j]``; the layouts differ in labels only. Every block
    shares the ``(n, o, o)`` shifts
    ``u``; ``stacks`` holds each group's ``(k, n, d, d)`` stack, so
    ``P_i`` of block ``j`` is the Kronecker product of every group's entry
    ``[j, i]``. Each block's entries must be finite, its ``P_i`` orthogonal
    and complete, and the block unitary."""
    k, n = stacks[0].shape[:2]
    if not all(np.isfinite(f).all() for f in stacks):
        raise ValueError("projector family contains non-finite entries")
    # |P_i P_j| for i != j is the product of the groups' |F_i F_j|, since
    # P_i P_j is the Kronecker product of the F_i F_j; |P_i P_i - P_i| on the diagonal
    gaps = np.prod([np.linalg.norm(f[:, :, None] @ f[:, None], axis=(-2, -1)) for f in stacks],
                   axis=0)
    _, p = _merge(layouts[0], [(tuple(map(layouts[0].position, group)),
                                f.reshape(-1, *f.shape[2:]))
                               for group, f in zip(labels[0], stacks)])
    p = p.reshape(k, n, *p.shape[1:])
    diagonal = np.arange(n)
    gaps[:, diagonal, diagonal] = np.linalg.norm(p @ p - p, axis=(-2, -1))
    if np.any(gaps >= DEFAULT_TOL):
        raise ValueError("projector family is not orthogonal within tolerance")
    if np.any(np.linalg.norm(p.sum(axis=1) - np.eye(p.shape[-1]), axis=(-2, -1)) >= DEFAULT_TOL):
        raise ValueError("projector family does not sum to the identity (incomplete family)")

    matrices = np.einsum("iab,kicd->kacbd", u, p).reshape(k, layouts[0].total_dim, -1)
    # |u†u - I| of every block at once; each block keeps its own, so a
    # sequence reads it rather than computing it again
    residuals = np.linalg.norm(matrices.conj().swapaxes(-1, -2) @ matrices
                               - np.eye(matrices.shape[-1]), axis=(-2, -1))
    if not np.all(residuals < DEFAULT_TOL):
        raise NonUnitaryError("measurement unitary failed its unitarity post-check")
    blocks = []
    for j, (layout, m, group_labels) in enumerate(zip(layouts, matrices, labels)):
        block = Measurement(layout, m, u, tuple(zip(group_labels, (f[j] for f in stacks))))
        object.__setattr__(block, "_unitarity_residual", float(residuals[j]))
        blocks.append(block)
    return blocks


def measurement_unitary(layout: SubsystemLayout, observer: str,
                        projectors: Sequence[Sequence[Operator]]) -> Operator:
    """Ideal-measurement unitary ``sum_i u_i (x) P_i`` on the full layout:
    :func:`measurement_block` embedded."""
    return embed(measurement_block(observer, projectors), layout)


def light_cone(labels: Iterable[str], seq: InteractionSequence) -> frozenset[str]:
    """The factors an observable on ``labels`` can come to act on under ``seq``.

    Walking the steps latest first, a step whose factors meet the cone
    adds all of its factors; a step that misses it cannot change the
    observable.
    """
    cone = set(labels)
    for _, u in reversed(seq.steps):
        if cone.intersection(u.layout.labels):
            cone.update(u.layout.labels)
    return frozenset(cone)


def _merge(layout: SubsystemLayout, parts, identities=()) -> tuple:
    """One group from the per-term Kronecker product of ``(positions, stack)``
    parts and the identity on each position in ``identities``: its
    positions, ascending, and its ``(T, d, d)`` stack, ``T`` the parts' term
    count (a part of one term applies to every term). A stack that leads
    with a point axis makes the product lead with it."""
    parts = [*parts, *(((k,), np.eye(layout.dims[k])[None]) for k in identities)]
    positions, stack = parts[0]
    for more, a in parts[1:]:
        n, m = stack.shape[-1], a.shape[-1]
        stack = stack[..., :, None, :, None] * a[..., None, :, None, :]
        stack = stack.reshape(*stack.shape[:-4], n * m, n * m)
        positions += more
    ascending = tuple(sorted(positions))
    if ascending != positions:
        order = sorted(range(len(positions)), key=positions.__getitem__)
        dims, k, lead = tuple(layout.dims[p] for p in positions), len(positions), stack.ndim - 2
        axes = (*range(lead), *(lead + j for j in order), *(lead + k + j for j in order))
        shape = stack.shape
        stack = stack.reshape(*shape[:lead], *dims, *dims).transpose(axes).reshape(shape)
    return ascending, stack


def _conjugate(layout: SubsystemLayout, positions, a: np.ndarray, rows, u: np.ndarray):
    """The stack of ``u_i† a_t u_i``, term ``t * n + i``, for a group's
    ``(T, d, d)`` stack ``a`` on ``positions`` and an ``(n, b, b)`` stack of
    blocks on its factors at the layout positions ``rows``; either may lead
    with a point axis, and then the result does.

    The group tensor is transposed so the block's row axes lead and its
    column axes trail: one matrix product multiplies each side, with the
    same operands per point as for that point alone.
    """
    m, b, lead = len(positions), u.shape[-1], a.ndim - 3
    if positions == rows:
        u = u[..., None, :, :, :]  # a point axis of the blocks leads the terms' axis
        y = u.conj().swapaxes(-1, -2) @ a[..., None, :, :] @ u
        return y.reshape(*y.shape[:-4], -1, *a.shape[-2:])
    uh = u.conj().swapaxes(-1, -2)
    dims = tuple(layout.dims[p] for p in positions)
    local = [positions.index(r) for r in rows]
    rest = [k for k in range(m) if k not in local]
    axes = (*(1 + k for k in local), 0, *(1 + k for k in rest),
            *(1 + m + k for k in rest), *(1 + m + k for k in local))
    x = a.reshape(*a.shape[:-2], *dims, *dims).transpose(
        (*range(lead), *(lead + k for k in axes)))
    y = uh @ x.reshape(*x.shape[:lead], *[1] * lead, b, -1)
    y = y.reshape(*y.shape[:-2], -1, b) @ u
    points = y.ndim - 3
    back = (1 + axes.index(0), 0, *(1 + axes.index(k) for k in range(1, 2 * m + 1)))
    y = y.reshape(*y.shape[:-2], *x.shape[lead:]).transpose(
        (*range(points), *(points + k for k in back)))
    return y.reshape(*y.shape[:points], -1, *a.shape[-2:])


def _entries_at(layout: SubsystemLayout, positions, a: np.ndarray, observer: int,
                u: np.ndarray, at: Sequence[int]) -> np.ndarray:
    """``c[t * n + i] = v_i† a_t v_i`` with ``v_i = u_i[:, at[observer]]``, for a
    group's ``(T, d, d)`` stack ``a`` on ``positions`` whose other factors are
    indexed at ``at``, and an ``(n, b, b)`` stack of shifts on ``observer``:
    each term's entry at ``at`` once conjugated by each shift."""
    dims = tuple(layout.dims[p] for p in positions)
    index = tuple(slice(None) if p == observer else at[p] for p in positions)
    a = a.reshape(len(a), *dims, *dims)[(slice(None), *index, *index)]
    v = u[:, :, at[observer]]
    return np.einsum("ia,tab,ib->ti", v.conj(), a, v).ravel()


def _commutes(layout: SubsystemLayout, groups, positions, f: np.ndarray) -> bool:
    """Whether each entry of a projector group's ``(n, d, d)`` stack ``f`` on
    ``positions`` commutes bitwise with every term of the ``groups`` it
    meets, both merged onto their shared factors with the identity padded
    in. One entry at a time, stopping at the first that does not."""
    meet = [g for g in groups if not set(positions).isdisjoint(g[0])]
    if not meet:
        return True
    covered = set().union(*(g[0] for g in meet))
    merged, a = _merge(layout, meet, sorted(set(positions) - covered))
    pad = sorted(set(merged) - set(positions))
    for entry in f:
        _, e = _merge(layout, [(positions, entry[None])], pad)
        if not np.array_equal(e @ a, a @ e):
            return False
    return True


def _outcome_sum(layout: SubsystemLayout, positions, b: np.ndarray, control) -> tuple:
    """One group from ``sum_i b[t * n + i] (x) P_i`` per term ``t``, for a
    group's ``(T * n, d, d)`` stack ``b`` on ``positions`` and the ``(n, e, e)``
    stack of the ``P_i`` on the control's positions: one matrix product over
    the outcomes, then one transposed copy into layout order."""
    where, p = control
    merged = positions + where
    n, m, k = p.shape[-3], len(positions), len(merged)
    dims = tuple(layout.dims[q] for q in merged)
    d = b.shape[-1] * p.shape[-1]
    s = (b.reshape(*b.shape[:-3], -1, n, b.shape[-1] ** 2).swapaxes(-1, -2)
         @ p.reshape(*p.shape[:-3], n, -1)[..., None, :, :])
    # axes of s: the term, the group's rows then columns, the control's rows then columns
    rows = (*range(1, m + 1), *range(2 * m + 1, m + k + 1))
    cols = (*range(m + 1, 2 * m + 1), *range(m + k + 1, 2 * k + 1))
    order = sorted(range(k), key=merged.__getitem__)
    lead = s.ndim - 3
    axes = (*range(lead + 1), *(lead + rows[j] for j in order), *(lead + cols[j] for j in order))
    shape = (*s.shape[:lead], -1, *dims[:m], *dims[:m], *dims[m:], *dims[m:])
    s = s.reshape(shape).transpose(axes)
    return tuple(sorted(merged)), s.reshape(*s.shape[:lead], -1, d, d)


@dataclass(frozen=True, eq=False)
class LabelSum:
    """An operator on ``layout`` as a sum of product terms ``sum_t (x)_g a[g][t]``.

    ``groups`` holds ``(positions, stack)`` pairs: the ascending layout
    positions of a group's factors and its ``(T, d_g, d_g)`` stack, one
    factor per term. Groups are disjoint, and a factor in no group is the
    identity. Each term is one labelled copy: a measurement splits a term
    into one per outcome, the awareness on the observer tied to the
    projector on the system. Walked over a grid of sequences, a stack that
    differs between points is ``(P, T, d_g, d_g)``: one sum per point.
    """

    layout: SubsystemLayout
    groups: tuple[tuple[tuple[int, ...], np.ndarray], ...]

    @classmethod
    def local(cls, op: Operator, layout: SubsystemLayout) -> "LabelSum":
        """One term: ``op`` on its own factors of ``layout``."""
        positions = tuple(layout.position(label) for label in op.layout.labels)
        if tuple(layout.dims[k] for k in positions) != op.layout.dims:
            raise LayoutError(f"{op.layout.factors} are not factors of {layout.factors}")
        return cls(layout, (_merge(layout, [(positions, op.matrix[None])]),))

    def __len__(self) -> int:
        return self.groups[0][1].shape[-3]

    def mean(self, indices: Sequence[int]) -> complex | np.ndarray:
        """``<psi|A|psi>`` in the product basis state with one index per
        factor: each term's product of its groups' diagonal entries, summed;
        for a sum with a point axis, one such value per point."""
        _basis_index(self.layout, indices)
        terms = np.ones(len(self), dtype=complex)
        for positions, a in self.groups:
            flat = 0
            for k in positions:
                flat = flat * self.layout.dims[k] + indices[k]
            terms = terms * a[..., flat, flat]
        # each point's terms are added alone: numpy adds the rows of a 2-D
        # array at once in another order than it adds one row
        return terms.sum() if terms.ndim == 1 else np.array([row.sum() for row in terms])

    def block(self) -> Operator:
        """The sum as one operator on the factors of its groups, in layout
        order: each term's groups merged, one term at a time, and the terms
        added. The sum is this block tensored with the identity on every
        other factor. One group of one term, as every unsplit sum is, is its
        own block, and a sum of no terms is 0.
        """
        positions, matrix = self._block_matrix()
        return Operator(SubsystemLayout(tuple(self.layout.factors[k] for k in positions)), matrix)

    def _block_matrix(self) -> tuple[tuple[int, ...], np.ndarray]:
        """:meth:`block` as its layout positions and its matrix, unchecked:
        one group of one term gives its stack's own matrix, not a copy."""
        positions, total = _merge(self.layout, [(p, a[:1]) for p, a in self.groups])
        for t in range(1, len(self)):
            total = total + _merge(self.layout, [(p, a[t:t + 1]) for p, a in self.groups])[1]
        return positions, total[0] if len(total) else total.sum(axis=0)


class GridSplit(Exception):
    """A rule the walk decides by value reads a stack that differs between
    the points of a grid: walk each point as its own grid."""


def _shared(*stacks: np.ndarray) -> None:
    """Raise :class:`GridSplit` unless every stack is shared by the grid's
    points, so that a decision read off them is the same at every point."""
    if any(a.ndim == 4 for a in stacks):
        raise GridSplit("grid points may decide a rule differently; walk them apart")


def evolve_label_sum(op: Operator | LabelSum,
                     seq: InteractionSequence | Sequence[InteractionSequence],
                     split: bool = True, at: Sequence[int] | None = None) -> LabelSum:
    """``U† op U`` for the sequence product ``U`` (earliest step rightmost) as a
    :class:`LabelSum`, ``op`` acting on some factors of the sequence's layout,
    or already a sum on that layout, which the walk then continues.

    Latest step first: (a) a step that meets no group is skipped, and so is
    a measurement whose observer is in no group when each of its projector
    groups commutes exactly, entry by entry, with every term of the groups
    it meets, since then ``sum_i u_i† u_i (x) a P_i`` is ``a``; (b) a
    measurement whose system factors are in no group conjugates the
    observer's group by each shift alone, as ``U† (a (x) I) U`` is
    ``sum_i u_i† a u_i (x) P_i`` for orthogonal ``P_i``: under ``split`` it
    puts ``u_i† a u_i`` on the observer's group and ``P_i`` on the system,
    one term per term and outcome, and without it sums them over the
    outcomes into one group, one term per term; (c) any other step merges
    the groups it touches, with the identity on its factors in none, and
    conjugates them by its block, every term at once.

    Given ``at``, the product basis state with one index per factor, rule
    (b) reads a measured observer there once no earlier step acts on any
    factor of its merged group: rather than keep ``u_i† a_t u_i``, it scales
    the first projector group by ``c[t, i] = v_i† a_t v_i``, with
    ``v_i = u_i[:, at[observer]]`` and the group's other factors indexed at
    ``at``, drops the group and every term whose ``c`` is exactly 0. The
    steps still to come act on other factors, so the mean at ``at`` factors
    through this entry: the result is exact for ``.mean(at)`` only.

    ``seq`` may also be a grid: a list of sequences, one per point, with the
    same steps up to their matrices (see :func:`_plan`). A stack that differs
    between points then carries a point axis, and each point's sum holds the
    terms its own walk holds, in the same order and with the same bits. The
    skip of rule (a) and the drop at ``at`` are decided once, for every
    point: when a stack either decision reads has a point axis, the walk
    raises :class:`GridSplit`.
    """
    seqs = (seq,) if isinstance(seq, InteractionSequence) else tuple(seq)
    if not seqs:
        raise ValueError("an empty grid has no sequence to walk")
    layout = seqs[0].layout
    if at is not None:
        _basis_index(layout, at)
    if not isinstance(op, LabelSum):
        label_sum = LabelSum.local(op, layout)
    elif op.layout == layout:
        label_sum = op
    else:
        raise LayoutError(f"a sum on {op.layout.factors} cannot evolve on {layout.factors}")
    for rows, block, measurement in seqs[0]._plan if len(seqs) == 1 else _plan(seqs):
        groups = label_sum.groups
        touched = [g for g in groups if not set(rows).isdisjoint(g[0])]
        if not touched:
            continue
        rest = tuple(g for g in groups if set(rows).isdisjoint(g[0]))
        covered = set().union(*(g[0] for g in touched))
        if measurement and rows[0] not in covered:
            _shared(*(a for _, a in (*touched, *measurement[2])))
            if all(_commutes(layout, touched, p, f) for p, f in measurement[2]):
                continue
        if measurement and not any(covered.intersection(p) for p, _ in measurement[2]):
            target, shifts, controls, earlier = measurement
            # the observer is in a group: the step meets one, and its system does not
            positions, a = _merge(layout, touched)
            n = shifts.shape[-3]
            if not split:
                b = _conjugate(layout, positions, a, target, shifts)
                groups = (_outcome_sum(layout, positions, b, _merge(layout, controls)), *rest)
            elif at is not None and earlier.isdisjoint(positions):
                _shared(a, shifts)
                c = _entries_at(layout, positions, a, target[0], shifts, at)
                keep = np.flatnonzero(c)
                (p, x), *more = controls
                groups = ((p, x[..., keep % n, :, :] * c[keep, None, None]),
                          *((q, y[..., keep % n, :, :]) for q, y in more),
                          *((q, y[..., keep // n, :, :]) for q, y in rest))
            else:
                groups = ((positions, _conjugate(layout, positions, a, target, shifts)),
                          *((p, np.repeat(x, n, axis=-3)) for p, x in rest),
                          *((p, np.tile(x, (len(label_sum), 1, 1))) for p, x in controls))
        else:
            positions, a = _merge(layout, touched, sorted(set(rows) - covered))
            groups = ((positions, _conjugate(layout, positions, a, rows, block)), *rest)
        label_sum = LabelSum(layout, groups)
    return label_sum


def heisenberg_evolve(op: Operator, seq: InteractionSequence) -> Operator:
    """``U† op U`` on the sequence's layout, ``op`` acting on some of its
    factors: :func:`evolve_label_sum` without splitting, so one term that is
    dense only within the light cone of ``op``, embedded once."""
    if not seq.steps and seq.layout == op.layout:
        return op
    return embed(evolve_label_sum(op, seq, split=False).block(), seq.layout)
