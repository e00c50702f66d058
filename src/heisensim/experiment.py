"""One declarative definition for both correlation experiments.

EPRB and GHZM are one mechanism applied twice: observers measure their own
particles through ideal-measurement interactions, optionally after an
entangling interaction between the particles, and the evolved observer
operators carry the labels that match each outcome with its partner. An
:class:`Experiment` holds only what tells the two apart: the layout and
initial basis state, the ``(observer, particle)`` measurement pairs, which
with that state fix the entangler, any trailing readout steps and the named
observables, each on one factor. Building those operators and the
interaction sequence, evaluating the means, cross-checking them against
state evolution and tabulating operator support are written once, here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Mapping, Sequence

import numpy as np

from .labels import support
from .measure import (
    SPIN_OUTCOMES,
    Direction,
    GridSplit,
    InteractionSequence,
    _measurement_blocks,
    _shifts,
    _spin_stack,
    evolve_label_sum,
    light_cone,
)
from .schrodinger import product_expectation, schrodinger_evolve
from .tensor import (
    DEFAULT_TOL,
    InvariantError,
    LayoutError,
    Operator,
    StateVector,
    SubsystemLayout,
    _basis_index,
    kron,
    real_part,
    single_factor,
)

Eigenvalues = tuple[float, ...]

#: points walked as one grid: a run over more walks them this many at a time,
#: so its memory stays that of this many points
GRID_CHUNK = 32


@dataclass(frozen=True, eq=False)
class Experiment:
    """Everything that distinguishes one correlation experiment.

    ``means`` lists ``(column, table label, observable names, eigenvalues)``
    in output order: the value is the initial-state expectation of the
    product of the named observables, evolved as one observable. Eigenvalues
    of ``None`` mean the run's own; with all of them in {0, 1} the product is
    a projector, so the mean is checked as a probability. Table labels and
    ``preset_line`` may hold ``{preset}`` (the preset name) and ``{eigenvalues}`` fields.
    """

    name: str
    layout: SubsystemLayout
    initial_indices: tuple[int, ...]
    #: ``(observer, particle)`` pairs in time order, one per direction
    measurements: tuple[tuple[str, str], ...]
    #: unitary on the measured particles, applied first when enabled: their
    #: initial state ``s`` and its all-flipped ``s̄`` go to ``(|s> - |s̄>)/sqrt(2)``
    #: and ``(|s> + |s̄>)/sqrt(2)``, and every other state is fixed; EPRB's
    #: up-down goes to the singlet, GHZM's all-up to ``(|uuu> - |ddd>)/sqrt(2)``
    entangler: Operator = field(init=False, repr=False)
    #: ``(tag, unitary on some factors of the layout)`` steps after the measurements
    readout: tuple[tuple[str, Operator], ...]
    preset_key: str
    presets: Mapping[str, Eigenvalues]
    preset_line: str
    means: tuple[tuple[str, str, tuple[str, ...], Eigenvalues | None], ...]
    #: ``(name, factor label, eigenvalues)`` of each time-t0 observable: the
    #: means name them, and the ledger follows the support of each. In the
    #: eigenvalues ``(b0, ..., bN)``, ``b1..bN`` label awareness of outcomes 1..N
    #: and are pairwise distinct; ``b0`` labels ignorance and may repeat one, as
    #: the probability preset ``(0, 1, 0)`` does to make a projector.
    ledger: tuple[tuple[str, str, Eigenvalues], ...]
    #: per spin measurement, its block's layout and projector labels, and the
    #: default shifts they share: the same on every run, so built once
    _spin_blocks: tuple = field(init=False, repr=False)

    def __post_init__(self):
        _basis_index(self.layout, self.initial_indices)
        particles = SubsystemLayout(tuple((p, 2) for _, p in self.measurements))
        s = [self.initial_indices[self.layout.position(p)] for p in particles.labels]
        i, j = _basis_index(particles, s), _basis_index(particles, [1 - k for k in s])
        m = np.eye(particles.total_dim, dtype=complex)
        r = 1.0 / math.sqrt(2.0)
        m[i, i] = m[i, j] = m[j, j] = r
        m[j, i] = -r
        object.__setattr__(self, "entangler", Operator(particles, m))
        n = len(SPIN_OUTCOMES)
        object.__setattr__(self, "_spin_blocks", (
            tuple(SubsystemLayout(((observer, n + 1), (particle, 2)))
                  for observer, particle in self.measurements),
            tuple(((particle,),) for _, particle in self.measurements),
            _shifts(n + 1)[1:]))

    @property
    def angle_keys(self) -> tuple[str, ...]:
        """Manifest keys of the analyzer angles: theta1, phi1, theta2, ..."""
        return tuple(f"{angle}{k}" for k in range(1, len(self.measurements) + 1)
                     for angle in ("theta", "phi"))

    @property
    def keys(self) -> tuple[str, ...]:
        """Manifest keys that belong to this experiment."""
        return (*self.angle_keys, self.preset_key)

    def initial_state(self) -> StateVector:
        return StateVector.basis(self.layout, self.initial_indices)

    # room for every key the CLI asks for (13 over both experiments), so none evicts
    @lru_cache(maxsize=16)
    def observable(self, names: tuple[str, ...], eigenvalues: Eigenvalues) -> Operator:
        """The product of the named observables at time t0, each diagonal
        with these eigenvalues on its factor in ``ledger``. The factors are
        distinct, or :func:`kron` raises. Cached per experiment (hashed by
        identity), names and eigenvalues, since every caller shares it."""
        factors = {name: label for name, label, _ in self.ledger}
        if unknown := [name for name in names if name not in factors]:
            raise LayoutError(f"{self.name} has no observable {unknown[0]}; "
                              f"its ledger names {', '.join(factors)}")
        for name in names:
            if len(eigenvalues) != (dim := self.layout.dim_of(factors[name])):
                raise LayoutError(f"observable {name} on factor {factors[name]} takes {dim} "
                                  f"eigenvalues, one per state, got {len(eigenvalues)}")
        if len(set(outcomes := eigenvalues[1:])) != len(outcomes):
            raise ValueError(f"outcome eigenvalues {outcomes} must be pairwise distinct")
        return reduce(kron, (Operator(single_factor(factors[name], len(eigenvalues)),
                                      np.diag(eigenvalues)) for name in names))

    def sequence(self, directions: Sequence[Direction], entangled: bool) -> InteractionSequence:
        """Entangler (when enabled), one spin measurement per pair, readout."""
        seq, = self._sequences([directions], entangled)
        return seq

    def _sequences(self, points: Sequence[Sequence[Direction]],
                   entangled: bool) -> list[InteractionSequence]:
        """:meth:`sequence` at each point, one direction per measurement.

        Every spin measurement of the grid is built and checked in one pass:
        each block is the ``measurement_block`` of its observer and the
        ``spin_projector``s of its particle along its direction, bit for bit.
        The entangler and readout are the same objects at every point.
        """
        for directions in points:
            if len(directions) != len(self.measurements):
                raise ValueError(f"{self.name} takes {len(self.measurements)} directions, one "
                                 f"per measurement, got {len(directions)}")
        layouts, labels, shifts = self._spin_blocks
        k = len(layouts)
        stack = _spin_stack([n for directions in points for n in directions])
        blocks = _measurement_blocks(layouts * len(points), shifts, labels * len(points), [stack])
        head = (("t1:entangle", self.entangler),) if entangled else ()
        tags = [f"t2:measure-{j}" for j in range(1, k + 1)]
        return [InteractionSequence((*head, *zip(tags, blocks[i:i + k]), *self.readout),
                                    self.layout) for i in range(0, len(blocks), k)]

    def run(
        self,
        points: Sequence[Sequence[Direction]],
        entangled: bool,
        eigenvalues: Eigenvalues,
        verify: bool = False,
    ) -> tuple[list[dict[str, float]], list[float] | None]:
        """At each point, one direction per measurement: every mean by
        column; and under ``verify``, per point, the largest gap between a
        mean and its value in the state evolved once instead (else None).

        Each mean reads one observable, the product of its named ones, and
        each distinct observable is evolved once over the grid, as a label
        sum with a point axis where the points differ; one sequence per point
        serves all eigenvalues, since its unitaries do not depend on them.
        The initial state is a product basis state, so each mean is read off
        the sum's diagonal entries, with nothing embedded, and each measured
        observer is read at its initial index once no earlier step acts on
        its group, which drops the copies that weigh 0 there: the sums are
        exact for their mean in the initial state only. Each point's mean
        sums the copies its own walk keeps, in the same order, so a grid
        gives each point the bits a grid of that point alone gives. The
        state evolved instead, point by point, applies each named observable
        in turn, so a fault in forming their product shows there too.
        """
        keys = [(m[2], m[3] or tuple(eigenvalues)) for m in self.means]
        means, residuals = [], []
        initial = self.initial_state() if verify else None
        for start in range(0, len(points), GRID_CHUNK):
            seqs = self._sequences(points[start:start + GRID_CHUNK], entangled)
            evolved = {key: self._means(self.observable(*key), seqs)
                       for key in dict.fromkeys(keys)}
            for p, seq in enumerate(seqs):
                values = {m[0]: real_part(complex(evolved[key][p]))
                          for m, key in zip(self.means, keys)}
                for (column, *_), (_, ev) in zip(self.means, keys):
                    if set(ev) <= {0.0, 1.0} and not (
                            -DEFAULT_TOL <= values[column] <= 1 + DEFAULT_TOL):
                        raise InvariantError(f"{column} = {values[column]} is not a probability")
                means.append(values)
                if verify:
                    psi = schrodinger_evolve(initial, seq)
                    residuals.append(max(
                        abs(values[m[0]] - product_expectation(
                            psi, *(self.observable((name,), ev) for name in names)))
                        for m, (names, ev) in zip(self.means, keys)))
        return means, residuals if verify else None

    def _means(self, op: Operator, seqs: list[InteractionSequence]) -> Sequence[complex]:
        """The mean of ``op`` at the initial state after each sequence of a
        grid, read off one label sum; when the points may disagree on a rule
        the walk decides by value, each point is walked alone."""
        at = self.initial_indices
        try:
            values = evolve_label_sum(op, seqs, at=at).mean(at)
        except GridSplit:
            return [evolve_label_sum(op, seq, at=at).mean(at) for seq in seqs]
        return values if np.ndim(values) else [values] * len(seqs)

    def support_ledger(self, directions: Sequence[Direction], tol: float) -> list[list]:
        """Rows ``[observable, stage, support labels, residual per label...]``
        at t0 and after the sequence without and with the entangler, those
        stages named by its last step's tag up to the ``:``.

        The entangler is the earliest step, so the walk of the entangled
        sequence, latest step first, passes through the non-entangled sum:
        each observable is evolved once, unsplit, one step at a time, and
        that sum carried over the entangler alone.

        A factor's residual is read off the sum's block right after the last
        step of a stage's walk that acts on it, and a factor that no step of
        a stage acts on keeps its residual from the stage before; at t0 every
        factor is read. This is exact: the steps still to come act on other
        factors, and conjugating by a unitary ``V`` on other factors commutes
        with the partial trace over this one, so ``V† A V`` is as far from
        the identity there as ``A``. Each read block holds only the factors
        the walk has reached so far.

        A support outside the observable's light cone is a kernel fault and
        raises :class:`InvariantError`."""
        steps = self.sequence(directions, True).steps
        time = steps[-1][0].split(":")[0]
        # per stage, latest step first: the step alone, and the factors it acts
        # on that no earlier step of the stage does; t0 reads every factor
        stages = [("t0", [(InteractionSequence((), self.layout), self.layout.labels)])]
        for stage, part in ((f"{time}-nonentangled", steps[1:]),
                            (f"{time}-entangled", steps[:1])):
            walk, earlier = [], set()
            for step in part:
                labels = [lbl for lbl in step[1].layout.labels if lbl not in earlier]
                earlier.update(labels)
                walk.append((InteractionSequence((step,), self.layout), labels))
            stages.append((stage, walk[::-1]))
        rows = []
        for name, label, eigenvalues in self.ledger:
            evolved = self.observable((name,), eigenvalues)
            cone = frozenset((label,))
            nontrivial, residuals = frozenset(), {}
            for stage, walk in stages:
                for seq, labels in walk:
                    evolved = evolve_label_sum(evolved, seq, split=False)
                    cone = light_cone(cone, seq)
                    sup = support(evolved, tol, labels)
                    nontrivial = nontrivial - set(labels) | sup.labels
                    residuals.update(sup.residuals)
                if not nontrivial <= cone:
                    raise InvariantError(f"{name} at {stage} acts on {sorted(nontrivial - cone)}"
                                         f" outside its light cone {sorted(cone)}")
                ordered = [lbl for lbl in self.layout.labels if lbl in nontrivial]
                rows.append([name, stage, ",".join(ordered),
                             *(residuals[lbl] for lbl in self.layout.labels)])
        return rows
