"""One declarative definition for both correlation experiments.

EPRB and GHZM are one mechanism applied twice: observers measure their own
particles through ideal-measurement interactions, optionally after an
entangling interaction between the particles, and the evolved observer
operators carry the labels that match each outcome with its partner. An
:class:`Experiment` holds only what tells the two apart: the layout and
initial basis state, the ``(observer, particle)`` measurement pairs, the
entangler, any trailing readout steps and the named observables, each a
factor label with eigenvalues. Building those operators and the interaction
sequence, evaluating the means, cross-checking them against state evolution
and tabulating operator support are written once, here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import matmul
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .labels import support
from .measure import (
    SPIN_OUTCOMES,
    Direction,
    InteractionSequence,
    ObserverSpec,
    heisenberg_evolve,
    measurement_block,
    spin_projector,
)
from .schrodinger import schrodinger_evolve
from .tensor import Operator, StateVector, SubsystemLayout, embed, expectation, real_expectation

Eigenvalues = tuple[float, ...]


@dataclass(frozen=True, eq=False)
class Experiment:
    """Everything that distinguishes one correlation experiment.

    ``means`` lists ``(column, table label, observable names, eigenvalues)``
    in output order: the value is the initial-state expectation of the
    product of the named observables, each evolved on its own. Eigenvalues
    of ``None`` mean the run's own. Table labels and ``preset_line`` may
    hold ``{preset}`` (the preset name) and ``{eigenvalues}`` fields.
    """

    name: str
    layout: SubsystemLayout
    initial_indices: tuple[int, ...]
    #: ``(observer, particle)`` pairs in time order, one per direction
    measurements: tuple[tuple[str, str], ...]
    #: unitary on the particle factors alone, applied first when enabled
    entangler: Operator
    #: ``(tag, unitary on some factors of the layout)`` steps after the measurements
    readout: tuple[tuple[str, Operator], ...]
    #: time stage after the last step, as named in the support ledger
    stage: str
    preset_key: str
    presets: Mapping[str, Eigenvalues]
    preset_line: str
    #: ``(name, observer label)`` of each belief observable the means read
    observers: tuple[tuple[str, str], ...]
    means: tuple[tuple[str, str, tuple[str, ...], Eigenvalues | None], ...]
    #: ``(name, factor label, eigenvalues)`` of each time-t0 observable whose
    #: support the ledger follows
    ledger: tuple[tuple[str, str, Eigenvalues], ...]
    #: called with the means by column; raises if they break an invariant
    report: Callable[..., object] = dict

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

    @lru_cache(maxsize=4)
    def beliefs(self, eigenvalues: Eigenvalues) -> Mapping[str, Operator]:
        """Each observer's belief operator on the full layout (time t0), by
        name. Cached per experiment (hashed by identity) and eigenvalue tuple;
        the mapping is read-only, since every caller shares it."""
        return MappingProxyType({name: _observable(label, eigenvalues, self.layout)
                                 for name, label in self.observers})

    def sequence(self, directions: Sequence[Direction], entangled: bool) -> InteractionSequence:
        """Entangler (when enabled), one spin measurement per pair, readout."""
        steps = [("t1:entangle", self.entangler)] if entangled else []
        pairs = zip(self.measurements, directions, strict=True)
        for k, ((observer, particle), n) in enumerate(pairs, 1):
            projectors = [spin_projector(n, o, particle) for o in SPIN_OUTCOMES]
            steps.append((f"t2:measure-{k}", measurement_block(observer, projectors)))
        steps += self.readout
        return InteractionSequence(tuple(steps), self.layout)

    def run(
        self,
        directions: Sequence[Direction],
        entangled: bool,
        eigenvalues: Eigenvalues,
        verify: bool = False,
    ) -> tuple[dict[str, float], float | None]:
        """Every mean by column, and under ``verify`` the largest gap between
        a mean and its value in the state evolved once instead (else None).

        Each distinct observable is evolved once; one sequence serves all
        eigenvalues, since its unitaries do not depend on them.
        """
        resolved = [m[3] or tuple(eigenvalues) for m in self.means]
        seq = self.sequence(directions, entangled)
        beliefs = {e: self.beliefs(e) for e in dict.fromkeys(resolved)}
        psi0 = self.initial_state()
        evolved = {e: {name: heisenberg_evolve(op, seq) for name, op in observables.items()}
                   for e, observables in beliefs.items()}
        values = {m[0]: real_expectation(psi0, _product(evolved[e], m[2]))
                  for m, e in zip(self.means, resolved)}
        self.report(**values)
        if not verify:
            return values, None
        psi = schrodinger_evolve(psi0, seq)
        return values, max(abs(values[m[0]] - expectation(psi, _product(beliefs[e], m[2])))
                           for m, e in zip(self.means, resolved))

    def support_ledger(self, directions: Sequence[Direction], tol: float) -> list[list]:
        """Rows ``[observable, stage, support labels, residual per label...]``
        at t0 and after the sequence without and with the entangler."""
        stages = {"t0": InteractionSequence((), self.layout),
                  f"{self.stage}-nonentangled": self.sequence(directions, False),
                  f"{self.stage}-entangled": self.sequence(directions, True)}
        rows = []
        for name, label, eigenvalues in self.ledger:
            op = _observable(label, eigenvalues, self.layout)
            for stage, seq in stages.items():
                sup = support(heisenberg_evolve(op, seq), tol)
                ordered = [lbl for lbl in self.layout.labels if lbl in sup.labels]
                residuals = [sup.residuals[lbl] for lbl in self.layout.labels]
                rows.append([name, stage, ",".join(ordered), *residuals])
        return rows


def _observable(label: str, eigenvalues: Eigenvalues, layout: SubsystemLayout) -> Operator:
    """The diagonal operator with these eigenvalues on factor ``label``,
    embedded in ``layout``; :class:`ObserverSpec` validates the eigenvalues."""
    return embed(ObserverSpec(label, eigenvalues).belief_operator(), layout)


def _product(operators: Mapping[str, Operator], names: tuple[str, ...]) -> Operator:
    return reduce(matmul, (operators[n] for n in names))
