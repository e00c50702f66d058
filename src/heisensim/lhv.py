"""Brute-force instruction-set (local-hidden-variable) bounds.

If each particle carries a predetermined response for every analyzer
orientation, the correlations those "instruction sets" can produce are
bounded. This module enumerates the sets exhaustively and computes the
bounds that the quantum pipelines violate: the cyclic joint spin-up sum is
at most 1 for any EPRB instruction-set distribution, and any GHZ
instruction set consistent with the three mixed-orientation constraints
predicts zero probability of an even spin-up count at equal orientations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Sequence

from .measure import DOWN, UP

#: Cyclic orientation pairings entering the Bell quantity, as indices into
#: the three orientations (0, 120 and 240 degrees); the quantum Bell
#: quantity pairs the same way.
_BELL_PAIRS = ((0, 1), (1, 2), (2, 0))

#: Orientation triples whose even-up probability the constraints force to
#: zero, as indices into each particle's analyzer alphabet (0 or 90 degrees).
_GHZ_CONSTRAINT_TRIPLES = ((0, 1, 1), (1, 0, 1), (1, 1, 0))

_DISTRIBUTION_TOL = 1e-9


@dataclass(frozen=True)
class EprbInstructionSet:
    """Particle 1's predetermined responses at the three orientations.

    Particle 2's responses are the pointwise opposite, so equal-orientation
    anticorrelation holds by construction.
    """

    outcomes: tuple[str, str, str]

    def __post_init__(self):
        if len(self.outcomes) != 3 or any(o not in (UP, DOWN) for o in self.outcomes):
            raise ValueError(f"outcomes must be three of {UP!r}/{DOWN!r}, got {self.outcomes}")

    def partner_outcome(self, angle_index: int) -> str:
        return DOWN if self.outcomes[angle_index] == UP else UP


def all_eprb_sets() -> tuple[EprbInstructionSet, ...]:
    """All 8 instruction sets, in lexicographic (up-first) order."""
    return tuple(EprbInstructionSet(o) for o in product((UP, DOWN), repeat=3))


def _joint_up(s: EprbInstructionSet, a: int, b: int) -> bool:
    # both particles deflect up: particle 1 up at a, particle 2 up at b,
    # i.e. particle 1 carries up-at-a and down-at-b
    return s.outcomes[a] == UP and s.partner_outcome(b) == UP


def eprb_q_over_distribution(weights: Sequence[float]) -> float:
    """Bell quantity for a probability distribution over the 8 sets."""
    weights = [float(w) for w in weights]
    if len(weights) != 8:
        raise ValueError(f"need 8 weights, got {len(weights)}")
    if not all(math.isfinite(w) for w in weights):
        raise ValueError(f"weights must be finite, got {weights}")
    if any(w < -_DISTRIBUTION_TOL for w in weights):
        raise ValueError("weights must be nonnegative")
    if abs(sum(weights) - 1.0) > _DISTRIBUTION_TOL:
        raise ValueError(f"weights sum to {sum(weights)!r}, not 1")
    sets = all_eprb_sets()
    q = 0.0
    for a, b in _BELL_PAIRS:
        q += sum(w for w, s in zip(weights, sets) if _joint_up(s, a, b))
    return q


#: each instruction set, in :func:`all_eprb_sets` order, with the Bell
#: quantity of the point mass on it
EPRB_SET_Q = tuple((s, eprb_q_over_distribution([float(j == k) for j in range(8)]))
                   for k, s in enumerate(all_eprb_sets()))


class QMax(NamedTuple):
    value: float
    witness: EprbInstructionSet


def eprb_q_max() -> QMax:
    """Maximum Bell quantity over instruction-set models, and the first set
    that attains it.

    The quantity is affine in the weights, so the maximum over
    distributions is attained at a point mass; the 8 vertices suffice.
    """
    witness, value = max(EPRB_SET_Q, key=lambda pair: pair[1])
    return QMax(value, witness)


@dataclass(frozen=True)
class GhzInstructionSet:
    """Predetermined responses of the three particles at 0 and 90 degrees.

    ``outcomes[p]`` is the pair (response at 0, response at 90) of
    particle ``p + 1``.
    """

    outcomes: tuple[tuple[str, str], tuple[str, str], tuple[str, str]]

    def outcome(self, particle: int, angle_index: int) -> str:
        return self.outcomes[particle - 1][angle_index]

    def up_count(self, angle_indices: tuple[int, int, int]) -> int:
        return sum(
            self.outcome(p, k) == UP for p, k in zip((1, 2, 3), angle_indices)
        )


def all_ghz_sets() -> tuple[GhzInstructionSet, ...]:
    """All 64 assignments of up/down to (particle, orientation)."""
    pairs = tuple(product((UP, DOWN), repeat=2))
    return tuple(GhzInstructionSet(triple) for triple in product(pairs, repeat=3))


class GhzVerdict(NamedTuple):
    instruction_set: GhzInstructionSet
    parity_at_zero: str  # "odd" or "even" spin-up count at (0, 0, 0)


def ghz_constrained_sets() -> list[GhzVerdict]:
    """Survivors of the mixed-orientation constraints, with their parity.

    Keeps the instruction sets whose spin-up count is odd at all three
    mixed orientation triples (those triples must never show an even
    count), and reports each survivor's spin-up parity at (0, 0, 0).
    """
    verdicts = []
    for s in all_ghz_sets():
        if all(s.up_count(t) % 2 == 1 for t in _GHZ_CONSTRAINT_TRIPLES):
            parity = "even" if s.up_count((0, 0, 0)) % 2 == 0 else "odd"
            verdicts.append(GhzVerdict(s, parity))
    return verdicts


def classical_ghz_p_eu_zero() -> float:
    """Instruction-set probability of an even spin-up count at (0, 0, 0).

    Every constraint-satisfying set has odd parity there, so the value is
    0 under any distribution over the survivors.
    """
    verdicts = ghz_constrained_sets()
    if not verdicts:
        raise RuntimeError("no instruction set satisfies the constraints")
    return sum(v.parity_at_zero == "even" for v in verdicts) / len(verdicts)
