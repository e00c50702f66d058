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

from itertools import product

from .measure import DOWN, UP
from .tensor import InvariantError

#: Cyclic orientation pairings entering the Bell quantity, as indices into
#: the three orientations (0, 120 and 240 degrees); the quantum Bell
#: quantity pairs the same way.
_BELL_PAIRS = ((0, 1), (1, 2), (2, 0))

#: Orientation triples whose even-up probability the constraints force to
#: zero, as indices into each particle's analyzer alphabet (0 or 90 degrees).
_GHZ_CONSTRAINT_TRIPLES = ((0, 1, 1), (1, 0, 1), (1, 1, 0))

#: Each EPRB instruction set, particle 1's responses at the three
#: orientations in lexicographic (up-first) order, with its Bell quantity.
#: Particle 2 answers opposite, so equal-orientation anticorrelation holds
#: by construction, and both particles go up at the pairing (a, b) when
#: particle 1 holds up at a and down at b.
EPRB_SET_Q = tuple((s, float(sum(s[a] == UP and s[b] == DOWN for a, b in _BELL_PAIRS)))
                   for s in product((UP, DOWN), repeat=3))


def eprb_q_max() -> tuple[tuple[str, str, str], float]:
    """The first instruction set that attains the maximum Bell quantity over
    instruction-set models, and that maximum.

    The quantity is affine in the weights of a distribution over the sets,
    so the maximum over distributions is attained at a point mass; the 8
    sets suffice.
    """
    return max(EPRB_SET_Q, key=lambda pair: pair[1])


def _up_count(s, angle_indices) -> int:
    return sum(responses[k] == UP for responses, k in zip(s, angle_indices))


def ghz_constrained_sets() -> list[tuple[tuple[tuple[str, str], ...], str]]:
    """Survivors of the mixed-orientation constraints, with their parity.

    Each of the 64 GHZ instruction sets gives every particle a pair
    (response at 0, response at 90 degrees). Keeps the sets whose spin-up
    count is odd at all three mixed orientation triples (those triples must
    never show an even count), each with its spin-up parity at (0, 0, 0),
    "odd" or "even".
    """
    return [(s, "even" if _up_count(s, (0, 0, 0)) % 2 == 0 else "odd")
            for s in product(product((UP, DOWN), repeat=2), repeat=3)
            if all(_up_count(s, t) % 2 == 1 for t in _GHZ_CONSTRAINT_TRIPLES)]


def classical_ghz_p_eu_zero(survivors) -> float:
    """Instruction-set probability of an even spin-up count at (0, 0, 0),
    given the :func:`ghz_constrained_sets` survivors.

    Every survivor has odd parity there, so the value is 0 under any
    distribution over them.
    """
    if not survivors:
        raise InvariantError("no instruction set satisfies the constraints")
    return sum(parity == "even" for _, parity in survivors) / len(survivors)
