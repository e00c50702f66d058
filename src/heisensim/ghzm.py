"""GHZM pipeline: three spin-1/2 particles, three observers, one referee.

The composite space is the seven-factor layout
``[O0:3, O1:3, O2:3, O3:3, S1:2, S2:2, S3:2]`` (total dimension 648).
After the three spin measurements, the referee observer O0 interrogates
O1..O3 through a parity measurement: its awareness shifts according to
whether an odd or an even number of them saw spin-up. With the referee
eigenvalues ``(0, 0, 1)`` the evolved referee observable evaluates the
even-spin-up probability directly. :data:`GHZM` is the whole definition;
the functions below are forms of it over :class:`GhzmConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .experiment import Experiment
from .measure import SPIN_BETA, Direction, InteractionSequence, ObserverSpec, shift_operator
from .tensor import Operator, StateVector, SubsystemLayout, embed, kron

REFEREE = "O0"
OBSERVERS = ("O1", "O2", "O3")
PARTICLES = ("S1", "S2", "S3")

#: Referee eigenvalues turning its evolved observable into P(even spin-up).
EVEN_GAMMA = (0.0, 0.0, 1.0)
#: Complementary preset: P(odd spin-up).
ODD_GAMMA = (0.0, 1.0, 0.0)
GAMMA_PRESETS = {"even": EVEN_GAMMA, "odd": ODD_GAMMA}

_LAYOUT = SubsystemLayout(
    ((REFEREE, 3),)
    + tuple((o, 3) for o in OBSERVERS)
    + tuple((s, 2) for s in PARTICLES)
)
_OBSERVER_BLOCK = SubsystemLayout(tuple((o, 3) for o in OBSERVERS))

# awareness-index triples of O1..O3 (1 = saw up, 2 = saw down) by parity
# of the spin-up count
_ODD_TRIPLES = tuple(t for t in product((1, 2), repeat=3) if t.count(1) % 2 == 1)
_EVEN_TRIPLES = tuple(t for t in product((1, 2), repeat=3) if t.count(1) % 2 == 0)


def ghzm_layout() -> SubsystemLayout:
    return _LAYOUT


def initial_state() -> StateVector:
    """All four observers ignorant, all three particles spin-up along z."""
    return GHZM.initial_state()


@dataclass(frozen=True)
class GhzmConfig:
    n1: Direction
    n2: Direction
    n3: Direction
    entangled: bool = True
    gamma: tuple[float, float, float] = EVEN_GAMMA

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        if len(self.gamma) != 3:
            raise ValueError("gamma must be a (g0, g1, g2) triple")

    @property
    def directions(self) -> tuple[Direction, Direction, Direction]:
        return (self.n1, self.n2, self.n3)


@dataclass(frozen=True)
class ParityProjectors:
    """Projectors onto odd/even spin-up awareness of the three observers.

    Both live on the ``[O1, O2, O3]`` block. Their sum is the projector
    onto the 8-dimensional subspace where every observer holds a definite
    outcome, not the full identity: ignorant components are outside both.
    """

    p_odd: Operator
    p_even: Operator


def _awareness_projector(triple: tuple[int, int, int]) -> np.ndarray:
    ps = []
    for idx in triple:
        p = np.zeros((3, 3), dtype=complex)
        p[idx, idx] = 1.0
        ps.append(p)
    return np.kron(np.kron(ps[0], ps[1]), ps[2])


def parity_projectors() -> ParityProjectors:
    odd = sum(_awareness_projector(t) for t in _ODD_TRIPLES)
    even = sum(_awareness_projector(t) for t in _EVEN_TRIPLES)
    return ParityProjectors(
        p_odd=Operator(_OBSERVER_BLOCK, odd), p_even=Operator(_OBSERVER_BLOCK, even)
    )


def ghz_entangler() -> Operator:
    """Unitary on the particle triple sending all-up to the GHZ state.

    All-up goes to ``(|uuu> - |ddd>)/sqrt(2)``; the orthogonal completion
    sends all-down to ``(|uuu> + |ddd>)/sqrt(2)`` and fixes the six mixed
    basis states. Pipeline results only ever exercise the all-up column.
    """
    r = 1.0 / math.sqrt(2.0)
    m = np.eye(8, dtype=complex)
    m[0, 0] = r
    m[7, 0] = -r
    m[0, 7] = r
    m[7, 7] = r
    return Operator(SubsystemLayout(tuple((s, 2) for s in PARTICLES)), m)


def parity_measurement_unitary(spec: ObserverSpec) -> Operator:
    """Referee interaction: shift O0 by the parity of O1..O3 outcomes.

    Acts as the outcome-1 shift on the odd-parity block and the outcome-2
    shift on the even-parity block. On the complement, where at least one
    observer is still ignorant, it is completed as the identity; the
    pipeline never reaches that block because the measurements precede it.
    """
    if spec.label != REFEREE:
        raise ValueError(f"referee spec must be labeled {REFEREE!r}, got {spec.label!r}")
    if spec.dim != 3:
        raise ValueError("referee needs the two parity outcomes plus ignorance")
    return embed(_parity_block(), _LAYOUT)


@lru_cache(maxsize=1)
def _parity_block() -> Operator:
    """The referee interaction on its 81-dim block ``[O0, O1, O2, O3]``."""
    # independent of the referee eigenvalues: only the shift structure and
    # the parity blocks enter
    spec = ObserverSpec(REFEREE, ODD_GAMMA)
    pp = parity_projectors()
    odd = kron(shift_operator(spec, 1), pp.p_odd)
    even = kron(shift_operator(spec, 2), pp.p_even)
    ignorant = np.eye(81) - np.kron(np.eye(3), pp.p_odd.matrix + pp.p_even.matrix)
    return Operator(odd.layout, ignorant + odd.matrix + even.matrix)


@lru_cache(maxsize=4)
def _referee_observable_cached(gamma: tuple[float, float, float]) -> Operator:
    return embed(ObserverSpec(REFEREE, gamma).belief_operator(), _LAYOUT)


def referee_observable(gamma) -> Operator:
    """The referee's belief operator on the full layout (time t0)."""
    return _referee_observable_cached(tuple(float(g) for g in gamma))


def _ledger() -> dict[str, Operator]:
    # the referee beside the three observers it interrogates; the parity
    # pipeline only uses the basis structure of O1..O3, never their eigenvalues
    beliefs = {f"B{k}": embed(ObserverSpec(o, SPIN_BETA).belief_operator(), _LAYOUT)
               for k, o in enumerate(OBSERVERS, 1)}
    return {"G": referee_observable(EVEN_GAMMA), **beliefs}


#: Under the even preset the mean is the probability that the referee finds
#: an even number of spin-up results (table label P_eu); under the odd
#: preset, its complement (P_ou). Other eigenvalues give other means, so
#: the value is not checked as a probability.
GHZM = Experiment(
    name="ghzm",
    layout=_LAYOUT,
    initial_indices=(0,) * 7,
    measurements=tuple(zip(OBSERVERS, PARTICLES)),
    entangler=ghz_entangler,
    readout=(("t3:parity", _parity_block),),
    stage="t3",
    preset_key="gamma_preset",
    presets=GAMMA_PRESETS,
    preset_line="gamma preset = {preset}",
    beliefs=lambda gamma: {"G": referee_observable(gamma)},
    means=(("probability", "P_{preset[0]}u", ("G",), None),),
    ledger=_ledger,
)


def measurement_sequence(cfg: GhzmConfig) -> InteractionSequence:
    """Entangler (when enabled), three spin measurements, parity readout."""
    return GHZM.sequence(cfg.directions, cfg.entangled)


def run_ghzm(cfg: GhzmConfig) -> float:
    """Expectation of the evolved referee observable in the initial state."""
    values, _ = GHZM.run(cfg.directions, cfg.entangled, cfg.gamma)
    return values["probability"]
