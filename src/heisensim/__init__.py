"""Heisenberg-picture simulator of ideal quantum measurement.

Observables evolve by unitary conjugation while the state stays fixed at
its initial value. The package builds ideal measurement interactions over
labeled tensor-product spaces, runs the two-particle (EPRB) and
three-particle (GHZM) correlation experiments, brute-forces the
instruction-set bounds those experiments violate, and detects which tensor
factors an evolved observable has picked up support on.
"""

from .tensor import (
    DEFAULT_TOL,
    InvariantError,
    LayoutError,
    NonUnitaryError,
    Operator,
    StateVector,
    SubsystemLayout,
    conjugate_by,
    embed,
    expectation,
    kron,
    partial_trace,
    single_factor,
)
from .measure import (
    DOWN,
    UP,
    Direction,
    InteractionSequence,
    heisenberg_evolve,
    measurement_unitary,
    shift_operator,
    spin_projector,
)
from .eprb import (
    BETA_PRESETS,
    PROBABILITY_BETA,
    SPIN_BETA,
)
from .ghzm import (
    EVEN_GAMMA,
    GAMMA_PRESETS,
    ODD_GAMMA,
)
from .labels import SupportSet, acts_trivially_on, support
from .schrodinger import cross_check, schrodinger_evolve
from .lhv import eprb_q_max, ghz_constrained_sets

__version__ = "0.1.0"
