"""EPRB: two spin-1/2 particles, two observers.

The composite space is the fixed four-factor layout
``[O1:3, O2:3, S1:2, S2:2]``. The initial state has both observers
ignorant, particle 1 spin-up along z and particle 2 spin-down. An optional
entangler rotates the particle pair into the singlet state before each
observer measures its particle along a chosen direction; correlation
functions are then expectation values of evolved belief operators in the
fixed initial state. :data:`EPRB` is the whole definition.
"""

from __future__ import annotations

import math

import numpy as np

from .experiment import Experiment
from .measure import SPIN_BETA
from .tensor import Operator, SubsystemLayout

OBSERVER_1, OBSERVER_2 = "O1", "O2"
PARTICLE_1, PARTICLE_2 = "S1", "S2"

#: Belief eigenvalues turning <B1 B2> into the joint spin-up probability.
PROBABILITY_BETA = (0.0, 1.0, 0.0)
BETA_PRESETS = {"spin": SPIN_BETA, "probability": PROBABILITY_BETA}


def singlet_entangler() -> Operator:
    """Unitary on the particle pair sending up-down to the singlet.

    Fixes the parallel-spin states, sends up-down to the antisymmetric
    combination and down-up to the symmetric one.
    """
    r = 1.0 / math.sqrt(2.0)
    m = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, r, r, 0.0],
            [0.0, -r, r, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    return Operator(SubsystemLayout(((PARTICLE_1, 2), (PARTICLE_2, 2))), m)


#: ``p_uu`` is the product mean re-run under the probability preset rather
#: than post-processed from the configured eigenvalues.
EPRB = Experiment(
    name="eprb",
    layout=SubsystemLayout(((OBSERVER_1, 3), (OBSERVER_2, 3), (PARTICLE_1, 2), (PARTICLE_2, 2))),
    # both observers ignorant; particle 1 up, particle 2 down along z
    initial_indices=(0, 0, 0, 1),
    measurements=((OBSERVER_1, PARTICLE_1), (OBSERVER_2, PARTICLE_2)),
    entangler=singlet_entangler(),
    readout=(),
    preset_key="beta_preset",
    presets=BETA_PRESETS,
    preset_line="beta preset = {preset} {eigenvalues}",
    means=(
        ("mean_b1", "<B1>", ("B1",), None),
        ("mean_b2", "<B2>", ("B2",), None),
        ("mean_b1b2", "<B1 B2>", ("B1", "B2"), None),
        ("p_uu", "P_uu", ("B1", "B2"), PROBABILITY_BETA),
    ),
    # belief operators beside the spin components they come to record
    ledger=(("B1", OBSERVER_1, SPIN_BETA), ("B2", OBSERVER_2, SPIN_BETA),
            ("A1", PARTICLE_1, (1.0, -1.0)), ("A2", PARTICLE_2, (1.0, -1.0))),
)


# perfbench/layers.py resolves these names; ROADMAP item 1 drops them
measurement_sequence = EPRB.sequence
run_eprb = EPRB.run
