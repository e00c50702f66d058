"""GHZM pipeline: three spin-1/2 particles, three observers, one referee.

The composite space is the seven-factor layout
``[O0:3, O1:3, O2:3, O3:3, S1:2, S2:2, S3:2]`` (total dimension 648).
After the three spin measurements, the referee observer O0 interrogates
O1..O3 through a parity measurement: its awareness shifts according to
whether an odd or an even number of them saw spin-up. With the referee
eigenvalues ``(0, 0, 1)`` the evolved referee observable evaluates the
even-spin-up probability directly. :data:`GHZM` is the whole definition.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .experiment import Experiment
from .measure import SPIN_BETA, Measurement, _shifts, measurement_block
from .tensor import Operator, SubsystemLayout, single_factor

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

#: The referee's shift for each basis state of ``[O1, O2, O3]``, in basis
#: order (awareness index 1 = saw up, 2 = saw down): 0 while any observer is
#: still ignorant, else 1 for an odd and 2 for an even spin-up count.
_PARITY_SHIFT = np.array([0 if 0 in o else 2 - o.count(1) % 2
                          for o in product(range(3), repeat=len(OBSERVERS))])


def _parity_block() -> Measurement:
    """The referee interaction on ``[O0, O1, O2, O3]``: an ideal measurement of
    the ``[O1, O2, O3]`` basis, one product projector per basis state ``o``,
    passed as one one-hot stack per observer, shifting the referee by
    ``X^shift(o)``; as a matrix, the permutation
    ``|r, o> -> |r + shift(o) mod 3, o>``, independent of the referee
    eigenvalues."""
    states = list(product(range(3), repeat=len(OBSERVERS)))
    projectors = [[Operator(single_factor(label, 3), np.diag(np.eye(3)[o[k]])) for o in states]
                  for k, label in enumerate(OBSERVERS)]
    shifts = [Operator(single_factor(REFEREE, 3), u) for u in _shifts(3)[_PARITY_SHIFT]]
    return measurement_block(REFEREE, projectors, shifts)


#: Under the even preset the mean is the probability that the referee finds
#: an even number of spin-up results (table label P_eu); under the odd
#: preset, its complement (P_ou); each is checked as a probability. Other
#: eigenvalues give other means.
GHZM = Experiment(
    name="ghzm",
    layout=_LAYOUT,
    # all four observers ignorant, all three particles spin-up along z
    initial_indices=(0,) * 7,
    measurements=tuple(zip(OBSERVERS, PARTICLES)),
    readout=(("t3:parity", _parity_block()),),
    preset_key="gamma_preset",
    presets=GAMMA_PRESETS,
    preset_line="gamma preset = {preset}",
    means=(("probability", "P_{preset[0]}u", ("G",), None),),
    # the referee beside the three observers it interrogates; the parity
    # pipeline only uses the basis structure of O1..O3, never their eigenvalues
    ledger=(("G", REFEREE, EVEN_GAMMA),
            *((f"B{k}", o, SPIN_BETA) for k, o in enumerate(OBSERVERS, 1))),
)


# perfbench/layers.py resolves these names; ROADMAP item 1 drops them
measurement_sequence = GHZM.sequence
run_ghzm = GHZM.run
