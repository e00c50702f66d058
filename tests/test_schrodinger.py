import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from heisensim import (
    EVEN_GAMMA,
    InteractionSequence,
    LayoutError,
    Operator,
    SPIN_BETA,
    StateVector,
    SubsystemLayout,
    cross_check,
    embed,
    measurement_unitary,
    schrodinger_evolve,
    single_factor,
    singlet_entangler,
)
from heisensim.eprb import EPRB
from heisensim.ghzm import GHZM
from conftest import random_direction
from reference import belief, schmidt_rank

OS_LAYOUT = SubsystemLayout((("O", 3), ("S", 2)))
Z_PROJECTORS = [
    Operator(single_factor("S", 2), np.diag([1.0, 0.0]).astype(complex)),
    Operator(single_factor("S", 2), np.diag([0.0, 1.0]).astype(complex)),
]
Z_MEASUREMENT = measurement_unitary(OS_LAYOUT, "O", [Z_PROJECTORS])


def observer_system_state(c1: float, c2: float) -> StateVector:
    return StateVector(OS_LAYOUT, np.kron([1.0, 0.0, 0.0], [c1, c2]))


class TestSchrodingerEvolve:
    def test_empty_sequence(self):
        psi = observer_system_state(1.0, 0.0)
        out = schrodinger_evolve(psi, InteractionSequence((), OS_LAYOUT))
        assert_allclose(out.amplitudes, psi.amplitudes, atol=0)

    def test_ideal_measurement_on_superposition(self):
        # linearity forces the amplitudes to ride along with the
        # observer-awareness shift
        psi = observer_system_state(3.0 / 5.0, 4.0 / 5.0)
        seq = InteractionSequence((("measure", Z_MEASUREMENT),), OS_LAYOUT)
        out = schrodinger_evolve(psi, seq)
        expected = np.zeros(6, dtype=complex)
        expected[1 * 2 + 0] = 3.0 / 5.0  # aware-of-up, spin up
        expected[2 * 2 + 1] = 4.0 / 5.0  # aware-of-down, spin down
        assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_singlet_entangler_on_initial_particles(self):
        seq = InteractionSequence((("entangle", embed(singlet_entangler(), EPRB.layout)),),
                                  EPRB.layout)
        out = schrodinger_evolve(EPRB.initial_state(), seq)
        r = 1.0 / math.sqrt(2.0)
        expected = np.zeros(36, dtype=complex)
        expected[0 * 12 + 0 * 4 + 0 * 2 + 1] = r  # up, down
        expected[0 * 12 + 0 * 4 + 1 * 2 + 0] = -r  # down, up
        assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_layout_mismatch(self):
        seq = InteractionSequence((("measure", Z_MEASUREMENT),), OS_LAYOUT)
        with pytest.raises(LayoutError):
            schrodinger_evolve(StateVector.basis(single_factor("X", 2), (0,)), seq)

    def test_empty_sequence_still_checks_layout(self):
        seq = InteractionSequence((), OS_LAYOUT)
        with pytest.raises(LayoutError):
            schrodinger_evolve(StateVector.basis(single_factor("X", 2), (0,)), seq)

    def test_norm_drift_detected(self):
        # a slightly contractive matrix passes the 1e-10 unitarity gate
        # but trips the stricter per-step norm guard
        eps = 3e-11
        almost = Operator(single_factor("X", 2), (1.0 - eps) * np.eye(2))
        seq = InteractionSequence((("drift", almost),), almost.layout)
        with pytest.raises(ValueError, match="norm"):
            schrodinger_evolve(StateVector.basis(single_factor("X", 2), (0,)), seq)


class TestCrossCheck:
    def test_empty_sequence_residual_zero(self):
        psi = observer_system_state(1.0, 0.0)
        b = embed(belief("O", (0.0, 1.0, -1.0)), OS_LAYOUT)
        assert cross_check(b, InteractionSequence((), OS_LAYOUT), psi) == 0.0

    def test_eprb_pipeline(self, rng):
        psi0 = EPRB.initial_state()
        for _ in range(25):
            seq = EPRB.sequence((random_direction(rng), random_direction(rng)), True)
            b1, b2 = (embed(EPRB.observable((name,), SPIN_BETA), EPRB.layout)
                      for name in ("B1", "B2"))
            assert cross_check(Operator(EPRB.layout, b1.matrix @ b2.matrix), seq, psi0) < 1e-10

    def test_ghzm_pipeline(self, rng):
        psi0 = GHZM.initial_state()
        for _ in range(3):
            seq = GHZM.sequence([random_direction(rng) for _ in range(3)], True)
            assert cross_check(GHZM.observable(("G",), EVEN_GAMMA), seq, psi0) < 1e-10


class TestPictureAsymmetry:
    def test_measurement_entangles_state_but_not_heisenberg_state(self):
        psi = observer_system_state(3.0 / 5.0, 4.0 / 5.0)
        seq = InteractionSequence((("measure", Z_MEASUREMENT),), OS_LAYOUT)
        # the evolving-state picture ends entangled across the
        # observer/system cut
        evolved = schrodinger_evolve(psi, seq)
        assert schmidt_rank(evolved, ["O"]) == 2
        # the fixed-state picture keeps the original product state
        assert schmidt_rank(psi, ["O"]) == 1

    def test_schmidt_rank_validates_bipartition(self):
        psi = observer_system_state(1.0, 0.0)
        with pytest.raises(ValueError):
            schmidt_rank(psi, ["O", "S"])
        with pytest.raises(LayoutError):
            schmidt_rank(psi, ["Q"])
