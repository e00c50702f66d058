import math
from itertools import permutations, product

import numpy as np
import pytest
from numpy.testing import assert_allclose

from heisensim import (
    Direction,
    EVEN_GAMMA,
    InteractionSequence,
    ODD_GAMMA,
    heisenberg_evolve,
)
from heisensim.ghzm import _PARITY_SHIFT, GHZM
from heisensim.measure import SPIN_OUTCOMES, UP, evolve_label_sum
from heisensim.tensor import Operator, StateVector, embed
from conftest import random_direction
from reference import real_expectation, reordered


def equator(phi_deg: float) -> Direction:
    return Direction(math.pi / 2, math.radians(phi_deg))


def referee_shift(observers) -> int:
    # awareness index k >= 1 records outcome SPIN_OUTCOMES[k - 1]; the
    # referee stays put while any observer is ignorant
    if 0 in observers:
        return 0
    ups = sum(SPIN_OUTCOMES[k - 1] == UP for k in observers)
    return 1 if ups % 2 else 2


def entangled_p_eu(directions) -> float:
    # closed form: (1 + cos(phi1+phi2+phi3) sin t1 sin t2 sin t3) / 2
    phase = math.cos(sum(d.phi for d in directions))
    amp = math.prod(math.sin(d.theta) for d in directions)
    return (1.0 + phase * amp) / 2.0


def nonentangled_p_eu(directions) -> float:
    # sum of the four even-up cos^2/sin^2 products; azimuth-free
    c = [math.cos(d.theta / 2) ** 2 for d in directions]
    s = [math.sin(d.theta / 2) ** 2 for d in directions]
    return (
        c[0] * c[1] * s[2]
        + c[0] * s[1] * c[2]
        + s[0] * c[1] * c[2]
        + s[0] * s[1] * s[2]
    )


class TestGhzEntangler:
    def test_all_up_column(self):
        u = GHZM.entangler.matrix
        r = 1.0 / math.sqrt(2.0)
        expected = np.zeros(8)
        expected[0], expected[7] = r, -r
        assert_allclose(u[:, 0], expected, atol=0)

    def test_unitary(self):
        assert GHZM.entangler.is_unitary(1e-15)

    def test_bits_match_the_literal_ghz_unitary(self):
        # the matrix written out, independent of the rule that derives it
        r = 1.0 / math.sqrt(2.0)
        literal = np.eye(8, dtype=complex)
        literal[0, 0] = literal[0, 7] = literal[7, 7] = r
        literal[7, 0] = -r
        assert GHZM.entangler.layout.labels == ("S1", "S2", "S3")
        assert GHZM.entangler.matrix.tobytes() == literal.tobytes()

    def test_output_normalized(self):
        u = GHZM.entangler
        out = u.matrix @ np.eye(8)[:, 0]
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-15)


class TestParityMeasurementUnitary:
    V = embed(GHZM.readout[0][1], GHZM.layout)
    LAYOUT = GHZM.layout

    def basis(self, indices):
        return StateVector.basis(self.LAYOUT, indices).amplitudes

    def test_odd_parity_moves_referee_to_first_awareness(self):
        # one observer saw up: odd count
        before = self.basis((0, 1, 2, 2, 0, 1, 0))
        after = self.basis((1, 1, 2, 2, 0, 1, 0))
        assert_allclose(self.V.matrix @ before, after, atol=0)

    def test_even_parity_moves_referee_to_second_awareness(self):
        # two observers saw up: even count
        before = self.basis((0, 1, 1, 2, 1, 0, 1))
        after = self.basis((2, 1, 1, 2, 1, 0, 1))
        assert_allclose(self.V.matrix @ before, after, atol=0)

    def test_ignorant_observers_left_alone(self):
        # completion block: observer 2 undecided, referee stays ignorant
        before = self.basis((0, 1, 0, 2, 0, 0, 0))
        assert_allclose(self.V.matrix @ before, before, atol=0)

    def test_every_basis_state_of_the_readout_block(self):
        # |r, o1, o2, o3> -> |r + s mod 3, o1, o2, o3> on [O0, O1, O2, O3]
        block = dict(GHZM.readout)["t3:parity"]
        assert block.layout.labels == ("O0", "O1", "O2", "O3")
        for r, *o in product(range(3), repeat=4):
            before = StateVector.basis(block.layout, (r, *o)).amplitudes
            after = StateVector.basis(block.layout, ((r + referee_shift(o)) % 3, *o)).amplitudes
            assert_allclose(block.matrix @ before, after, atol=0)

    def test_embedded_unitary_on_full_basis_states(self, rng):
        # each observer configuration once, beside a varying referee index
        # and random particle indices
        for k, o in enumerate(product(range(3), repeat=3)):
            r, particles = k % 3, tuple(int(i) for i in rng.integers(0, 2, size=3))
            after = ((r + referee_shift(o)) % 3, *o, *particles)
            assert_allclose(self.V.matrix @ self.basis((r, *o, *particles)),
                            self.basis(after), atol=0)

    def test_unitary(self):
        assert self.V.is_unitary(1e-10)

    def test_measurement_equals_the_permutation_it_replaced(self):
        # 27 product projectors on [O1, O2, O3], each gating X^shift(o) on
        # the referee, sum to the permutation |r, o> -> |r + shift(o), o>
        # built directly from the shift table, entry for entry
        block = dict(GHZM.readout)["t3:parity"]
        shifts = np.array([referee_shift(o) for o in product(range(3), repeat=3)])
        columns = np.arange(81)
        r, o = np.divmod(columns, 27)
        permutation = np.zeros((81, 81), dtype=complex)
        permutation[(r + shifts[o]) % 3 * 27 + o, columns] = 1.0
        assert np.array_equal(block.matrix, permutation)
        # the product projectors split into one group per observer
        assert block.shifts.shape == (27, 3, 3)
        assert [(labels, f.shape) for labels, f in block.projectors] == [
            ((o,), (27, 3, 3)) for o in ("O1", "O2", "O3")]

    def test_referee_shifts_are_the_rolled_identities(self):
        rolled = np.stack([np.roll(np.eye(3, dtype=complex), s, axis=0) for s in _PARITY_SHIFT])
        assert GHZM.readout[0][1].shifts.tobytes() == rolled.tobytes()


class TestLabelCopies:
    @pytest.mark.parametrize("entangled", [True, False])
    def test_referee_has_one_term_per_parity_pattern_and_outcomes(self, entangled, rng):
        # 3^3 observer basis states at the readout, then two outcomes per
        # spin measurement: 3^3 * 2^3 labelled copies
        seq = GHZM.sequence([random_direction(rng) for _ in range(3)], entangled)
        evolved = evolve_label_sum(GHZM.observable(("G",), EVEN_GAMMA), seq)
        assert len(evolved) == 3**3 * 2**3 == 216

    @pytest.mark.parametrize("entangled", [True, False])
    @pytest.mark.parametrize("gamma", GHZM.presets.values(), ids=GHZM.presets.keys())
    def test_referee_read_at_the_initial_state_keeps_four_copies(self, entangled, gamma, rng):
        # each observer is read at its ignorant index once no earlier step
        # acts on it: of the 216 copies, only the 4 all-aware patterns of
        # the preset's parity weigh anything there
        seq = GHZM.sequence([random_direction(rng) for _ in range(3)], entangled)
        g = GHZM.observable(("G",), gamma)
        assert len(evolve_label_sum(g, seq)) == 216
        assert len(evolve_label_sum(g, seq, at=GHZM.initial_indices)) == 4


class TestRunGhzm:
    def test_headline_zeros(self):
        for phis in ((0, 90, 90), (90, 0, 90), (90, 90, 0)):
            value = GHZM.run([[equator(p) for p in phis]], True, EVEN_GAMMA)[0][0]["probability"]
            assert abs(value) < 1e-10

    def test_headline_unity(self):
        value = GHZM.run([[equator(0), equator(0), equator(0)]], True, EVEN_GAMMA)[0][0]["probability"]
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_nonentangled_equator_is_half(self, rng):
        phis = rng.uniform(0, 360, size=3)
        (values,), _ = GHZM.run([[equator(p) for p in phis]], False, EVEN_GAMMA)
        assert values["probability"] == pytest.approx(0.5, abs=1e-12)

    def test_entangled_closed_form(self, rng):
        for _ in range(20):
            dirs = [random_direction(rng) for _ in range(3)]
            (values,), _ = GHZM.run([dirs], True, EVEN_GAMMA)
            assert values["probability"] == pytest.approx(entangled_p_eu(dirs), abs=1e-10)

    def test_nonentangled_closed_form_and_azimuth_freedom(self, rng):
        thetas = rng.uniform(0, math.pi, size=3)
        values = []
        for _ in range(3):
            dirs = [Direction(t, rng.uniform(0, 2 * math.pi)) for t in thetas]
            value = GHZM.run([dirs], False, EVEN_GAMMA)[0][0]["probability"]
            assert value == pytest.approx(nonentangled_p_eu(dirs), abs=1e-10)
            values.append(value)
        assert max(values) - min(values) < 1e-12

    def test_even_and_odd_presets_are_complementary(self, rng):
        dirs = [random_direction(rng) for _ in range(3)]
        even = GHZM.run([dirs], True, EVEN_GAMMA)[0][0]["probability"]
        odd = GHZM.run([dirs], True, ODD_GAMMA)[0][0]["probability"]
        assert even + odd == pytest.approx(1.0, abs=1e-10)

    def test_probability_bounds(self, rng):
        for _ in range(5):
            dirs = [random_direction(rng) for _ in range(3)]
            value = GHZM.run([dirs], True, EVEN_GAMMA)[0][0]["probability"]
            assert -1e-12 <= value <= 1.0 + 1e-12

    def test_measurement_order_invariance(self, rng):
        seq = GHZM.sequence([random_direction(rng) for _ in range(3)], True)
        g = GHZM.observable(("G",), EVEN_GAMMA)
        psi0 = GHZM.initial_state()
        reference = real_expectation(psi0, heisenberg_evolve(g, seq))
        measure_tags = ("t2:measure-1", "t2:measure-2", "t2:measure-3")
        for perm in permutations(measure_tags):
            permuted = reordered(seq, ("t1:entangle", *perm, "t3:parity"))
            value = real_expectation(psi0, heisenberg_evolve(g, permuted))
            assert value == pytest.approx(reference, abs=1e-12)


class TestEntanglerCompletionInvariance:
    def test_phases_on_unreached_columns_change_nothing(self, rng):
        # the pipeline only exercises the all-up column; dress every other
        # column with random phases (still unitary) and compare
        dirs = [random_direction(rng) for _ in range(3)]
        reference = GHZM.run([dirs], True, EVEN_GAMMA)[0][0]["probability"]

        alt = GHZM.entangler.matrix.copy()
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=8))
        phases[0] = 1.0  # keep the constrained column verbatim
        alt = alt @ np.diag(phases)
        alt_full = embed(Operator(GHZM.entangler.layout, alt), GHZM.layout)

        seq = GHZM.sequence(dirs, True)
        steps = tuple(
            (tag, alt_full if tag == "t1:entangle" else u) for tag, u in seq.steps
        )
        value = real_expectation(
            GHZM.initial_state(),
            heisenberg_evolve(GHZM.observable(("G",), EVEN_GAMMA),
                              InteractionSequence(steps, GHZM.layout)),
        )
        assert value == pytest.approx(reference, abs=1e-12)
