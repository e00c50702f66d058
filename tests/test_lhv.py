from itertools import product

import numpy as np
import pytest

from heisensim import InvariantError, eprb_q_max, ghz_constrained_sets
from heisensim.lhv import EPRB_SET_Q, classical_ghz_p_eu_zero

GHZ_CONSTRAINT_TRIPLES = ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def q_over_distribution(weights) -> float:
    """Bell quantity for a probability distribution over the 8 EPRB sets."""
    return float(np.asarray(weights) @ [q for _, q in EPRB_SET_Q])


def point_mass(k: int) -> list[float]:
    return [float(j == k) for j in range(8)]


def up_count(s, angle_indices) -> int:
    return sum(responses[k] == "up" for responses, k in zip(s, angle_indices))


class TestEprbInstructionSets:
    def test_eight_sets(self):
        sets = [s for s, _ in EPRB_SET_Q]
        assert len(sets) == 8
        assert len(set(sets)) == 8

    def test_partner_is_opposite(self):
        # each Q counts the pairings where particle 1 goes up at a and its
        # partner, answering opposite, goes up at b
        for s, q in EPRB_SET_Q:
            partner = ["down" if o == "up" else "up" for o in s]
            assert q == sum(s[a] == "up" and partner[b] == "up"
                            for a, b in ((0, 1), (1, 2), (2, 0)))


class TestQOverDistribution:
    def test_uniform_distribution(self):
        # per ordered angle pair, exactly 2 of the 8 sets say (up, down);
        # three pairs at weight 1/8 each
        assert q_over_distribution([1.0 / 8.0] * 8) == pytest.approx(0.75, abs=0)

    def test_all_up_point_mass(self):
        # (up, up, up) is first in lexicographic order
        assert EPRB_SET_Q[0][0] == ("up", "up", "up")
        assert q_over_distribution(point_mass(0)) == 0.0

    def test_point_mass_counts_realized_pairs(self):
        # (up, down, up): only the (0, 120) pairing shows up-down
        k = [s for s, _ in EPRB_SET_Q].index(("up", "down", "up"))
        assert q_over_distribution(point_mass(k)) == 1.0

    def test_at_most_one_event_per_set(self):
        # the three summands are mutually exclusive for every single set
        for k in range(8):
            assert q_over_distribution(point_mass(k)) in (0.0, 1.0)


class TestQMax:
    def test_maximum_is_one(self):
        _, q_max = eprb_q_max()
        assert q_max == 1.0

    def test_witness_attains_the_maximum(self):
        witness, q_max = eprb_q_max()
        k = [s for s, _ in EPRB_SET_Q].index(witness)
        assert q_over_distribution(point_mass(k)) == q_max

    def test_strictly_below_quantum_value(self):
        assert eprb_q_max()[1] < 9.0 / 8.0

    def test_distributions_never_beat_vertices(self, rng):
        _, vertex_max = eprb_q_max()
        for _ in range(10_000):
            weights = rng.dirichlet([1.0] * 8)
            assert q_over_distribution(weights) <= vertex_max + 1e-12


class TestGhzInstructionSets:
    def test_exhaustive_enumeration(self):
        # the survivors are exactly those of all 64 sets that meet the constraints
        sets = list(product(product(("up", "down"), repeat=2), repeat=3))
        assert len(set(sets)) == 64
        meet = [s for s in sets if all(up_count(s, t) % 2 == 1 for t in GHZ_CONSTRAINT_TRIPLES)]
        assert [s for s, _ in ghz_constrained_sets()] == meet

    def test_constraints_are_satisfiable(self):
        assert len(ghz_constrained_sets()) > 0

    def test_every_survivor_has_odd_parity_at_zero(self):
        survivors = ghz_constrained_sets()
        assert all(parity == "odd" for _, parity in survivors)

    def test_survivor_count_is_eight(self):
        # three independent parity constraints on six binary choices
        assert len(ghz_constrained_sets()) == 8

    def test_classical_even_probability_is_zero(self):
        assert classical_ghz_p_eu_zero(ghz_constrained_sets()) == 0.0

    def test_no_survivor_is_an_invariant_failure(self):
        with pytest.raises(InvariantError, match="no instruction set"):
            classical_ghz_p_eu_zero([])

    def test_survivors_satisfy_constraints(self):
        for s, _ in ghz_constrained_sets():
            for triple in GHZ_CONSTRAINT_TRIPLES:
                assert up_count(s, triple) % 2 == 1
