import math

import pytest

from heisensim import (
    EprbInstructionSet,
    eprb_q_max,
    eprb_q_over_distribution,
    ghz_constrained_sets,
)
from heisensim.lhv import all_eprb_sets, all_ghz_sets, classical_ghz_p_eu_zero


class TestEprbInstructionSets:
    def test_eight_sets(self):
        sets = all_eprb_sets()
        assert len(sets) == 8
        assert len(set(sets)) == 8

    def test_partner_is_opposite(self):
        s = EprbInstructionSet(("up", "down", "up"))
        assert [s.partner_outcome(k) for k in range(3)] == ["down", "up", "down"]

    def test_invalid_outcomes_rejected(self):
        with pytest.raises(ValueError):
            EprbInstructionSet(("up", "sideways", "down"))


class TestQOverDistribution:
    def test_uniform_distribution(self):
        # per ordered angle pair, exactly 2 of the 8 sets say (up, down);
        # three pairs at weight 1/8 each
        assert eprb_q_over_distribution([1.0 / 8.0] * 8) == pytest.approx(0.75, abs=0)

    def test_all_up_point_mass(self):
        weights = [0.0] * 8
        weights[0] = 1.0  # (up, up, up) is first in lexicographic order
        assert eprb_q_over_distribution(weights) == 0.0

    def test_point_mass_counts_realized_pairs(self):
        # (up, down, up): only the (0, 120) pairing shows up-down
        sets = all_eprb_sets()
        k = sets.index(EprbInstructionSet(("up", "down", "up")))
        weights = [0.0] * 8
        weights[k] = 1.0
        assert eprb_q_over_distribution(weights) == 1.0

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            eprb_q_over_distribution([0.5] * 8)
        with pytest.raises(ValueError):
            eprb_q_over_distribution([1.5, -0.5] + [0.0] * 6)
        with pytest.raises(ValueError):
            eprb_q_over_distribution([1.0] * 4)

    @pytest.mark.parametrize("weights", [[math.nan] * 8, [math.nan, 1.0] + [0.0] * 6],
                             ids=["all-nan", "one-nan"])
    def test_non_finite_weights(self, weights):
        with pytest.raises(ValueError, match="finite"):
            eprb_q_over_distribution(weights)

    def test_at_most_one_event_per_set(self):
        # the three summands are mutually exclusive for every single set
        for k in range(8):
            weights = [0.0] * 8
            weights[k] = 1.0
            assert eprb_q_over_distribution(weights) in (0.0, 1.0)


class TestQMax:
    def test_maximum_is_one(self):
        result = eprb_q_max()
        assert result.value == 1.0

    def test_witness_attains_the_maximum(self):
        result = eprb_q_max()
        weights = [0.0] * 8
        weights[all_eprb_sets().index(result.witness)] = 1.0
        assert eprb_q_over_distribution(weights) == result.value

    def test_strictly_below_quantum_value(self):
        assert eprb_q_max().value < 9.0 / 8.0

    def test_distributions_never_beat_vertices(self, rng):
        vertex_max = eprb_q_max().value
        for _ in range(10_000):
            weights = rng.dirichlet([1.0] * 8)
            assert eprb_q_over_distribution(weights) <= vertex_max + 1e-12


class TestGhzInstructionSets:
    def test_exhaustive_enumeration(self):
        assert len(all_ghz_sets()) == 64

    def test_constraints_are_satisfiable(self):
        assert len(ghz_constrained_sets()) > 0

    def test_every_survivor_has_odd_parity_at_zero(self):
        verdicts = ghz_constrained_sets()
        assert all(v.parity_at_zero == "odd" for v in verdicts)

    def test_survivor_count_is_eight(self):
        # three independent parity constraints on six binary choices
        assert len(ghz_constrained_sets()) == 8

    def test_classical_even_probability_is_zero(self):
        assert classical_ghz_p_eu_zero() == 0.0

    def test_survivors_satisfy_constraints(self):
        for v in ghz_constrained_sets():
            for triple in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
                assert v.instruction_set.up_count(triple) % 2 == 1
