import dataclasses
import math
from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

from heisensim import (
    BETA_PRESETS,
    DOWN,
    Direction,
    InteractionSequence,
    PROBABILITY_BETA,
    SPIN_BETA,
    UP,
    heisenberg_evolve,
    spin_projector,
)
from heisensim.cli import EXIT_OK, main
from heisensim.eprb import EPRB
from heisensim.ghzm import GHZM
from heisensim.measure import evolve_label_sum
from heisensim.tensor import LayoutError, Operator, SubsystemLayout, embed
from conftest import random_direction
from reference import cos_between, real_expectation, reordered, unit_vector


def entangled_correlation(n1: Direction, n2: Direction, beta) -> float:
    # closed form: ((b1+b2)^2 - (b1-b2)^2 n1.n2) / 4
    b1, b2 = beta[1], beta[2]
    return ((b1 + b2) ** 2 - (b1 - b2) ** 2 * cos_between(n1, n2)) / 4.0


def _from_vector(v) -> Direction:
    return Direction(math.acos(max(-1.0, min(1.0, v[2]))), math.atan2(v[1], v[0]))


def nonentangled_means(theta1: float, theta2: float, beta) -> tuple[float, float]:
    # particle 1 starts up, particle 2 starts down, hence the swapped roles
    # of cos^2 and sin^2
    b1, b2 = beta[1], beta[2]
    m1 = b1 * math.cos(theta1 / 2) ** 2 + b2 * math.sin(theta1 / 2) ** 2
    m2 = b1 * math.sin(theta2 / 2) ** 2 + b2 * math.cos(theta2 / 2) ** 2
    return m1, m2


class TestSingletEntangler:
    def test_action_on_all_four_basis_states(self):
        u = EPRB.entangler.matrix
        r = 1.0 / math.sqrt(2.0)
        assert_allclose(u[:, 0], [1, 0, 0, 0], atol=0)  # up,up fixed
        assert_allclose(u[:, 1], [0, r, -r, 0], atol=0)  # up,down -> singlet
        assert_allclose(u[:, 2], [0, r, r, 0], atol=0)  # down,up -> triplet
        assert_allclose(u[:, 3], [0, 0, 0, 1], atol=0)  # down,down fixed

    def test_unitary(self):
        assert EPRB.entangler.is_unitary(1e-15)

    def test_bits_match_the_literal_singlet(self):
        # the matrix written out, independent of the rule that derives it
        r = 1.0 / math.sqrt(2.0)
        literal = np.array([[1, 0, 0, 0], [0, r, r, 0], [0, -r, r, 0], [0, 0, 0, 1]],
                           dtype=complex)
        assert EPRB.entangler.layout.labels == ("S1", "S2")
        assert EPRB.entangler.matrix.tobytes() == literal.tobytes()

    def test_derived_from_the_initial_particle_state(self):
        # starting down-up, down-up goes to (|du> - |ud>)/sqrt(2) and up-down
        # to (|du> + |ud>)/sqrt(2); up-up and down-down stay fixed
        u = dataclasses.replace(EPRB, initial_indices=(0, 0, 1, 0)).entangler.matrix
        r = 1.0 / math.sqrt(2.0)
        assert_allclose(u[:, 2], [0, -r, r, 0], atol=0)
        assert_allclose(u[:, 1], [0, r, r, 0], atol=0)
        assert_allclose(u[:, 0], [1, 0, 0, 0], atol=0)
        assert_allclose(u[:, 3], [0, 0, 0, 1], atol=0)


class TestEigenvalues:
    # equal outcome values make the two outcomes indistinguishable, and an
    # observer takes exactly one eigenvalue per awareness state
    @pytest.mark.parametrize("eigenvalues", [(0.0, 1.0, 1.0), (0.0, 1.0), (0.0, 1.0, -1.0, 2.0)])
    @pytest.mark.parametrize("exp", [EPRB, GHZM], ids=lambda e: e.name)
    def test_run_rejects_malformed_eigenvalues(self, exp, eigenvalues):
        directions = [Direction(0, 0)] * len(exp.measurements)
        # a count other than the factor's dimension names the first observable
        # read, its factor and both counts
        name = exp.means[0][2][0]
        label = dict((n, lbl) for n, lbl, _ in exp.ledger)[name]
        message = (f"observable {name} on factor {label} takes 3 eigenvalues, one per state, "
                   f"got {len(eigenvalues)}" if len(eigenvalues) != 3 else "pairwise distinct")
        with pytest.raises(ValueError, match=message):
            exp.run([directions], True, eigenvalues)

    @pytest.mark.parametrize("exp", [EPRB, GHZM], ids=lambda e: e.name)
    def test_observables_are_products_of_diagonals(self, exp):
        # each ledger observable alone, and each product the means read
        keys = [((name,), ev) for name, _, ev in exp.ledger]
        keys += [(names, ev or SPIN_BETA) for _, _, names, ev in exp.means]
        for names, ev in keys:
            expected = reduce(np.kron, [np.diag(np.array(ev, dtype=complex))] * len(names))
            assert exp.observable(names, ev).matrix.tobytes() == expected.tobytes()

    def test_duplicate_outcomes_rejected(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            GHZM.observable(("G",), (0, 1, 1))

    def test_an_unknown_observable_is_named(self):
        with pytest.raises(LayoutError, match="eprb has no observable Q; "
                                              "its ledger names B1, B2, A1, A2"):
            EPRB.observable(("Q",), SPIN_BETA)

    def test_probability_preset_runs(self):
        # b0 may coincide with an outcome value: the probability preset reuses 0
        (values,), _ = EPRB.run([(Direction(0, 0), Direction(0, 0))], True, PROBABILITY_BETA)
        assert values["p_uu"] == pytest.approx(0.0, abs=1e-12)

    def test_presets(self):
        assert BETA_PRESETS["spin"] == (0.0, 1.0, -1.0)
        assert BETA_PRESETS["probability"] == (0.0, 1.0, 0.0)


class TestExperimentRun:
    DIRECTIONS = (Direction(0.3, 0.1), Direction(1.2, 2.0))

    def test_list_eigenvalues_match_tuple(self):
        (as_tuple,), _ = EPRB.run([self.DIRECTIONS], True, (0.0, 1.0, -1.0))
        (as_list,), _ = EPRB.run([self.DIRECTIONS], True, [0.0, 1.0, -1.0])
        assert as_list == as_tuple

    @pytest.mark.parametrize("indices, error, message", [
        ((0, 0, 0, -1), ValueError, "basis index -1 out of range for dim 2"),
        ((0, 0, 0, 3), ValueError, "basis index 3 out of range for dim 2"),
        ((0, 0, 0), LayoutError, "need 4 indices, got 3"),
    ], ids=["negative", "too-large", "too-few"])
    def test_initial_indices_checked_at_construction(self, indices, error, message):
        with pytest.raises(error, match=message) as raised:
            dataclasses.replace(EPRB, initial_indices=indices)
        assert isinstance(raised.value, LayoutError) == (error is LayoutError)

    def test_runs_share_belief_operators(self, monkeypatch):
        import heisensim.experiment as experiment

        evolve, seen = experiment.evolve_label_sum, []
        monkeypatch.setattr(experiment, "evolve_label_sum",
                            lambda op, seq, **kw: seen.append(op) or evolve(op, seq, **kw))
        for _ in range(2):
            EPRB.run([self.DIRECTIONS], True, (0.0, 1.0, -1.0))
        first, second = seen[:len(seen) // 2], seen[len(seen) // 2:]
        assert len(first) == len(second) > 0
        assert all(a is b for a, b in zip(first, second))


    @pytest.mark.parametrize("entangled", [True, False])
    def test_a_mean_on_the_measured_particles_walks_each_point_alone(self, entangled, rng,
                                                                     monkeypatch):
        # A1 A2 meets the projectors of both measurements, which differ between
        # the points: the grid raises GridSplit, and each point is walked alone
        import heisensim.experiment as experiment

        exp = dataclasses.replace(EPRB, means=(("a1a2", "<A1 A2>", ("A1", "A2"), (1.0, -1.0)),))
        poles = [Direction(0.0, 0.3), Direction(math.pi / 2, 1.0), Direction(math.pi, 2.0)]
        points = [(random_direction(rng), random_direction(rng)) for _ in range(4)]
        points += [(pole, random_direction(rng)) for pole in poles] + [(poles[0], poles[2])]
        evolve, walks = experiment.evolve_label_sum, []
        monkeypatch.setattr(experiment, "evolve_label_sum", lambda op, seq, **kw: walks.append(
            {u.matrix.shape[:-2] for _, u in seq.steps}) or evolve(op, seq, **kw))
        means, residuals = exp.run(points, entangled, SPIN_BETA, verify=True)
        # the grid's measurements lead with the point axis, and each point's have none
        assert walks[0] == ({(), (len(points),)} if entangled else {(len(points),)})
        assert walks[1:] == [{()}] * len(points)
        for (n1, n2), values, residual in zip(points, means, residuals):
            (own,), (own_residual,) = exp.run([(n1, n2)], entangled, SPIN_BETA, verify=True)
            assert [np.float64(x).tobytes() for x in (values["a1a2"], residual)] == \
                [np.float64(x).tobytes() for x in (own["a1a2"], own_residual)]
            c1, c2 = math.cos(n1.theta), math.cos(n2.theta)
            expected = -c1 * c2 * cos_between(n1, n2) if entangled else -(c1 * c2) ** 2
            assert abs(values["a1a2"] - expected) < 1e-12
            assert residual < 1e-12


class TestLabelCopies:
    @pytest.mark.parametrize("entangled", [True, False])
    def test_belief_has_one_term_per_outcome(self, entangled, rng):
        seq = EPRB.sequence((random_direction(rng), random_direction(rng)), entangled)
        assert len(evolve_label_sum(EPRB.observable(("B1",), SPIN_BETA), seq)) == 2
        assert len(evolve_label_sum(EPRB.observable(("B1", "B2"), SPIN_BETA), seq)) == 4

    @pytest.mark.parametrize("entangled", [True, False])
    def test_joint_probability_read_at_the_initial_state_keeps_one_copy(self, entangled, rng):
        # read at the ignorant observers, the outcome pairs other than up-up
        # weigh 0 under the probability preset; the spin preset weighs each
        seq = EPRB.sequence((random_direction(rng), random_direction(rng)), entangled)
        at = EPRB.initial_indices
        p_uu = EPRB.observable(("B1", "B2"), PROBABILITY_BETA)
        assert (len(evolve_label_sum(p_uu, seq)), len(evolve_label_sum(p_uu, seq, at=at))) == (4, 1)
        assert len(evolve_label_sum(EPRB.observable(("B1", "B2"), SPIN_BETA), seq, at=at)) == 4


class TestEntangled:
    def test_spin_preset_gives_minus_dot_product(self, rng):
        for _ in range(50):
            n1, n2 = random_direction(rng), random_direction(rng)
            report = EPRB.run([(n1, n2)], True, SPIN_BETA)[0][0]
            assert report["mean_b1b2"] == pytest.approx(-cos_between(n1, n2), abs=1e-12)

    def test_general_beta_closed_form(self, rng):
        # full matrix pipeline against the closed form, eigenvalues drawn
        # freely (only the outcome values need to differ)
        for _ in range(1000):
            n1, n2 = random_direction(rng), random_direction(rng)
            beta = (rng.normal(), *np.sort(rng.normal(size=2))[::-1])
            report = EPRB.run([(n1, n2)], True, beta)[0][0]
            assert report["mean_b1b2"] == pytest.approx(
                entangled_correlation(n1, n2, beta), abs=1e-10
            )

    def test_p_uu_law(self, rng):
        for _ in range(50):
            n1, n2 = random_direction(rng), random_direction(rng)
            report = EPRB.run([(n1, n2)], True, SPIN_BETA)[0][0]
            assert report["p_uu"] == pytest.approx((1.0 - cos_between(n1, n2)) / 4.0, abs=1e-12)

    def test_perfect_anticorrelation_at_equal_directions(self, rng):
        for _ in range(20):
            n = random_direction(rng)
            assert EPRB.run([(n, n)], True, SPIN_BETA)[0][0]["p_uu"] < 1e-12

    def test_rotational_invariance(self, rng):
        # p_uu depends only on the opening angle between the analyzers:
        # rigidly rotating both directions in 3d changes nothing
        n1, n2 = random_direction(rng), random_direction(rng)
        reference = EPRB.run([(n1, n2)], True, SPIN_BETA)[0][0]["p_uu"]
        for _ in range(4):
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            rot = q * np.sign(np.diag(r))
            if np.linalg.det(rot) < 0:
                rot[:, 0] = -rot[:, 0]
            m1, m2 = (_from_vector(rot @ unit_vector(n)) for n in (n1, n2))
            assert abs(cos_between(m1, m2) - cos_between(n1, n2)) < 1e-12
            assert EPRB.run([(m1, m2)], True, SPIN_BETA)[0][0]["p_uu"] == pytest.approx(
                reference, abs=1e-10
            )


class TestNonentangled:
    def test_factorization(self, rng):
        for _ in range(50):
            n1, n2 = random_direction(rng), random_direction(rng)
            r = EPRB.run([(n1, n2)], False, SPIN_BETA)[0][0]
            assert r["mean_b1b2"] == pytest.approx(r["mean_b1"] * r["mean_b2"], abs=1e-10)

    def test_closed_form(self, rng):
        for _ in range(50):
            n1, n2 = random_direction(rng), random_direction(rng)
            r = EPRB.run([(n1, n2)], False, SPIN_BETA)[0][0]
            m1, m2 = nonentangled_means(n1.theta, n2.theta, SPIN_BETA)
            assert r["mean_b1"] == pytest.approx(m1, abs=1e-12)
            assert r["mean_b2"] == pytest.approx(m2, abs=1e-12)
            assert r["mean_b1b2"] == pytest.approx(m1 * m2, abs=1e-12)

    def test_z_analyzers_read_initial_spins(self):
        r = EPRB.run([(Direction(0, 0), Direction(0, 0))], False, SPIN_BETA)[0][0]
        assert r["mean_b1"] == pytest.approx(SPIN_BETA[1], abs=1e-14)
        assert r["mean_b2"] == pytest.approx(SPIN_BETA[2], abs=1e-14)
        assert r["mean_b1b2"] == pytest.approx(r["mean_b1"] * r["mean_b2"], abs=1e-14)


def bell_q_row(capsys, *phis) -> dict[str, float]:
    """The CSV row of ``sim bell-q``, by column."""
    assert main(["bell-q", "--format", "csv", *(("--phis", *phis) if phis else ())]) == EXIT_OK
    header, row = capsys.readouterr().out.splitlines()[-2:]
    return dict(zip(header.split(","), map(float, row.split(","))))


class TestBellQ:
    def test_headline_value(self, capsys):
        row = bell_q_row(capsys)
        terms = [row["p_uu_12"], row["p_uu_23"], row["p_uu_31"]]
        assert_allclose(terms, [0.375] * 3, atol=1e-12)
        assert row["q"] == pytest.approx(9.0 / 8.0, abs=1e-12)

    def test_degenerate_parallel_analyzers(self, capsys):
        assert bell_q_row(capsys, "0", "0", "0")["q"] == pytest.approx(0.0, abs=1e-12)


class TestOrderInvariance:
    def test_swapping_measurements_changes_nothing(self, rng):
        n1, n2 = random_direction(rng), random_direction(rng)
        seq = EPRB.sequence((n1, n2), True)
        swapped = reordered(seq, ("t1:entangle", "t2:measure-2", "t2:measure-1"))
        psi0 = EPRB.initial_state()
        b1, b2 = (EPRB.observable((name,), SPIN_BETA) for name in ("B1", "B2"))
        for s in (seq, swapped):
            prod = heisenberg_evolve(b1, s).matrix @ heisenberg_evolve(b2, s).matrix
            value = real_expectation(psi0, Operator(EPRB.layout, prod))
            assert value == pytest.approx(-cos_between(n1, n2), abs=1e-12)


class TestCompletionInvariance:
    def test_alternative_shift_completion_same_report(self, rng):
        # shifts only need to move the ignorant state to the right
        # awareness state; send the remaining basis states through a
        # transposition instead of the cyclic completion and check every
        # report field stays put
        n1, n2 = random_direction(rng), random_direction(rng)
        layout = EPRB.layout

        def alt_measurement(observer, particle, n):
            swap1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
            swap2 = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
            block = np.zeros((6, 6), dtype=complex)
            for shift, outcome in ((swap1, UP), (swap2, DOWN)):
                block += np.kron(shift, spin_projector(n, outcome, particle).matrix)
            sub = Operator(SubsystemLayout(((observer, 3), (particle, 2))), block)
            return embed(sub, layout)

        steps = (
            ("t1:entangle", embed(EPRB.entangler, layout)),
            ("t2:measure-1", alt_measurement("O1", "S1", n1)),
            ("t2:measure-2", alt_measurement("O2", "S2", n2)),
        )
        seq = InteractionSequence(steps, layout)
        psi0 = EPRB.initial_state()
        b1, b2 = (EPRB.observable((name,), SPIN_BETA) for name in ("B1", "B2"))
        prod = heisenberg_evolve(b1, seq).matrix @ heisenberg_evolve(b2, seq).matrix
        alt = real_expectation(psi0, Operator(layout, prod))
        standard = EPRB.run([(n1, n2)], True, SPIN_BETA)[0][0]["mean_b1b2"]
        assert alt == pytest.approx(standard, abs=1e-12)
