"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS line once its assertions hold; run with
``pytest tests/test_acceptance.py -v -s`` to see them. Criteria with a
stated runtime budget assert the measured wall time too.
"""

import math
import time

import numpy as np
import pytest

from heisensim import (
    EVEN_GAMMA,
    Direction,
    InteractionSequence,
    Operator,
    SPIN_BETA,
    SubsystemLayout,
    cross_check,
    embed,
    eprb_q_max,
    ghz_constrained_sets,
    heisenberg_evolve,
    measurement_unitary,
    shift_operator,
    single_factor,
    spin_projector,
    support,
)
from heisensim.cli import EXIT_OK, main
from heisensim.eprb import EPRB
from heisensim.ghzm import GHZM
from heisensim.measure import evolve_label_sum
from conftest import random_direction
from reference import belief, cos_between, dense


def equator(phi_deg: float) -> Direction:
    return Direction(math.pi / 2, math.radians(phi_deg))


def test_criterion_1_bell_quantity(capsys):
    start = time.perf_counter()
    assert main(["bell-q"]) == EXIT_OK
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    addends = []
    q = None
    for line in out.splitlines():
        if line.strip().startswith("P_uu"):
            addends.append(float(line.split("=")[-1]))
        if line.strip().startswith("Q"):
            q = float(line.split("=")[-1])
    assert q == pytest.approx(9.0 / 8.0, abs=1e-10)
    assert len(addends) == 3
    for a in addends:
        assert a == pytest.approx(3.0 / 8.0, abs=1e-10)
    assert elapsed < 1.0, f"bell-q took {elapsed:.2f} s"
    print(f"\nACCEPTANCE 1: bell-q outputs Q = 1.125, addends 0.375 ({elapsed:.2f} s): PASS")


def test_criterion_2_singlet_correlation_law(rng):
    start = time.perf_counter()
    for k in range(1000):
        n1, n2 = random_direction(rng), random_direction(rng)
        report = EPRB.run([(n1, n2)], True, (0.0, 1.0, -1.0))[0][0]
        dot = cos_between(n1, n2)
        assert report["mean_b1b2"] == pytest.approx(-dot, abs=1e-10)
        # p_uu is the same product mean re-run under beta = (0, 1, 0)
        assert report["p_uu"] == pytest.approx((1.0 - dot) / 4.0, abs=1e-10)
        if k < 100:
            explicit = EPRB.run([(n1, n2)], True, (0.0, 1.0, 0.0))[0][0]
            assert explicit["mean_b1b2"] == pytest.approx((1.0 - dot) / 4.0, abs=1e-10)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"1000 singlet checks took {elapsed:.2f} s"
    print(f"\nACCEPTANCE 2: singlet correlation law, 1000 direction pairs ({elapsed:.1f} s): PASS")


def test_criterion_3_perfect_anticorrelation(rng):
    for _ in range(100):
        n = random_direction(rng)
        assert EPRB.run([(n, n)], True, SPIN_BETA)[0][0]["p_uu"] < 1e-12
    print("\nACCEPTANCE 3: P_uu(n, n) < 1e-12 for 100 random directions: PASS")


def test_criterion_4_nonentangled_factorization(rng):
    for _ in range(1000):
        n1, n2 = random_direction(rng), random_direction(rng)
        r = EPRB.run([(n1, n2)], False, SPIN_BETA)[0][0]
        assert r["mean_b1b2"] == pytest.approx(r["mean_b1"] * r["mean_b2"], abs=1e-10)
        b1, b2 = SPIN_BETA[1], SPIN_BETA[2]
        m1 = b1 * math.cos(n1.theta / 2) ** 2 + b2 * math.sin(n1.theta / 2) ** 2
        m2 = b1 * math.sin(n2.theta / 2) ** 2 + b2 * math.cos(n2.theta / 2) ** 2
        assert r["mean_b1b2"] == pytest.approx(m1 * m2, abs=1e-10)
    print("\nACCEPTANCE 4: nonentangled factorization and closed form, 1000 pairs: PASS")


def test_criterion_5_ghzm(rng):
    start = time.perf_counter()
    for phis in ((0, 90, 90), (90, 0, 90), (90, 90, 0)):
        (values,), _ = GHZM.run([[equator(p) for p in phis]], True, EVEN_GAMMA)
        assert abs(values["probability"]) < 1e-10
    (values,), _ = GHZM.run([[equator(0)] * 3], True, EVEN_GAMMA)
    assert values["probability"] == pytest.approx(1.0, abs=1e-10)
    for _ in range(100):
        phis = rng.uniform(0.0, 2.0 * math.pi, size=3)
        (values,), _ = GHZM.run([[Direction(math.pi / 2, p) for p in phis]], True, EVEN_GAMMA)
        assert values["probability"] == pytest.approx((1.0 + math.cos(sum(phis))) / 2.0, abs=1e-10)
    plain = GHZM.run([[equator(p) for p in rng.uniform(0, 360, size=3)]], False,
                     EVEN_GAMMA)[0][0]["probability"]
    assert plain == pytest.approx(0.5, abs=1e-10)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"GHZM criterion took {elapsed:.1f} s"
    print(f"\nACCEPTANCE 5: GHZM parity probabilities at dim 648 ({elapsed:.1f} s): PASS")


def test_criterion_6_instruction_set_gap(capsys):
    _, q_max = eprb_q_max()
    assert q_max == 1.0
    survivors = ghz_constrained_sets()
    assert survivors and all(parity == "odd" for _, parity in survivors)
    assert main(["bell-q", "--format", "csv"]) == EXIT_OK
    quantum_q = float(capsys.readouterr().out.splitlines()[-1].split(",")[-1])
    quantum_p = GHZM.run([[equator(0)] * 3], True, EVEN_GAMMA)[0][0]["probability"]
    assert quantum_q > q_max + 0.1
    assert quantum_p == pytest.approx(1.0, abs=1e-10)  # classical value is 0
    print("\nACCEPTANCE 6: instruction-set bounds Q <= 1 and P_eu(0,0,0) = 0, both beaten: PASS")


def test_criterion_7_picture_equivalence(rng):
    psi_eprb = EPRB.initial_state()
    for k in range(500):
        seq = EPRB.sequence((random_direction(rng), random_direction(rng)), bool(k % 2))
        b1, b2 = (embed(EPRB.observable((name,), SPIN_BETA), EPRB.layout)
                  for name in ("B1", "B2"))
        assert cross_check(Operator(EPRB.layout, b1.matrix @ b2.matrix), seq, psi_eprb) < 1e-10
    psi_ghzm = GHZM.initial_state()
    for _ in range(100):
        seq = GHZM.sequence([random_direction(rng) for _ in range(3)], True)
        assert cross_check(GHZM.observable(("G",), EVEN_GAMMA), seq, psi_ghzm) < 1e-10
    print("\nACCEPTANCE 7: picture equivalence on 500 EPRB + 100 GHZM configs: PASS")


def test_criterion_8_label_ledger(rng):
    n1, n2 = random_direction(rng), random_direction(rng)
    b1 = embed(EPRB.observable(("B1",), SPIN_BETA), EPRB.layout)
    stages = [
        (b1, {"O1"}),
        (heisenberg_evolve(b1, EPRB.sequence((n1, n2), False)),
         {"O1", "S1"}),
        (heisenberg_evolve(b1, EPRB.sequence((n1, n2), True)),
         {"O1", "S1", "S2"}),
    ]
    for op, expected in stages:
        sup = support(op)
        assert sup.labels == expected
        for label in set(op.layout.labels) - expected:
            assert sup.residuals[label] < 1e-12
    print("\nACCEPTANCE 8: support chain {O1} < {O1,S1} < {O1,S1,S2}, residuals < 1e-12: PASS")


def test_criterion_9_structural_identities(rng):
    # evolved belief operator reconstructed from its small pieces
    layout = SubsystemLayout((("O", 3), ("S", 2)))
    beta = tuple(rng.normal(size=3))
    b_small = belief("O", beta)
    n = random_direction(rng)
    projectors = [spin_projector(n, "up", "S"), spin_projector(n, "down", "S")]
    u_m = measurement_unitary(layout, "O", [projectors])
    b = embed(b_small, layout)
    evolved = heisenberg_evolve(b, InteractionSequence((("m", u_m),), layout))
    expected = np.zeros((6, 6), dtype=complex)
    for i, p in enumerate(projectors):
        u_i = shift_operator("O", 3, i + 1).matrix
        expected += np.kron(u_i.conj().T @ b_small.matrix @ u_i, p.matrix)
    assert float(np.linalg.norm(evolved.matrix - expected)) < 1e-12

    # the two EPRB measurement unitaries commute
    full = EPRB.layout
    n1, n2 = random_direction(rng), random_direction(rng)
    u1 = measurement_unitary(full, "O1", [[spin_projector(n1, o, "S1") for o in ("up", "down")]])
    u2 = measurement_unitary(full, "O2", [[spin_projector(n2, o, "S2") for o in ("up", "down")]])
    assert float(np.linalg.norm(u1.matrix @ u2.matrix - u2.matrix @ u1.matrix)) < 1e-12

    # projector completeness across the sphere
    for _ in range(1000):
        d = random_direction(rng)
        total = spin_projector(d, "up").matrix + spin_projector(d, "down").matrix
        assert float(np.linalg.norm(total - np.eye(2))) < 1e-12
    print("\nACCEPTANCE 9: operator reconstruction, commutation, completeness: PASS")


def test_criterion_10_locality(rng):
    # an evolved observable changes only through the interactions in its
    # light cone, so a distant analyzer's setting never reaches it: not
    # within a tolerance, but entry for entry
    a1 = Operator(single_factor("S1", 2), np.diag([1.0, -1.0]))
    b1 = EPRB.observable(("B1",), SPIN_BETA)
    for entangled in (False, True):
        n1 = random_direction(rng)
        for op in (b1, a1):
            seqs = [EPRB.sequence((n1, random_direction(rng)), entangled) for _ in range(10)]
            whole = [heisenberg_evolve(op, s).matrix for s in seqs]
            copies = [dense(evolve_label_sum(op, s)).matrix for s in seqs]
            assert all(np.array_equal(w, whole[0]) for w in whole[1:])
            assert all(np.array_equal(c, copies[0]) for c in copies[1:])

    # GHZM before its readout: each Bk stays put as every other nj varies
    def measurements_only(directions, entangled):
        steps = GHZM.sequence(directions, entangled).steps
        return InteractionSequence(steps[:len(steps) - len(GHZM.readout)], GHZM.layout)

    for entangled in (False, True):
        for k, observer in enumerate(("O1", "O2", "O3")):
            bk = belief(observer, SPIN_BETA)
            fixed = random_direction(rng)
            evolved = []
            for _ in range(5):
                dirs = [random_direction(rng) for _ in range(3)]
                dirs[k] = fixed
                evolved.append(heisenberg_evolve(bk, measurements_only(dirs, entangled)).matrix)
            assert all(np.array_equal(e, evolved[0]) for e in evolved[1:])

    # the check can fail: the referee meets every copy through the readout,
    # so changing any one nj moves G
    g = GHZM.observable(("G",), GHZM.presets["even"])
    dirs = [random_direction(rng) for _ in range(3)]
    reference = heisenberg_evolve(g, GHZM.sequence(dirs, True)).matrix
    for k in range(3):
        moved = list(dirs)
        moved[k] = random_direction(rng)
        shift = heisenberg_evolve(g, GHZM.sequence(moved, True)).matrix - reference
        assert float(np.linalg.norm(shift)) > 1e-3
    print("\nACCEPTANCE 10: B1, A1 and each Bk exactly independent of distant settings;"
          " G moves with every setting: PASS")
