import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from heisensim import (
    DOWN,
    UP,
    Direction,
    InteractionSequence,
    LayoutError,
    NonUnitaryError,
    Operator,
    SPIN_BETA,
    StateVector,
    SubsystemLayout,
    conjugate_by,
    embed,
    heisenberg_evolve,
    measurement_unitary,
    shift_operator,
    spin_projector,
    single_factor,
    support,
)
from heisensim.eprb import EPRB
from heisensim.ghzm import GHZM
import heisensim.experiment as experiment
from heisensim.measure import (
    SPIN_OUTCOMES,
    GridSplit,
    LabelSum,
    Measurement,
    _measurement_blocks,
    _shifts,
    evolve_label_sum,
    light_cone,
    measurement_block,
)
from conftest import directions, random_direction, random_unitary
from reference import (belief, cos_between, dense, is_hermitian, projector_from_state, reordered,
                       spin_eigenstate)

OS_LAYOUT = SubsystemLayout((("O", 3), ("S", 2)))
Z_PROJECTORS = [
    Operator(single_factor("S", 2), np.diag([1.0, 0.0]).astype(complex)),
    Operator(single_factor("S", 2), np.diag([0.0, 1.0]).astype(complex)),
]


Z_MEASUREMENT = measurement_unitary(OS_LAYOUT, "O", [Z_PROJECTORS])
Z_BLOCK = measurement_block("O", [Z_PROJECTORS])


def product_groups(layout, indices):
    """The projectors onto the product basis states of ``layout`` at the given
    flat indices, one group per factor: for each state, the projector onto
    its index on that factor."""
    states = [np.unravel_index(k, layout.dims) for k in indices]
    return [[Operator(single_factor(label, d), np.diag(np.eye(d)[s[j]])) for s in states]
            for j, (label, d) in enumerate(layout.factors)]


class TestDirection:
    def test_dot_of_equal_directions(self, rng):
        n = random_direction(rng)
        assert cos_between(n, n) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angles(self, bad):
        with pytest.raises(ValueError, match="theta"):
            Direction(bad, 0.0)
        with pytest.raises(ValueError, match="phi"):
            Direction(0.0, bad)


class TestShiftOperator:
    def test_moves_ignorant_to_outcome(self):
        e0 = np.array([1.0, 0.0, 0.0])
        assert_allclose(shift_operator("O", 3, 1).matrix @ e0, [0, 1, 0], atol=0)
        assert_allclose(shift_operator("O", 3, 2).matrix @ e0, [0, 0, 1], atol=0)

    def test_full_cyclic_action(self):
        u1 = shift_operator("O", 3, 1).matrix
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            out = np.zeros(3)
            out[(i + 1) % 3] = 1.0
            assert_allclose(u1 @ e, out, atol=0)

    def test_unitary(self):
        for i in (1, 2):
            assert shift_operator("O", 3, i).is_unitary(1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            shift_operator("O", 3, 3)
        with pytest.raises(ValueError):
            shift_operator("O", 3, 0)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_table_holds_the_rolled_identities(self, dim):
        # X^s moves each basis state s places on, so row r is row r - s of the identity
        table = _shifts(dim)
        assert table.shape == (dim, dim, dim) and not table.flags.writeable
        for s in range(dim):
            rolled = np.roll(np.eye(dim, dtype=complex), s, axis=0)
            assert table[s].tobytes() == rolled.tobytes()
            if s:
                assert shift_operator("O", dim, s).matrix.tobytes() == rolled.tobytes()


class TestSpinEigenstate:
    def test_north_pole(self):
        sv = spin_eigenstate(Direction(0.0, 0.0), UP)
        assert_allclose(sv.amplitudes, [1.0, 0.0], atol=0)

    def test_equator_phi_zero(self):
        # hand evaluation of the half-angle formula at theta = pi/2
        sv = spin_eigenstate(Direction(math.pi / 2, 0.0), UP)
        r = 1.0 / math.sqrt(2.0)
        assert_allclose(sv.amplitudes, [r, r], atol=1e-15)

    def test_orthogonality(self, rng):
        for _ in range(100):
            n = random_direction(rng)
            up = spin_eigenstate(n, UP).amplitudes
            down = spin_eigenstate(n, DOWN).amplitudes
            assert abs(np.vdot(up, down)) < 1e-14

    def test_bad_outcome(self):
        with pytest.raises(ValueError):
            spin_eigenstate(Direction(0.0, 0.0), "sideways")


class TestSpinProjector:
    def test_north_pole(self):
        p = spin_projector(Direction(0.0, 0.0), UP)
        assert_allclose(p.matrix, np.diag([1.0, 0.0]), atol=0)

    def test_equator_phi_zero(self):
        # hand evaluation: all four entries 1/2
        p = spin_projector(Direction(math.pi / 2, 0.0), UP)
        assert_allclose(p.matrix, np.full((2, 2), 0.5), atol=1e-15)

    def test_matches_eigenstate_outer_product(self, rng):
        for _ in range(200):
            n = random_direction(rng)
            for outcome in (UP, DOWN):
                direct = spin_projector(n, outcome)
                outer = projector_from_state(spin_eigenstate(n, outcome))
                assert float(np.linalg.norm(direct.matrix - outer.matrix)) < 1e-12

    def test_completeness(self, rng):
        for _ in range(1000):
            n = random_direction(rng)
            total = spin_projector(n, UP).matrix + spin_projector(n, DOWN).matrix
            assert float(np.linalg.norm(total - np.eye(2))) < 1e-12

    def test_spin_component_spectrum(self, rng):
        for _ in range(50):
            n = random_direction(rng)
            comp = spin_projector(n, UP).matrix - spin_projector(n, DOWN).matrix
            assert_allclose(np.linalg.eigvalsh(comp), [-1.0, 1.0], atol=1e-12)

    def test_pole_is_azimuth_independent(self, rng):
        ref = spin_projector(Direction(0.0, 0.0), UP).matrix
        for _ in range(20):
            p = spin_projector(Direction(0.0, rng.uniform(0, 2 * math.pi)), UP).matrix
            assert_allclose(p, ref, atol=1e-15)


class TestMeasurementUnitary:
    def test_displayed_action_on_eigenstates(self):
        # ignorant observer + definite system state goes to the matching
        # awareness state, system untouched
        u = Z_MEASUREMENT
        for i in (0, 1):
            before = StateVector.basis(OS_LAYOUT, (0, i)).amplitudes
            after = StateVector.basis(OS_LAYOUT, (i + 1, i)).amplitudes
            assert_allclose(u.matrix @ before, after, atol=0)

    def test_unitary(self):
        assert Z_MEASUREMENT.is_unitary(1e-12)

    def test_equals_product_of_embeds(self, rng):
        n = random_direction(rng)
        projectors = [spin_projector(n, UP, "S"), spin_projector(n, DOWN, "S")]
        u = measurement_unitary(OS_LAYOUT, "O", [projectors])
        via_products = np.zeros((6, 6), dtype=complex)
        for i, p in enumerate(projectors):
            shift_full = embed(shift_operator("O", 3, i + 1), OS_LAYOUT)
            proj_full = embed(p, OS_LAYOUT)
            via_products += shift_full.matrix @ proj_full.matrix
        assert_allclose(u.matrix, via_products, atol=0)

    def test_incomplete_family_rejected(self):
        zero = Operator(single_factor("S", 2), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="identity"):
            measurement_unitary(OS_LAYOUT, "O", [[Z_PROJECTORS[0], zero]])
        # complete on each factor, not on both: |00><00| + |11><11|
        system = SubsystemLayout((("S", 2), ("T", 2)))
        with pytest.raises(ValueError, match="identity"):
            measurement_block("O", product_groups(system, (0, 3)))

    def test_non_orthogonal_family_rejected(self):
        skew = Operator(single_factor("S", 2), np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="orthogonal"):
            measurement_unitary(OS_LAYOUT, "O", [[skew, Z_PROJECTORS[1]]])

    def test_non_orthogonal_product_family_rejected(self):
        # product projectors are checked through their factors: |00><00|
        # twice overlaps itself
        system = SubsystemLayout((("S", 2), ("T", 2)))
        basis = product_groups(system, (0, 0, 3, 2))
        shifts = [Operator(single_factor("O", 4), np.eye(4))] * 4
        with pytest.raises(ValueError, match="orthogonal"):
            measurement_block("O", basis, shifts)

    def test_label_collision(self):
        with pytest.raises(LayoutError, match="observer and system"):
            measurement_unitary(OS_LAYOUT, "S", [Z_PROJECTORS])
        with pytest.raises(LayoutError, match="groups share the factors \\['S'\\]"):
            measurement_block("O", [Z_PROJECTORS, Z_PROJECTORS])

    def test_three_outcomes_give_a_four_state_observer(self, rng):
        basis = random_unitary(rng, 3)
        projectors = [Operator(single_factor("S", 3), np.outer(v, v.conj())) for v in basis.T]
        block = measurement_block("O", [projectors])
        assert block.layout == SubsystemLayout((("O", 4), ("S", 3)))
        expected = sum(np.kron(shift_operator("O", 4, i + 1).matrix, p.matrix)
                       for i, p in enumerate(projectors))
        assert_allclose(block.matrix, expected, atol=0)
        # the default shifts are the rolled identities, bit for bit
        shifts = np.stack([np.roll(np.eye(4, dtype=complex), i + 1, axis=0) for i in range(3)])
        assert block.shifts.tobytes() == shifts.tobytes()

    def test_projectors_on_other_factors_rejected(self):
        on_t = Operator(single_factor("T", 2), np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(LayoutError, match="one layout"):
            measurement_block("O", [[Z_PROJECTORS[0], on_t]])

    @pytest.mark.parametrize("groups, message", [
        ([], "at least one"),
        ([[]], "at least one"),
        ([Z_PROJECTORS, [Operator(single_factor("T", 2), np.eye(2))]], "differ in length"),
    ], ids=["no-group", "empty-group", "unequal-lengths"])
    def test_malformed_groups_rejected(self, groups, message):
        with pytest.raises(LayoutError, match=message):
            measurement_block("O", groups)

    def test_explicit_shifts_on_a_product_basis(self):
        # four product projectors on [S, T], each gating its own power of
        # the cyclic shift on a 4-state observer; passed whole or one group
        # per factor, they give the same block
        system = SubsystemLayout((("S", 2), ("T", 2)))
        projectors = [Operator(system, np.diag(np.eye(4)[k])) for k in range(4)]
        shifts = [Operator(single_factor("O", 4), np.roll(np.eye(4), k, axis=0))
                  for k in range(4)]
        block = measurement_block("O", [projectors], shifts)
        assert block.layout == SubsystemLayout((("O", 4), ("S", 2), ("T", 2)))
        expected = sum(np.kron(u.matrix, p.matrix) for u, p in zip(shifts, projectors))
        assert_allclose(block.matrix, expected, atol=0)
        per_factor = measurement_block("O", product_groups(system, range(4)), shifts)
        assert per_factor.layout == block.layout
        assert_allclose(per_factor.matrix, expected, atol=0)
        for bad in (shifts[:3], [Operator(single_factor("Q", 4), np.eye(4))] * 4):
            with pytest.raises(LayoutError, match="shift"):
                measurement_block("O", [projectors], bad)

    def test_non_unitary_shift_is_the_callers_error(self):
        # a ValueError naming the shift, not the post-check's internal fault
        doubled = [Operator(single_factor("O", 2), 2 * np.eye(2))] * 2
        with pytest.raises(ValueError, match="shift 0 on 'O' is not unitary") as raised:
            measurement_block("O", [Z_PROJECTORS], doubled)
        assert not isinstance(raised.value, NonUnitaryError)

    def test_shared_core_checks_finiteness_and_unitarity(self):
        # measurement_block's projectors are finite operators and its shifts
        # unitary, so only a direct call reaches these two checks
        stack = np.stack([p.matrix for p in Z_PROJECTORS])[None]
        with pytest.raises(ValueError, match="projector family contains non-finite"):
            _measurement_blocks([OS_LAYOUT], _shifts(3)[1:], [(("S",),)], [stack * np.nan])
        with pytest.raises(NonUnitaryError, match="post-check"):
            _measurement_blocks([OS_LAYOUT], 2 * _shifts(3)[1:], [(("S",),)], [stack])

    def test_disjoint_measurements_commute(self, rng):
        layout = SubsystemLayout((("O1", 3), ("O2", 3), ("S1", 2), ("S2", 2)))
        n1, n2 = random_direction(rng), random_direction(rng)
        u1 = measurement_unitary(layout, "O1",
                                 [[spin_projector(n1, o, "S1") for o in (UP, DOWN)]])
        u2 = measurement_unitary(layout, "O2",
                                 [[spin_projector(n2, o, "S2") for o in (UP, DOWN)]])
        commutator = u1.matrix @ u2.matrix - u2.matrix @ u1.matrix
        assert float(np.linalg.norm(commutator)) < 1e-12


class TestHeisenbergEvolve:
    def test_empty_sequence_is_identity(self):
        b = embed(belief("O", (0.0, 1.0, -1.0)), OS_LAYOUT)
        out = heisenberg_evolve(b, InteractionSequence((), OS_LAYOUT))
        assert out is b

    def test_system_observable_unchanged_by_own_eigenbasis_measurement(self):
        # measuring the observable whose eigenprojectors gate the shifts
        # leaves that observable alone
        a = embed(Operator(single_factor("S", 2), np.diag([1.0, -1.0]).astype(complex)), OS_LAYOUT)
        seq = InteractionSequence((("measure", Z_MEASUREMENT),), OS_LAYOUT)
        out = heisenberg_evolve(a, seq)
        assert float(np.linalg.norm(out.matrix - a.matrix)) < 1e-12

    def test_observer_operator_sum_structure(self, rng):
        # evolved belief operator equals sum_i u_i' b u_i (x) P_i, built
        # here explicitly from its small pieces
        beta = tuple(rng.normal(size=3))
        n = random_direction(rng)
        projectors = [spin_projector(n, UP, "S"), spin_projector(n, DOWN, "S")]
        u_m = measurement_unitary(OS_LAYOUT, "O", [projectors])
        b_small = belief("O", beta)
        b = embed(b_small, OS_LAYOUT)
        evolved = heisenberg_evolve(b, InteractionSequence((("measure", u_m),), OS_LAYOUT))

        expected = np.zeros((6, 6), dtype=complex)
        for i, p in enumerate(projectors):
            u_i = shift_operator("O", 3, i + 1).matrix
            expected += np.kron(u_i.conj().T @ b_small.matrix @ u_i, p.matrix)
        assert float(np.linalg.norm(evolved.matrix - expected)) < 1e-12

    def test_sequence_composition(self, rng):
        # with the earliest step rightmost in the product, U' A U nests as
        # conjugation by the later segment first, wrapped by the earlier
        # one: evolve(A, s1 + s2) == evolve(evolve(A, s2), s1)
        u1 = Operator(OS_LAYOUT, random_unitary(rng, 6))
        u2 = Operator(OS_LAYOUT, random_unitary(rng, 6))
        b = embed(belief("O", (0.0, 1.0, -1.0)), OS_LAYOUT)
        combined = heisenberg_evolve(
            b, InteractionSequence((("first", u1), ("second", u2)), OS_LAYOUT))
        nested = heisenberg_evolve(
            heisenberg_evolve(b, InteractionSequence((("second", u2),), OS_LAYOUT)),
            InteractionSequence((("first", u1),), OS_LAYOUT),
        )
        assert float(np.linalg.norm(nested.matrix - combined.matrix)) < 1e-12

    def test_commuting_steps_compose_in_either_order(self, rng):
        layout = SubsystemLayout((("O1", 3), ("O2", 3), ("S1", 2), ("S2", 2)))
        n1, n2 = random_direction(rng), random_direction(rng)
        u1 = measurement_unitary(layout, "O1",
                                 [[spin_projector(n1, o, "S1") for o in (UP, DOWN)]])
        u2 = measurement_unitary(layout, "O2",
                                 [[spin_projector(n2, o, "S2") for o in (UP, DOWN)]])
        b = embed(belief("O1", (0.0, 1.0, -1.0)), layout)
        combined = heisenberg_evolve(b, InteractionSequence((("m1", u1), ("m2", u2)), layout))
        stepwise = heisenberg_evolve(
            heisenberg_evolve(b, InteractionSequence((("m1", u1),), layout)),
            InteractionSequence((("m2", u2),), layout),
        )
        assert float(np.linalg.norm(stepwise.matrix - combined.matrix)) < 1e-12

    def test_layout_mismatch(self):
        b = Operator(single_factor("X", 2), np.eye(2))
        seq = InteractionSequence((("m", Z_MEASUREMENT),), OS_LAYOUT)
        with pytest.raises(LayoutError):
            heisenberg_evolve(b, seq)

    def test_empty_sequence_still_checks_layout(self):
        b = Operator(single_factor("X", 2), np.eye(2))
        with pytest.raises(LayoutError):
            heisenberg_evolve(b, InteractionSequence((), OS_LAYOUT))


class TestInteractionSequence:
    def test_rejects_non_unitary(self):
        bad = Operator(OS_LAYOUT, np.diag([2.0] + [1.0] * 5))
        with pytest.raises(NonUnitaryError):
            InteractionSequence((("bad", bad),), OS_LAYOUT)

    def test_rejects_mixed_layouts(self):
        with pytest.raises(LayoutError):
            InteractionSequence(
                (("a", Operator(OS_LAYOUT, np.eye(6))), ("b", Operator(single_factor("X", 2), np.eye(2)))),
                OS_LAYOUT,
            )

    def test_total_unitary_order(self, rng):
        u1 = random_unitary(rng, 6)
        u2 = random_unitary(rng, 6)
        seq = InteractionSequence(
            (("first", Operator(OS_LAYOUT, u1)), ("second", Operator(OS_LAYOUT, u2))), OS_LAYOUT)
        assert_allclose(seq.total_unitary().matrix, u2 @ u1, atol=1e-14)

    def test_reordered(self, rng):
        u1 = Operator(OS_LAYOUT, random_unitary(rng, 6))
        u2 = Operator(OS_LAYOUT, random_unitary(rng, 6))
        seq = InteractionSequence((("a", u1), ("b", u2)), OS_LAYOUT)
        swapped = reordered(seq, ("b", "a"))
        assert swapped.tags == ("b", "a")
        with pytest.raises(ValueError):
            reordered(seq, ("a", "c"))

    def test_rejects_repeated_tags(self, rng):
        # reordered names steps by tag, so a repeated tag would drop a step
        u1 = Operator(OS_LAYOUT, random_unitary(rng, 6))
        u2 = Operator(OS_LAYOUT, random_unitary(rng, 6))
        with pytest.raises(ValueError, match="repeat"):
            InteractionSequence((("a", u1), ("a", u2)), OS_LAYOUT)

    def test_rejects_step_off_its_layout(self):
        # a factor the layout lacks, and a factor the layout has at another dim
        for label, d in (("X", 2), ("S", 3)):
            step = Operator(single_factor(label, d), np.eye(d))
            with pytest.raises(LayoutError):
                InteractionSequence((("m", Z_MEASUREMENT), ("bad", step)), OS_LAYOUT)
            with pytest.raises(LayoutError):
                InteractionSequence((("bad", step),), OS_LAYOUT)


@st.composite
def local_sequences(draw):
    """A layout of 1-4 factors of dim 2-3 and 1-3 steps, each on a random
    subset of its factors in random order (the full layout included)."""
    dims = draw(st.lists(st.integers(2, 3), min_size=1, max_size=4))
    layout = SubsystemLayout(tuple((f"F{i}", d) for i, d in enumerate(dims)))
    positions = st.permutations(range(len(dims))).flatmap(
        lambda perm: st.integers(1, len(perm)).map(lambda k: perm[:k]))
    steps = draw(st.lists(positions, min_size=1, max_size=3))
    return layout, steps


@settings(max_examples=200, deadline=None)
@given(case=local_sequences(), hermitian=st.booleans(), seed=st.integers(0, 2**31))
def test_local_evolution_matches_dense_conjugation(case, hermitian, seed):
    layout, step_positions = case
    rng = np.random.default_rng(seed)
    steps = []
    for k, positions in enumerate(step_positions):
        block = SubsystemLayout(tuple(layout.factors[p] for p in positions))
        steps.append((f"s{k}", Operator(block, random_unitary(rng, block.total_dim))))
    seq = InteractionSequence(tuple(steps), layout)
    d = layout.total_dim
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if hermitian:
        m = m + m.conj().T
    op = Operator(layout, m / np.linalg.norm(m))
    evolved = heisenberg_evolve(op, seq)
    expected = conjugate_by(op, seq.total_unitary())
    assert float(np.linalg.norm(evolved.matrix - expected.matrix)) < 1e-12
    if hermitian:
        assert is_hermitian(evolved, 1e-12)


def random_measurement(rng, layout, observer, system, n_outcomes, z_basis):
    """An ideal measurement on the given factors: an orthonormal basis of the
    system, random or under ``z_basis`` the product basis, split into
    ``n_outcomes`` projectors, one group on the whole system, or for 0
    outcomes the product basis, one projector per basis state, one group per
    factor; each projector gates a random unitary on the observer."""
    system_layout = SubsystemLayout(tuple(layout.factors[k] for k in system))
    d = system_layout.total_dim
    if n_outcomes == 0:
        projectors = product_groups(system_layout, range(d))
    else:
        basis = np.eye(d) if z_basis else random_unitary(rng, d)
        projectors = [[Operator(system_layout, basis[:, cut] @ basis[:, cut].conj().T)
                       for cut in np.array_split(np.arange(d), n_outcomes)]]
    observer_layout = single_factor(*layout.factors[observer])
    shifts = [Operator(observer_layout, random_unitary(rng, observer_layout.total_dim))
              for _ in projectors[0]]
    return measurement_block(observer_layout.labels[0], projectors, shifts)


@st.composite
def structured_sequences(draw):
    """A layout of 2-4 factors of dim 2-3; 1-4 steps, each a dense block on a
    random subset of factors in random order or a measurement of a random
    system subset by another factor (in a random basis or the product basis,
    split into one or two outcomes, or in the product basis passed one group
    per factor); and two local observables on random subsets, each random
    or diagonal, so measurements split some terms, fall back to the dense
    block on others (a system factor already in the sum) and are skipped
    when a diagonal observable meets a product-basis measurement."""
    dims = draw(st.lists(st.integers(2, 3), min_size=2, max_size=4))
    factors = range(len(dims))
    subset = st.permutations(factors).flatmap(
        lambda perm: st.integers(1, len(perm)).map(lambda k: tuple(perm[:k])))
    measurement = st.permutations(factors).flatmap(
        lambda perm: st.integers(2, len(perm)).flatmap(
            lambda k: st.tuples(st.integers(0, 2), st.booleans()).map(
                lambda nz: ("measure", perm[0], perm[1:k], *nz))))
    steps = draw(st.lists(st.one_of(subset.map(lambda s: ("dense", s)), measurement),
                          min_size=1, max_size=4))
    observable = st.tuples(subset, st.booleans())
    return dims, steps, draw(observable), draw(observable)


def build_structured(case, seed):
    dims, step_specs, support_a, support_b = case
    rng = np.random.default_rng(seed)
    layout = SubsystemLayout(tuple((f"F{i}", d) for i, d in enumerate(dims)))
    steps = []
    for k, spec in enumerate(step_specs):
        if spec[0] == "dense":
            block = SubsystemLayout(tuple(layout.factors[p] for p in spec[1]))
            steps.append((f"s{k}", Operator(block, random_unitary(rng, block.total_dim))))
        else:
            _, observer, system, n, z_basis = spec
            steps.append((f"s{k}", random_measurement(rng, layout, observer, sorted(system), n,
                                                      z_basis)))
    seq = InteractionSequence(tuple(steps), layout)

    def local(spec):
        positions, diagonal = spec
        block = SubsystemLayout(tuple(layout.factors[p] for p in positions))
        if diagonal:
            v = rng.normal(size=block.total_dim)
            return Operator(block, np.diag(v / np.linalg.norm(v)))
        m = rng.normal(size=(block.total_dim,) * 2) + 1j * rng.normal(size=(block.total_dim,) * 2)
        return Operator(block, (m + m.conj().T) / np.linalg.norm(m + m.conj().T))

    return layout, seq, local(support_a), local(support_b), rng


@settings(max_examples=200, deadline=None)
@given(case=structured_sequences(), seed=st.integers(0, 2**31))
def test_label_sums_match_dense_conjugation(case, seed):
    layout, seq, a, b, rng = build_structured(case, seed)
    total = seq.total_unitary()
    dense_a = conjugate_by(embed(a, layout), total)
    dense_b = conjugate_by(embed(b, layout), total)
    # a b on the union of both supports, which may overlap, evolved as one
    union = SubsystemLayout(tuple(f for f in layout.factors
                                  if f[0] in a.layout.labels + b.layout.labels))
    sum_a, sum_b = evolve_label_sum(a, seq), evolve_label_sum(b, seq)
    sum_ab = evolve_label_sum(Operator(union, embed(a, union).matrix @ embed(b, union).matrix),
                              seq)
    cases = ((sum_a, dense_a), (sum_b, dense_b),
             (sum_ab, Operator(layout, dense_a.matrix @ dense_b.matrix)))
    for label_sum, expected in cases:
        assert float(np.linalg.norm(dense(label_sum).matrix - expected.matrix)) < 1e-12
        indices = [int(rng.integers(d)) for d in layout.dims]
        flat = np.ravel_multi_index(indices, layout.dims)
        assert abs(label_sum.mean(indices) - expected.matrix[flat, flat]) < 1e-12
        # the support read off the sum's block matches the dense operator's
        sup, ref = support(label_sum), support(expected)
        assert sup.labels == ref.labels
        for label, r in ref.residuals.items():
            assert abs(sup.residuals[label] - r) <= 1e-12 * max(1.0, r)
    # the groups never overlap and cover exactly the light cone, or lie
    # within it when a measurement in the product basis, whose projectors
    # can commute exactly with a term, may have been skipped
    skippable = any(spec[0] == "measure" and (spec[3] == 0 or spec[4]) for spec in case[1])
    for op, label_sum in ((a, sum_a), (b, sum_b)):
        positions = [k for p, _ in label_sum.groups for k in p]
        assert len(positions) == len(set(positions))
        labels, cone = {layout.labels[k] for k in positions}, light_cone(op.layout.labels, seq)
        assert labels <= cone if skippable else labels == cone
    # a walk cut in two and continued from the later part's sum is the same walk
    cut = int(rng.integers(len(seq.steps) + 1))
    later, earlier = (InteractionSequence(part, layout)
                      for part in (seq.steps[cut:], seq.steps[:cut]))
    for split in (True, False):
        whole = evolve_label_sum(a, seq, split)
        continued = evolve_label_sum(evolve_label_sum(a, later, split), earlier, split)
        assert [p for p, _ in continued.groups] == [p for p, _ in whole.groups]
        assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(continued.groups, whole.groups))


# EPRB's B1 B2 at its second measurement: the observers' group still holds
# F0, which the first measurement acts on, so it is not read there
@example(case=([3, 3, 2, 2], [("measure", 0, (2,), 2, False), ("measure", 1, (3,), 2, False)],
               ((0, 1), False), ((1, 0), True)), seed=0)
@settings(max_examples=200, deadline=None)
@given(case=structured_sequences(), seed=st.integers(0, 2**31))
def test_sums_read_at_a_basis_state_match_its_dense_entry(case, seed):
    layout, seq, a, b, rng = build_structured(case, seed)
    total = seq.total_unitary()
    at = [int(rng.integers(d)) for d in layout.dims]
    flat = np.ravel_multi_index(at, layout.dims)
    union = SubsystemLayout(tuple(f for f in layout.factors
                                  if f[0] in a.layout.labels + b.layout.labels))
    for op in (a, b, Operator(union, embed(a, union).matrix @ embed(b, union).matrix)):
        expected = conjugate_by(embed(op, layout), total).matrix[flat, flat]
        assert abs(evolve_label_sum(op, seq, at=at).mean(at) - expected) < 1e-12


@pytest.mark.parametrize("exp", [EPRB, GHZM], ids=["eprb", "ghzm"])
def test_run_matches_the_full_sums_mean(exp):
    n = len(exp.measurements)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(directions, min_size=n, max_size=n))
    def check(drawn):
        for entangled in (True, False):
            seq = exp.sequence(drawn, entangled)
            for preset in exp.presets.values():
                (values,), _ = exp.run([drawn], entangled, preset)
                for column, _, names, eigenvalues in exp.means:
                    op = exp.observable(names, eigenvalues or preset)
                    full = evolve_label_sum(op, seq)
                    assert abs(values[column] - full.mean(exp.initial_indices).real) < 1e-12
                    # every group stack holds one entry per term, split and read
                    # at the initial state, split alone or unsplit: so no merge
                    # ever has to broadcast a group to the term count
                    for walked in (evolve_label_sum(op, seq, at=exp.initial_indices), full,
                                   evolve_label_sum(op, seq, split=False)):
                        assert {len(a) for _, a in walked.groups} == {len(walked)}

    check()


@pytest.mark.parametrize("exp", [EPRB, GHZM], ids=["eprb", "ghzm"])
def test_sequence_builds_each_spin_measurement_bit_for_bit(exp):
    # the one-pass build against one measurement_block per pair
    n = len(exp.measurements)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(directions, min_size=n, max_size=n), st.booleans())
    def check(drawn, entangled):
        steps = exp.sequence(drawn, entangled).steps
        spin = [f"t2:measure-{k}" for k in range(1, n + 1)]
        assert [tag for tag, _ in steps] == [*(["t1:entangle"] * entangled), *spin,
                                             *(tag for tag, _ in exp.readout)]
        built = dict(steps)
        for tag, (observer, particle), d in zip(spin, exp.measurements, drawn):
            block = built[tag]
            ref = measurement_block(observer, [[spin_projector(d, o, particle)
                                                for o in SPIN_OUTCOMES]])
            assert block.layout == ref.layout
            for a, b in ((block.matrix, ref.matrix), (block.shifts, ref.shifts),
                         *zip((f for _, f in block.projectors), (f for _, f in ref.projectors))):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            labels = [g[0] for g in block.projectors]
            assert labels == [g[0] for g in ref.projectors] == [(particle,)]

    check()
    for count in (n - 1, n + 1):
        with pytest.raises(ValueError, match=f"{n} directions"):
            exp.sequence([Direction(0.0, 0.0)] * count, True)


def bits(value) -> bytes:
    """A float or complex value's bytes, so that -0.0 and 0.0 differ."""
    return np.complex128(value).tobytes()


@pytest.mark.parametrize("exp", [EPRB, GHZM], ids=["eprb", "ghzm"])
def test_a_grid_gives_each_point_the_bits_of_its_run_alone(exp):
    # 20 seeded grids of 1-8 points, three polar angles in ten at 0, pi/2
    # or pi, where copies weigh exactly 0 and signed zeros occur
    rng = np.random.default_rng(27)

    def polar():
        if rng.random() < 0.3:
            return float(rng.choice((0.0, math.pi / 2, math.pi)))
        return rng.uniform(0, math.pi)

    for _ in range(20):
        points = [tuple(Direction(polar(), rng.uniform(0, 2 * math.pi))
                        for _ in exp.measurements) for _ in range(rng.integers(1, 9))]
        for entangled in (True, False):
            for preset in exp.presets.values():
                for verify in (False, True):
                    means, residuals = exp.run(points, entangled, preset, verify)
                    alone = [exp.run([point], entangled, preset, verify) for point in points]
                    assert [[(k, bits(v)) for k, v in m.items()] for m in means] == \
                        [[(k, bits(v)) for k, v in own.items()] for (own,), _ in alone]
                    if verify:
                        assert [bits(r) for r in residuals] == [bits(r) for _, (r,) in alone]
                    else:
                        assert residuals is None


def test_a_grid_longer_than_a_chunk_is_walked_in_chunks(monkeypatch):
    points = [(Direction(0.1 * k, 0.3 * k), Direction(1.0, 0.2 * k)) for k in range(5)]
    whole = EPRB.run(points, True, SPIN_BETA, True)
    walks = []
    evolve = experiment.evolve_label_sum
    monkeypatch.setattr(experiment, "GRID_CHUNK", 2)
    monkeypatch.setattr(experiment, "evolve_label_sum",
                        lambda op, seq, **kw: walks.append(len(seq)) or evolve(op, seq, **kw))
    chunked = EPRB.run(points, True, SPIN_BETA, True)
    # four distinct observables, each walked over chunks of 2, 2 and 1 points
    assert walks == [2] * 4 + [2] * 4 + [1] * 4
    assert [[bits(v) for v in m.values()] for m in chunked[0]] == \
        [[bits(v) for v in m.values()] for m in whole[0]]
    assert [bits(r) for r in chunked[1]] == [bits(r) for r in whole[1]]


def walk_grid(op, seqs, split=True, at=None) -> list[tuple[list[int], LabelSum]]:
    """``(point indices, sum)`` of each part of a grid that the walk keeps
    whole: the whole grid, or each point alone when it raises GridSplit."""
    try:
        return [(list(range(len(seqs))), evolve_label_sum(op, seqs, split, at))]
    except GridSplit:
        return [([p], evolve_label_sum(op, [seq], split, at)) for p, seq in enumerate(seqs)]


def assert_walks_alone(op, seqs, split, at):
    """Each point of the grid holds the groups, stacks and mean, bit for bit,
    of its own one-sequence walk; returns the parts the walk kept whole."""
    parts = walk_grid(op, seqs, split, at)
    assert sorted(p for points, _ in parts for p in points) == list(range(len(seqs)))
    for points, evolved in parts:
        for k, p in enumerate(points):
            own = evolve_label_sum(op, seqs[p], split, at)
            assert [q for q, _ in evolved.groups] == [q for q, _ in own.groups]
            for (_, x), (_, y) in zip(evolved.groups, own.groups):
                x = x[k] if x.ndim == 4 else x
                assert (x.shape, x.tobytes()) == (y.shape, y.tobytes())
            if at is not None:
                mean = evolved.mean(at)
                assert bits(mean[k] if np.ndim(mean) else mean) == bits(own.mean(at))
    return [points for points, _ in parts]


@settings(max_examples=150, deadline=None)
@given(case=structured_sequences(), seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=4),
       shared=st.lists(st.booleans(), min_size=4, max_size=4))
def test_a_grid_walks_each_point_as_its_own_walk(case, seeds, shared):
    # one sequence per seed, its measurements in the product or a random
    # basis as the seed's bits say, so rule (a) may skip at some points
    # only; a step drawn shared is the first point's at every point
    dims, specs, support_a, support_b = case
    built = []
    for seed in seeds:
        flipped = [(*spec[:4], bool(seed >> k & 1)) if spec[0] == "measure" and spec[3] else spec
                   for k, spec in enumerate(specs)]
        built.append(build_structured((dims, flipped, support_a, support_b), seed))
    layout, first, a, b, rng = built[0]
    seqs = [InteractionSequence(tuple(f if keep else step for f, step, keep
                                      in zip(first.steps, seq.steps, shared)), layout)
            for _, seq, *_ in built]
    at = [int(rng.integers(d)) for d in layout.dims]
    for op in (a, b):
        for split, read in ((True, at), (True, None), (False, None)):
            assert_walks_alone(op, seqs, split, read)


def test_a_grid_of_sequences_with_other_steps_is_rejected():
    d = (Direction(0.2, 0.1), Direction(0.9, 1.0))
    for other in (EPRB.sequence(d, False), GHZM.sequence((*d, d[0]), True)):
        with pytest.raises(LayoutError, match="differ"):
            evolve_label_sum(EPRB.observable(("B1",), SPIN_BETA), [EPRB.sequence(d, True), other])


def test_an_empty_grid_is_rejected():
    with pytest.raises(ValueError, match="empty grid"):
        evolve_label_sum(EPRB.observable(("B1",), SPIN_BETA), [])


@pytest.mark.parametrize("at, error, message", [
    ((-1, 0, 0, 0), ValueError, "basis index -1 out of range for dim 3"),
    ((3, 0, 0, 0), ValueError, "basis index 3 out of range for dim 3"),
    ((0, 0, 0, 2), ValueError, "basis index 2 out of range for dim 2"),
    ((0,), LayoutError, "need 4 indices, got 1"),
], ids=["negative", "too-large", "unread-factor", "too-few"])
def test_a_read_at_an_invalid_basis_state_is_rejected(at, error, message):
    # B1 on O1 alone: every index is checked, the ones no group reads too
    b1 = EPRB.observable(("B1",), SPIN_BETA)
    seq = EPRB.sequence((Direction(0.2, 0.1), Direction(0.9, 1.0)), True)
    for read in (lambda: LabelSum.local(b1, EPRB.layout).mean(at),
                 lambda: evolve_label_sum(b1, seq, at=at)):
        with pytest.raises(error, match=message) as raised:
            read()
        assert isinstance(raised.value, LayoutError) == (error is LayoutError)


def test_spin_blocks_keep_the_residual_of_their_stacked_check():
    # one u†u - I norm over the stack; each block holds its entry, so the
    # sequence reads it instead of computing it again
    for tag, u in GHZM.sequence([Direction(0.3, 0.1), Direction(2.0, 4.0), Direction(0.0, 0.0)],
                                True).steps:
        if tag.startswith("t2:"):
            residual = vars(u)["_unitarity_residual"]
            assert abs(residual - np.linalg.norm(u.matrix.conj().T @ u.matrix - np.eye(6))) < 1e-15


def test_points_that_disagree_on_a_skip_are_walked_apart():
    # A1 on S1 commutes with the projectors of a measurement along z, which
    # rule (a) then skips, and not with those of a tilted one; the grid's
    # projectors differ, so each point is walked alone
    op = EPRB.observable(("A1",), (1.0, -1.0))
    points = [(Direction(0.0, 0.0), Direction(0.4, 0.0)),
              (Direction(0.7, 0.2), Direction(0.4, 0.0)),
              (Direction(0.0, 1.0), Direction(1.1, 0.5))]
    seqs = EPRB._sequences(points, False)
    with pytest.raises(GridSplit):
        evolve_label_sum(op, seqs, at=EPRB.initial_indices)
    assert assert_walks_alone(op, seqs, True, EPRB.initial_indices) == [[0], [1], [2]]


def test_points_that_disagree_on_a_dropped_copy_are_walked_apart():
    # O1 measures S2, then S1; B1 A1 on [O1, S1] meets the later measurement
    # on both factors, so the conjugation by its block, pointwise, reaches
    # the earlier one, whose read at t0 drops a copy of weight exactly 0
    # along z and none when tilted; the group read there differs between
    # the points, so each is walked alone
    layout = EPRB.layout
    op = Operator(SubsystemLayout((("O1", 3), ("S1", 2))),
                  np.diag([0.0, 0.0, 1.0, -1.0, -1.0, 1.0]))

    def seq(n0, n1):
        return InteractionSequence(tuple(
            (f"m{k}", measurement_block("O1", [[spin_projector(n, o, s) for o in SPIN_OUTCOMES]]))
            for k, (n, s) in enumerate(((n0, "S2"), (n1, "S1")))), layout)

    seqs = [seq(Direction(0.3, 0.0), Direction(0.0, 0.0)),
            seq(Direction(0.3, 0.0), Direction(0.8, 1.3))]
    at = EPRB.initial_indices
    assert [len(evolve_label_sum(op, s, at=at)) for s in seqs] == [1, 2]
    with pytest.raises(GridSplit):
        evolve_label_sum(op, seqs, at=at)
    assert assert_walks_alone(op, seqs, True, at) == [[0], [1]]


@pytest.mark.parametrize("exp, examples", [(EPRB, 50), (GHZM, 25)], ids=["eprb", "ghzm"])
def test_unsplit_measurement_sums_what_its_block_conjugates(exp, examples):
    # rule (b) unsplit against rule (c): walking one step at a time, each
    # measurement whose observer is in the sum is replaced by a plain
    # operator of the same matrix, which only rule (c) takes; a measurement
    # whose observer is in no sum may be skipped by rule (a), so it stays
    n = len(exp.measurements)

    @settings(max_examples=examples, deadline=None)
    @given(st.lists(directions, min_size=n, max_size=n))
    def check(drawn):
        layout = exp.layout
        for _, label, eigenvalues in exp.ledger:
            summed = conjugated = LabelSum.local(
                belief(label, eigenvalues), layout)
            for tag, u in reversed(exp.sequence(drawn, True).steps):
                covered = {k for p, _ in summed.groups for k in p}
                plain = (isinstance(u, Measurement)
                         and layout.position(u.layout.labels[0]) in covered)
                summed = evolve_label_sum(summed, InteractionSequence(((tag, u),), layout),
                                          split=False)
                conjugated = evolve_label_sum(
                    conjugated, InteractionSequence(
                        ((tag, Operator(u.layout, u.matrix) if plain else u),), layout),
                    split=False)
            x, y = summed.block(), conjugated.block()
            assert x.layout == y.layout
            assert np.max(np.abs(x.matrix - y.matrix)) <= 1e-14
            ours, theirs = support(summed, 1e-10), support(conjugated, 1e-10)
            assert ours.labels == theirs.labels
            for factor, r in ours.residuals.items():
                expected = theirs.residuals[factor]
                assert (r == 0.0) == (expected == 0.0), (label, factor)
                assert abs(r - expected) <= 1e-12 * max(1.0, expected), (label, factor)

    check()


class TestLabelSums:
    # Z_BLOCK keeps its terms; Z_MEASUREMENT, embedded, is a plain operator

    def test_measurement_splits_an_observer_term_per_outcome(self, rng):
        # rule (b): the system factor is the identity in the sum
        b = belief("O", tuple(rng.normal(size=3)))
        evolved = evolve_label_sum(b, InteractionSequence((("m", Z_BLOCK),), OS_LAYOUT))
        assert len(evolved) == 2
        assert [p for p, _ in evolved.groups] == [(0,), (1,)]

    def test_measurement_of_a_factor_in_the_sum_falls_back_to_its_block(self, rng):
        # rule (c): the observable already acts on the system factor
        m = rng.normal(size=(2, 2))
        a = Operator(single_factor("S", 2), m + m.T)
        seq = InteractionSequence((("m", Z_BLOCK),), OS_LAYOUT)
        evolved = evolve_label_sum(a, seq)
        assert len(evolved) == 1
        assert [p for p, _ in evolved.groups] == [(0, 1)]
        expected = conjugate_by(embed(a, OS_LAYOUT), seq.total_unitary())
        assert float(np.linalg.norm(dense(evolved).matrix - expected.matrix)) < 1e-12

    def test_step_outside_the_groups_is_skipped(self):
        # rule (a): the same arrays come out untouched
        layout = SubsystemLayout((("O", 3), ("S", 2), ("T", 2)))
        t = Operator(single_factor("T", 2), np.diag([1.0, -1.0]))
        seq = InteractionSequence((("m", measurement_block("O", [Z_PROJECTORS])),), layout)
        start = LabelSum.local(t, layout)
        evolved = evolve_label_sum(t, seq)
        assert evolved.groups[0][0] == (2,)
        assert_allclose(evolved.groups[0][1], start.groups[0][1], atol=0)

    def test_referee_leaves_an_observer_it_reads_unchanged(self):
        # the parity readout's one-hot projectors on O1 commute with B1,
        # which is diagonal there: the step is skipped, the same arrays out
        b1 = belief("O1", SPIN_BETA)
        seq = InteractionSequence(GHZM.readout, GHZM.layout)
        start = LabelSum.local(b1, GHZM.layout)
        for split in (True, False):
            evolved = evolve_label_sum(b1, seq, split)
            assert len(evolved) == 1
            assert [p for p, _ in evolved.groups] == [(1,)]
            assert_allclose(evolved.groups[0][1], start.groups[0][1], atol=0)

    def test_observable_diagonal_in_the_measured_basis_is_skipped(self, rng):
        a = Operator(single_factor("S", 2), np.diag(rng.normal(size=2)))
        evolved = evolve_label_sum(a, InteractionSequence((("m", Z_BLOCK),), OS_LAYOUT))
        assert [p for p, _ in evolved.groups] == [(1,)]
        assert_allclose(evolved.groups[0][1], a.matrix[None], atol=0)

    def test_observable_off_the_measured_basis_is_not_skipped(self, rng):
        a = Operator(single_factor("S", 2), np.diag(rng.normal(size=2)))
        n = Direction(1.1, 0.4)
        block = measurement_block("O", [[spin_projector(n, o, "S") for o in (UP, DOWN)]])
        seq = InteractionSequence((("m", block),), OS_LAYOUT)
        evolved = evolve_label_sum(a, seq)
        assert [p for p, _ in evolved.groups] == [(0, 1)]
        expected = conjugate_by(embed(a, OS_LAYOUT), seq.total_unitary())
        assert float(np.linalg.norm(dense(evolved).matrix - expected.matrix)) < 1e-12

    def test_ignorant_projector_read_after_its_measurement_has_no_copies(self):
        # every outcome shifts O out of its ignorant state, so each copy
        # weighs 0 there and is dropped
        ignorant = Operator(single_factor("O", 3), np.diag([1.0, 0.0, 0.0]))
        seq = InteractionSequence((("m", Z_BLOCK),), OS_LAYOUT)
        evolved = evolve_label_sum(ignorant, seq, at=(0, 0))
        assert len(evolved) == 0
        assert evolved.mean((0, 0)) == 0.0
        assert not dense(evolved).matrix.any()
        assert len(evolve_label_sum(ignorant, seq)) == 2

    def test_product_projectors_split_per_factor(self, rng):
        system = SubsystemLayout((("S", 2), ("T", 2)))
        shifts = [Operator(single_factor("O", 4), np.eye(4))] * 4
        basis = product_groups(system, range(4))
        per_factor = measurement_block("O", basis, shifts)
        assert [labels for labels, _ in per_factor.projectors] == [("S",), ("T",)]
        bell = random_unitary(rng, 4)
        entangled = measurement_block(
            "O", [[Operator(system, np.outer(v, v.conj())) for v in bell.T]], shifts)
        assert [labels for labels, _ in entangled.projectors] == [("S", "T")]

    def test_sum_on_another_layout_rejected(self):
        b = belief("O", (0.0, 1.0, -1.0))
        other = SubsystemLayout((("O", 3), ("S", 2), ("T", 2)))
        with pytest.raises(LayoutError):
            evolve_label_sum(LabelSum.local(b, other), InteractionSequence((), OS_LAYOUT))

    def test_local_operator_off_the_layout_rejected(self):
        for op in (Operator(single_factor("X", 2), np.eye(2)),
                   Operator(single_factor("S", 3), np.eye(3))):
            with pytest.raises(LayoutError):
                LabelSum.local(op, OS_LAYOUT)


class TestLightCone:
    LAYOUT = SubsystemLayout((("A", 2), ("B", 2), ("C", 2), ("D", 2)))

    def step(self, *labels):
        block = SubsystemLayout(tuple((label, 2) for label in labels))
        return Operator(block, np.eye(block.total_dim))

    def test_later_steps_come_first(self):
        # B-C acts after A-B: a C observable reaches B, then A through the
        # earlier step; a step acting before it on C-D is walked last
        seq = InteractionSequence((("cd", self.step("C", "D")), ("ab", self.step("A", "B")),
                                   ("bc", self.step("B", "C"))), self.LAYOUT)
        assert light_cone(("C",), seq) == {"A", "B", "C", "D"}
        assert light_cone(("A",), reordered(seq, ("ab", "bc", "cd"))) == {"A", "B"}
        assert light_cone(("D",), reordered(seq, ("ab", "bc", "cd"))) == {"A", "B", "C", "D"}

    def test_empty_sequence(self):
        assert light_cone(("A",), InteractionSequence((), self.LAYOUT)) == {"A"}
