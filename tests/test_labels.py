import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from heisensim import (
    DEFAULT_TOL,
    Direction,
    InvariantError,
    LayoutError,
    Operator,
    SPIN_BETA,
    SubsystemLayout,
    acts_trivially_on,
    conjugate_by,
    embed,
    heisenberg_evolve,
    partial_trace,
    single_factor,
    support,
)
from heisensim.eprb import EPRB
from heisensim.ghzm import GHZM
from heisensim.measure import LabelSum, evolve_label_sum
from conftest import directions, random_direction
from reference import belief, copied_residual, dense, identity, strided_residual

SZ = np.diag([1.0, -1.0]).astype(complex)
LAYOUT = EPRB.layout


def chain_sequences(rng):
    n1, n2 = random_direction(rng), random_direction(rng)
    plain = EPRB.sequence((n1, n2), False)
    entangled = EPRB.sequence((n1, n2), True)
    return plain, entangled


class TestActsTriviallyOn:
    def test_embedded_operator_trivial_elsewhere(self):
        op = embed(Operator(single_factor("S1", 2), SZ), LAYOUT)
        for label in ("O1", "O2", "S2"):
            residual = acts_trivially_on(op, label)
            assert residual < DEFAULT_TOL
            assert residual < 1e-14
        assert not acts_trivially_on(op, "S1") < DEFAULT_TOL

    def test_exact_identity_factor_leaves_no_residual(self, rng):
        # a random operator on every other factor, embedded: the factor is
        # exactly the identity, at any position, and its residual exactly 0
        for layout in (LAYOUT, GHZM.layout):
            for label in layout.labels:
                rest = SubsystemLayout(tuple(f for f in layout.factors if f[0] != label))
                op = embed(Operator(rest, random_matrix(rng, rest.total_dim)), layout)
                assert acts_trivially_on(op, label) == 0.0

    def test_matches_the_strided_read_at_every_position(self, rng):
        # random operators on the GHZM layout: outer and inner factors, d = 2 and 3
        layout = GHZM.layout
        for _ in range(2):
            op = Operator(layout, random_matrix(rng, layout.total_dim))
            for label in layout.labels:
                expected = strided_residual(op, label)
                assert abs(acts_trivially_on(op, label) - expected) <= 1e-12 * expected

    def test_unknown_label(self):
        op = identity(LAYOUT)
        with pytest.raises(LayoutError):
            acts_trivially_on(op, "missing")

    def test_single_factor_layout(self):
        assert acts_trivially_on(identity(single_factor("A", 3)), "A") < DEFAULT_TOL
        assert not acts_trivially_on(
            Operator(single_factor("A", 3), np.diag([1.0, 2.0, 3.0])), "A"
        ) < DEFAULT_TOL


class TestSupport:
    def test_identity_has_empty_support(self):
        sup = support(identity(LAYOUT))
        assert sup.labels == frozenset()
        assert all(r < 1e-14 for r in sup.residuals.values())

    def test_belief_operator_supported_on_its_observer(self):
        b1 = embed(EPRB.observable(("B1",), SPIN_BETA), LAYOUT)
        assert support(b1).labels == {"O1"}

    def test_soundness_on_random_embeddings(self, rng):
        # a random nontrivial single-factor operator embedded anywhere is
        # detected on exactly that factor; every other factor is exactly the
        # identity, so its residual is exactly 0
        for _ in range(1000):
            n_factors = int(rng.integers(2, 5))
            dims = rng.integers(2, 4, size=n_factors)
            layout = SubsystemLayout(tuple((f"F{i}", int(d)) for i, d in enumerate(dims)))
            k = int(rng.integers(0, n_factors))
            d = int(dims[k])
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            local = Operator(single_factor(f"F{k}", d), m)
            while acts_trivially_on(local, f"F{k}") < DEFAULT_TOL:  # pragma: no cover
                m = rng.normal(size=(d, d))
                local = Operator(single_factor(f"F{k}", d), m)
            sup = support(embed(local, layout), tol=1e-10)
            assert sup.labels == {f"F{k}"}
            assert all(r == 0.0 for label, r in sup.residuals.items() if label != f"F{k}")

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_tolerance_that_is_not_finite_and_positive(self, tol):
        # 0 or less and NaN would mark every factor nontrivial, and inf none
        with pytest.raises(ValueError, match=f"^tolerance must be finite and positive, got {tol}$"):
            support(identity(LAYOUT), tol)


class TestSupportOfALabelSum:
    @pytest.mark.parametrize("entangled", [True, False])
    def test_split_sum_matches_its_dense_operator(self, entangled, rng):
        # B1 B2 splits into one term per outcome pair over several groups:
        # merged into one block, it reads as the dense operator
        seq = EPRB.sequence((random_direction(rng), random_direction(rng)), entangled)
        evolved = evolve_label_sum(EPRB.observable(("B1", "B2"), SPIN_BETA), seq)
        assert (len(evolved), len(evolved.groups)) == (4, 2 if entangled else 3)
        sup, ref = support(evolved), support(dense(evolved))
        assert sup.labels == ref.labels == frozenset(LAYOUT.labels)
        for label, r in ref.residuals.items():
            assert sup.residuals[label] == pytest.approx(r, rel=1e-12)

    @pytest.mark.parametrize("entangled", [True, False])
    def test_split_referee_block_matches_the_unsplit_block(self, entangled, rng):
        # 216 terms over five (entangled) or seven groups, contracted over
        # the terms, against one term on the whole layout
        seq = GHZM.sequence([random_direction(rng) for _ in range(3)], entangled)
        g = GHZM.observable(("G",), GHZM.presets["even"])
        split, whole = (evolve_label_sum(g, seq, s).block() for s in (True, False))
        assert split.layout == whole.layout == GHZM.layout
        assert_allclose(split.matrix, whole.matrix, rtol=0, atol=1e-12)

    def test_factors_outside_the_block_read_exactly_zero(self):
        b1 = LabelSum.local(EPRB.observable(("B1",), SPIN_BETA), LAYOUT)
        sup = support(b1)
        assert sup.labels == {"O1"}
        assert [sup.residuals[label] for label in ("O2", "S1", "S2")] == [0.0] * 3
        assert sup.residuals["O1"] == pytest.approx(support(dense(b1)).residuals["O1"],
                                                    rel=1e-14)

    def test_labels_outside_the_block_read_zero_and_form_no_block(self, monkeypatch):
        b1 = LabelSum.local(EPRB.observable(("B1",), SPIN_BETA), LAYOUT)
        some = support(b1, labels=("O1", "S2"))
        assert (some.labels, some.residuals) == ({"O1"}, {"O1": support(b1).residuals["O1"],
                                                          "S2": 0.0})
        monkeypatch.setattr(LabelSum, "block", None)
        assert support(b1, labels=("S2", "O2")).residuals == {"S2": 0.0, "O2": 0.0}
        with pytest.raises(LayoutError):
            support(b1, labels=("missing",))

    def test_a_one_term_group_is_its_own_block(self, rng):
        # the group's matrix itself, not a contraction of it with ones
        seq = EPRB.sequence((random_direction(rng), random_direction(rng)), True)
        evolved = evolve_label_sum(EPRB.observable(("B1",), SPIN_BETA), seq, split=False)
        (_, a), = evolved.groups
        block = evolved.block()
        assert block.layout.labels == ("O1", "S1", "S2")
        assert np.shares_memory(block.matrix, a)
        assert np.array_equal(block.matrix, a[0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 4)], ids=["in-a-record", "between-records"])
    def test_a_non_finite_entry_fails_every_read_on_its_block(self, bad, where, rng):
        # B1 evolved through the entangled sequence: one term on O1, S1, S2,
        # exactly diagonal on O1 (entries 0 and 4 lie in records 0 and 1); a
        # kernel fault, not a caller's error, named by the factor read
        seq = EPRB.sequence((random_direction(rng), random_direction(rng)), True)
        evolved = evolve_label_sum(EPRB.observable(("B1",), SPIN_BETA), seq, split=False)
        ((positions, a),) = evolved.groups
        assert a[0][where] == 0 or where == (0, 0)
        a = a.copy()
        a[0][where] = bad
        broken = LabelSum(evolved.layout, ((positions, a),))
        for label in ("O1", "S1", "S2"):
            with pytest.raises(InvariantError, match=f"^residual on {label} is (nan|inf): "):
                support(broken, labels=(label, "O2"))


def assert_ledger_matches_the_dense_reference(exp, directions):
    # each stage's sequence built whole and multiplied out, the operator
    # embedded and conjugated by it: the dense reference, independent of the
    # label-sum walk and of when the ledger reads each factor
    entangled = exp.sequence(directions, True)
    # the ledger names each stage by the last step's tag up to its ":"
    time = entangled.tags[-1].split(":")[0]
    stages = {"t0": None,
              f"{time}-nonentangled": exp.sequence(directions, False).total_unitary(),
              f"{time}-entangled": entangled.total_unitary()}
    rows = exp.support_ledger(directions, 1e-10)
    assert [row[:2] for row in rows] == [[name, stage] for name, _, _ in exp.ledger
                                        for stage in stages]
    ops = {name: embed(belief(label, eigenvalues), exp.layout)
           for name, label, eigenvalues in exp.ledger}
    for name, stage, labels, *residuals in rows:
        total = stages[stage]
        evolved = ops[name] if total is None else conjugate_by(ops[name], total)
        ref = support(evolved, 1e-10)
        assert labels == ",".join(lbl for lbl in exp.layout.labels if lbl in ref.labels)
        for r, label in zip(residuals, exp.layout.labels):
            expected = ref.residuals[label]
            assert abs(r - expected) <= 1e-12 * max(1.0, expected), (name, stage, label)


class TestSupportLedger:
    @pytest.mark.parametrize("exp", [EPRB, GHZM], ids=["eprb", "ghzm"])
    def test_rows_match_the_dense_reference(self, exp, rng):
        generic = [random_direction(rng) for _ in exp.measurements]
        # analyzers at the poles leave exact zeros and identities behind
        poles = [Direction(0.0, 0.0), Direction(math.pi, 1.0), random_direction(rng)]
        for directions in (generic, poles[:len(exp.measurements)]):
            assert_ledger_matches_the_dense_reference(exp, directions)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_tolerance_that_is_not_finite_and_positive(self, tol):
        # a caller's error, not a light-cone fault of the kernel
        directions = (Direction(1.5, 0), Direction(1.5, 2))
        with pytest.raises(ValueError, match=f"^tolerance must be finite and positive, got {tol}$"):
            EPRB.support_ledger(directions, tol)

    # a GHZM example builds and conjugates 648-dim dense operators, about 1 s
    @pytest.mark.parametrize("exp, examples", [(EPRB, 40), (GHZM, 4)], ids=["eprb", "ghzm"])
    def test_rows_match_the_dense_reference_at_drawn_angles(self, exp, examples):
        n = len(exp.measurements)

        @settings(max_examples=examples, deadline=None)
        @given(st.lists(directions, min_size=n, max_size=n))
        def check(drawn):
            assert_ledger_matches_the_dense_reference(exp, drawn)

        check()

    @pytest.mark.parametrize("exp, checks, dims", [
        (EPRB, 20, {2: 2, 3: 2, 6: 8, 12: 8}),
        # 648-dim checks: 5 here, 14 when every factor was read at a stage's end
        (GHZM, 29, {3: 4, 6: 6, 24: 9, 81: 1, 162: 2, 324: 2, 648: 5}),
    ], ids=["eprb", "ghzm"])
    def test_each_factor_read_at_most_once_after_its_last_step(
            self, exp, checks, dims, rng, monkeypatch):
        # per observable: its own factor at t0, then at each later stage each
        # factor a step of the stage acts on, at most once: on the block right
        # after the last step of the walk that acts on it, when the block holds
        # it; all of a block's factors in one read, and no operator on the
        # whole layout
        import heisensim.labels as labels

        read, residuals, record_blocks = [], labels._residuals, labels._record_blocks
        block_dims, records, embeds = Counter(), Counter(), []

        def counted(matrix, layout, names):
            read.append(list(names))
            block_dims[matrix.shape[0]] += len(names)
            return residuals(matrix, layout, names)

        def gathered(matrix, dims):
            view, axes = record_blocks(matrix, dims)
            # the records the view holds, and each record block's dimension
            records[matrix.shape[0], math.prod(view.shape[a[0]] for a in axes if len(a) == 1),
                    math.prod(view.shape[a[0]] for a in axes if len(a) == 2)] += 1
            return view, axes

        def embedded(*args, **kwargs):
            embeds.append(args)
            return embed(*args, **kwargs)

        monkeypatch.setattr(labels, "_residuals", counted)
        monkeypatch.setattr(labels, "_record_blocks", gathered)
        for module in [m for n, m in sys.modules.items() if n.startswith("heisensim")]:
            if getattr(module, "embed", None) is embed:
                monkeypatch.setattr(module, "embed", embedded)
        exp.support_ledger([random_direction(rng) for _ in exp.measurements], 1e-10)
        assert (sum(block_dims.values()), block_dims, embeds) == (checks, dims, [])
        assert all(len(set(names)) == len(names) for names in read)
        assert sum(records.values()) == len(read) == (12 if exp is EPRB else 15)
        if exp is GHZM:
            # the referee at 648 dims: 81 records of O0..O3, each an 8 x 8
            # block on S1..S3
            assert {key: n for key, n in records.items() if key[0] == 648} == {(648, 81, 8): 2}

    @pytest.mark.parametrize("exp, dims", [
        (EPRB, {3: 2, 6: 2, 12: 4}),
        # each measurement conjugates the observer's group by its shifts
        # alone: one 648-dim conjugation, by the entangler, not two
        (GHZM, {3: 4, 24: 3, 81: 1, 162: 1, 324: 1, 648: 1}),
    ], ids=["eprb", "ghzm"])
    def test_conjugations_by_group_dimension(self, exp, dims, rng, monkeypatch):
        import heisensim.measure as measure

        conjugate, group_dims = measure._conjugate, Counter()

        def counted(layout, positions, a, rows, u):
            group_dims[a.shape[-1]] += 1
            return conjugate(layout, positions, a, rows, u)

        monkeypatch.setattr(measure, "_conjugate", counted)
        exp.support_ledger([random_direction(rng) for _ in exp.measurements], 1e-10)
        assert group_dims == dims


class TestSupportChain:
    def test_monotone_growth(self, rng):
        plain, entangled = chain_sequences(rng)
        b1 = embed(EPRB.observable(("B1",), SPIN_BETA), LAYOUT)
        s_t0 = support(b1).labels
        s_plain = support(heisenberg_evolve(b1, plain)).labels
        s_ent = support(heisenberg_evolve(b1, entangled)).labels
        assert s_t0 == {"O1"}
        assert s_plain == {"O1", "S1"}
        assert s_ent == {"O1", "S1", "S2"}
        assert s_t0 < s_plain < s_ent

    def test_unmeasured_factors_untouched(self, rng):
        plain, _ = chain_sequences(rng)
        b1 = embed(EPRB.observable(("B1",), SPIN_BETA), LAYOUT)
        evolved = heisenberg_evolve(b1, plain)
        for label in ("O2", "S2"):
            residual = acts_trivially_on(evolved, label)
            assert residual < DEFAULT_TOL
            assert residual < 1e-12

    def test_spin_observable_local_under_z_measurement(self):
        # measuring along z leaves the z-spin observable supported on its
        # own particle only
        seq = EPRB.sequence((Direction(0.0, 0.0), Direction(0.0, 0.0)), False)
        a1 = embed(Operator(single_factor("S1", 2), SZ), LAYOUT)
        assert support(heisenberg_evolve(a1, seq)).labels == {"S1"}

    def test_ghzm_referee_observable_spreads_everywhere(self, rng):
        dirs = [random_direction(rng) for _ in range(3)]
        seq = GHZM.sequence(dirs, True)
        evolved = heisenberg_evolve(GHZM.observable(("G",), (0.0, 0.0, 1.0)), seq)
        assert support(evolved).labels == frozenset(GHZM.layout.labels)


class TestPeeling:
    def test_reconstruction_order_independent(self, rng):
        # an operator trivial on two factors peels back to itself in
        # either order
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        sub = Operator(SubsystemLayout((("A", 2), ("C", 3))), m)
        layout = SubsystemLayout((("A", 2), ("B", 2), ("C", 3), ("D", 2)))
        op = embed(sub, layout)
        for order in (("B", "D"), ("D", "B")):
            reduced = op
            for label in order:
                d = reduced.layout.dim_of(label)
                rest = tuple(f for f in reduced.layout.factors if f[0] != label)
                reduced = Operator(SubsystemLayout(rest), partial_trace(reduced, label).matrix / d)
            rebuilt = embed(reduced, layout)
            assert float(np.linalg.norm(rebuilt.matrix - op.matrix)) < 1e-10


@st.composite
def layouts(draw):
    dims = draw(st.lists(st.integers(2, 3), min_size=1, max_size=4))
    return SubsystemLayout(tuple((f"F{i}", d) for i, d in enumerate(dims)))


def random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


@settings(max_examples=100, deadline=None)
@given(layout=layouts(), seed=st.integers(0, 2**31))
def test_triviality_matches_partial_trace_reconstruction(layout, seed):
    rng = np.random.default_rng(seed)
    # a generic operator and a local one, so both verdicts occur
    local = layout.labels[int(rng.integers(len(layout)))]
    ops = [Operator(layout, random_matrix(rng, layout.total_dim)),
           embed(Operator(single_factor(local, layout.dim_of(local)),
                          random_matrix(rng, layout.dim_of(local))), layout)]
    for op in ops:
        for label in layout.labels:
            d = layout.dim_of(label)
            if len(layout) == 1:
                rebuilt = np.trace(op.matrix) / d * np.eye(d)
            else:
                reduced = partial_trace(op, label)
                rebuilt = embed(Operator(reduced.layout, reduced.matrix / d), layout).matrix
            expected = float(np.linalg.norm(op.matrix - rebuilt))
            residual = acts_trivially_on(op, label)
            assert (residual < DEFAULT_TOL) == (expected < 1e-10)
            assert abs(residual - expected) < 1e-12


@st.composite
def record_operators(draw):
    """A random operator on the EPRB or GHZM layout, exactly diagonal on a
    drawn set of factors, the identity on a drawn subset of them and lower
    triangular on another set, so zero between some records but not all,
    with some of its exact zeros written as -0.0."""
    layout = draw(st.sampled_from([LAYOUT, GHZM.layout]))
    factors = st.sets(st.sampled_from(range(len(layout))))
    diagonal, identities, triangular = draw(factors), draw(factors), draw(factors)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rest = [f for k, f in enumerate(layout.factors) if k not in identities]
    if rest:
        sub = SubsystemLayout(rest)
        tensor = random_matrix(rng, sub.total_dim).reshape(2 * sub.dims)
        for k, (label, d) in enumerate(rest):
            rows = np.arange(d).reshape((-1,) + (1,) * (2 * len(rest) - k - 1))
            cols = np.arange(d).reshape((-1,) + (1,) * (len(rest) - k - 1))
            if layout.position(label) in diagonal:
                tensor = tensor * (rows == cols)
            elif layout.position(label) in triangular:
                tensor = tensor * (rows >= cols)
        matrix = embed(Operator(sub, tensor.reshape(sub.total_dim, -1)), layout).matrix.copy()
    else:
        matrix = complex(rng.normal(), rng.normal()) * np.eye(layout.total_dim, dtype=complex)
    zeros = matrix == 0
    matrix[zeros & (rng.random(matrix.shape) < draw(st.sampled_from([0.0, 0.5, 1.0])))] = -0.0
    return Operator(layout, matrix)


def exactly_diagonal(op, label):
    k, d = op.layout.position(label), op.layout.dim_of(label)
    tensor = op.matrix.reshape(2 * op.layout.dims)
    return all(not np.take(np.take(tensor, i, axis=k), j, axis=len(op.layout) + k - 1).any()
               for i in range(d) for j in range(d) if i != j)


@settings(max_examples=60, deadline=None)
@given(op=record_operators())
def test_the_record_block_read_matches_the_copy_read(op):
    # each read within 1e-12 of one copy of the whole operator per factor,
    # exactly 0 where that is, and its bits when no factor is exactly
    # diagonal; support reads every factor as acts_trivially_on does
    reads = {label: acts_trivially_on(op, label) for label in op.layout.labels}
    expected = {label: copied_residual(op, label) for label in op.layout.labels}
    for label, r in reads.items():
        assert abs(r - expected[label]) <= 1e-12 * expected[label], label
    if not any(exactly_diagonal(op, label) for label in op.layout.labels):
        assert reads == expected
    assert support(op).residuals == reads
