import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from heisensim import (
    InvariantError,
    LayoutError,
    NonUnitaryError,
    Operator,
    StateVector,
    SubsystemLayout,
    conjugate_by,
    embed,
    expectation,
    kron,
    partial_trace,
    single_factor,
)
from heisensim.tensor import real_part
from conftest import random_unitary
from reference import identity, is_hermitian, normalized, projector_from_state, real_expectation

SZ = np.diag([1.0, -1.0]).astype(complex)


def op(label, matrix, dim=None):
    matrix = np.asarray(matrix, dtype=complex)
    return Operator(single_factor(label, dim or matrix.shape[0]), matrix)


class TestLayout:
    def test_basic(self):
        lay = SubsystemLayout((("O1", 3), ("S1", 2)))
        assert lay.total_dim == 6
        assert lay.labels == ("O1", "S1")
        assert lay.position("S1") == 1
        assert lay.dim_of("O1") == 3

    def test_rejects_duplicate_labels(self):
        with pytest.raises(LayoutError):
            SubsystemLayout((("A", 2), ("A", 3)))

    def test_rejects_dim_below_two(self):
        with pytest.raises(LayoutError):
            SubsystemLayout((("A", 1),))

    def test_rejects_oversized_space(self):
        with pytest.raises(LayoutError):
            SubsystemLayout(tuple((f"q{i}", 2) for i in range(15)))

    def test_unknown_label(self):
        with pytest.raises(LayoutError):
            single_factor("A", 2).position("B")

    def test_equality_and_hash_see_factors_alone(self):
        lay = SubsystemLayout((("O1", 3), ("S1", 2)))
        same = SubsystemLayout([("O1", 3.0), ("S1", "2")])
        assert [f.name for f in dataclasses.fields(lay)] == ["factors"]
        assert lay == same and hash(lay) == hash(same) == hash((lay.factors,))
        assert lay != SubsystemLayout((("S1", 2), ("O1", 3)))
        # the derived attributes are plain, set once at construction, and
        # neither equality nor the hash reads them
        assert {"labels", "dims", "total_dim", "_positions"} <= vars(lay).keys()
        object.__setattr__(same, "labels", ("X",))
        object.__setattr__(same, "total_dim", 0)
        assert lay == same and hash(lay) == hash(same)


class TestStateVector:
    def test_norm_enforced(self):
        lay = single_factor("S", 2)
        with pytest.raises(ValueError):
            StateVector(lay, [1.0, 1.0])
        sv = normalized(lay, [1.0, 1.0])
        assert_allclose(np.linalg.norm(sv.amplitudes), 1.0, atol=1e-15)

    def test_basis_indexing_is_mixed_radix(self):
        lay = SubsystemLayout((("A", 3), ("B", 2)))
        sv = StateVector.basis(lay, (2, 1))
        assert sv.amplitudes[2 * 2 + 1] == 1.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            StateVector(single_factor("S", 2), [np.nan, 0.0])


class TestOperatorValidation:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Operator(single_factor("S", 2), [[np.inf, 0.0], [0.0, 1.0]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(LayoutError):
            Operator(single_factor("S", 2), np.eye(3))

    def test_matrix_is_read_only(self):
        o = Operator(single_factor("S", 2), np.eye(2))
        with pytest.raises(ValueError):
            o.matrix[0, 0] = 5.0


class TestKron:
    def test_identity_times_identity(self):
        out = kron(op("A", np.eye(2)), op("B", np.eye(3)))
        assert_allclose(out.matrix, np.eye(6), atol=0)
        assert out.layout.labels == ("A", "B")

    def test_diag_with_identity(self):
        out = kron(op("A", SZ), op("B", np.eye(2)))
        assert_allclose(np.diag(out.matrix), [1, 1, -1, -1], atol=0)

    def test_sz_sz_on_up_down(self):
        # hand evaluation: the (up, down) basis state is an eigenvector
        # of sz (x) sz with eigenvalue -1
        zz = kron(op("S1", SZ), op("S2", SZ))
        sv = StateVector.basis(zz.layout, (0, 1))
        assert real_expectation(sv, zz) == pytest.approx(-1.0, abs=1e-15)

    def test_rejects_label_clash(self):
        with pytest.raises(LayoutError):
            kron(op("A", np.eye(2)), op("A", np.eye(2)))


class TestEmbed:
    LAYOUT = SubsystemLayout((("O1", 3), ("O2", 3), ("S1", 2), ("S2", 2)))

    def test_single_factor_matches_direct_kron(self):
        out = embed(op("S1", SZ), self.LAYOUT)
        direct = np.kron(np.eye(9), np.kron(SZ, np.eye(2)))
        assert_allclose(out.matrix, direct, atol=0)

    def test_identity_embeds_to_identity(self):
        out = embed(op("S2", np.eye(2)), self.LAYOUT)
        assert_allclose(out.matrix, np.eye(36), atol=0)

    def test_expectation_in_product_state(self):
        # observers ignorant, particle 1 up, particle 2 down: sz on the
        # first particle reads +1
        sv = StateVector.basis(self.LAYOUT, (0, 0, 0, 1))
        out = embed(op("S1", SZ), self.LAYOUT)
        assert real_expectation(sv, out) == pytest.approx(1.0, abs=1e-15)

    def test_multi_factor_block(self):
        block = kron(op("O2", np.arange(9).reshape(3, 3)), op("S1", SZ))
        out = embed(block, self.LAYOUT)
        direct = np.kron(
            np.eye(3), np.kron(np.arange(9).reshape(3, 3).astype(complex), np.kron(SZ, np.eye(2)))
        )
        assert_allclose(out.matrix, direct, atol=0)

    def test_noncontiguous_factors(self):
        block = kron(op("O1", np.diag([1.0, 2.0, 3.0])), op("S2", SZ))
        out = embed(block, self.LAYOUT)
        direct = np.kron(np.diag([1.0, 2.0, 3.0]), np.kron(np.eye(6), SZ))
        assert_allclose(out.matrix, direct, atol=0)

    def test_block_factor_order_is_immaterial(self, rng):
        # the embedding acts factor-by-factor, so the order the block's
        # factors were kron'd in does not matter
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        one = embed(kron(op("S1", a), op("O1", b)), self.LAYOUT)
        two = embed(kron(op("O1", b), op("S1", a)), self.LAYOUT)
        assert_allclose(one.matrix, two.matrix, atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(LayoutError):
            embed(op("O1", SZ), self.LAYOUT)

    def test_unknown_label(self):
        with pytest.raises(LayoutError):
            embed(op("X", SZ), self.LAYOUT)


class TestConjugateBy:
    def test_identity_conjugation(self, rng):
        a = op("A", rng.normal(size=(4, 4)), dim=4)
        out = conjugate_by(a, op("A", np.eye(4)))
        assert_allclose(out.matrix, a.matrix, atol=0)

    def test_identity_is_fixed_point(self, rng):
        u = op("A", random_unitary(rng, 4))
        out = conjugate_by(identity(u.layout), u)
        assert_allclose(out.matrix, np.eye(4), atol=1e-14)

    def test_rejects_non_unitary(self):
        a = op("A", np.eye(2))
        with pytest.raises(NonUnitaryError):
            conjugate_by(a, op("A", [[1.0, 0.0], [0.0, 2.0]]))

    def test_rejects_another_layout(self):
        with pytest.raises(LayoutError, match="layout mismatch"):
            conjugate_by(op("A", np.eye(2)), op("B", np.eye(2)))

    def test_preserves_eigenvalues(self, rng):
        # oracle: eigvalsh on both sides, independent of the conjugation
        z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        herm = z + z.conj().T
        a = op("A", herm)
        u = op("A", random_unitary(rng, 6))
        before = np.linalg.eigvalsh(a.matrix)
        after = np.linalg.eigvalsh(conjugate_by(a, u).matrix)
        assert_allclose(after, before, atol=1e-10)


class TestExpectation:
    def test_identity_gives_one(self, rng):
        lay = single_factor("A", 5)
        sv = normalized(lay, rng.normal(size=5) + 1j * rng.normal(size=5))
        assert real_expectation(sv, identity(lay)) == pytest.approx(1.0, abs=1e-14)

    def test_spin_up_reads_plus_one(self):
        sv = StateVector.basis(single_factor("S", 2), (0,))
        assert real_expectation(sv, op("S", SZ)) == pytest.approx(1.0, abs=0)

    def test_transverse_state_reads_zero(self):
        sv = normalized(single_factor("S", 2), [1.0, 1.0])
        assert real_expectation(sv, op("S", SZ)) == pytest.approx(0.0, abs=1e-15)

    def test_layout_mismatch(self):
        sv = StateVector.basis(single_factor("S", 2), (0,))
        with pytest.raises(LayoutError):
            expectation(sv, op("T", SZ))

    def test_real_wrapper_rejects_imaginary(self):
        sv = normalized(single_factor("S", 2), [1.0, 1.0])
        skew = op("S", [[0.0, 1j], [-1j, 0.0]])  # hermitian, fine
        real_expectation(sv, skew)
        lop = op("S", [[0.0, 1j], [0.0, 0.0]])  # not hermitian, <L> = i/2
        with pytest.raises(ValueError):
            real_expectation(sv, lop)

    @pytest.mark.parametrize("value", [complex(np.nan, 0.0), complex(np.inf, 0.0),
                                       complex(0.5, np.nan)], ids=["nan", "inf", "nan-imaginary"])
    def test_real_part_rejects_non_finite(self, value):
        # comparisons with NaN are all false, so no later check would catch it
        with pytest.raises(InvariantError, match="not finite"):
            real_part(value)


class TestProjector:
    def test_basis_projector(self):
        p = projector_from_state(StateVector.basis(single_factor("S", 2), (0,)))
        assert_allclose(p.matrix, np.diag([1.0, 0.0]), atol=0)

    def test_idempotent_unit_trace(self, rng):
        sv = normalized(
            single_factor("S", 4), rng.normal(size=4) + 1j * rng.normal(size=4)
        )
        p = projector_from_state(sv)
        assert_allclose(p.matrix @ p.matrix, p.matrix, atol=1e-12)
        assert np.trace(p.matrix) == pytest.approx(1.0, abs=1e-12)
        assert is_hermitian(p, 1e-12)


class TestPartialTrace:
    def test_traces_out_second_factor(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        full = kron(op("A", a), op("B", b))
        reduced = partial_trace(full, "B")
        assert_allclose(reduced.matrix, a * np.trace(b), atol=1e-12)
        assert reduced.layout.labels == ("A",)

    def test_needs_two_factors(self):
        with pytest.raises(LayoutError):
            partial_trace(op("A", np.eye(2)), "A")


@st.composite
def small_dims(draw, n=3):
    return tuple(draw(st.integers(2, 3)) for _ in range(n))


@settings(max_examples=60, deadline=None)
@given(dims=small_dims(), seed=st.integers(0, 2**31))
def test_kron_associativity(dims, seed):
    rng = np.random.default_rng(seed)
    ops = [
        op(lbl, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        for lbl, d in zip("ABC", dims)
    ]
    left = kron(kron(ops[0], ops[1]), ops[2])
    right = kron(ops[0], kron(ops[1], ops[2]))
    assert float(np.linalg.norm(left.matrix - right.matrix)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(dims=small_dims(), seed=st.integers(0, 2**31))
def test_embed_disjoint_support_commutes(dims, seed):
    rng = np.random.default_rng(seed)
    lay = SubsystemLayout(tuple((lbl, d) for lbl, d in zip("ABC", dims)))
    a = embed(op("A", rng.normal(size=(dims[0], dims[0]))), lay)
    c = embed(op("C", rng.normal(size=(dims[2], dims[2]))), lay)
    assert float(np.linalg.norm(a.matrix @ c.matrix - c.matrix @ a.matrix)) == 0.0


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 8), seed=st.integers(0, 2**31))
def test_picture_equivalence_kernel_identity(dim, seed):
    # <psi| u' A u |psi> equals <u psi| A |u psi> for any unitary u
    rng = np.random.default_rng(seed)
    lay = single_factor("A", dim)
    a = op("A", rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)), dim=dim)
    u = op("A", random_unitary(rng, dim))
    psi = normalized(lay, rng.normal(size=dim) + 1j * rng.normal(size=dim))
    lhs = expectation(psi, conjugate_by(a, u))
    rhs = expectation(StateVector(lay, u.matrix @ psi.amplitudes), a)
    assert abs(lhs - rhs) < 1e-10


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 8), seed=st.integers(0, 2**31))
def test_real_projector_combinations_are_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    lay = single_factor("A", dim)
    total = np.zeros((dim, dim), dtype=complex)
    for _ in range(3):
        sv = normalized(lay, rng.normal(size=dim) + 1j * rng.normal(size=dim))
        total += rng.normal() * projector_from_state(sv).matrix
    assert is_hermitian(Operator(lay, total), 1e-12)
