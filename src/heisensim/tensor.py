"""Dense complex linear algebra over labeled tensor-product spaces.

A composite Hilbert space is described by a :class:`SubsystemLayout`, an
ordered list of ``(label, dim)`` factors. Operators and state vectors are
dense complex arrays whose row-major index is the mixed-radix encoding of
the per-factor indices, leftmost factor most significant (the same
convention as chained ``numpy.kron``).

All values are immutable after construction and all operations are pure
functions, so they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Sequence

import numpy as np

#: Frobenius-norm tolerance of operator comparisons, unitarity and stray imaginary
#: parts; the predicates take another per call, --tol sets support's and --verify's.
DEFAULT_TOL = 1e-10

#: State vectors, and the oracle's state after each step, have norm 1 to this accuracy.
STATE_NORM_TOL = 1e-12

#: Guard against accidentally requesting an unreasonably large dense space.
MAX_TOTAL_DIM = 10_000


class LayoutError(ValueError):
    """A layout is malformed, or two layouts are incompatible."""


class InvariantError(ValueError):
    """An internal invariant failed: the program, not its input, is at fault."""


class NonUnitaryError(InvariantError):
    """A matrix required to be unitary failed the Frobenius check."""


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered, labeled tensor factors of a composite space.

    ``factors`` is a tuple of ``(label, dim)`` pairs. Labels are unique,
    every dim is at least 2, and the factor order is fixed at construction;
    all operators and states on the space share it.
    """

    factors: tuple[tuple[str, int], ...]

    def __init__(self, factors: Iterable[tuple[str, int]]):
        # labels, dims, total_dim and _positions are plain attributes, not
        # fields: equality and hashing see ``factors`` alone
        factors = tuple((str(label), int(dim)) for label, dim in factors)
        if not factors:
            raise LayoutError("layout needs at least one factor")
        labels = tuple(label for label, _ in factors)
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate factor labels in {list(labels)}")
        for label, dim in factors:
            if dim < 2:
                raise LayoutError(f"factor {label!r} has dim {dim}; every dim must be >= 2")
        dims = tuple(dim for _, dim in factors)
        total_dim = reduce(lambda a, b: a * b, dims, 1)
        if total_dim > MAX_TOTAL_DIM:
            raise LayoutError(f"total dimension {total_dim} exceeds the {MAX_TOTAL_DIM} guard")
        for name, value in (("factors", factors), ("labels", labels), ("dims", dims),
                            ("total_dim", total_dim),
                            ("_positions", {label: k for k, label in enumerate(labels)})):
            object.__setattr__(self, name, value)

    def position(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise LayoutError(f"unknown factor label {label!r}; have {self.labels}") from None

    def dim_of(self, label: str) -> int:
        return self.dims[self.position(label)]

    def __len__(self) -> int:
        return len(self.factors)


def single_factor(label: str, dim: int) -> SubsystemLayout:
    """Layout holding one factor; building block for local operators."""
    return SubsystemLayout(((label, dim),))


def _as_finite_complex(data, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=complex)
    if arr.shape != shape:
        raise LayoutError(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    # read-only view, no copy; treat source arrays as handed over
    view = arr.view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex square matrix bound to a layout.

    Unitarity is a property checked by a predicate, not assumed at
    construction; intermediate non-unitary algebra (projectors,
    transition operators) is legitimate.
    """

    layout: SubsystemLayout
    matrix: np.ndarray

    def __post_init__(self):
        d = self.layout.total_dim
        object.__setattr__(
            self, "matrix", _as_finite_complex(self.matrix, (d, d), "operator matrix")
        )

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @cached_property
    def _unitarity_residual(self) -> float:
        # cached: the matrix is immutable, so the Frobenius residual of
        # u†u - I never changes
        gram = self.matrix.conj().T @ self.matrix
        return float(np.linalg.norm(gram - np.eye(self.dim)))

    def is_unitary(self, tol: float = DEFAULT_TOL) -> bool:
        return self._unitarity_residual < tol


@dataclass(frozen=True, eq=False)
class StateVector:
    """Dense complex unit vector bound to a layout.

    The Euclidean norm must be 1 within ``STATE_NORM_TOL`` at construction.
    """

    layout: SubsystemLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        d = self.layout.total_dim
        amps = _as_finite_complex(self.amplitudes, (d,), "state amplitudes")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {STATE_NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, layout: SubsystemLayout, indices: Sequence[int]) -> "StateVector":
        """Product basis state from one index per factor, in layout order."""
        amps = np.zeros(layout.total_dim, dtype=complex)
        amps[_basis_index(layout, indices)] = 1.0
        return cls(layout, amps)


def _basis_index(layout: SubsystemLayout, indices: Sequence[int]) -> int:
    """Row-major index of the product basis state with these per-factor indices."""
    if len(indices) != len(layout):
        raise LayoutError(f"need {len(layout)} indices, got {len(indices)}")
    flat = 0
    for idx, dim in zip(indices, layout.dims):
        if not 0 <= idx < dim:
            raise ValueError(f"basis index {idx} out of range for dim {dim}")
        flat = flat * dim + idx
    return flat


def _record_blocks(matrix: np.ndarray,
                   dims: tuple[int, ...]) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """A view of the record blocks of ``matrix``, an operator on factors of
    ``dims``, and the axes of each factor in it: one, its record, for a
    factor on which every off-diagonal entry is exactly 0, and its row and
    column axes for any other.

    Every entry the view leaves out is exactly 0, so a NaN or an inf is
    always in it. Each factor is tested on the blocks that the diagonal
    factors before it leave, with one count of the nonzero entries on its
    diagonal: it is diagonal when that count is every nonzero entry of the
    blocks. With no diagonal factor the view is the whole matrix.
    """
    n = len(dims)
    view = matrix.reshape(dims + dims)
    nonzero = view != 0  # NaN != 0, so a NaN is never taken for a zero
    count = np.count_nonzero(nonzero)
    # what each axis of the view indexes: factor k's row k, its column n + k,
    # and its record 2n + k
    tags = list(range(2 * n))
    for k in range(n):
        i, j = tags.index(k), tags.index(n + k)
        diagonal = np.diagonal(nonzero, axis1=i, axis2=j)
        if np.count_nonzero(diagonal) == count:
            view, nonzero = np.diagonal(view, axis1=i, axis2=j), diagonal
            tags = [t for t in tags if t not in (k, n + k)] + [2 * n + k]
    return view, [(tags.index(2 * n + k),) if 2 * n + k in tags
                  else (tags.index(k), tags.index(n + k)) for k in range(n)]


def kron(a: Operator, b: Operator) -> Operator:
    """Kronecker product; the result's factors are a's followed by b's."""
    layout = SubsystemLayout(a.layout.factors + b.layout.factors)
    return Operator(layout, np.kron(a.matrix, b.matrix))


def embed(op: Operator, layout: SubsystemLayout) -> Operator:
    """Extend ``op`` to ``layout``, acting as identity on every other factor.

    Every factor of ``op.layout`` must exist in ``layout`` with the same
    dimension. The usual case is a single-factor operator; multi-factor
    operators (an entangler on two particles, a parity projector on three
    observers) embed the same way.
    """
    positions = tuple(layout.position(label) for label in op.layout.labels)
    for label, d in op.layout.factors:
        if layout.dim_of(label) != d:
            raise LayoutError(
                f"factor {label!r} has dim {layout.dim_of(label)} in the target "
                f"layout but {d} in the operator"
            )
    m = len(layout)
    rest = tuple(k for k in range(m) if k not in positions)
    rest_dim = reduce(lambda a, b: a * b, (layout.dims[k] for k in rest), 1)
    # op (x) I without np.kron's overhead: op's factors, then the rest; permuted below
    big = op.matrix[:, None, :, None] * np.eye(rest_dim, dtype=complex)[None, :, None, :]
    order = positions + rest
    dims_in_order = tuple(layout.dims[k] for k in order)
    tensor = big.reshape(dims_in_order + dims_in_order)
    perm = tuple(order.index(k) for k in range(m))
    tensor = tensor.transpose(perm + tuple(m + j for j in perm))
    d = layout.total_dim
    return Operator(layout, np.ascontiguousarray(tensor.reshape(d, d)))


def conjugate_by(op: Operator, u: Operator) -> Operator:
    """Heisenberg conjugation: return ``u† op u``."""
    if op.layout != u.layout:
        raise LayoutError(f"layout mismatch: {op.layout.labels} vs {u.layout.labels}")
    if not u.is_unitary():
        raise NonUnitaryError(
            f"conjugation matrix fails unitarity: |u†u - I| = {u._unitarity_residual:.3e}"
        )
    return Operator(op.layout, u.matrix.conj().T @ op.matrix @ u.matrix)


def expectation(state: StateVector, op: Operator) -> complex:
    """Matrix element <psi|op|psi> as a complex number."""
    if state.layout != op.layout:
        raise LayoutError("state and operator live on different layouts")
    return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))


def real_part(value: complex) -> float:
    """The real part of an expectation of a Hermitian observable; rejects a
    non-finite value and a stray imaginary part."""
    if not np.isfinite(value):
        raise InvariantError(f"expectation {value} is not finite")
    if abs(value.imag) >= DEFAULT_TOL:
        raise InvariantError(f"expectation {value} has imaginary part beyond {DEFAULT_TOL}")
    return value.real


def partial_trace(op: Operator, label: str) -> Operator:
    """Trace out one factor; the result lives on the layout without it."""
    layout = op.layout
    k = layout.position(label)
    m = len(layout)
    if m < 2:
        raise LayoutError("partial trace needs at least two factors")
    tensor = op.matrix.reshape(layout.dims + layout.dims)
    reduced = np.trace(tensor, axis1=k, axis2=m + k)
    new_layout = SubsystemLayout(layout.factors[:k] + layout.factors[k + 1:])
    d = new_layout.total_dim
    return Operator(new_layout, reduced.reshape(d, d))
