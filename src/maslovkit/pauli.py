"""Pauli modules, stabilizer submodules and Clifford unitaries.

The Pauli module of N qudit species over a Laurent ring R is the free module
R^2N = L + L* carrying the anti-hermitian pairing given by the block matrix
(0 1; -1 0).  Columns hold the X content on top and the Z content below.
Stabilizer modules are column spans of generator matrices; Clifford QCA act
as invertible matrices preserving the pairing (lambda^- unitaries).

Isotropy is checked exactly for every d.  Coisotropy, the direct-summand
condition and transversality reduce to Smith normal form and are exact for
d <= 1.
"""

from __future__ import annotations

from .errors import (
    DomainError,
    FormError,
    NotAUnit,
    RingMismatch,
    ShapeError,
    _Value,
)
from .forms import HermitianForm, _require_plus_hermitian, hyperbolic_form
from .linalg import (
    RingMatrix,
    _rows,
    _solve,
    inverse,
    kernel_basis,
    smith_normal_form,
    solve_in_span,
)
from .ring import FieldElement, LaurentPolynomial, RingDescriptor


class PauliModule(_Value):
    """Ambient free module L + L* of rank 2N over the given ring."""

    __slots__ = ("ring", "N")

    def __init__(self, ring: RingDescriptor, N: int):
        if not isinstance(ring, RingDescriptor):
            raise DomainError(f"a Pauli module needs a RingDescriptor, got {type(ring).__name__}")
        if type(N) is not int or N < 1:
            raise DomainError(f"qudit species count must be an int >= 1, got {N!r}")
        self._set(ring, N)

    @property
    def rank(self) -> int:
        return 2 * self.N

    def lambda_minus(self) -> RingMatrix:
        return hyperbolic_form(self.N, -1, self.ring).matrix

    def standard_lagrangian(self) -> "StabilizerModule":
        """The X-side summand L: columns (e_i, 0)."""
        return StabilizerModule(self, RingMatrix._grid(self.ring, self.N, [[1], [0]]))

    def dual_lagrangian(self) -> "StabilizerModule":
        """The Z-side summand L*: columns (0, e_i)."""
        return StabilizerModule(self, RingMatrix._grid(self.ring, self.N, [[0], [1]]))


def _require_types(what: str, ambient, matrix):
    """DomainError unless ambient is a PauliModule and matrix a RingMatrix."""
    if not (isinstance(ambient, PauliModule) and isinstance(matrix, RingMatrix)):
        raise DomainError(
            f"{what} needs a PauliModule and a RingMatrix, got "
            f"{type(ambient).__name__} and {type(matrix).__name__}"
        )


class StabilizerModule(_Value):
    """Column span of a generator matrix inside a Pauli module.

    Generating sets are highly non-unique, so no canonical form is imposed:
    == compares the generators, and modules_equal decides whether the spans
    are equal (mutual span containment).  Zero columns are dropped on
    construction.
    """

    __slots__ = ("ambient", "generators")

    def __init__(self, ambient: PauliModule, generators: RingMatrix):
        _require_types("a stabilizer module", ambient, generators)
        if generators.ring != ambient.ring:
            raise RingMismatch("generator ring differs from ambient ring")
        if generators.rows != ambient.rank:
            raise ShapeError(
                f"generators must have {ambient.rank} rows, got {generators.rows}"
            )
        keep = [j for j, column in enumerate(zip(*_rows(generators))) if any(column)]
        self._set(ambient, generators.submatrix(range(generators.rows), keep))


class CliffordUnitary(_Value):
    """An invertible matrix preserving the anti-hermitian pairing.

    The public constructor verifies dagger(M) @ lambda^- @ M = lambda^-
    exactly.  Products, inverses, elementary and hyperbolic unitaries are
    unitary by construction and are not checked again.
    """

    __slots__ = ("ambient", "matrix")

    def __init__(self, ambient: PauliModule, matrix: RingMatrix):
        _require_types("a Clifford unitary", ambient, matrix)
        if matrix.ring != ambient.ring:
            raise RingMismatch("unitary ring differs from ambient ring")
        if matrix.shape != (ambient.rank, ambient.rank):
            raise ShapeError(f"unitary must be {ambient.rank} x {ambient.rank}")
        lam = ambient.lambda_minus()
        if matrix.dagger() @ lam @ matrix != lam:
            raise FormError("matrix does not preserve the anti-hermitian pairing")
        self._set(ambient, matrix)

    def __matmul__(self, other: "CliffordUnitary") -> "CliffordUnitary":
        if not isinstance(other, CliffordUnitary):
            return NotImplemented
        if self.ambient != other.ambient:
            raise RingMismatch("unitaries act on different Pauli modules")
        return CliffordUnitary._unchecked(self.ambient, self.matrix @ other.matrix)

    def inverse(self) -> "CliffordUnitary":
        return CliffordUnitary._unchecked(self.ambient, inverse(self.matrix))


def pairing(v: RingMatrix, w: RingMatrix) -> LaurentPolynomial:
    """Anti-hermitian pairing dagger(v) lambda^- w of two column vectors."""
    if v.ring != w.ring:
        raise RingMismatch("vectors live over different rings")
    if v.cols != 1 or w.cols != 1 or v.rows != w.rows or v.rows % 2:
        raise ShapeError("pairing expects two 2N x 1 columns")
    n = v.rows // 2
    module = PauliModule(v.ring, n)
    return (v.dagger() @ module.lambda_minus() @ w)[0, 0]


def commutation_phase(v: RingMatrix, w: RingMatrix) -> FieldElement:
    """Exponent of omega in the commutator of the two Pauli operators."""
    if v.ring.has_T:
        raise DomainError("commutation phase needs a T-free ring")
    return pairing(v, w).augment()


def _pairing_rows(S: StabilizerModule) -> RingMatrix:
    """dagger(G) lambda^- for the generators G: row i pairs generator i."""
    return S.generators.dagger() @ S.ambient.lambda_minus()


def is_isotropic(S: StabilizerModule) -> bool:
    """All pairings between generators vanish (any d)."""
    return (_pairing_rows(S) @ S.generators).is_zero()


def lagrangian_report(S: StabilizerModule) -> dict:
    """The three Lagrangian conditions plus their conjunction.

    Exact for d <= 1 (no T); the summand condition asks the Smith form of
    the generator matrix for unit invariant factors, coisotropy solves a
    span-membership problem for the pairing kernel with that same Smith form.
    """
    G = S.generators
    pairings = _pairing_rows(S)
    isotropic = (pairings @ G).is_zero()
    snf = smith_normal_form(G)
    summand = all(f.is_unit() for f in snf.invariant_factors)
    coisotropic = _solve(snf, kernel_basis(pairings)) is not None
    lagrangian = isotropic and coisotropic and summand and snf.rank == S.ambient.N
    return {
        "isotropic": isotropic,
        "coisotropic": coisotropic,
        "summand": summand,
        "lagrangian": lagrangian,
    }


def is_transversal(S1: StabilizerModule, S2: StabilizerModule) -> bool:
    """The two submodules together span the whole Pauli module."""
    if S1.ambient != S2.ambient:
        raise RingMismatch("modules live in different Pauli modules")
    stacked = RingMatrix.from_blocks([[S1.generators, S2.generators]])
    snf = smith_normal_form(stacked)
    return snf.rank == S1.ambient.rank and all(
        f.is_unit() for f in snf.invariant_factors
    )


def modules_equal(S1: StabilizerModule, S2: StabilizerModule) -> bool:
    """Span equality of two stabilizer modules (d <= 1, no T)."""
    if S1.ambient != S2.ambient:
        raise RingMismatch("modules live in different Pauli modules")
    G1, G2 = S1.generators, S2.generators
    return solve_in_span(G1, G2) is not None and solve_in_span(G2, G1) is not None


def elementary_unitary(which: str, q: HermitianForm) -> CliffordUnitary:
    """E0(q) = (1 0; q 1) on L, or E1(q) = (1 q; 0 1) on L*."""
    _require_plus_hermitian(q, "elementary unitaries need a +hermitian form")
    if which == "E0":
        cells = [[1, 0], [q.matrix, 1]]
    elif which == "E1":
        cells = [[1, q.matrix], [0, 1]]
    else:
        raise DomainError(f"unknown elementary kind {which!r}")
    matrix = RingMatrix._grid(q.ring, q.dim, cells)
    return CliffordUnitary._unchecked(PauliModule(q.ring, q.dim), matrix)


def hyperbolic_unitary(a: RingMatrix) -> CliffordUnitary:
    """The generalized translation diag(a, dagger(a)^-1), unitary for every
    invertible a and so not checked again."""
    if not a.is_square():
        raise ShapeError("hyperbolic unitaries come from square matrices")
    try:
        inv = inverse(a.dagger())
    except NotAUnit:
        raise NotAUnit("hyperbolic unitaries need an invertible matrix") from None
    matrix = RingMatrix._grid(a.ring, a.rows, [[a, 0], [0, inv]])
    return CliffordUnitary._unchecked(PauliModule(a.ring, a.rows), matrix)


def apply(u: CliffordUnitary, S: StabilizerModule) -> StabilizerModule:
    """Image of a stabilizer module under a Clifford unitary."""
    if u.ambient != S.ambient:
        raise RingMismatch("unitary and module ambients differ")
    return StabilizerModule(S.ambient, u.matrix @ S.generators)


def diag_identity_decomposition(a: RingMatrix) -> list[RingMatrix]:
    """Six elementary factors whose product is diag(a, a^-1).

    The factors are transvection blocks (1 *; 0 1) and (1 0; * 1); for a
    non-hermitian a they are elementary module automorphisms but not
    lambda^- unitaries, so plain matrices are returned.
    """
    if not a.is_square():
        raise ShapeError("decomposition needs a square matrix")
    try:
        ainv = inverse(a)
    except NotAUnit:
        raise NotAUnit("diag(a, a^-1) needs an invertible a") from None

    def upper(b):
        return RingMatrix._grid(a.ring, a.rows, [[1, b], [0, 1]])

    def lower(b):
        return RingMatrix._grid(a.ring, a.rows, [[1, 0], [b, 1]])

    return [upper(a), lower(-ainv), upper(a), lower(1), upper(-1), lower(1)]
