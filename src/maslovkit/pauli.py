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

from dataclasses import dataclass

from .errors import (
    DomainError,
    FormError,
    NotAUnit,
    RingMismatch,
    ShapeError,
)
from .forms import HermitianForm, hyperbolic_form
from .linalg import (
    RingMatrix,
    inverse,
    kernel_basis,
    smith_normal_form,
    span_contains,
    spans_equal,
)
from .ring import FieldElement, LaurentPolynomial, RingDescriptor


@dataclass(frozen=True)
class PauliModule:
    """Ambient free module L + L* of rank 2N over the given ring."""

    ring: RingDescriptor
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise DomainError("qudit species count must be >= 1")

    @property
    def rank(self) -> int:
        return 2 * self.N

    def lambda_minus(self) -> RingMatrix:
        return hyperbolic_form(self.N, -1, self.ring).matrix

    def lambda_plus(self) -> RingMatrix:
        return hyperbolic_form(self.N, 1, self.ring).matrix

    def standard_lagrangian(self) -> "StabilizerModule":
        """The X-side summand L: columns (e_i, 0)."""
        gens = RingMatrix.from_blocks(
            [
                [RingMatrix.identity(self.ring, self.N)],
                [RingMatrix.zeros(self.ring, self.N, self.N)],
            ]
        )
        return StabilizerModule(self, gens)

    def dual_lagrangian(self) -> "StabilizerModule":
        """The Z-side summand L*: columns (0, e_i)."""
        gens = RingMatrix.from_blocks(
            [
                [RingMatrix.zeros(self.ring, self.N, self.N)],
                [RingMatrix.identity(self.ring, self.N)],
            ]
        )
        return StabilizerModule(self, gens)


class StabilizerModule:
    """Column span of a generator matrix inside a Pauli module.

    Generating sets are highly non-unique, so no canonical form is imposed;
    module equality is decided by mutual span containment.  Zero columns are
    dropped on construction.
    """

    __slots__ = ("ambient", "generators")

    def __init__(self, ambient: PauliModule, generators: RingMatrix):
        if generators.ring != ambient.ring:
            raise RingMismatch("generator ring differs from ambient ring")
        if generators.rows != ambient.rank:
            raise ShapeError(
                f"generators must have {ambient.rank} rows, got {generators.rows}"
            )
        keep = [
            j
            for j in range(generators.cols)
            if any(not generators[i, j].is_zero() for i in range(generators.rows))
        ]
        self.ambient = ambient
        self.generators = generators.submatrix(range(generators.rows), keep)

    def __eq__(self, other):
        return (
            isinstance(other, StabilizerModule)
            and self.ambient == other.ambient
            and self.generators == other.generators
        )

    def __repr__(self):
        return f"StabilizerModule(N={self.ambient.N}, generators={self.generators!r})"


class CliffordUnitary:
    """An invertible matrix preserving the anti-hermitian pairing.

    The public constructor verifies dagger(M) @ lambda^- @ M = lambda^-
    exactly.  Products, inverses and elementary unitaries are unitary by
    construction and are not checked again.
    """

    __slots__ = ("ambient", "matrix")

    def __init__(self, ambient: PauliModule, matrix: RingMatrix):
        if matrix.ring != ambient.ring:
            raise RingMismatch("unitary ring differs from ambient ring")
        if matrix.shape != (ambient.rank, ambient.rank):
            raise ShapeError(f"unitary must be {ambient.rank} x {ambient.rank}")
        lam = ambient.lambda_minus()
        if matrix.dagger() @ lam @ matrix != lam:
            raise FormError("matrix does not preserve the anti-hermitian pairing")
        self.ambient = ambient
        self.matrix = matrix

    @classmethod
    def _unchecked(cls, ambient: PauliModule, matrix: RingMatrix) -> "CliffordUnitary":
        """Wrap a matrix that is unitary by construction, without checking it."""
        u = object.__new__(cls)
        u.ambient = ambient
        u.matrix = matrix
        return u

    def __matmul__(self, other: "CliffordUnitary") -> "CliffordUnitary":
        if self.ambient != other.ambient:
            raise RingMismatch("unitaries act on different Pauli modules")
        return CliffordUnitary._unchecked(self.ambient, self.matrix @ other.matrix)

    def inverse(self) -> "CliffordUnitary":
        return CliffordUnitary._unchecked(self.ambient, inverse(self.matrix))

    def __eq__(self, other):
        return (
            isinstance(other, CliffordUnitary)
            and self.ambient == other.ambient
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return f"CliffordUnitary(N={self.ambient.N}, matrix={self.matrix!r})"


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


def is_isotropic(S: StabilizerModule) -> bool:
    """All pairings between generators vanish (any d)."""
    G = S.generators
    lam = S.ambient.lambda_minus()
    return (G.dagger() @ lam @ G).is_zero()


def lagrangian_report(S: StabilizerModule) -> dict:
    """The three Lagrangian conditions plus their conjunction.

    Exact for d <= 1 (no T); the summand condition asks the Smith form of
    the generator matrix for unit invariant factors, coisotropy solves a
    span-membership problem for the pairing kernel.
    """
    G = S.generators
    ambient = S.ambient
    lam = ambient.lambda_minus()
    isotropic = is_isotropic(S)
    snf = smith_normal_form(G)
    summand = all(f.is_unit() for f in snf.invariant_factors)
    perp = kernel_basis(G.dagger() @ lam)
    coisotropic = span_contains(G, perp)
    lagrangian = isotropic and coisotropic and summand and snf.rank == ambient.N
    return {
        "isotropic": isotropic,
        "coisotropic": coisotropic,
        "summand": summand,
        "lagrangian": lagrangian,
    }


def is_lagrangian(S: StabilizerModule) -> bool:
    return lagrangian_report(S)["lagrangian"]


def is_transversal(S1: StabilizerModule, S2: StabilizerModule) -> bool:
    """The two submodules together span the whole Pauli module."""
    if S1.ambient != S2.ambient:
        raise RingMismatch("modules live in different Pauli modules")
    stacked = RingMatrix.hstack([S1.generators, S2.generators])
    snf = smith_normal_form(stacked)
    return snf.rank == S1.ambient.rank and all(
        f.is_unit() for f in snf.invariant_factors
    )


def modules_equal(S1: StabilizerModule, S2: StabilizerModule) -> bool:
    """Span equality of two stabilizer modules (d <= 1, no T)."""
    if S1.ambient != S2.ambient:
        raise RingMismatch("modules live in different Pauli modules")
    if S1.generators.cols == 0 or S2.generators.cols == 0:
        return S1.generators.cols == S2.generators.cols
    return spans_equal(S1.generators, S2.generators)


def elementary_unitary(which: str, q: HermitianForm) -> CliffordUnitary:
    """E0(q) = (1 0; q 1) on L, or E1(q) = (1 q; 0 1) on L*."""
    if q.sign != 1 or not q.is_hermitian():
        raise FormError("elementary unitaries need a +hermitian form")
    return _elementary_unitary(which, q)


def _elementary_unitary(which: str, q: HermitianForm) -> CliffordUnitary:
    """elementary_unitary for a form already known to be +hermitian."""
    ring = q.ring
    n = q.dim
    ident = RingMatrix.identity(ring, n)
    zero = RingMatrix.zeros(ring, n, n)
    if which == "E0":
        blocks = [[ident, zero], [q.matrix, ident]]
    elif which == "E1":
        blocks = [[ident, q.matrix], [zero, ident]]
    else:
        raise DomainError(f"unknown elementary kind {which!r}")
    matrix = RingMatrix.from_blocks(blocks)
    return CliffordUnitary._unchecked(PauliModule(ring, n), matrix)


def hyperbolic_unitary(a: RingMatrix) -> CliffordUnitary:
    """The generalized translation diag(a, dagger(a)^-1)."""
    if not a.is_square():
        raise ShapeError("hyperbolic unitaries come from square matrices")
    try:
        inv = inverse(a.dagger())
    except NotAUnit:
        raise NotAUnit("hyperbolic unitaries need an invertible matrix") from None
    ring = a.ring
    n = a.rows
    zero = RingMatrix.zeros(ring, n, n)
    blocks = [[a, zero], [zero, inv]]
    return CliffordUnitary(PauliModule(ring, n), RingMatrix.from_blocks(blocks))


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
    ring = a.ring
    n = a.rows
    ident = RingMatrix.identity(ring, n)
    zero = RingMatrix.zeros(ring, n, n)

    def upper(b):
        return RingMatrix.from_blocks([[ident, b], [zero, ident]])

    def lower(b):
        return RingMatrix.from_blocks([[ident, zero], [b, ident]])

    return [upper(a), lower(-ainv), upper(a), lower(ident), upper(-ident), lower(ident)]
