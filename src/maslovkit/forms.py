"""Hermitian forms and the Witt group of F_p.

A +hermitian form on a free module is a square matrix F with dagger(F) = F;
the -hermitian case flips the sign.  Over F_p (trivial involution) these are
symmetric bilinear forms, which are classified up to congruence by dimension
and discriminant square class.  The Witt group of nondegenerate +hermitian
forms modulo hyperbolic ones has order four, with a group law depending on
p mod 4:

    p = 1 mod 4:  Z/2 + Z/2  (rank parity, signed discriminant class)
    p = 3 mod 4:  Z/4        (generated by the class of <1>)

The canonical Z/4 encoding maps <1> -> 1, <theta> -> 3, <1,1> -> 2 and
<1,theta> -> 0; the signed discriminant (-1)^(n(n-1)/2) det(F) realizes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegenerateForm,
    DomainError,
    FormError,
    NotAUnit,
    RingMismatch,
    ShapeError,
    UnsupportedRing,
)
from .linalg import RingMatrix, _constant_rows, det, inverse
from .ring import FieldElement, LaurentPolynomial, RingDescriptor, is_square


@dataclass(frozen=True)
class HermitianForm:
    """A square matrix flagged as +hermitian or -hermitian."""

    matrix: RingMatrix
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise FormError(f"sign must be +1 or -1, got {self.sign}")
        if not self.matrix.is_square():
            raise ShapeError("hermitian forms live on square matrices")

    @property
    def ring(self) -> RingDescriptor:
        return self.matrix.ring

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def is_hermitian(self) -> bool:
        expected = self.matrix if self.sign == 1 else -self.matrix
        return self.matrix.dagger() == expected

    def is_nondegenerate(self) -> bool:
        """Invertibility over the ring: the determinant is a unit."""
        return det(self.matrix).is_unit()

    def inverse_form(self) -> "HermitianForm":
        try:
            return HermitianForm(inverse(self.matrix), self.sign)
        except NotAUnit:
            raise DegenerateForm("form is singular over its ring") from None

    def direct_sum(self, other: "HermitianForm") -> "HermitianForm":
        if self.sign != other.sign:
            raise FormError("cannot direct-sum forms of opposite sign")
        if self.ring != other.ring:
            raise RingMismatch("forms live over different rings")
        return HermitianForm(
            RingMatrix.block_diag([self.matrix, other.matrix]), self.sign
        )

    def __neg__(self) -> "HermitianForm":
        return HermitianForm(-self.matrix, self.sign)

    def congruent_by(self, a: RingMatrix) -> "HermitianForm":
        """The pullback dagger(a) F a along an invertible map a."""
        return HermitianForm(a.dagger() @ self.matrix @ a, self.sign)

    def eval_T(self, t) -> "HermitianForm":
        return HermitianForm(self.matrix.eval_T(t), self.sign)

    def lift_T(self) -> "HermitianForm":
        return HermitianForm(self.matrix.lift_T(), self.sign)


def hyperbolic_form(n: int, sign: int, ring: RingDescriptor) -> HermitianForm:
    """The 2n x 2n block form (0 1; sign 1 0) with identity blocks."""
    ident = RingMatrix.identity(ring, n)
    zero = RingMatrix.zeros(ring, n, n)
    off = ident if sign == 1 else -ident
    matrix = RingMatrix.from_blocks([[zero, ident], [off, zero]])
    return HermitianForm(matrix, sign)


def _require_field(F: HermitianForm, what: str):
    if F.ring.spatial_vars > 0 or F.ring.has_T:
        raise UnsupportedRing(f"{what} is only defined over F_p (d = 0, no T)")


def diagonalize(F: HermitianForm) -> list[FieldElement]:
    """Diagonal entries of a congruent diagonal form over F_p.

    Pivots on the first basis vector with nonzero self-pairing; when every
    self-pairing vanishes, replaces e -> e + f for the first off-diagonal
    pair with nonzero pairing (2 is invertible, so this produces a pivot).
    When the remaining block is zero the form is degenerate.
    """
    _require_field(F, "diagonalization")
    if F.sign != 1 or not F.is_hermitian():
        raise FormError("diagonalization expects a symmetric (+hermitian) form")
    p = F.ring.p
    n = F.dim
    A = _constant_rows(F.matrix)
    diag = []
    for step in range(n):
        piv = None
        for i in range(step, n):
            if A[i][i] % p:
                piv = i
                break
        if piv is None:
            pair = None
            for i in range(step, n):
                for j in range(i + 1, n):
                    if A[i][j] % p:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                raise DegenerateForm("cannot diagonalize a degenerate form")
            i, j = pair
            for k in range(n):
                A[i][k] = (A[i][k] + A[j][k]) % p
            for k in range(n):
                A[k][i] = (A[k][i] + A[k][j]) % p
            piv = i
        if piv != step:
            A[step], A[piv] = A[piv], A[step]
            for k in range(n):
                A[k][step], A[k][piv] = A[k][piv], A[k][step]
        d = A[step][step] % p
        diag.append(FieldElement(d, p))
        dinv = pow(d, -1, p)
        for i in range(step + 1, n):
            factor = A[i][step] * dinv % p
            if factor:
                for k in range(n):
                    A[i][k] = (A[i][k] - factor * A[step][k]) % p
                for k in range(n):
                    A[k][i] = (A[k][i] - factor * A[k][step]) % p
    return diag


@dataclass(frozen=True)
class WittClass:
    """Canonical Witt-group element: rank parity and signed-disc class.

    disc_class is the square class of (-1)^(n(n-1)/2) det(F): 0 for squares,
    1 for the non-residue class.  The group law is Z/2 + Z/2 for p = 1 mod 4
    and Z/4 for p = 3 mod 4 under z = 2*disc_class + rank_parity.
    """

    p: int
    rank_parity: int
    disc_class: int

    def __post_init__(self):
        if self.rank_parity not in (0, 1) or self.disc_class not in (0, 1):
            raise DomainError("rank parity and disc class are bits")

    def is_zero(self) -> bool:
        return self.rank_parity == 0 and self.disc_class == 0

    @property
    def class_name(self) -> str:
        if self.p % 4 == 1:
            return {
                (0, 0): "0",
                (1, 0): "<1>",
                (1, 1): "<t>",
                (0, 1): "<1>+<t>",
            }[(self.rank_parity, self.disc_class)]
        return str(2 * self.disc_class + self.rank_parity)

    @classmethod
    def zero(cls, p: int) -> "WittClass":
        return cls(p, 0, 0)

    @classmethod
    def from_determinant(cls, n: int, determinant: LaurentPolynomial) -> "WittClass":
        """Class of a symmetric n x n form over F_p with the given determinant.

        Over F_p a form's Witt class is fixed by its rank parity and the square
        class of its signed discriminant (-1)^(n(n-1)/2) det.
        """
        if determinant.is_zero():
            raise DegenerateForm("Witt class of a degenerate form is undefined")
        signed = (-1) ** (n * (n - 1) // 2) * determinant
        return cls(determinant.ring.p, n % 2, 0 if is_square(signed.augment()) else 1)

    @classmethod
    def from_name(cls, p: int, name: str) -> "WittClass":
        if p % 4 == 1:
            table = {"0": (0, 0), "<1>": (1, 0), "<t>": (1, 1), "<1>+<t>": (0, 1)}
            if name not in table:
                raise DomainError(f"unknown class {name!r} for p = 1 mod 4")
            rp, dc = table[name]
        else:
            if name not in {"0", "1", "2", "3"}:
                raise DomainError(f"unknown class {name!r} for p = 3 mod 4")
            z = int(name)
            rp, dc = z & 1, z >> 1
        return cls(p, rp, dc)

    def __add__(self, other: "WittClass") -> "WittClass":
        return witt_add(self, other)

    def __neg__(self) -> "WittClass":
        return witt_neg(self)

    def __sub__(self, other: "WittClass") -> "WittClass":
        return witt_add(self, witt_neg(other))


def witt_class(F: HermitianForm) -> WittClass:
    """Witt class of a nondegenerate symmetric form over F_p."""
    _require_field(F, "Witt classification")
    if F.sign != 1 or not F.is_hermitian():
        raise FormError("Witt classification expects a +hermitian form")
    return WittClass.from_determinant(F.dim, det(F.matrix))


def witt_add(a: WittClass, b: WittClass) -> WittClass:
    if a.p != b.p:
        raise RingMismatch(f"Witt classes over different primes: {a.p}, {b.p}")
    if a.p % 4 == 1:
        return WittClass(a.p, a.rank_parity ^ b.rank_parity, a.disc_class ^ b.disc_class)
    z = (2 * a.disc_class + a.rank_parity + 2 * b.disc_class + b.rank_parity) % 4
    return WittClass(a.p, z & 1, z >> 1)


def witt_neg(a: WittClass) -> WittClass:
    if a.p % 4 == 1:
        return a
    z = (-(2 * a.disc_class + a.rank_parity)) % 4
    return WittClass(a.p, z & 1, z >> 1)


def in_fundamental_ideal(c: WittClass) -> bool:
    """Membership in the even-rank ideal (the zero class included)."""
    return c.rank_parity == 0


@dataclass(frozen=True)
class FormTriple:
    """A pair of nondegenerate +hermitian forms on the same free module."""

    q0: HermitianForm
    q1: HermitianForm

    def __post_init__(self):
        if self.q0.ring != self.q1.ring:
            raise RingMismatch("triple forms live over different rings")
        if self.q0.dim != self.q1.dim:
            raise ShapeError("triple forms have different dimensions")
        if self.q0.sign != 1 or self.q1.sign != 1:
            raise FormError("triples are built from +hermitian forms")


def triple_delta(t: FormTriple) -> WittClass:
    """Bordism image of a triple: class(q0) - class(q1), an even-rank class."""
    return witt_class(t.q0) - witt_class(t.q1)
