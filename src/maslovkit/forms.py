"""Hermitian forms and the Witt group of F_p.

A +hermitian form on a free module is a square matrix F with dagger(F) = F;
the -hermitian case flips the sign, the int 1 or -1.  Over F_p (trivial
involution) these are symmetric bilinear forms, classified up to congruence
by dimension and discriminant square class.  A nondegenerate F is therefore
congruent to the diagonal form <1, ..., 1, det F>, and every invariant here
comes from one determinant.  The Witt group of nondegenerate +hermitian
forms modulo hyperbolic ones has order four.  WittClass decides its law on
the code z = 2 * disc_class + rank_parity, where disc_class is the square
class of the signed discriminant (-1)^(n(n-1)/2) det(F):

    p = 1 mod 4:  Z/2 + Z/2  (z xor w; each class is its own negative)
    p = 3 mod 4:  Z/4        (z + w mod 4; <1> -> 1, <theta> -> 3)
"""

from __future__ import annotations

from .errors import (
    DegenerateForm,
    DomainError,
    FormError,
    RingMismatch,
    ShapeError,
    UnsupportedRing,
    _Value,
)
from .linalg import RingMatrix, det
from .ring import FieldElement, LaurentPolynomial, RingDescriptor, is_square
from .ring import _check_odd_prime


class HermitianForm(_Value):
    """A square matrix flagged as +hermitian or -hermitian."""

    __slots__ = ("matrix", "sign")

    def __init__(self, matrix: RingMatrix, sign: int = 1):
        # bool subclasses int and 1.0 == 1: neither is a sign
        if type(sign) is not int or sign not in (1, -1):
            raise DomainError(f"sign must be the int 1 or -1, got {sign!r}")
        if not isinstance(matrix, RingMatrix):
            raise DomainError(f"a hermitian form needs a RingMatrix, got {type(matrix).__name__}")
        if not matrix.is_square():
            raise ShapeError("hermitian forms live on square matrices")
        self._set(matrix, sign)

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

    def direct_sum(self, other: "HermitianForm") -> "HermitianForm":
        if not isinstance(other, HermitianForm):
            raise DomainError(f"a form sums with a HermitianForm, got {type(other).__name__}")
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
        if not isinstance(a, RingMatrix):
            raise DomainError(f"a form is pulled back along a RingMatrix, got {type(a).__name__}")
        return HermitianForm(a.dagger() @ self.matrix @ a, self.sign)

    def eval_T(self, t) -> "HermitianForm":
        return HermitianForm(self.matrix.eval_T(t), self.sign)

    def lift_T(self) -> "HermitianForm":
        return HermitianForm(self.matrix.lift_T(), self.sign)


def hyperbolic_form(n: int, sign: int, ring: RingDescriptor) -> HermitianForm:
    """The 2n x 2n block form (0 1; sign 1 0) with identity blocks."""
    off = 1 if sign == 1 else -1  # HermitianForm rejects any other sign
    return HermitianForm(RingMatrix._grid(ring, n, [[0, 1], [off, 0]]), sign)


def _require_plus_hermitian(F: HermitianForm, message: str):
    """FormError(message) unless F is flagged +hermitian and is hermitian."""
    if F.sign != 1 or not F.is_hermitian():
        raise FormError(message)


def _require_field(F: HermitianForm, what: str):
    if F.ring.spatial_vars > 0 or F.ring.has_T:
        raise UnsupportedRing(f"{what} is only defined over F_p (d = 0, no T)")


def diagonalize(F: HermitianForm) -> list[FieldElement]:
    """Diagonal entries <1, ..., 1, det F> of a congruent diagonal form over F_p.

    For p odd, nondegenerate symmetric forms of one dimension over F_p are
    congruent exactly when their determinants lie in the same square class
    (Serre, A Course in Arithmetic, IV.1.7).  The diagonal form <1, ..., 1,
    det F> has the dimension and the determinant of F, so it is congruent
    to F.
    """
    _require_field(F, "diagonalization")
    _require_plus_hermitian(F, "diagonalization expects a symmetric (+hermitian) form")
    if F.dim == 0:
        return []
    d = det(F.matrix).augment()
    if d.value == 0:
        raise DegenerateForm("cannot diagonalize a degenerate form")
    return [FieldElement(1, F.ring.p)] * (F.dim - 1) + [d]


def _class_names(p: int) -> tuple:
    """The class names for p mod 4, indexed by the code z."""
    return ("0", "<1>", "<1>+<t>", "<t>") if p % 4 == 1 else ("0", "1", "2", "3")


class WittClass(_Value):
    """Canonical Witt-group element: rank parity and signed-disc class.

    disc_class is the square class of (-1)^(n(n-1)/2) det(F): 0 for squares,
    1 for the non-residue class; both are int bits.  The group law acts on
    z = 2*disc_class + rank_parity: xor for p = 1 mod 4, + mod 4 otherwise.
    """

    __slots__ = ("p", "rank_parity", "disc_class")

    def __init__(self, p: int, rank_parity: int, disc_class: int):
        _check_odd_prime(p)
        bits = (rank_parity, disc_class)
        if not all(type(b) is int and b in (0, 1) for b in bits):
            raise DomainError(f"rank parity and disc class are int bits, got {bits!r}")
        self._set(p, rank_parity, disc_class)

    @classmethod
    def _from_code(cls, p: int, z: int) -> "WittClass":
        return cls(p, z & 1, z >> 1)

    @property
    def _code(self) -> int:
        return 2 * self.disc_class + self.rank_parity

    def is_zero(self) -> bool:
        return self.rank_parity == 0 and self.disc_class == 0

    @property
    def class_name(self) -> str:
        return _class_names(self.p)[self._code]

    @classmethod
    def zero(cls, p: int) -> "WittClass":
        return cls(p, 0, 0)

    @classmethod
    def from_determinant(cls, n: int, determinant: LaurentPolynomial) -> "WittClass":
        """Class of a symmetric n x n form over F_p with the given determinant.

        Over F_p a form's Witt class is fixed by its rank parity and the square
        class of its signed discriminant (-1)^(n(n-1)/2) det.  The determinant
        is a nonzero constant, over any ring; anything else is refused.
        """
        if determinant.is_zero():
            raise DegenerateForm("Witt class of a degenerate form is undefined")
        ring, terms = determinant.ring, determinant.terms
        constant = (0,) * ring.nexponents
        if list(terms) != [constant]:
            raise DomainError(f"a Witt class needs a constant determinant, got {determinant}")
        signed = FieldElement((-1) ** (n * (n - 1) // 2) * terms[constant], ring.p)
        return cls(ring.p, n % 2, 0 if is_square(signed) else 1)

    @classmethod
    def from_name(cls, p: int, name: str) -> "WittClass":
        names = _class_names(p)
        if name not in names:
            raise DomainError(f"unknown class {name!r} for p = {1 if p % 4 == 1 else 3} mod 4")
        return cls._from_code(p, names.index(name))

    def __add__(self, other: "WittClass") -> "WittClass":
        if not isinstance(other, WittClass):
            return NotImplemented
        if self.p != other.p:
            raise RingMismatch(f"Witt classes over different primes: {self.p}, {other.p}")
        z, w = self._code, other._code
        return self._from_code(self.p, z ^ w if self.p % 4 == 1 else (z + w) % 4)

    def __neg__(self) -> "WittClass":
        return self if self.p % 4 == 1 else self._from_code(self.p, -self._code % 4)

    def __sub__(self, other: "WittClass") -> "WittClass":
        if not isinstance(other, WittClass):
            return NotImplemented
        return self + -other


def witt_class(F: HermitianForm) -> WittClass:
    """Witt class of a nondegenerate symmetric form over F_p."""
    _require_field(F, "Witt classification")
    _require_plus_hermitian(F, "Witt classification expects a +hermitian form")
    return WittClass.from_determinant(F.dim, det(F.matrix))


def in_fundamental_ideal(c: WittClass) -> bool:
    """Membership in the even-rank ideal (the zero class included)."""
    return c.rank_parity == 0


class FormTriple(_Value):
    """A pair of nondegenerate +hermitian forms on the same free module."""

    __slots__ = ("q0", "q1")

    def __init__(self, q0: HermitianForm, q1: HermitianForm):
        if not (isinstance(q0, HermitianForm) and isinstance(q1, HermitianForm)):
            raise FormError("triples are built from HermitianForm entries")
        if q0.ring != q1.ring:
            raise RingMismatch("triple forms live over different rings")
        if q0.dim != q1.dim:
            raise ShapeError("triple forms have different dimensions")
        if q0.sign != 1 or q1.sign != 1:
            raise FormError("triples are built from +hermitian forms")
        self._set(q0, q1)


def triple_delta(t: FormTriple) -> WittClass:
    """Bordism image of a triple: class(q0) - class(q1), an even-rank class."""
    return witt_class(t.q0) - witt_class(t.q1)
