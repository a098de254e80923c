"""Exact arithmetic for odd prime fields and Laurent polynomial rings.

The coefficient rings used throughout the library are F_p for an odd prime p
and the Laurent polynomial rings F_p[x1^+-, ..., xd^+-], optionally extended
by a loop parameter T with non-negative exponents.  The spatial variables
carry the inversion involution x_i -> x_i^-1; the involution fixes T and the
coefficients.

Polynomials are sparse maps from exponent tuples to nonzero residues, kept
normalized so that equality is map equality.
"""

from __future__ import annotations

from functools import cache
from operator import add, mul, neg, sub

from .errors import DivisionByZero, DomainError, RingMismatch, _Value


# Sorenson and Webster, "Strong pseudoprimes to twelve prime bases" (Math.
# Comp. 86, 2017): no composite below _PRIME_BOUND is a strong probable prime
# to all of the first 13 prime bases, so Miller-Rabin with them is exact there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


@cache
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < _PRIME_BOUND, memoized per n.

    Costs O(log n) modular squarings per base; larger n raise DomainError.
    """
    if n >= _PRIME_BOUND:
        raise DomainError(
            f"modulus {n} is not below {_PRIME_BOUND}, "
            "the range where primality is decided exactly"
        )
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    # n - 1 = d * 2^s with d odd
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_odd_prime(p: int) -> None:
    if not isinstance(p, int) or p == 2 or not _is_prime(p):
        raise DomainError(f"modulus must be an odd prime, got {p}")


def _residue(c, p: int) -> int:
    """The residue mod p of a scalar, the one check of scalars from outside.

    A scalar is an int that is not a bool, or a FieldElement mod p: any other
    value is a DomainError, a FieldElement of another modulus a RingMismatch.
    """
    if type(c) is int:
        return c % p
    if isinstance(c, FieldElement):
        if c.p != p:
            raise RingMismatch(f"scalar mod {c.p} used mod {p}")
        return c.value
    if isinstance(c, bool) or not isinstance(c, int):
        raise DomainError(f"scalars are ints or FieldElements, got {c!r}")
    return c % p


def _reduced(terms: dict, p: int) -> dict:
    """Reduce integer coefficients mod p and drop the terms that vanish."""
    return {e: r for e, c in terms.items() if (r := c % p)}


class FieldElement(_Value):
    """A residue in F_p for an odd prime p."""

    __slots__ = ("value", "p")

    def __init__(self, value: int | FieldElement, p: int):
        _check_odd_prime(p)
        self._set(_residue(value, p), p)

    def _arith(self, other, op):
        """op(self, other) on residues: add, sub, mul or reversed sub; _residue
        checks the scalar."""
        if not isinstance(other, (int, FieldElement)):
            return NotImplemented
        return FieldElement(op(self.value, _residue(other, self.p)), self.p)

    def __add__(self, other):
        return self._arith(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._arith(other, sub)

    def __rsub__(self, other):
        return self._arith(other, lambda x, y: y - x)

    def __mul__(self, other):
        return self._arith(other, mul)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value, self.p)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise DivisionByZero(f"0 has no inverse mod {self.p}")
        return FieldElement(pow(self.value, -1, self.p), self.p)

    def __eq__(self, other):
        """Equal to the scalars of the same residue; anything else is unequal."""
        try:
            return self.value == _residue(other, self.p)
        except (DomainError, RingMismatch):
            return False

    # defining __eq__ unsets the inherited hash
    __hash__ = _Value.__hash__

    def __repr__(self):
        return f"FieldElement({self.value}, p={self.p})"


def is_square(a: FieldElement) -> bool:
    """Euler criterion: a^((p-1)/2) == 1 for nonzero a."""
    if a.value == 0:
        raise DomainError("square class of zero is undefined")
    return pow(a.value, (a.p - 1) // 2, a.p) == 1


def least_non_residue(p: int) -> FieldElement:
    """Smallest positive quadratic non-residue mod p; the canonical theta."""
    _check_odd_prime(p)
    for a in range(2, p):
        if pow(a, (p - 1) // 2, p) != 1:
            return FieldElement(a, p)
    raise DomainError(f"no non-residue mod {p}; is {p} prime?")  # pragma: no cover


class RingDescriptor(_Value):
    """F_p[x1^+-,...,xd^+-], optionally extended by the loop variable T.

    The involution inverts every x_i and fixes T.  p = 2 is rejected: the
    machinery built on top requires 2 to be invertible.
    """

    __slots__ = ("p", "spatial_vars", "has_T")

    def __init__(self, p: int, spatial_vars: int = 0, has_T: bool = False):
        self._set(p, spatial_vars, has_T)
        self.__post_init__()

    def __post_init__(self):
        """The checks of the fields; a method of its own so that descriptor
        construction can be counted by patching it."""
        _check_odd_prime(self.p)
        d = self.spatial_vars
        if isinstance(d, bool) or not isinstance(d, int) or d < 0:
            raise DomainError(f"spatial variable count must be an int >= 0, got {d!r}")
        if not isinstance(self.has_T, bool):
            raise DomainError(f"has_T must be a bool, got {self.has_T!r}")

    @property
    def nexponents(self) -> int:
        return self.spatial_vars + (1 if self.has_T else 0)

    def with_T(self) -> "RingDescriptor":
        return _interned(self.p, self.spatial_vars, True)

    def drop_T(self) -> "RingDescriptor":
        return _interned(self.p, self.spatial_vars, False)

    def zero(self) -> "LaurentPolynomial":
        """The ring's zero, one object per ring value shared by every caller,
        over the interned descriptor; it is never changed."""
        return _constants(self.p, self.spatial_vars, self.has_T)[0]

    def one(self) -> "LaurentPolynomial":
        """The ring's constant 1, shared like zero()."""
        return _constants(self.p, self.spatial_vars, self.has_T)[1]

    def constant(self, c: int | FieldElement) -> "LaurentPolynomial":
        return LaurentPolynomial(self, {(0,) * self.nexponents: c})

    def x(self, i: int, power: int = 1) -> "LaurentPolynomial":
        """The monomial x_{i+1}^power (i is zero-based)."""
        if type(i) is not int or not 0 <= i < self.spatial_vars:
            raise DomainError(f"variable index {i!r} out of range")
        return self.monomial([power if k == i else 0 for k in range(self.nexponents)])

    def T(self, power: int = 1) -> "LaurentPolynomial":
        if not self.has_T:
            raise DomainError("ring has no T variable")
        return self.monomial((0,) * self.spatial_vars + (power,))

    def monomial(self, exponents, c: int | FieldElement = 1) -> "LaurentPolynomial":
        return LaurentPolynomial(self, {tuple(exponents): c})


@cache
def _interned(p: int, spatial_vars: int, has_T: bool) -> RingDescriptor:
    """One shared descriptor per ring, validated once when it is first built.

    The T-twins of a descriptor and every decoded ring come from here.
    """
    return RingDescriptor(p, spatial_vars, has_T)


@cache
def _constants(p: int, spatial_vars: int, has_T: bool) -> tuple:
    """(zero, one) of the ring, over its interned descriptor."""
    ring = _interned(p, spatial_vars, has_T)
    unchecked = LaurentPolynomial._unchecked
    return unchecked(ring, {}), unchecked(ring, {(0,) * ring.nexponents: 1})


class LaurentPolynomial:
    """Sparse Laurent polynomial with residue coefficients.

    Terms map exponent tuples (spatial exponents first, T exponent last when
    present) to nonzero residues mod p.  Instances are treated as immutable.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingDescriptor, terms):
        """The one check of terms from outside, given as a dict or an iterable
        of (exponents, coefficient) pairs: ring.nexponents ints (not bools) per
        exponent tuple, the T exponent >= 0, and scalar coefficients.  Repeated
        exponents add up after each term's own check, so True never merges
        with 1.  Any other container is a DomainError, as is a ring that is
        not a RingDescriptor."""
        if not isinstance(ring, RingDescriptor):
            raise DomainError(f"a polynomial's ring is a RingDescriptor, got {type(ring).__name__}")
        cleaned = {}
        width, p = ring.nexponents, ring.p
        try:
            for exps, c in terms.items() if isinstance(terms, dict) else terms:
                exps = tuple(exps)
                if len(exps) != width or not all(type(e) is int for e in exps):
                    raise DomainError(f"exponent tuple {exps!r} must hold {width} ints")
                if ring.has_T and exps[-1] < 0:
                    raise DomainError("T exponent must be non-negative")
                if c := (cleaned.get(exps, 0) + _residue(c, p)) % p:
                    cleaned[exps] = c
                else:
                    cleaned.pop(exps, None)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"terms are a dict or (exponent, coefficient) pairs: {exc}") from None
        self.ring = ring
        self.terms = cleaned

    @classmethod
    def _unchecked(cls, ring: RingDescriptor, terms: dict) -> "LaurentPolynomial":
        """Wrap terms that are already normalized, without checking them.

        For results the library computes: every key is an exponent tuple of
        the ring's width and every value a residue in [1, p).
        """
        f = object.__new__(cls)
        f.ring = ring
        f.terms = terms
        return f

    # -- ring plumbing -------------------------------------------------

    def _check(self, other: "LaurentPolynomial"):
        # descriptors are interned, so the identity test settles most calls
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch(f"rings differ: {self.ring} vs {other.ring}")

    def _coerce(self, other):
        if isinstance(other, LaurentPolynomial):
            return other
        if isinstance(other, (int, FieldElement)):
            return self.ring.constant(other)
        return NotImplemented

    def _combine(self, other, op):
        """self op other for op in (add, sub), in one pass over other's terms."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        p = self.ring.p
        out = dict(self.terms)
        for exps, c in other.terms.items():
            c = op(out.get(exps, 0), c) % p
            if c:
                out[exps] = c
            else:
                del out[exps]
        return LaurentPolynomial._unchecked(self.ring, out)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        p = self.ring.p
        return LaurentPolynomial._unchecked(
            self.ring, {e: p - c for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolynomial._unchecked(self.ring, _reduced(out, self.ring.p))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if type(n) is not int:
            raise DomainError(f"exponents are ints, got {n!r}")
        if n < 0:
            raise DomainError("negative powers only exist for units; invert first")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        """Polynomials compare by ring and terms, scalars as constants; else unequal."""
        if not isinstance(other, LaurentPolynomial):
            try:
                other = self.ring.constant(other)
            except (DomainError, RingMismatch):
                return False
        ring = self.ring
        return (ring is other.ring or ring == other.ring) and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit(self) -> bool:
        """Units are single monomials with no T content."""
        if len(self.terms) != 1:
            return False
        (exps,) = self.terms
        return not (self.ring.has_T and exps[-1] != 0)

    def unit_inverse(self) -> "LaurentPolynomial":
        if not self.is_unit():
            raise DivisionByZero(f"{self} is not a unit")
        ((exps, c),) = self.terms.items()
        inv = pow(c, -1, self.ring.p)
        return LaurentPolynomial._unchecked(self.ring, {tuple(-e for e in exps): inv})

    def involute(self) -> "LaurentPolynomial":
        """Invert every spatial exponent; T and coefficients stay fixed."""
        d = self.ring.spatial_vars
        return LaurentPolynomial._unchecked(
            self.ring, {tuple(map(neg, e[:d])) + e[d:]: c for e, c in self.terms.items()}
        )

    def augment(self) -> FieldElement:
        """Coefficient of the zero exponent tuple (the degree-zero part)."""
        if self.ring.has_T:
            raise DomainError("evaluate T before augmenting")
        zero = (0,) * self.ring.nexponents
        return FieldElement(self.terms.get(zero, 0), self.ring.p)

    def eval_T(self, t: int | FieldElement) -> "LaurentPolynomial":
        """Substitute a scalar for T; the result lives in the ring without T.

        At t = 0 only the T^0 terms are left, and they stay distinct and
        nonzero; at t = 1 the coefficients of each spatial monomial add up.
        """
        if not self.ring.has_T:
            raise DomainError("ring has no T variable to evaluate")
        p = self.ring.p
        t = _residue(t, p)
        ring = self.ring.drop_T()
        if not t:
            return LaurentPolynomial._unchecked(
                ring, {e[:-1]: c for e, c in self.terms.items() if not e[-1]}
            )
        out: dict = {}
        for exps, c in self.terms.items():
            e = exps[:-1]
            out[e] = out.get(e, 0) + (c if t == 1 else c * pow(t, exps[-1], p))
        return LaurentPolynomial._unchecked(ring, _reduced(out, p))

    def lift_T(self) -> "LaurentPolynomial":
        """View a T-free polynomial inside the ring extended by T."""
        if self.ring.has_T:
            raise DomainError("polynomial already lives in a ring with T")
        return LaurentPolynomial._unchecked(
            self.ring.with_T(), {e + (0,): c for e, c in self.terms.items()}
        )

    # -- display -------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        names = [f"x{i + 1}" for i in range(self.ring.spatial_vars)]
        if self.ring.spatial_vars == 1:
            names = ["x"]
        if self.ring.has_T:
            names.append("T")
        pieces = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            factors = [
                f"{n}^{e}" if e != 1 else n for n, e in zip(names, exps) if e != 0
            ]
            if not factors:
                pieces.append(str(c))
            elif c == 1:
                pieces.append("*".join(factors))
            else:
                pieces.append(f"{c}*" + "*".join(factors))
        return " + ".join(pieces)
