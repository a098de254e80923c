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
from heapq import heapify, heappop, heappush
from operator import add, mul, neg, sub

from .errors import DivisionByZero, DomainError, InternalInvariantViolation, RingMismatch, _Value


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


# -- term dicts {exponent tuple: residue in [1, p)} --------------------------
# Each term rule is one function here: LaurentPolynomial's methods wrap them
# and linalg's kernels run them on the rows a RingMatrix stores.  No function
# or caller changes a dict it is given or gets back, since polynomials,
# matrix rows and their views share them; every zero may be _ZERO.

_ZERO: dict = {}


def _checked(ring: "RingDescriptor", terms) -> dict:
    """The one check of terms from outside, given as a dict or an iterable of
    (exponents, coefficient) pairs: ring.nexponents ints (not bools) per
    exponent tuple, the T exponent >= 0, and scalar coefficients.  Repeated
    exponents add up after each term's own check, so True never merges with
    1.  Any other container is a DomainError."""
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
    return cleaned or _ZERO


def _reduced(terms: dict, p: int) -> dict:
    """Reduce integer coefficients mod p and drop the terms that vanish."""
    return {e: r for e, c in terms.items() if (r := c % p)} or _ZERO


def _negated(f: dict, p: int) -> dict:
    return {e: p - c for e, c in f.items()}


def _combined(f: dict, g: dict, p: int, op=add) -> dict:
    """f op g for op in (add, sub), in one pass over g's terms."""
    out = dict(f)
    for exps, c in g.items():
        if c := op(out.get(exps, 0), c) % p:
            out[exps] = c
        else:
            del out[exps]
    return out or _ZERO


def _products(acc: dict, f: dict, g: dict) -> dict:
    """Add the term products of f and g to acc, unreduced; acc is the
    caller's own dict."""
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return acc


def _product(f: dict, g: dict, p: int) -> dict:
    return _reduced(_products({}, f, g), p)


def _is_unit(f: dict, has_T: bool) -> bool:
    """Units are single monomials with no T content."""
    return len(f) == 1 and not (has_T and next(iter(f))[-1])


def _involuted(f: dict, d: int) -> dict:
    """Invert the first d (the spatial) exponents; T and coefficients stay."""
    return {tuple(map(neg, e[:d])) + e[d:]: c for e, c in f.items()}


def _at_T(f: dict, t: int, p: int) -> dict:
    """f at T = t, a residue, without its T exponent.

    At t = 0 only the T^0 terms are left, and they stay distinct and
    nonzero; at t = 1 the coefficients of each spatial monomial add up.
    """
    if not t:
        return {e[:-1]: c for e, c in f.items() if not e[-1]} or _ZERO
    out: dict = {}
    for exps, c in f.items():
        e = exps[:-1]
        out[e] = out.get(e, 0) + (c if t == 1 else c * pow(t, exps[-1], p))
    return _reduced(out, p)


def _lifted(f: dict) -> dict:
    """f with a T exponent 0 appended to each term; always a new dict."""
    return {e + (0,): c for e, c in f.items()}


def _quotient(f: dict, g: dict, p: int, has_T: bool) -> dict:
    """The q with q * g = f; InternalInvariantViolation if g does not divide f.

    Lex long division from the least term up.  Newton polytopes add, so q lies
    in the box min(f) - min(g) .. max(f) - max(g) of each variable (T also >= 0)
    and its terms rise in lex order: an inexact division leaves the box.
    """
    if not f:
        return f
    if len(g) == 1:  # a monomial: shift the exponents, scale once
        ((lead, c),) = g.items()
        constant = not any(lead)
        if constant and c == 1:
            return f
        inv = pow(c, -1, p)
        if constant:  # scale the coefficients, the exponents stay
            return {e: v * inv % p for e, v in f.items()}
        q = {tuple(map(sub, e, lead)): v * inv % p for e, v in f.items()}
        if has_T and any(e[-1] < 0 for e in q):
            raise InternalInvariantViolation(f"{g} does not divide {f}")
        return q
    lo = [min(a) - min(b) for a, b in zip(zip(*f), zip(*g))]
    hi = [max(a) - max(b) for a, b in zip(zip(*f), zip(*g))]
    if has_T:
        lo[-1] = max(lo[-1], 0)
    lead = min(g)
    lead_inv = pow(g[lead], -1, p)
    rem, q = dict(f), {}
    heapify(heap := list(rem))
    while heap:
        e = heappop(heap)
        if e not in rem:
            continue
        m = tuple(map(sub, e, lead))
        if not all(a <= v <= b for a, v, b in zip(lo, m, hi)):
            raise InternalInvariantViolation(f"{g} does not divide {f}")
        q[m] = c = rem[e] * lead_inv % p
        for e2, c2 in g.items():
            t = tuple(map(add, m, e2))
            if v := (rem.get(t, 0) - c * c2) % p:
                if t not in rem:
                    heappush(heap, t)
                rem[t] = v
            else:
                rem.pop(t, None)
    return q


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
        """Equal to the scalars of the same residue; any other value compares itself."""
        if not isinstance(other, (int, FieldElement)):
            return NotImplemented
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
    return unchecked(ring, _ZERO), unchecked(ring, {(0,) * ring.nexponents: 1})


class LaurentPolynomial:
    """Sparse Laurent polynomial with residue coefficients.

    Terms map exponent tuples (spatial exponents first, T exponent last when
    present) to nonzero residues mod p.  Each method wraps a term function
    of this module; the terms dict may be shared with a RingMatrix row or
    another polynomial, and is never changed.  Instances are treated as
    immutable.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingDescriptor, terms):
        """terms as _checked checks them; a ring that is not a
        RingDescriptor is a DomainError."""
        if not isinstance(ring, RingDescriptor):
            raise DomainError(f"a polynomial's ring is a RingDescriptor, got {type(ring).__name__}")
        self.terms = _checked(ring, terms)
        self.ring = ring

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

    def _combine(self, other, f):
        """The polynomial of f(self.terms, other.terms, p), other a polynomial or a scalar."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return LaurentPolynomial._unchecked(self.ring, f(self.terms, other.terms, self.ring.p))

    def __add__(self, other):
        return self._combine(other, _combined)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, lambda f, g, p: _combined(f, g, p, sub))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return LaurentPolynomial._unchecked(self.ring, _negated(self.terms, self.ring.p))

    def __mul__(self, other):
        return self._combine(other, _product)

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
        return _is_unit(self.terms, self.ring.has_T)

    def unit_inverse(self) -> "LaurentPolynomial":
        if not self.is_unit():
            raise DivisionByZero(f"{self} is not a unit")
        ((exps, c),) = self.terms.items()
        inv = pow(c, -1, self.ring.p)
        return LaurentPolynomial._unchecked(self.ring, {tuple(-e for e in exps): inv})

    def involute(self) -> "LaurentPolynomial":
        """Invert every spatial exponent; T and coefficients stay fixed."""
        return LaurentPolynomial._unchecked(
            self.ring, _involuted(self.terms, self.ring.spatial_vars)
        )

    def augment(self) -> FieldElement:
        """Coefficient of the zero exponent tuple (the degree-zero part)."""
        if self.ring.has_T:
            raise DomainError("evaluate T before augmenting")
        zero = (0,) * self.ring.nexponents
        return FieldElement(self.terms.get(zero, 0), self.ring.p)

    def eval_T(self, t: int | FieldElement) -> "LaurentPolynomial":
        """Substitute a scalar for T, by _at_T; the result lives in the ring without T."""
        if not self.ring.has_T:
            raise DomainError("ring has no T variable to evaluate")
        t = _residue(t, self.ring.p)
        return LaurentPolynomial._unchecked(self.ring.drop_T(), _at_T(self.terms, t, self.ring.p))

    def lift_T(self) -> "LaurentPolynomial":
        """View a T-free polynomial inside the ring extended by T."""
        if self.ring.has_T:
            raise DomainError("polynomial already lives in a ring with T")
        return LaurentPolynomial._unchecked(self.ring.with_T(), _lifted(self.terms))

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
