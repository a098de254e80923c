"""Classical Maslov index of polynomial loops in the Lagrangian lines of R^2.

A loop is presented as (P(T), P'(T)) for a degree-m real polynomial P with
simple roots and P(0), P(1) != 0.  The Euclidean algorithm applied to the
pair produces a chain of m linear quotients ending in a nonzero constant
remainder; the quotients fill the diagonal of a tridiagonal form S(t) with
-1 off the diagonal, and the winding number of the loop is

    (1/2) * sign(S(1) + (-S(0))) = V(0) - V(1),

Sturm's count of sign variations of the remainder chain at 0 and at 1.

Everything is exact: a float is a dyadic rational, so P is scaled to integers
and the chain runs as Collins' reduced remainder sequence

    R_{k+1} = -prem(R_{k-1}, R_k) / lc(R_{k-1})^2   (divisor 1 for R_2),

whose division is exact and keeps coefficients linear in k.  The multiplier
lc(R_k)^2 and the divisor are squares, so each R_k is a positive multiple of
the Euclidean remainder and has its signs.  REL_TOL only decides degeneracy.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

from .errors import (
    DegenerateInput,
    DomainError,
    EndpointRoot,
    InternalInvariantViolation,
    _Value,
)

REL_TOL = 1e-9
_TOL = Fraction(REL_TOL)


class RealPolynomial(_Value):
    """Dense real polynomial with exact lowest-degree-first coefficients.

    coefficients is a tuple of Fractions; leading ones at most REL_TOL times
    the largest are dropped.  Exact results of the library are wrapped by
    _unchecked, without trimming.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        if isinstance(coefficients, (str, bytes)) or not isinstance(coefficients, Iterable):
            kind = type(coefficients).__name__
            raise DomainError(f"coefficients are an iterable of reals, got {kind}")
        coeffs = []
        for i, c in enumerate(coefficients):
            try:
                coeffs.append(Fraction(c))
            except (ValueError, OverflowError, TypeError) as exc:
                raise DomainError(f"coefficient {i} ({c!r}) is not a finite real number") from exc
        scale = max(map(abs, coeffs), default=0)
        while len(coeffs) > 1 and abs(coeffs[-1]) <= _TOL * scale:
            coeffs.pop()
        self._set(tuple(coeffs) if scale else (Fraction(0),))

    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return self.coefficients == (0,)

    def __call__(self, t) -> Fraction:
        t, value = Fraction(t), Fraction(0)
        for c in reversed(self.coefficients):
            value = value * t + c
        return value

    def derivative(self) -> "RealPolynomial":
        c = self.coefficients
        return RealPolynomial([i * c[i] for i in range(1, len(c))])

    def __repr__(self):
        return f"RealPolynomial([{', '.join(map(str, self.coefficients))}])"


class ResidueSequence(_Value):
    """Euclidean chain data: m linear quotients plus the final constant.

    residues[:-1] are the quotients (each degree <= 1) and residues[-1] is
    the last nonzero remainder of the chain, a constant.  The companion
    product of the quotients applied to (constant, 0) reconstructs (P, P').
    The constructor checks the field type; sturm_residues builds its result
    through _unchecked.
    """

    __slots__ = ("residues",)

    def __init__(self, residues: tuple):
        if not (type(residues) is tuple and residues
                and all(isinstance(r, RealPolynomial) for r in residues)):
            raise DomainError("residues are a nonempty tuple of RealPolynomial")
        self._set(residues)

    @property
    def size(self) -> int:
        return len(self.residues) - 1

    @property
    def terminal(self) -> Fraction:
        return self.residues[-1].coefficients[0]


def _remainder_chain(P: RealPolynomial):
    """Integer chain R_k (highest degree first) and pseudo-quotients aT + b.

    lc(R_k)^2 R_{k-1} = (aT + b) R_k + prem(R_{k-1}, R_k) for k = 1 .. m.
    """
    m = P.degree()
    if m < 1:
        raise DegenerateInput("the polynomial must have degree >= 1")
    denom = math.lcm(*(c.denominator for c in P.coefficients))
    r0 = [c.numerator * (denom // c.denominator) for c in reversed(P.coefficients)]
    norm = max(map(abs, r0))
    for t, value in ((0, r0[-1]), (1, sum(r0))):
        if abs(value) <= _TOL * norm:
            raise EndpointRoot(f"P({t}) vanishes within tolerance")
    chain = [r0, [c * (m - i) for i, c in enumerate(r0[:-1])]]
    quotients, divisor = [], 1
    while True:
        num, den = chain[-2], chain[-1]
        lead, a = den[0], num[0]
        r = [lead * x - a * y for x, y in zip(num[1:], den[1:] + [0])]
        rem = [lead * x - r[0] * y for x, y in zip(r[1:], den[1:])]
        quotients.append((lead * a, r[0]))
        if not rem:
            return chain, quotients
        if abs(rem[0]) <= _TOL * lead * lead * max(map(abs, num)):
            raise DegenerateInput(
                "a remainder's leading coefficient cancels: repeated roots "
                "or degenerate leading terms"
            )
        chain.append([-c // divisor for c in rem])
        if any(q * divisor != -c for q, c in zip(chain[-1], rem)):
            raise InternalInvariantViolation("inexact division in the remainder chain")
        divisor = lead * lead


def sturm_residues(P: RealPolynomial) -> ResidueSequence:
    """Quotient chain of (P, P') for a simple-rooted P with live endpoints."""
    chain, pseudo_quotients = _remainder_chain(P)
    # chain[k] = scale_k * P_k with scale_1 = scale_0, and the chain's step
    # gives scale_{k+1} = lc(R_k)^2 scale_{k-1} / divisor_k
    prev = cur = chain[0][0] / P.coefficients[-1]
    divisor, quotients = 1, []
    for k, (a, b) in enumerate(pseudo_quotients, 1):
        lead2 = chain[k][0] * chain[k][0]
        factor = cur / (lead2 * prev)
        quotients.append(RealPolynomial._unchecked((b * factor, a * factor)))
        prev, cur, divisor = cur, lead2 * prev / divisor, lead2
    terminal = RealPolynomial._unchecked((chain[-1][0] / prev,))
    return ResidueSequence._unchecked(tuple(quotients) + (terminal,))


def residue_signature_form(seq: ResidueSequence, t) -> tuple:
    """Exact rows of the tridiagonal form: quotients at t on the diagonal, -1 off it."""
    diagonal = [q(t) for q in seq.residues[:-1]]
    m = len(diagonal)
    return tuple(
        tuple(diagonal[i] if i == j else Fraction(-1 if abs(i - j) == 1 else 0) for j in range(m))
        for i in range(m)
    )


def _sign_variations(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def real_maslov(P: RealPolynomial) -> int:
    """Winding number of the loop (P, P'): the Sturm count V(0) - V(1)."""
    chain = _remainder_chain(P)[0]
    return _sign_variations(r[-1] for r in chain) - _sign_variations(sum(r) for r in chain)


def linearization_residual(
    P: RealPolynomial, seq: ResidueSequence, samples: int = 20
) -> float:
    """Max relative error of the companion-product factorization of (P, P').

    Exact at equally spaced points of [0, 1]: a correct chain gives 0.0.
    """
    dP = P.derivative()
    worst = Fraction(0)
    for i in range(samples):
        t = Fraction(i, max(samples - 1, 1))
        v0, v1 = seq.terminal, Fraction(0)
        for q in reversed(seq.residues[:-1]):
            v0, v1 = q(t) * v0 - v1, v0
        p, dp = P(t), dP(t)
        worst = max(worst, max(abs(v0 - p), abs(v1 - dp)) / max(1, abs(p), abs(dp)))
    return float(worst)


def paper_example_polynomial() -> RealPolynomial:
    """Cubic loop preset of winding number one: 4u^3 - 6u^2 + 1 at u = T + 1/sqrt(2)."""
    s = 1.0 / math.sqrt(2.0)
    return RealPolynomial([2 * s - 2, 6 - 12 * s, 12 * s - 6, 4.0])


PRESETS = {"paper-example": paper_example_polynomial}


def preset_polynomial(name: str) -> RealPolynomial:
    if name not in PRESETS:
        raise DomainError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name]()
