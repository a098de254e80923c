"""L-group recursion and the classification of loop classes.

The four-periodic family of form groups over the Laurent extensions of F_p
satisfies L_n(d) = L_n(d-1) + L_{n-1}(d-1) with base L_0(0) the Witt group
W of F_p and L_1(0) = L_2(0) = L_3(0) = 0.  By Pascal's rule it unrolls to
L_n(d) = W^m, m the sum of C(d, k) over 0 <= k <= d with k = n mod 4.  The
fundamental ideal of the Witt group is Z/2 up to three Laurent variables
and Z/2 + W(F_p) in four; the loop classification is the quotient of the
ideal by its constant Z/2:

    OmegaC(d, p) = 0            for d = 0, 1, 2, 3
    OmegaC(4, p) = Z/2 + Z/2    for p = 1 mod 4
    OmegaC(4, p) = Z/4          for p = 3 mod 4
"""

from __future__ import annotations

import math
import warnings

from .errors import DomainError, UnsupportedRing, _Value
from .ring import _check_odd_prime

VALIDATED_DIMENSIONS = 4


def _prime_factorization(n: int) -> dict:
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _canonical_factors(orders) -> tuple:
    """Invariant-factor form (each divides the next) of a cyclic-order list."""
    if not isinstance(orders, (tuple, list)):
        raise DomainError(f"cyclic orders come as a tuple or list, got {type(orders).__name__}")
    per_prime: dict = {}
    for n in orders:
        if type(n) is not int or n < 2:
            raise DomainError(f"cyclic order must be an int >= 2, got {n!r}")
        for q, e in _prime_factorization(n).items():
            per_prime.setdefault(q, []).append(e)
    for exps in per_prime.values():
        exps.sort(reverse=True)
    width = max(map(len, per_prime.values()), default=0)
    factors = (
        math.prod(q ** exps[i] for q, exps in per_prime.items() if i < len(exps))
        for i in range(width)
    )
    return tuple(sorted(factors))


class FiniteAbelianGroup(_Value):
    """Finite abelian group, stored in canonical invariant-factor form.

    Any cyclic orders >= 2 are accepted: FiniteAbelianGroup((6, 4)) is Z/2 + Z/12.
    """

    __slots__ = ("cyclic_orders",)

    def __init__(self, cyclic_orders: tuple):
        self._set(_canonical_factors(cyclic_orders))

    def is_trivial(self) -> bool:
        return not self.cyclic_orders

    def order(self) -> int:
        return math.prod(self.cyclic_orders)

    def direct_sum(self, other: "FiniteAbelianGroup") -> "FiniteAbelianGroup":
        return FiniteAbelianGroup(self.cyclic_orders + other.cyclic_orders)

    @property
    def name(self) -> str:
        if not self.cyclic_orders:
            return "0"
        return " + ".join(f"Z/{n}" for n in self.cyclic_orders)

    def __repr__(self):
        return f"FiniteAbelianGroup({self.name})"


def encode_group(g: FiniteAbelianGroup) -> dict:
    """The JSON object of g: its invariant factors and its name."""
    return {"invariant_factors": list(g.cyclic_orders), "name": g.name}


def witt_group_structure(p: int) -> FiniteAbelianGroup:
    """The order-four Witt group of F_p: Z/2 + Z/2 or Z/4 by p mod 4."""
    _check_odd_prime(p)
    if p % 4 == 1:
        return FiniteAbelianGroup((2, 2))
    return FiniteAbelianGroup((4,))


def lgroup(n: int, d: int, p: int) -> FiniteAbelianGroup:
    """L_n over d Laurent variables: W(F_p)^m, m = sum of C(d, k), k = n mod 4."""
    _check_dimension(d, p)
    if type(n) is not int:
        raise DomainError(f"n must be an int, got {n!r}")
    if d > VALIDATED_DIMENSIONS:
        warnings.warn(
            f"L-groups for d = {d} > {VALIDATED_DIMENSIONS} are extrapolated "
            "beyond the validated range",
            stacklevel=2,
        )
    m = sum(math.comb(d, k) for k in range(n % 4, d + 1, 4))
    return FiniteAbelianGroup(witt_group_structure(p).cyclic_orders * m)


def _check_dimension(d: int, p: int):
    """An odd prime p and an int d >= 0 (not a bool); DomainError otherwise."""
    _check_odd_prime(p)
    if type(d) is not int:
        raise DomainError(f"d must be an int, got {d!r}")
    if d < 0:
        raise DomainError(f"d must be >= 0, got {d}")


def _check_validated(d: int, p: int, what: str):
    """_check_dimension, and UnsupportedRing for d beyond the validated range."""
    _check_dimension(d, p)
    if d > VALIDATED_DIMENSIONS:
        raise UnsupportedRing(f"{what} validated only for 0 <= d <= {VALIDATED_DIMENSIONS}")


def fundamental_ideal_group(d: int, p: int) -> FiniteAbelianGroup:
    """Even-rank ideal of the Witt group: Z/2 for d <= 3, Z/2 + W for d = 4."""
    _check_validated(d, p, "fundamental ideal")
    if d <= 3:
        return FiniteAbelianGroup((2,))
    return FiniteAbelianGroup((2,)).direct_sum(witt_group_structure(p))


def classify_loops(d: int, p: int) -> FiniteAbelianGroup:
    """Loop classes modulo shifts and constant-dimension loops.

    The quotient of the fundamental ideal by its constant Z/2: trivial up to
    three dimensions, the Witt group of F_p in four.
    """
    _check_validated(d, p, "loop classification")
    if d <= 3:
        return FiniteAbelianGroup(())
    return witt_group_structure(p)
