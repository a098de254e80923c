"""The primality kernel behind every odd-prime check, against sympy.

`_is_prime` is Miller-Rabin to the first 13 prime bases, which is exact below
3317044064679887385961981; moduli at or above that bound are rejected.
"""

import pytest
from sympy import isprime, prevprime

from maslovkit import DomainError, FieldElement, RingDescriptor, least_non_residue
from maslovkit.ring import _PRIME_BOUND, _is_prime

# Composites that pass the strong probable-prime test to many small bases:
# bases 2, 3, 5, 7; bases 2 .. 23; bases 2 .. 37.
STRONG_PSEUDOPRIMES = (3215031751, 3825123056546413051, 318665857834031151167461)
CARMICHAEL = (561, 1105, 1729, 41041, 825265, 321197185)
LARGE_PRIMES = (10**12 + 39, 2**61 - 1)


def test_bound_is_the_proven_one():
    assert _PRIME_BOUND == 3317044064679887385961981


def test_agrees_with_sympy_below_1e5():
    kernel = _is_prime.__wrapped__  # the test itself, without filling the memo
    mismatches = [n for n in range(-5, 10**5) if kernel(n) != isprime(n)]
    assert mismatches == []


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + CARMICHAEL)
def test_pseudoprimes_are_composite(n):
    assert not isprime(n)
    assert not _is_prime(n)
    with pytest.raises(DomainError, match="odd prime"):
        RingDescriptor(n)


@pytest.mark.parametrize("p", LARGE_PRIMES + (prevprime(_PRIME_BOUND),))
def test_large_primes_are_accepted(p):
    assert isprime(p)
    assert _is_prime(p)
    assert RingDescriptor(p).p == p
    assert FieldElement(-1, p).value == p - 1


@pytest.mark.parametrize("p", (2**89 - 1, _PRIME_BOUND, _PRIME_BOUND + 2))
def test_moduli_beyond_the_proven_range_are_rejected(p):
    with pytest.raises(DomainError, match=str(_PRIME_BOUND)):
        RingDescriptor(p)
    with pytest.raises(DomainError, match=str(_PRIME_BOUND)):
        FieldElement(1, p)
    with pytest.raises(DomainError, match=str(_PRIME_BOUND)):
        least_non_residue(p)


@pytest.mark.parametrize("p", (2, 0, 1, -1, -3, -7, 9, 7.0, True))
def test_non_odd_primes_are_rejected(p):
    with pytest.raises(DomainError, match="odd prime"):
        RingDescriptor(p)
    with pytest.raises(DomainError, match="odd prime"):
        FieldElement(1, p)


def test_each_modulus_is_tested_once():
    p = prevprime(10**15)
    before = _is_prime.cache_info()
    for _ in range(5):
        RingDescriptor(p)
        FieldElement(3, p)
    after = _is_prime.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 9
