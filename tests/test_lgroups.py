"""L-group recursion, fundamental ideals and the loop classification."""

import math
import random

import pytest

from maslovkit import (
    DomainError,
    FiniteAbelianGroup,
    UnsupportedRing,
    classify_loops,
    fundamental_ideal_group,
    in_fundamental_ideal,
    lgroup,
    loop_from_pair,
    maslov_index,
    witt_group_structure,
)
from maslovkit.lgroups import encode_group

from helpers import rand_symmetric_nondeg, time_limit


def test_canonical_invariant_factors():
    assert FiniteAbelianGroup((2, 4)).cyclic_orders == (2, 4)
    assert FiniteAbelianGroup((4, 2)).cyclic_orders == (2, 4)
    assert FiniteAbelianGroup((2, 3)).cyclic_orders == (6,)
    assert FiniteAbelianGroup((2, 2, 3)).cyclic_orders == (2, 6)
    assert FiniteAbelianGroup(()).name == "0"
    assert FiniteAbelianGroup((4,)).name == "Z/4"
    chain = FiniteAbelianGroup((8, 2, 4)).cyclic_orders
    assert all(b % a == 0 for a, b in zip(chain, chain[1:]))


def test_group_encoding():
    g = FiniteAbelianGroup((2, 4))
    assert encode_group(g) == {"invariant_factors": [2, 4], "name": "Z/2 + Z/4"}


def test_constructor_is_canonical():
    # the constructor takes any cyclic orders: invariant factors, orders >= 2 only
    assert FiniteAbelianGroup((6, 4)) == FiniteAbelianGroup([4, 6]) == FiniteAbelianGroup((2, 12))
    assert FiniteAbelianGroup((6, 4)).name == "Z/2 + Z/12"
    assert FiniteAbelianGroup((2, 3, 2)).cyclic_orders == (2, 6)
    assert FiniteAbelianGroup(()).is_trivial() and FiniteAbelianGroup([]).order() == 1
    for orders in ((1,), (0,), (4, 1), (-3,), (6.0,), (True, 4)):
        with pytest.raises(DomainError):
            FiniteAbelianGroup(orders)
        with pytest.raises(DomainError):
            FiniteAbelianGroup(list(orders))
    # the orders come as a tuple or a list, never a bare int, string or set
    for orders in (4, "24", {2, 4}, None):
        with pytest.raises(DomainError):
            FiniteAbelianGroup(orders)


def test_lgroup_base_examples():
    # the base of the recursion is lgroup(n, 0, p): W(F_p) for n = 0, else trivial
    assert lgroup(0, 0, 5) == FiniteAbelianGroup((2, 2))
    assert lgroup(0, 0, 7) == FiniteAbelianGroup((4,))
    assert lgroup(2, 0, 5).is_trivial()
    assert lgroup(1, 0, 11).is_trivial()
    # n and d are ints: a bool or a float is refused, not read as a number
    for args in ((0, 0, 9), (True, 2, 5), (0, True, 5), (0, 1.5, 5), (2.0, 0, 5)):
        with pytest.raises(DomainError):
            lgroup(*args)


def test_lgroup_recursion_examples():
    for p in (5, 7):
        w = witt_group_structure(p)
        for d in (0, 1, 2, 3):
            assert lgroup(0, d, p) == w
        assert lgroup(0, 4, p) == w.direct_sum(w)
        assert lgroup(3, 1, p).is_trivial()


def test_lgroup_binomial_order():
    # |L_n(d)| = |W|^(number of k = n mod 4 with 0 <= k <= d)
    for p in (5, 7):
        w_order = witt_group_structure(p).order()
        for d in range(5):
            for n in range(4):
                count = sum(
                    math.comb(d, k) for k in range(d + 1) if (n - k) % 4 == 0
                )
                assert lgroup(n, d, p).order() == w_order**count
        assert lgroup(0, 4, p).order() == 16


def test_lgroup_is_polynomial_in_d():
    # comb(16, 0) + comb(16, 4) + ... + comb(16, 16) Witt-group copies
    m = sum(math.comb(16, k) for k in range(0, 17, 4))
    with time_limit(2), pytest.warns(UserWarning):
        got = lgroup(0, 16, 5)
    assert got.order() == 4**m
    assert got.cyclic_orders == (2,) * (2 * m)


def test_lgroup_out_of_range_warns():
    with pytest.warns(UserWarning):
        got = lgroup(0, 5, p=5)
    # comb(5,0) + comb(5,4) = 6 Witt-group copies
    assert got.order() == 4**6


def test_fundamental_ideal_examples():
    assert fundamental_ideal_group(2, 7) == FiniteAbelianGroup((2,))
    assert fundamental_ideal_group(0, 3) == FiniteAbelianGroup((2,))
    assert fundamental_ideal_group(4, 5) == FiniteAbelianGroup((2, 2, 2))
    assert fundamental_ideal_group(4, 7) == FiniteAbelianGroup((2, 4))
    with pytest.raises(UnsupportedRing):
        fundamental_ideal_group(5, 5)
    for d in (2.0, True, -1):  # a negative d is out of the domain, not unsupported
        with pytest.raises(DomainError):
            fundamental_ideal_group(d, 5)


def test_classify_loops_examples():
    for d in range(4):
        assert classify_loops(d, 5).is_trivial()
        assert classify_loops(d, 7).is_trivial()
    assert classify_loops(4, 5) == FiniteAbelianGroup((2, 2))
    assert classify_loops(4, 7) == FiniteAbelianGroup((4,))
    with pytest.raises(UnsupportedRing):
        classify_loops(5, 7)
    for d in (True, 4.0, -1):
        with pytest.raises(DomainError):
            classify_loops(d, 5)


def test_classification_is_ideal_mod_constant_part():
    for p in (3, 5, 7, 11, 13):
        for d in range(5):
            ideal = fundamental_ideal_group(d, p)
            loops = classify_loops(d, p)
            assert ideal.order() == 2 * loops.order()


def test_maslov_lands_in_fundamental_ideal():
    rng = random.Random(71)
    for p in (5, 7):
        ideal = fundamental_ideal_group(0, p)
        assert ideal.order() == 2
        for _ in range(10):
            n = rng.randrange(1, 3)
            loop = loop_from_pair(
                rand_symmetric_nondeg(p, n, rng), rand_symmetric_nondeg(p, n, rng)
            )
            cls = maslov_index(loop).witt
            assert in_fundamental_ideal(cls)
