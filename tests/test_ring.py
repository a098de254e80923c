"""Field and Laurent polynomial arithmetic."""

import random
from enum import IntEnum
from operator import add, mul, sub

import pytest

from maslovkit import (
    DivisionByZero,
    DomainError,
    FieldElement,
    HermitianForm,
    LaurentPolynomial,
    RingDescriptor,
    RingMatrix,
    RingMismatch,
    is_square,
    lambda_flip_homotopy,
    least_non_residue,
    trivmas_homotopy,
)
from maslovkit.ring import _interned

from helpers import rand_poly


F5 = RingDescriptor(5)
L5 = RingDescriptor(5, 1)
L5T = RingDescriptor(5, 1, True)


def test_field_arith_examples():
    assert FieldElement(3, 7) * FieldElement(5, 7) == 1
    assert FieldElement(1, 5).inverse() == 1
    # oracle: enumerate b with 3b = 1 mod 7
    expected = next(b for b in range(7) if 3 * b % 7 == 1)
    assert FieldElement(3, 7).inverse() == expected == 5
    a, b = FieldElement(3, 7), FieldElement(5, 7)
    assert (a + b, a - b, -a, a + 2, 2 + a, a - 10, 2 - a, 2 * a) == (1, 5, 4, 5, 5, 0, 6, 6)
    assert 3 - FieldElement(1, 5) == FieldElement(2, 5)
    # +, - and * share one scalar rule, on either side: another modulus or a
    # bool is refused
    for op in (add, sub, mul):
        with pytest.raises(RingMismatch):
            op(a, FieldElement(1, 5))
        with pytest.raises(DomainError):
            op(a, True)
        with pytest.raises(DomainError):
            op(True, a)


def test_field_arith_errors():
    with pytest.raises(DivisionByZero):
        FieldElement(0, 5).inverse()
    with pytest.raises(RingMismatch):
        FieldElement(1, 5) + FieldElement(1, 7)
    with pytest.raises(DomainError):
        FieldElement(1, 4)
    with pytest.raises(DomainError):
        FieldElement(1, 2)
    with pytest.raises(TypeError):
        FieldElement(1, 5) + "a"


def test_is_square_examples():
    assert is_square(FieldElement(1, 5))
    squares_mod_7 = {a * a % 7 for a in range(1, 7)}
    assert is_square(FieldElement(2, 7)) == (2 in squares_mod_7) is True
    squares_mod_5 = {a * a % 5 for a in range(1, 5)}
    assert squares_mod_5 == {1, 4}
    assert not is_square(FieldElement(2, 5))
    with pytest.raises(DomainError):
        is_square(FieldElement(0, 5))


def test_least_non_residue():
    for p in (3, 5, 7, 11, 13):
        squares = {a * a % p for a in range(1, p)}
        expected = next(a for a in range(2, p) if a not in squares)
        theta = least_non_residue(p)
        assert theta == expected
        assert not is_square(theta)


def test_poly_arith_examples():
    x = L5.x(0)
    xinv = L5.x(0, -1)
    assert (x + 1) * (xinv + 1) == xinv + 2 + x
    f = rand_poly(L5, random.Random(1), 3)
    assert f + (-f) == L5.zero()
    assert (2 * x) * (3 * xinv) == L5.one()


def test_poly_ring_mismatch():
    with pytest.raises(RingMismatch):
        L5.x(0) + RingDescriptor(7, 1).x(0)
    for op in (add, sub, mul):
        with pytest.raises(TypeError):
            op(L5.x(0), "a")
    with pytest.raises(DomainError):
        L5.x(0) ** -1
    with pytest.raises(DivisionByZero):
        (L5.x(0) + 1).unit_inverse()
    with pytest.raises(DomainError):
        L5T.T().lift_T()


def test_involute_examples():
    x = L5.x(0)
    assert (x + 2 * x * x).involute() == L5.x(0, -1) + 2 * L5.x(0, -2)
    assert L5.constant(3).involute() == L5.constant(3)
    assert (L5T.T() * L5T.x(0)).involute() == L5T.T() * L5T.x(0, -1)


def test_involution_properties():
    rng = random.Random(42)
    for _ in range(50):
        f = rand_poly(L5, rng, 3)
        g = rand_poly(L5, rng, 3)
        assert f.involute().involute() == f
        assert f.involute().augment() == f.augment()
        assert (f * g).involute() == f.involute() * g.involute()
        assert (f + g).involute() == f.involute() + g.involute()


def test_augment_examples():
    x = L5.x(0)
    assert (3 + 2 * x - L5.x(0, -1)).augment() == 3
    assert L5.zero().augment() == 0
    assert (x + L5.x(0, -1)).augment() == 0
    with pytest.raises(DomainError):
        L5T.T().augment()


def test_eval_T_examples():
    T = L5T.T()
    x = L5T.x(0)
    f = T * T + T * x + 1
    assert f.eval_T(0) == L5.one()
    assert f.eval_T(1) == L5.constant(2) + L5.x(0)
    g = L5T.constant(4) + L5T.x(0)
    assert g.eval_T(3) == L5.constant(4) + L5.x(0)


def test_eval_T_multiplicative():
    rng = random.Random(7)
    for _ in range(40):
        f = rand_poly(L5T, rng, 2)
        g = rand_poly(L5T, rng, 2)
        for t in range(5):
            assert (f * g).eval_T(t) == f.eval_T(t) * g.eval_T(t)
            assert (f + g).eval_T(t) == f.eval_T(t) + g.eval_T(t)


def test_square_class_multiplicativity():
    rng = random.Random(9)
    for p in (3, 5, 7, 11):
        for _ in range(30):
            a = FieldElement(rng.randrange(1, p), p)
            b = FieldElement(rng.randrange(1, p), p)
            assert is_square(a * b) == (is_square(a) == is_square(b))


def test_ring_descriptor_validation():
    with pytest.raises(DomainError):
        RingDescriptor(2, 1)
    with pytest.raises(DomainError):
        RingDescriptor(9)
    with pytest.raises(DomainError):
        RingDescriptor(5, -1)


def test_T_exponent_restrictions():
    # the constructor refuses a negative T exponent and any malformed container
    for ring, terms in ((L5T, {(0, -1): 1}), (F5, [((),)]), (F5, 5), (F5, [((), 1, 2)])):
        with pytest.raises(DomainError):
            LaurentPolynomial(ring, terms)
    with pytest.raises(DomainError):
        L5.T()


def test_normalization_and_equality():
    x = L5.x(0)
    f = LaurentPolynomial(L5, {(1,): 5, (0,): 3})  # 5 = 0 mod 5 stripped
    assert f == L5.constant(3)
    assert f.terms == {(0,): 3}
    assert hash(x + 1) == hash(1 + x)


def test_equality_with_a_constant_of_another_modulus_is_false():
    R7 = RingDescriptor(7)
    assert not R7.one() == FieldElement(1, 5)
    assert R7.one() != FieldElement(1, 5)
    assert R7.one() == FieldElement(8, 7) and R7.one() == 8
    with pytest.raises(RingMismatch):
        R7.one() + FieldElement(1, 5)


def test_unit_recognition():
    assert L5.x(0, -3).is_unit()
    assert (2 * L5.x(0)).is_unit()
    assert not (L5.x(0) + 1).is_unit()
    assert not L5T.T().is_unit()
    assert (2 * L5.x(0)).unit_inverse() * (2 * L5.x(0)) == L5.one()


def test_lift_and_drop_T():
    f = L5.x(0) + 2
    assert f.lift_T().eval_T(4) == f
    with pytest.raises(DomainError):
        f.eval_T(0)


def test_T_twins_are_interned():
    base, with_T = RingDescriptor(5, 1), RingDescriptor(5, 1, True)
    assert base.with_T() is with_T.with_T() is L5.with_T()
    assert with_T.drop_T() is base.drop_T() is L5T.drop_T()
    # equality and hashing stay field-based
    assert base.with_T() == with_T and hash(base.with_T()) == hash(with_T)
    assert base.drop_T() == base and base.with_T() != base
    f = L5T.x(0) * L5T.T() + 3
    assert f.eval_T(2).ring is (L5.x(0) + 1).lift_T().eval_T(0).ring
    # each ring has one zero and one constant 1, shared by equal descriptors
    assert base.zero() is L5.zero() and base.one() is L5T.drop_T().one()
    assert L5T.zero() is not L5.zero() and L5T.one() == L5T.constant(1)


def test_zero_and_one_live_over_the_interned_descriptor():
    # zero() and one() are shared per ring value and built over the interned
    # descriptor, whichever of the equal descriptors asks first
    for fields in ((7, 0, False), (11, 1, False), (13, 2, True)):
        first, second = RingDescriptor(*fields), RingDescriptor(*fields)
        assert first is not second and first == second
        for constant in (RingDescriptor.zero, RingDescriptor.one):
            assert constant(first) is constant(second)
            assert constant(first).ring is _interned(*fields)
    assert RingDescriptor(7).zero() is RingDescriptor(7).zero()
    assert RingDescriptor(7).zero().ring is _interned(7, 0, False)


def test_descriptor_fields_are_checked():
    # spatial_vars is an int >= 0 (not a bool), has_T a bool
    for bad in ((5, 1.5), (5, "a"), (5, True), (5, False), (5, -1), (5, None)):
        with pytest.raises(DomainError):
            RingDescriptor(*bad)
    for has_T in (1, 0, "yes", None):
        with pytest.raises(DomainError):
            RingDescriptor(5, 1, has_T)
    ring = RingDescriptor(5, 2, True)
    assert (ring.spatial_vars, ring.has_T, ring.nexponents) == (2, True, 3)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: LaurentPolynomial("x", {}), "ring"),
        (lambda: LaurentPolynomial(None, [((), 1)]), "ring"),
        (lambda: RingMatrix("x", [[1]]), "ring"),
        (lambda: RingMatrix(5, []), "ring"),
        (lambda: RingMatrix(F5, 0), "entries"),
        (lambda: RingMatrix(F5, [1, 2]), "entries"),
    ],
    ids=["poly-ring-str", "poly-ring-none", "matrix-ring-str", "matrix-ring-int",
         "matrix-entries-int", "matrix-rows-int"],
)
def test_constructor_fields_of_the_wrong_type(make, field):
    # a public constructor names the faulty field in a DomainError, not in a
    # bare AttributeError or TypeError
    with pytest.raises(DomainError, match=field):
        make()


def test_one_scalar_rule_at_every_entry_point():
    # a scalar is an int that is not a bool, or a FieldElement of the ring's p;
    # an int subclass such as an IntEnum member is read as its int value
    q = HermitianForm(RingMatrix(F5, [[2]]), 1)
    three = IntEnum("Three", {"THREE": 3}).THREE
    entry_points = {
        "FieldElement": lambda c: FieldElement(c, 5).value,
        "constant": lambda c: F5.constant(c),
        "monomial": lambda c: L5.monomial((2,), c),
        "LaurentPolynomial": lambda c: LaurentPolynomial(L5T, {(1, 2): c}),
        "RingMatrix": lambda c: RingMatrix(L5, [[1, c]]),
        "scale": lambda c: RingMatrix.identity(L5, 2).scale(c),
        "eval_T": lambda c: (L5T.T() + L5T.x(0)).eval_T(c),
        "trivmas_homotopy": lambda c: trivmas_homotopy(q, c),
        "lambda_flip_homotopy": lambda c: lambda_flip_homotopy(c, 2, F5),
    }
    for name, make in entry_points.items():
        assert make(3) == make(-2) == make(FieldElement(8, 5)) == make(three), name
        for bad in (0.5, 3.0, True, False, "3", None):
            with pytest.raises(DomainError):
                make(bad)
        with pytest.raises(RingMismatch):
            make(FieldElement(3, 7))
    # exponents and variable indices are ints, not scalars
    for bad in (0.5, 1.0, True):
        with pytest.raises(DomainError):
            RingDescriptor(5, 2).x(bad)
    for bad in (0.5, 1.0, True, "1", FieldElement(1, 5)):
        for make in (
            lambda e: L5.x(0, e),
            lambda e: L5T.T(e),
            lambda e: L5.monomial((e,)),
            lambda e: (L5.x(0) + 1) ** e,
        ):
            with pytest.raises(DomainError):
                make(bad)


def test_equality_with_any_value_is_a_bool():
    values = (0.5, 1.0, True, False, "1", None, FieldElement(1, 7), [1], F5)
    for value in values:
        for x in (L5.one(), F5.one(), FieldElement(1, 5)):
            assert (x == value) is False and (x != value) is True
            assert (value == x) is False
    assert F5.one() == FieldElement(6, 5) and FieldElement(1, 5) == 6
    assert L5.constant(2) == -3 and FieldElement(2, 5) == FieldElement(7, 5)
    # a FieldElement and a constant polynomial compare the same either way round
    for x, y in ((F5.constant(3), FieldElement(3, 5)), (L5.constant(3), FieldElement(8, 5))):
        assert x == y and y == x and not x != y and not y != x
    for x, y in ((F5.constant(3), FieldElement(3, 7)), (L5.constant(3), FieldElement(4, 5))):
        assert (x == y) is False and (y == x) is False and y != x
