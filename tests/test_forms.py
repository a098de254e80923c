"""Hermitian forms, diagonalization and Witt classification."""

import random
import re

import pytest
from sympy import Matrix

from maslovkit import (
    DegenerateForm,
    DomainError,
    FormError,
    FormTriple,
    HermitianForm,
    RingDescriptor,
    RingMatrix,
    RingMismatch,
    ShapeError,
    UnsupportedRing,
    WittClass,
    diagonalize,
    hyperbolic_form,
    in_fundamental_ideal,
    is_square,
    least_non_residue,
    triple_delta,
    witt_class,
)
from maslovkit.ring import FieldElement

from helpers import congruence_orbits, matrix_key, rand_symmetric_nondeg, rand_unit_matrix


F5 = RingDescriptor(5)
F7 = RingDescriptor(7)
L5 = RingDescriptor(5, 1)


def diag_form(ring, entries):
    n = len(entries)
    return HermitianForm(
        RingMatrix(ring, [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]),
        1,
    )


def test_check_hermitian_examples():
    assert hyperbolic_form(1, 1, F5).is_hermitian()
    assert hyperbolic_form(1, -1, F5).is_hermitian()
    assert not HermitianForm(RingMatrix(L5, [[L5.x(0)]]), 1).is_hermitian()
    herm = HermitianForm(RingMatrix(L5, [[L5.x(0) + L5.x(0, -1)]]), 1)
    assert herm.is_hermitian()
    lifted = herm.lift_T()
    assert lifted.ring == L5.with_T() and lifted.is_hermitian() and lifted.eval_T(0) == herm


def test_hyperbolic_form_examples():
    assert hyperbolic_form(1, 1, F5).matrix == RingMatrix(F5, [[0, 1], [1, 0]])
    assert hyperbolic_form(1, -1, F5).matrix == RingMatrix(F5, [[0, 1], [-1, 0]])
    big = hyperbolic_form(2, 1, F5).matrix
    assert big.shape == (4, 4)
    assert big.submatrix(range(2), range(2, 4)) == RingMatrix.identity(F5, 2)
    assert big.submatrix(range(2, 4), range(2)) == RingMatrix.identity(F5, 2)


def test_diagonalize_examples():
    theta = least_non_residue(5)
    form = diag_form(F5, [1, theta.value])
    assert diagonalize(form) == [FieldElement(1, 5), theta]

    # hyperbolic plane: entries multiply to the square class of -1
    entries = diagonalize(hyperbolic_form(1, 1, F5))
    assert len(entries) == 2 and all(e.value != 0 for e in entries)
    disc = entries[0] * entries[1]
    assert is_square(disc * FieldElement(-1, 5).inverse())

    # scaling by a square keeps the square class
    scaled = diag_form(F5, [4 * 3 % 5])
    (entry,) = diagonalize(scaled)
    assert is_square(entry * FieldElement(3, 5).inverse())

    # the entries are the canonical <1, ..., 1, det>: 2 * 3 = 1 is a square
    assert diagonalize(diag_form(F5, [2, 3])) == [FieldElement(1, 5)] * 2
    assert diagonalize(HermitianForm(RingMatrix(F5, []), 1)) == []


def test_diagonalize_congruence_oracle():
    rng = random.Random(6)
    for p in (3, 5, 7):
        ring = RingDescriptor(p)
        for _ in range(25):
            n = rng.randrange(1, 4)
            form = rand_symmetric_nondeg(p, n, rng)
            entries = diagonalize(form)
            prod = FieldElement(1, p)
            for e in entries:
                prod = prod * e
            zero = (0,) * ring.nexponents
            rows = [
                [form.matrix[i, j].terms.get(zero, 0) for j in range(n)]
                for i in range(n)
            ]
            det_val = int(Matrix(rows).det()) % p
            assert is_square(prod * FieldElement(det_val, p).inverse())


def test_diagonalize_lies_in_the_congruence_orbit():
    # brute-force orbits under elementary congruences, independent of det
    rng = random.Random(7)
    for p, n_max in ((3, 3), (5, 3), (7, 2)):
        ring = RingDescriptor(p)
        for n in range(1, n_max + 1):
            labels, _, _ = congruence_orbits(p, n)
            for _ in range(45):
                form = rand_symmetric_nondeg(p, n, rng)
                diag = diag_form(ring, [e.value for e in diagonalize(form)])
                assert labels[matrix_key(diag, p, n)] == labels[matrix_key(form, p, n)]


def test_diagonalize_errors():
    with pytest.raises(DegenerateForm):
        diagonalize(diag_form(F5, [1, 0]))
    with pytest.raises(UnsupportedRing):
        diagonalize(HermitianForm(RingMatrix.identity(L5, 1), 1))
    with pytest.raises(FormError):
        diagonalize(HermitianForm(RingMatrix(F5, [[0, 1], [4, 0]]), 1))


def test_witt_class_examples():
    for p in (3, 5, 7, 13):
        ring = RingDescriptor(p)
        assert witt_class(hyperbolic_form(1, 1, ring)).is_zero()
    two_ones_f7 = diag_form(F7, [1, 1])
    assert witt_class(two_ones_f7).class_name == "2"
    mixed_f5 = diag_form(F5, [1, 2])
    cls = witt_class(mixed_f5)
    assert in_fundamental_ideal(cls) and not cls.is_zero()
    assert cls.class_name == "<1>+<t>"


def test_witt_add_examples():
    x = WittClass.from_name(5, "<t>")
    assert x + WittClass.zero(5) == x
    one_f7 = WittClass.from_name(7, "1")
    theta_f7 = witt_class(diag_form(F7, [least_non_residue(7).value]))
    assert theta_f7.class_name == "3"
    assert (one_f7 + theta_f7).is_zero()
    one_f5 = WittClass.from_name(5, "<1>")
    assert (one_f5 + one_f5).is_zero()
    # the law takes Witt classes only: anything else is Python's TypeError
    for other in (1, 0, None, "<1>"):
        with pytest.raises(TypeError):
            WittClass.zero(5) + other
        with pytest.raises(TypeError):
            WittClass.zero(5) - other


def _all_classes(p):
    return [
        WittClass(p, rp, dc) for rp in (0, 1) for dc in (0, 1)
    ]


def test_group_tables_exact():
    # p = 1 mod 4: Z/2 + Z/2; p = 3 mod 4: Z/4 (via the canonical encoding)
    for p in (5, 13):
        for a in _all_classes(p):
            for b in _all_classes(p):
                summed = a + b
                assert summed.rank_parity == a.rank_parity ^ b.rank_parity
                assert summed.disc_class == a.disc_class ^ b.disc_class
                assert (a + -a).is_zero()
                assert -a == a and (a - b) == summed
    for p in (3, 7, 11):
        to_z4 = {}
        for cls in _all_classes(p):
            to_z4[2 * cls.disc_class + cls.rank_parity] = cls
        assert sorted(to_z4) == [0, 1, 2, 3]
        for za in range(4):
            for zb in range(4):
                assert to_z4[za] + to_z4[zb] == to_z4[(za + zb) % 4]
                assert to_z4[za] - to_z4[zb] == to_z4[(za - zb) % 4]
            assert -to_z4[za] == to_z4[-za % 4]
        gen = WittClass.from_name(p, "1")
        acc = WittClass.zero(p)
        orders = []
        for k in range(1, 5):
            acc = acc + gen
            orders.append(acc.is_zero())
        assert orders == [False, False, False, True], "generator has order 4"


def test_group_law_matches_direct_sums():
    rng = random.Random(31)
    for p in (5, 7):
        for _ in range(40):
            f = rand_symmetric_nondeg(p, rng.randrange(1, 4), rng)
            g = rand_symmetric_nondeg(p, rng.randrange(1, 4), rng)
            assert witt_class(f.direct_sum(g)) == witt_class(f) + witt_class(g)


def test_witt_invariances():
    rng = random.Random(13)
    for p in (5, 7):
        ring = RingDescriptor(p)
        lam = hyperbolic_form(1, 1, ring)
        for _ in range(30):
            n = rng.randrange(1, 4)
            form = rand_symmetric_nondeg(p, n, rng)
            assert witt_class(form.direct_sum(lam)) == witt_class(form)
            a = rand_unit_matrix(ring, rng, n)
            assert witt_class(form.congruent_by(a)) == witt_class(form)


def test_witt_errors():
    with pytest.raises(DegenerateForm):
        witt_class(diag_form(F5, [1, 0]))
    with pytest.raises(UnsupportedRing):
        witt_class(HermitianForm(RingMatrix.identity(L5, 1), 1))
    # the two bits are the ints 0 and 1: a float or a bool is refused
    for rp, dc in ((1.0, 0), (True, 0), (0, False), (2, 0), (0, -1)):
        with pytest.raises(DomainError):
            WittClass(7, rp, dc)
        with pytest.raises(DomainError):
            WittClass(5, rp, dc)
    with pytest.raises(RingMismatch):
        WittClass.zero(5) + WittClass.zero(7)
    for p, name in ((5, "1"), (7, "<1>"), (7, "4"), (5, "")):
        with pytest.raises(DomainError):
            WittClass.from_name(p, name)


def test_witt_class_from_determinant_needs_a_constant():
    # a determinant that is not constant is refused by name; a nonzero
    # constant over a Laurent ring or a ring with T gives its residue's class
    F5T, L5xyT = RingDescriptor(5, 0, True), RingDescriptor(5, 2, True)
    for f in (L5.x(0), L5.x(0, -1) + 1, F5T.T(), F5T.T() + 2, L5xyT.x(1) * L5xyT.T()):
        with pytest.raises(DomainError, match=f"constant determinant, got {re.escape(repr(f))}$"):
            WittClass.from_determinant(2, f)
    for n in (1, 2, 3):
        for c in range(1, 5):
            want = witt_class(diag_form(F5, [1] * (n - 1) + [c]))
            for ring in (F5, L5, RingDescriptor(5, 2), F5T):
                assert WittClass.from_determinant(n, ring.constant(c)) == want
    for ring in (F5, L5, F5T):
        with pytest.raises(DegenerateForm):
            WittClass.from_determinant(2, ring.zero())


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: hyperbolic_form(1, 1, F5).direct_sum(hyperbolic_form(1, -1, F5)), FormError),
        (lambda: diag_form(F5, [1]).direct_sum(diag_form(F7, [1])), RingMismatch),
        (lambda: FormTriple(diag_form(F5, [1]), diag_form(F7, [1])), RingMismatch),
        (lambda: FormTriple(diag_form(F5, [1]), diag_form(F5, [1, 1])), ShapeError),
        (lambda: FormTriple(hyperbolic_form(1, -1, F5), hyperbolic_form(1, -1, F5)), FormError),
        (lambda: FormTriple(diag_form(F5, [1]), 1), FormError),
        (lambda: FormTriple(RingMatrix.identity(F5, 1), diag_form(F5, [1])), FormError),
        (lambda: HermitianForm([[1]]), DomainError),
        (lambda: HermitianForm([[1]], 1), DomainError),
    ],
    ids=["direct-sum-signs", "direct-sum-rings", "triple-rings", "triple-dims", "triple-sign",
         "triple-entry", "triple-matrix-entry", "form-list-matrix", "form-list-matrix-signed"],
)
def test_form_pairs_are_checked(build, error):
    with pytest.raises(error):
        build()


def test_in_fundamental_ideal_examples():
    assert in_fundamental_ideal(WittClass.zero(5))
    assert not in_fundamental_ideal(WittClass.from_name(5, "<1>"))
    assert in_fundamental_ideal(witt_class(diag_form(F5, [1, 2])))


def test_triple_delta_examples():
    q = diag_form(F5, [1, 2])
    assert triple_delta(FormTriple(q, q)).is_zero()
    one = diag_form(F5, [1])
    theta = diag_form(F5, [least_non_residue(5).value])
    delta = triple_delta(FormTriple(one, theta))
    assert delta == WittClass.from_name(5, "<1>+<t>")
    assert in_fundamental_ideal(delta)
    forward = triple_delta(FormTriple(one, theta))
    backward = triple_delta(FormTriple(theta, one))
    assert (forward + backward).is_zero()


def test_witt_json_names_round_trip():
    for p in (5, 7):
        for cls in _all_classes(p):
            assert WittClass.from_name(p, cls.class_name) == cls
