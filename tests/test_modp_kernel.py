"""The mod-p elimination kernel behind det, inverse and witt_class, against sympy.

Matrices over F_p are drawn with n from 1 to 6.  About half are singular: the
last row of the matrix (or of B in a symmetric B A B^T) is a combination of
the others.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.exceptions import NonInvertibleMatrixError

from maslovkit import (
    DegenerateForm,
    HermitianForm,
    NotAUnit,
    RingDescriptor,
    RingMatrix,
    det,
    diagonalize,
    inverse,
    is_square,
    witt_class,
)
from maslovkit.ring import FieldElement

PRIMES = (3, 7, 1000000007)
RINGS = {p: RingDescriptor(p) for p in PRIMES}
SETTINGS = settings(max_examples=80, deadline=None)


def draw_rows(draw, p, n):
    """n x n residues mod p; in half the draws the last row depends on the rest."""
    residue = st.integers(0, p - 1)
    rows = [[draw(residue) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        coeffs = [draw(residue) for _ in range(n - 1)]
        rows[-1] = [
            sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(n)
        ]
    return rows


@st.composite
def square_rows(draw):
    p = draw(st.sampled_from(PRIMES))
    return p, draw_rows(draw, p, draw(st.integers(1, 6)))


@st.composite
def symmetric_rows(draw):
    """B A B^T mod p with A symmetric; singular when B is."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 6))
    a = draw_rows(draw, p, n)
    a = [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    b = Matrix(draw_rows(draw, p, n))
    return p, [[int(v) % p for v in row] for row in (b * Matrix(a) * b.T).tolist()]


@SETTINGS
@given(square_rows())
def test_det_matches_sympy(case):
    p, rows = case
    expected = int(Matrix(rows).det()) % p
    assert det(RingMatrix(RINGS[p], rows)) == RINGS[p].constant(expected)


@SETTINGS
@given(square_rows())
def test_inverse_matches_sympy(case):
    p, rows = case
    A = RingMatrix(RINGS[p], rows)
    try:
        expected = Matrix(rows).inv_mod(p)
    except NonInvertibleMatrixError:
        with pytest.raises(NotAUnit):
            inverse(A)
        return
    expected = [[int(v) for v in row] for row in expected.tolist()]
    assert inverse(A) == RingMatrix(RINGS[p], expected)


@SETTINGS
@given(symmetric_rows())
def test_diagonalize_and_witt_class_match_sympy_det(case):
    p, rows = case
    form = HermitianForm(RingMatrix(RINGS[p], rows), 1)
    d = int(Matrix(rows).det()) % p
    if d == 0:
        with pytest.raises(DegenerateForm):
            diagonalize(form)
        with pytest.raises(DegenerateForm):
            witt_class(form)
        return
    prod = FieldElement(1, p)
    for e in diagonalize(form):
        prod = prod * e
    assert is_square(prod * FieldElement(d, p).inverse())
    n = len(rows)
    signed = FieldElement((-1) ** (n * (n - 1) // 2) * d, p)
    cls = witt_class(form)
    assert (cls.rank_parity, cls.disc_class) == (n % 2, 0 if is_square(signed) else 1)
