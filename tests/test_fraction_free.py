"""The fraction-free elimination behind det and inverse off F_p, against sympy.

Matrices are drawn over F_p[x^+-], F_p[x^+-, y^+-] and the T-extensions
F_p[T] and F_p[x^+-][T], with n from 1 to 4.  About half of the det draws are
singular: the last row is a combination of the others.  Half of the inverse
draws are unimodular: a permutation times unit triangular factors and a
diagonal of monomials, so that the elimination has to swap rows.  sympy sees
each Laurent matrix times a monomial that makes it polynomial.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, Poly, symbols

from maslovkit import (
    HermitianForm,
    InternalInvariantViolation,
    LaurentPolynomial,
    NotAUnit,
    RingDescriptor,
    RingMatrix,
    det,
    inverse,
    loop_from_pair,
    maslov_index,
)
from maslovkit.linalg import _exact_quotient

from helpers import time_limit, unipotent

RINGS = tuple(
    RingDescriptor(p, d, has_T)
    for p in (3, 7)
    for d, has_T in ((1, False), (2, False), (0, True), (1, True))
)
SETTINGS = settings(max_examples=80, deadline=None)


@st.composite
def polys(draw, ring, terms=3):
    """Up to terms monomials, spatial exponents in [-1, 1] and T exponents in [0, 1]."""
    out = {}
    for _ in range(draw(st.integers(0, terms))):
        exps = [draw(st.integers(-1, 1)) for _ in range(ring.spatial_vars)]
        if ring.has_T:
            exps.append(draw(st.integers(0, 1)))
        out[tuple(exps)] = draw(st.integers(1, ring.p - 1))
    return LaurentPolynomial(ring, out)


def draw_rows(draw, ring, n):
    """n x n entries; in half the draws the last row depends on the rest."""
    rows = [[draw(polys(ring)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        coeffs = [draw(polys(ring, 2)) for _ in range(n - 1)]
        rows[-1] = [
            sum((c * row[j] for c, row in zip(coeffs, rows)), ring.zero())
            for j in range(n)
        ]
    return rows


@st.composite
def square_matrices(draw):
    ring = draw(st.sampled_from(RINGS))
    return RingMatrix(ring, draw_rows(draw, ring, draw(st.integers(1, 4))))


@st.composite
def inverse_cases(draw):
    """(A, True) for a unimodular P L D U in half the draws, else (A, False)."""
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(1, 4))
    if not draw(st.booleans()):
        return RingMatrix(ring, draw_rows(draw, ring, n)), False

    def grid(entry):
        return RingMatrix(ring, [[entry(i, j) for j in range(n)] for i in range(n)])

    def unit():
        exps = [draw(st.integers(-1, 1)) for _ in range(ring.spatial_vars)]
        return ring.monomial(exps + [0] * ring.has_T, draw(st.integers(1, ring.p - 1)))

    perm = draw(st.permutations(range(n)))
    P = grid(lambda i, j: int(j == perm[i]))
    L = grid(lambda i, j: draw(polys(ring, 2)) if j < i else int(i == j))
    D = grid(lambda i, j: unit() if i == j else 0)
    U = grid(lambda i, j: draw(polys(ring, 2)) if j > i else int(i == j))
    return P @ L @ D @ U, True


def sympy_det(A: RingMatrix) -> dict:
    """Terms of det(A), from sympy on A shifted by a monomial into polynomials.

    The result is shifted back, so it is comparable with det(A).terms.
    """
    ring = A.ring
    d = ring.spatial_vars
    gens = symbols(f"x1:{d + 1}") + (symbols("T"),) * ring.has_T
    entries = [f for row in A.entries for f in row]
    shift = [
        -min([0] + [e[i] for f in entries for e in f.terms]) for i in range(d)
    ] + [0] * ring.has_T

    def expr(f):
        out = 0
        for exps, c in f.terms.items():
            term = c
            for g, e, s in zip(gens, exps, shift):
                term *= g ** (e + s)
            out += term
        return out

    shifted = Matrix([[expr(f) for f in row] for row in A.entries])
    value = Poly(shifted.det(method="berkowitz"), *gens, modulus=ring.p)
    n = A.rows
    out = {}
    for exps, c in value.as_dict().items():
        if int(c) % ring.p:
            out[tuple(e - n * s for e, s in zip(exps, shift))] = int(c) % ring.p
    return out


@SETTINGS
@given(square_matrices())
def test_det_matches_sympy(A):
    assert det(A).terms == sympy_det(A)


@SETTINGS
@given(inverse_cases())
def test_inverse_matches_sympy_det(case):
    A, unimodular = case
    ring, n = A.ring, A.rows
    if not (unimodular or LaurentPolynomial(ring, sympy_det(A)).is_unit()):
        with pytest.raises(NotAUnit):
            inverse(A)
        return
    Ainv = inverse(A)
    assert A @ Ainv == RingMatrix.identity(ring, n)
    assert Ainv @ A == RingMatrix.identity(ring, n)


def test_row_swaps_keep_det_and_inverse_signs():
    L = RingDescriptor(5, 1)
    x = L.x(0)
    swap = RingMatrix(L, [[0, 1], [1, 0]])
    assert det(swap) == L.constant(-1)
    assert inverse(swap) == swap
    A = RingMatrix(L, [[0, x, 0], [1, 0, 0], [0, 0, x + 1]])
    assert det(A) == -x * (x + 1)
    B = RingMatrix(L, [[0, x], [x.unit_inverse(), 1]])
    assert B @ inverse(B) == RingMatrix.identity(L, 2)


@SETTINGS
@given(st.data())
def test_exact_quotient_round_trip(data):
    ring = data.draw(st.sampled_from(RINGS))
    q = data.draw(polys(ring))
    g = data.draw(polys(ring).filter(lambda g: not g.is_zero()))
    assert _exact_quotient(q * g, g) == q


@pytest.mark.parametrize(
    "ring, f, g",
    [
        (RingDescriptor(5, 1), lambda L: L.one(), lambda L: 1 - L.x(0)),
        (
            RingDescriptor(5, 2),
            lambda L: 1 + L.x(0) + L.x(1),
            lambda L: 1 + L.x(0),
        ),
        (RingDescriptor(5, 1, True), lambda L: L.x(0), lambda L: L.T()),
    ],
    ids=["1/(1-x)", "(1+x+y)/(1+x)", "x/T"],
)
def test_exact_quotient_rejects_inexact_division(ring, f, g):
    with time_limit(5), pytest.raises(InternalInvariantViolation):
        _exact_quotient(f(ring), g(ring))


def test_d2_pair_loop_runs_in_polynomial_time():
    # a cofactor expansion, exponential in the matrix size, takes over 50 s here
    ring = RingDescriptor(5, 2)
    a = unipotent(ring, 5, ring.x(0) + ring.x(1))
    q = HermitianForm(a.dagger() @ a, 1)
    with time_limit(10):
        result = maslov_index(loop_from_pair(q, q))
    assert result.determinant.is_unit()
