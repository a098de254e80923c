"""The mod-p elimination kernel behind det, inverse and witt_class, against sympy.

Matrices over F_p are drawn with n from 1 to 20, so that both the plain update
and the packed rows run (see linalg._PACK_ELIMINATE_MIN).  About half are
singular: the last row of the matrix (or of B in a symmetric B A B^T) is a
combination of the others.
"""

import random
from math import inf, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, nextprime, prevprime
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
from maslovkit import linalg
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
    return p, draw_rows(draw, p, draw(st.integers(1, 20)))


@st.composite
def symmetric_rows(draw):
    """B A B^T mod p with A symmetric; singular when B is."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 20))
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


def boundary_primes(n):
    """Primes whose p^2 (n + 1), the slot bound, or whose peak slot value
    (p - 1) + (n - 1)(p - 1)^2 lies just below and just above 2^8, 2^16,
    2^32 and 2^64."""
    primes = set()
    for bits in (8, 16, 32, 64):
        limit = 2**bits
        below = prevprime(isqrt((limit - 1) // (n + 1)) + 1)
        primes |= {below, nextprime(below)}
        if n > 1:  # the peak grows with p: step down from a p whose peak is past the limit
            below = prevprime(isqrt(limit // (n - 1)) + 2)
            while (below - 1) + (n - 1) * (below - 1) ** 2 >= limit:
                below = prevprime(below)
            primes |= {below, nextprime(below)}
    return sorted(primes)


def kernel_cases(rng, p, n):
    """n x n residues mod p: a row of all p - 1, zero leading entries that
    force row swaps, a last row that depends on the others, and the matrix
    whose last row takes the largest slot value: it gets n - 1 updates that
    each add (p - 1)^2 to its last column (singular when n = 2 mod p)."""
    def draw():
        return [[rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(n)] for _ in range(n)]

    full, swaps, singular = draw(), draw(), draw()
    full[0] = [p - 1] * n
    for row in swaps[: (n + 1) // 2]:
        row[: n // 3 + 1] = [0] * (n // 3 + 1)
    coeffs = [rng.randrange(p) for _ in range(n - 1)]
    singular[-1] = [sum(c * row[j] for c, row in zip(coeffs, singular)) % p for j in range(n)]
    peak = [[p - 1 if j in (i, n - 1) else 0 for j in range(n)] for i in range(n)]
    peak[-1] = [p - 1] * n
    return full, swaps, singular, peak


def test_eliminate_modp_packed_rows_match_plain_update(monkeypatch):
    # det-only (n columns) and [A | I] eliminations at every n from 1 to 20,
    # so the row width lies on both sides of the packing gate, and at primes on
    # both sides of each slot width: the kernel as it is, and forced onto
    # packed rows wherever a slot fits, return the det and leave the rows of
    # the plain update
    rng = random.Random(22)
    gate = linalg._PACK_ELIMINATE_MIN

    def eliminate(rows, p, at):
        monkeypatch.setattr(linalg, "_PACK_ELIMINATE_MIN", at)
        rows = [row[:] for row in rows]
        return linalg._eliminate_modp(rows, p), rows

    sides = set()
    for n in range(1, 21):
        for p in [3, 5, 7, 1000000007, *boundary_primes(n)]:
            for A in kernel_cases(rng, p, n):
                for width in (n, 2 * n):
                    rows = [a + [int(i == j) for j in range(width - n)] for i, a in enumerate(A)]
                    want = eliminate(rows, p, inf)
                    assert eliminate(rows, p, 0) == eliminate(rows, p, gate) == want, (p, n, width)
                    sides.add(width >= gate)
    assert sides == {False, True}


@pytest.mark.parametrize(
    "op, n, packs",
    [(inverse, 4, False), (inverse, 5, True), (det, 9, False), (det, 10, True)],
)
def test_packing_gate_is_the_row_width(monkeypatch, op, n, packs):
    # a det's rows are n wide and an [A | I]'s 2n: the gate reads the width,
    # so inverse packs from n = 5 and det from n = 10
    calls = []
    packed = linalg._eliminate_packed
    monkeypatch.setattr(linalg, "_eliminate_packed", lambda *a: calls.append(a) or packed(*a))
    A = RingMatrix(RINGS[7], [[int(j >= i) for j in range(n)] for i in range(n)])
    op(A)
    assert len(calls) == packs
