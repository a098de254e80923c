"""Internal results skip the constructor checks; these tests hold them to it.

Polynomial and matrix arithmetic, unitary products and derived Sturm
sequences build their results without re-validating them.  Each result is
compared with a reference that goes through the public, checked
constructors, and is checked to be normalized: no zero coefficients,
residues in [0, p), exponent tuples of the ring's width.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from maslovkit import (
    CliffordUnitary,
    HermitianForm,
    LaurentPolynomial,
    PauliModule,
    RingDescriptor,
    RingMatrix,
    elementary_unitary,
    inverse,
)
from maslovkit.sturm import loop_from_pair, maslov_index, sturm_tridiagonal

from helpers import rand_symmetric_nondeg, rand_unit_matrix


RINGS = st.builds(
    RingDescriptor, st.sampled_from([3, 5, 7]), st.integers(0, 2), st.booleans()
)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def polys(draw, ring):
    """Sparse polynomial with small exponents, so that products collide."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        exps = tuple(draw(st.integers(-1, 1)) for _ in range(ring.spatial_vars))
        if ring.has_T:
            exps += (draw(st.integers(0, 2)),)
        terms[exps] = draw(st.integers(-ring.p, 2 * ring.p))
    return LaurentPolynomial(ring, terms)


@st.composite
def matrices(draw, ring, rows, cols):
    rows = [[draw(polys(ring)) for _ in range(cols)] for _ in range(rows)]
    return checked_matrix(ring, rows, cols)


def checked_matrix(ring, rows, cols):
    """rows through the checked constructor, which reads the width from the
    first row; with no rows, the zero matrix of width cols."""
    return RingMatrix(ring, rows) if rows else RingMatrix.zeros(ring, 0, cols)


@st.composite
def matmul_operands(draw):
    # empty rows, columns and inner dimensions included, on both branches:
    # int rows over F_p and polynomial dicts over every other ring
    ring = draw(RINGS)
    m, k, n = (draw(st.integers(0, 3)) for _ in range(3))
    return draw(matrices(ring, m, k)), draw(matrices(ring, k, n))


def assert_normalized(f: LaurentPolynomial, ring: RingDescriptor):
    assert f.ring == ring
    for exps, c in f.terms.items():
        assert isinstance(exps, tuple) and len(exps) == ring.nexponents
        assert not ring.has_T or exps[-1] >= 0
        assert isinstance(c, int) and 0 < c < ring.p
    rebuilt = LaurentPolynomial(ring, dict(f.terms))
    assert f == rebuilt and rebuilt == f
    assert hash(f) == hash(rebuilt)


def assert_matrix_normalized(A: RingMatrix, ring: RingDescriptor, shape):
    assert A.ring == ring and A.shape == shape
    assert len(A.entries) == shape[0]
    for row in A.entries:
        assert isinstance(row, tuple) and len(row) == shape[1]
        for e in row:
            assert_normalized(e, ring)
    rebuilt = checked_matrix(ring, [list(row) for row in A.entries], shape[1])
    assert A == rebuilt and hash(A) == hash(rebuilt)


# -- references through the checked constructor -----------------------------


def ref_sum(ring, *polys):
    acc = {}
    for f in polys:
        for exps, c in f.terms.items():
            acc[exps] = acc.get(exps, 0) + c
    return LaurentPolynomial(ring, acc)


def ref_neg(f):
    return LaurentPolynomial(f.ring, {e: -c for e, c in f.terms.items()})


def ref_mul_terms(f, g, acc):
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2


def ref_mul(f, g):
    acc = {}
    ref_mul_terms(f, g, acc)
    return LaurentPolynomial(f.ring, acc)


def ref_matmul(A, B):
    out = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            acc = {}
            for k in range(A.cols):
                ref_mul_terms(A[i, k], B[k, j], acc)
            row.append(LaurentPolynomial(A.ring, acc))
        out.append(row)
    return checked_matrix(A.ring, out, B.cols)


# -- polynomials ---------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_poly_arithmetic_matches_checked_reference(data):
    ring = data.draw(RINGS)
    f, g = data.draw(polys(ring)), data.draw(polys(ring))
    c = data.draw(st.integers(-ring.p, 2 * ring.p))
    cases = [
        (f + g, ref_sum(ring, f, g)),
        (f - g, ref_sum(ring, f, ref_neg(g))),
        (-f, ref_neg(f)),
        (f * g, ref_mul(f, g)),
        (f - f, ring.zero()),
        # f's terms cancel, g's survive
        ((f + g) - f, g),
        (f - (f - g), g),
        (f - c, ref_sum(ring, f, ring.constant(-c))),
        (c - f, ref_sum(ring, ring.constant(c), ref_neg(f))),
    ]
    assert (f - f).terms == {}
    d = ring.spatial_vars
    flipped = {tuple(-x for x in e[:d]) + e[d:]: c for e, c in f.terms.items()}
    cases.append((f.involute(), LaurentPolynomial(ring, flipped)))
    for got, want in cases:
        assert_normalized(got, ring)
        assert got == want


@SETTINGS
@given(st.data())
def test_poly_T_maps_match_checked_reference(data):
    ring = data.draw(RINGS)
    base, with_T = ring.drop_T(), ring.with_T()
    f = data.draw(polys(base))
    lifted = f.lift_T()
    assert_normalized(lifted, with_T)
    shifted = {e + (0,): c for e, c in f.terms.items()}
    assert lifted == LaurentPolynomial(with_T, shifted)
    g = data.draw(polys(with_T))
    t = data.draw(st.integers(0, ring.p - 1))
    acc = {}
    for exps, c in g.terms.items():
        acc[exps[:-1]] = acc.get(exps[:-1], 0) + c * t ** exps[-1]
    got = g.eval_T(t)
    assert_normalized(got, base)
    assert got == LaurentPolynomial(base, acc)


# -- matrices ------------------------------------------------------------------


@SETTINGS
@given(matmul_operands())
def test_matmul_matches_checked_reference(operands):
    A, B = operands
    product = A @ B
    assert_matrix_normalized(product, A.ring, (A.rows, B.cols))
    assert product == ref_matmul(A, B)
    # the same sums through the public polynomial arithmetic
    for i in range(A.rows):
        for j in range(B.cols):
            acc = A.ring.zero()
            for k in range(A.cols):
                acc = acc + A[i, k] * B[k, j]
            assert product[i, j] == acc


@SETTINGS
@given(st.data())
def test_matmul_cancelling_terms_give_normalized_zero(data):
    ring = data.draw(RINGS)
    f, g = data.draw(polys(ring)), data.draw(polys(ring))
    A = RingMatrix(ring, [[f, f], [g, f]])
    B = RingMatrix(ring, [[g, f], [ref_neg(g), ref_neg(f)]])
    product = A @ B
    assert_matrix_normalized(product, ring, (2, 2))
    assert product[0, 0] == ring.zero() and not product[0, 0].terms
    assert product[0, 1] == ring.zero()
    assert hash(product[0, 0]) == hash(ring.zero())
    assert product == ref_matmul(A, B)


@SETTINGS
@given(st.data())
def test_matrix_operations_are_normalized(data):
    ring = data.draw(RINGS)
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    A, B = data.draw(matrices(ring, m, n)), data.draw(matrices(ring, m, n))
    c = data.draw(polys(ring))
    expect = {
        "add": (A + B, (m, n), lambda i, j: ref_sum(ring, A[i, j], B[i, j])),
        "sub": (A - B, (m, n), lambda i, j: ref_sum(ring, A[i, j], ref_neg(B[i, j]))),
        "neg": (-A, (m, n), lambda i, j: ref_neg(A[i, j])),
        "scale": (A.scale(c), (m, n), lambda i, j: ref_mul(c, A[i, j])),
        "scale_int": (A.scale(2), (m, n), lambda i, j: ref_sum(ring, A[i, j], A[i, j])),
        "transpose": (A.transpose(), (n, m), lambda i, j: A[j, i]),
        "dagger": (A.dagger(), (n, m), lambda i, j: A[j, i].involute()),
        "submatrix": (
            A.submatrix([m - 1, 0], [n - 1]),
            (2, 1),
            lambda i, j: A[[m - 1, 0][i], n - 1],
        ),
        "from_blocks": (
            RingMatrix.from_blocks([[A, B], [B, A]]),
            (2 * m, 2 * n),
            lambda i, j: [[A, B], [B, A]][i // m][j // n][i % m, j % n],
        ),
        "block_diag": (
            RingMatrix.block_diag([A, B]),
            (2 * m, 2 * n),
            lambda i, j: (
                [A, B][i // m][i % m, j % n] if i // m == j // n else ring.zero()
            ),
        ),
    }
    assert (A - A).is_zero() and A - A == RingMatrix.zeros(ring, m, n)
    for name, (got, shape, want) in expect.items():
        assert_matrix_normalized(got, ring, shape)
        for i in range(shape[0]):
            for j in range(shape[1]):
                assert got[i, j] == want(i, j), name
    T_ring, base = ring.with_T(), ring.drop_T()
    C = data.draw(matrices(base, m, n))
    assert_matrix_normalized(C.lift_T(), T_ring, (m, n))
    D = data.draw(matrices(T_ring, m, n))
    t = data.draw(st.integers(0, ring.p - 1))
    evaluated = D.eval_T(t)
    assert_matrix_normalized(evaluated, base, (m, n))
    want = [[e.eval_T(t) for e in row] for row in D.entries]
    assert evaluated == checked_matrix(base, want, n)


# -- unitaries -----------------------------------------------------------------


@st.composite
def hermitian_forms(draw, ring, n):
    a = draw(matrices(ring, n, n))
    return HermitianForm(a + a.dagger(), 1)


@SETTINGS
@given(st.data())
def test_unchecked_unitary_results_pass_the_checked_constructor(data):
    p = data.draw(st.sampled_from([3, 5]))
    ring = RingDescriptor(p, data.draw(st.integers(0, 1)))
    n = data.draw(st.integers(1, 2))
    module = PauliModule(ring, n)
    word = CliffordUnitary(module, RingMatrix.identity(ring, 2 * n))
    for kind in data.draw(st.lists(st.sampled_from(["E0", "E1"]), max_size=4)):
        word = word @ elementary_unitary(kind, data.draw(hermitian_forms(ring, n)))
    for u in (word, word.inverse(), word @ word.inverse()):
        assert_matrix_normalized(u.matrix, ring, (2 * n, 2 * n))
        assert CliffordUnitary(module, u.matrix) == u
    assert (word @ word.inverse()).matrix == RingMatrix.identity(ring, 2 * n)


# -- the Maslov representative -------------------------------------------------


def test_maslov_representative_matches_checked_reference():
    # S(1) and H = -S(0)^-1 are wrapped on their own and padded by one
    # shared tuple of zeros; the entries are those the checked constructor
    # builds, and the blocks are those of S(1) + H
    rng = random.Random(26)
    for p, d, N in [(3, 0, 1), (5, 0, 2), (7, 0, 4), (10**9 + 7, 0, 3), (3, 1, 1), (5, 1, 2), (7, 1, 2)]:
        ring = RingDescriptor(p, d)
        if d:
            forms = []
            for _ in range(2):
                c = rand_unit_matrix(ring, rng, N)
                D = RingMatrix(ring, [[rng.randrange(1, p) if i == j else 0 for j in range(N)] for i in range(N)])
                forms.append(HermitianForm(c.dagger() @ D @ c, 1))
        else:
            forms = [rand_symmetric_nondeg(p, N, rng) for _ in range(2)]
        loop = loop_from_pair(*forms)
        rep = maslov_index(loop).form.matrix
        n = 4 * N  # loop_from_pair's sequence has five forms, four after truncation
        assert_matrix_normalized(rep, ring, (2 * n, 2 * n))
        S0, S1 = (sturm_tridiagonal(loop.seq.truncated().eval_T(t)).matrix for t in (0, 1))
        assert rep == RingMatrix.block_diag([S1, -inverse(S0)])
