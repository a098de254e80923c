"""Matrix algebra, Smith normal form, kernels and inverses."""

import copy
import pickle
import random
from math import isqrt
from operator import mul

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from sympy import Poly, nextprime, prevprime, symbols

from maslovkit import (
    DivisionByZero,
    DomainError,
    FieldElement,
    HermitianForm,
    LaurentPolynomial,
    RingDescriptor,
    RingMismatch,
    RingMatrix,
    ShapeError,
    UnsupportedRing,
    det,
    inverse,
    kernel_basis,
    loop_from_pair,
    maslov_index,
    serialize,
    smith_normal_form,
    solve_in_span,
)
from maslovkit import linalg
from maslovkit.ring import _ZERO
from maslovkit.linalg import _dagger_rows, _interpolate, _matmul_rows, _rows, _scalars, _sub_rows
from maslovkit.linalg import laurent_divmod, spread

from helpers import check_snf_contract, rand_matrix, rand_unit_matrix, time_limit
from test_serialize import _count_polynomials


F5 = RingDescriptor(5)
F3 = RingDescriptor(3)
F7 = RingDescriptor(7)
L3 = RingDescriptor(3, 1)
L5 = RingDescriptor(5, 1)
L7 = RingDescriptor(7, 1)
BIG = 10**9 + 7


def _snf_draws(ring, rng, draws, max_spread=2):
    """Matrices over ring for check_snf_contract: draws random ones of shapes
    1..5, every other one with 30% of its entries zeroed, then each 0 x n and
    m x 0 shape up to 4."""
    for k in range(draws):
        G = rand_matrix(ring, rng, rng.randrange(1, 6), rng.randrange(1, 6), max_spread)
        if k % 2:
            G = RingMatrix(ring, [[0 if rng.random() < 0.3 else e for e in r] for r in G.entries])
        yield G
    for k in range(5):
        yield RingMatrix.zeros(ring, 0, k)
        yield RingMatrix.zeros(ring, k, 0)


def test_mat_mul_examples():
    rng = random.Random(0)
    A = rand_matrix(L5, rng, 3, 3)
    assert RingMatrix.identity(L5, 3) @ A == A
    q = L5.x(0) + L5.x(0, -1)
    e_plus = RingMatrix(L5, [[1, 0], [q, 1]])
    e_minus = RingMatrix(L5, [[1, 0], [-q, 1]])
    assert e_plus @ e_minus == RingMatrix.identity(L5, 2)
    J = RingMatrix(F5, [[0, 1], [-1, 0]])
    assert J @ J == -RingMatrix.identity(F5, 2)


def test_mat_mul_errors():
    A, B = RingMatrix.identity(F5, 2), RingMatrix.identity(F5, 3)
    with pytest.raises(ShapeError):
        A @ B
    with pytest.raises(TypeError):
        A @ 3
    for combine in (RingMatrix.__matmul__, RingMatrix.__add__, RingMatrix.__sub__):
        with pytest.raises(RingMismatch):
            combine(A, RingMatrix.identity(F3, 2))
    for combine in (RingMatrix.__add__, RingMatrix.__sub__):
        with pytest.raises(ShapeError):
            combine(A, B)
    with pytest.raises(DivisionByZero):
        spread(L5.zero())
    with pytest.raises(DivisionByZero):
        laurent_divmod(L5.x(0), L5.zero())
    with pytest.raises(ShapeError):
        solve_in_span(A, RingMatrix.zeros(F5, 3, 1))
    with pytest.raises(ShapeError):
        inverse(RingMatrix.zeros(F5, 2, 3))


def test_block_assembly_checks_shapes_and_rings():
    A = RingMatrix.identity(F5, 2)
    with pytest.raises(RingMismatch):
        RingMatrix(F5, [[1, L5.x(0)]])
    with pytest.raises(ShapeError):
        RingMatrix(F5, [[1, 2], [3]])
    with pytest.raises(ShapeError):
        RingMatrix.block_diag([])
    with pytest.raises(ShapeError):
        RingMatrix.from_blocks([[A, A], [A]])
    with pytest.raises(ShapeError):
        RingMatrix.from_blocks([[A, RingMatrix.zeros(F5, 1, 2)]])
    # equal row widths, but the block columns do not line up
    z = RingMatrix.zeros
    with pytest.raises(ShapeError):
        RingMatrix.from_blocks([[z(F5, 1, 3), z(F5, 1, 1)], [RingMatrix.identity(F5, 1), z(F5, 1, 3)]])
    assert RingMatrix.from_blocks([[z(F5, 1, 3), z(F5, 1, 2)], [z(F5, 2, 3), A]]).shape == (3, 5)
    with pytest.raises(RingMismatch):
        RingMatrix.from_blocks([[A, RingMatrix.identity(F3, 2)]])
    with pytest.raises(RingMismatch):
        RingMatrix.block_diag([A, RingMatrix.identity(F3, 2)])
    for grid in ([], [[]], [[A], []]):
        with pytest.raises(ShapeError):
            RingMatrix.from_blocks(grid)
    for grid in ([[1]], [[A, 0]], [[0, A]]):
        with pytest.raises(DomainError):
            RingMatrix.from_blocks(grid)
    with pytest.raises(ShapeError):
        RingMatrix._grid(F5, 2, [[1, RingMatrix.identity(F5, 3)]])
    with pytest.raises(RingMismatch):
        RingMatrix._grid(F5, 2, [[1, RingMatrix.identity(F3, 2)]])


def test_dagger_examples():
    m = RingMatrix(L5, [[L5.x(0)]])
    assert m.dagger() == RingMatrix(L5, [[L5.x(0, -1)]])
    rng = random.Random(3)
    A = rand_matrix(L5, rng, 2, 3)
    B = rand_matrix(L5, rng, 3, 2)
    assert A.dagger().dagger() == A
    assert (A @ B).dagger() == B.dagger() @ A.dagger()


def test_snf_identity():
    snf = smith_normal_form(RingMatrix.identity(L3, 3))
    assert snf.U == snf.D == snf.V == RingMatrix.identity(L3, 3)


def test_snf_monic_normalization():
    x = L3.x(0)
    G = RingMatrix(L3, [[x - 1, 0], [0, 1]])
    snf = smith_normal_form(G)
    assert snf.D == RingMatrix(L3, [[1, 0], [0, x + 2]])
    assert snf.U @ G @ snf.V == snf.D


def test_snf_row_example():
    G = RingMatrix(L3, [[1, L3.x(0)]])
    snf = smith_normal_form(G)
    assert snf.D == RingMatrix(L3, [[1, 0]])


def test_snf_random_laurent():
    rng = random.Random(2024)
    for _ in range(100):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        check_snf_contract(rand_matrix(L3, rng, rows, cols, max_spread=3))
    # larger draws, with longer chains of nonzero remainders
    for _ in range(12):
        rows = rng.randrange(5, 7)
        cols = rng.randrange(5, 7)
        check_snf_contract(rand_matrix(L7, rng, rows, cols, max_spread=5))
    # the prime near 10^9, sparse draws, and the shapes with no rows or columns
    for ring in (L3, RingDescriptor(BIG, 1)):
        for G in _snf_draws(ring, rng, 20, max_spread=3):
            check_snf_contract(G)


def test_snf_random_field():
    rng = random.Random(99)
    for _ in range(100):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        check_snf_contract(rand_matrix(F5, rng, rows, cols))
    for _ in range(20):
        rows = rng.randrange(5, 7)
        cols = rng.randrange(5, 7)
        check_snf_contract(rand_matrix(F7, rng, rows, cols))
    for ring in (F5, RingDescriptor(BIG)):
        for G in _snf_draws(ring, rng, 20):
            check_snf_contract(G)


def test_snf_divides_once_per_entry_of_each_cross(monkeypatch):
    # over a field every pivot is a unit: each pass clears its cross with at
    # most one division per entry and skips the divisibility search, so a
    # dense invertible 4 x 4 takes at most (3 + 3) + (2 + 2) + (1 + 1) calls
    G = RingMatrix(F5, [[3, 2, 2, 4], [3, 1, 4, 1], [2, 3, 1, 3], [4, 2, 3, 3]])
    assert all(e for row in G.entries for e in row) and det(G)
    calls, divide = [], linalg._divmod

    def counted(f, g, p):
        calls.append((f, g))
        return divide(f, g, p)

    monkeypatch.setattr(linalg, "_divmod", counted)
    snf = smith_normal_form(G)
    assert snf.D == RingMatrix.identity(F5, 4)
    assert 0 < len(calls) <= 12


def test_snf_builds_no_polynomial_per_entry(monkeypatch):
    # the Smith form, kernels and solves run on the stored rows: once the
    # ring's shared constants exist they build no LaurentPolynomial, over
    # F_p (12 x 12 at p near 10^9) or over F_5[x^+-] (8 x 8, rank 6)
    rng = random.Random(32)
    built = _count_polynomials(monkeypatch)
    for ring, n, k in ((RingDescriptor(BIG), 12, 12), (L5, 8, 6)):
        G = rand_matrix(ring, rng, n, k, max_spread=1) @ rand_matrix(ring, rng, k, n, max_spread=1)
        B = G @ rand_matrix(ring, rng, n, 2)

        def run():
            return smith_normal_form(G).rank, kernel_basis(G).cols, solve_in_span(G, B)

        run()
        built.clear()
        rank, nullity, X = run()
        assert not built
        assert (rank, nullity) == (k, n - k) and G @ X == B


def test_snf_rejects_entries_of_huge_spread():
    x = L5.x(0)
    bound = RingMatrix(L5, [[1 + L5.x(0, 1 << 16)], [1 + x]])
    assert smith_normal_form(bound).rank == 1
    beyond = RingMatrix(L5, [[1 + x], [L5.x(0, -3) + L5.x(0, (1 << 16) - 2)]])
    with pytest.raises(DomainError):
        smith_normal_form(beyond)
    with pytest.raises(DomainError):
        solve_in_span(RingMatrix.identity(L5, 2), beyond)
    # a monomial has spread 0, whatever its exponent
    far = RingMatrix(L5, [[L5.x(0, 10**9)], [1 + x]])
    assert smith_normal_form(far).rank == 1


def test_snf_ring_restrictions():
    with pytest.raises(UnsupportedRing):
        smith_normal_form(RingMatrix.identity(RingDescriptor(5, 2), 2))
    with pytest.raises(UnsupportedRing):
        smith_normal_form(RingMatrix.identity(RingDescriptor(5, 1, True), 2))


def test_divmod_takes_the_snf_ring_gate():
    # division runs on the rings the Smith form runs on: d <= 1, no T
    for ring in (RingDescriptor(5, 2), RingDescriptor(5, 1, True), RingDescriptor(5, 0, True)):
        with pytest.raises(UnsupportedRing, match="d <= 1 and no T"):
            laurent_divmod(ring.one(), ring.one())
    # spread takes the gate too: it would read x1's exponent alone, or T's
    for f in (RingDescriptor(5, 2).x(1, 9) + 1, RingDescriptor(5, 0, True).T(3) + 1):
        with pytest.raises(UnsupportedRing, match="d <= 1 and no T"):
            spread(f)


def test_negative_matrix_sizes_are_rejected():
    for make in (
        lambda: RingMatrix.identity(L5, -3),
        lambda: RingMatrix.scalar(L5, -1, 2),
        lambda: RingMatrix.zeros(L5, -1, 2),
        lambda: RingMatrix.zeros(L5, 2, -1),
        lambda: RingMatrix.zeros(L5, 1.5, 2),
        lambda: RingMatrix.identity(L5, True),
    ):
        with pytest.raises(DomainError, match=">= 0"):
            make()
    assert RingMatrix.identity(L5, 0).shape == (0, 0)
    assert RingMatrix.zeros(L5, 0, 3).shape == (0, 3)
    assert RingMatrix.scalar(L5, 2, 3) == RingMatrix(L5, [[3, 0], [0, 3]])


def test_submatrix_indices_are_checked():
    # an index past the end, a negative one (not read from the end) and a
    # non-int are library errors; the checked picks may repeat and reorder
    for ring in (F5, L5):
        A = RingMatrix(ring, [[1, 2, 3], [4, 0, 1]])
        for rows, cols in (([5], [0]), ([0], [3]), ([-1], [0]), ([0], [-1]), ([0.0], [0]),
                           ([True], [0]), (["0"], [0])):
            with pytest.raises(DomainError, match="submatrix indices"):
                A.submatrix(rows, cols)
        assert A.submatrix([1, 1, 0], [2, 0]) == RingMatrix(ring, [[1, 4], [1, 4], [3, 1]])
        # A[i, j] checks its key by the same rule, and takes a pair only
        for key in (0, (0,), (0, 0, 0), [0, 0], (2, 0), (0, 3), (-1, 0), (0, -1), (0.0, 0),
                    (True, 0), ("0", 0), (None, None)):
            with pytest.raises(DomainError, match="entry indices"):
                A[key]
        assert [A[i, j] for i, j in ((0, 0), (0, 2), (1, 0), (1, 2))] == [1, 3, 4, 1]
        assert A.submatrix([], range(3)).shape == (0, 3)
        assert A.submatrix(range(2), []).shape == (2, 0)


def test_kernel_examples():
    x = L5.x(0)
    G = RingMatrix(L5, [[1, x]])
    K = kernel_basis(G)
    assert (G @ K).is_zero()
    assert K.cols == 1
    expected = RingMatrix(L5, [[x], [-1]])
    assert solve_in_span(K, expected) is not None and solve_in_span(expected, K) is not None
    invertible = rand_unit_matrix(L5, random.Random(5), 2)
    assert kernel_basis(invertible).cols == 0
    zero = RingMatrix.zeros(L5, 1, 2)
    assert kernel_basis(zero).cols == 2


def test_kernel_random_properties():
    rng = random.Random(11)
    for _ in range(40):
        G = rand_matrix(L3, rng, rng.randrange(1, 4), rng.randrange(1, 4), 2)
        K = kernel_basis(G)
        assert (G @ K).is_zero()
        if K.cols:
            assert smith_normal_form(K).rank == K.cols, "full column rank"


def test_is_unit_matrix_examples():
    assert det(RingMatrix(L5, [[L5.x(0)]])).is_unit()
    assert not det(RingMatrix(L5, [[L5.x(0) + 1]])).is_unit()
    assert det(RingMatrix(RingDescriptor(7), [[2]])).is_unit()
    with pytest.raises(ShapeError):
        det(RingMatrix.zeros(F5, 1, 2))


def test_is_unit_matrix_general_d():
    L2d = RingDescriptor(5, 2)
    m = RingMatrix(L2d, [[L2d.x(0) * L2d.x(1, -1), 0], [1, L2d.x(1)]])
    assert det(m).is_unit()
    m2 = RingMatrix(L2d, [[L2d.x(0) + L2d.x(1), 0], [1, L2d.x(1)]])
    assert not det(m2).is_unit()


def test_inverse_round_trip():
    rng = random.Random(17)
    for ring in (F5, L5):
        for _ in range(20):
            n = rng.randrange(1, 4)
            A = rand_unit_matrix(ring, rng, n)
            assert A @ inverse(A) == RingMatrix.identity(ring, n)
            assert inverse(A) @ A == RingMatrix.identity(ring, n)


def test_inverse_general_d_adjugate():
    L2d = RingDescriptor(5, 2)
    A = RingMatrix(L2d, [[L2d.x(0), 1], [0, L2d.x(1, -1)]])
    assert A @ inverse(A) == RingMatrix.identity(L2d, 2)


def test_solve_in_span():
    x = L5.x(0)
    G = RingMatrix(L5, [[1, 0], [x, x + 1]])
    B = G @ RingMatrix(L5, [[2], [x]])
    X = solve_in_span(G, B)
    assert X is not None and G @ X == B
    outside = RingMatrix(L5, [[0], [1]])
    assert solve_in_span(RingMatrix(L5, [[1], [x]]), outside) is None


def test_spread_and_divmod():
    x = L3.x(0)
    f = x ** 3 + x + 1
    g = x + 1
    q, r = laurent_divmod(f, g)
    assert q * g + r == f
    assert r.is_zero() or spread(r) < spread(g)
    q2, r2 = laurent_divmod(L3.x(0, -2) + 1, x + 2)
    assert q2 * (x + 2) + r2 == L3.x(0, -2) + 1
    assert spread(L3.x(0, 7)) == spread(F5.constant(3)) == 0
    assert spread(L3.x(0, -2) + x) == 3


def test_divmod_bounds_the_dividend_spread():
    x = L5.x(0)
    # long division walks the dividend's exponent range: refused at once
    for beyond in (10**7, (1 << 16) + 1):
        with time_limit(2), pytest.raises(DomainError):
            laurent_divmod(L5.x(0, beyond) + 1, x + 1)
    at_bound = L5.x(0, 1 << 16) + 1
    q, r = laurent_divmod(at_bound, x + 1)
    assert q * (x + 1) + r == at_bound
    # a single-term divisor is an exponent shift, whatever the spread
    q, r = laurent_divmod(L5.x(0, 10**7) + 1, L5.x(0, 3))
    assert r.is_zero() and q == L5.x(0, 10**7 - 3) + L5.x(0, -3)


def test_divmod_rejects_mixed_rings():
    f = L5.x(0, 3) + 1
    with pytest.raises(RingMismatch):
        laurent_divmod(f, L7.x(0) + 3)
    with pytest.raises(RingMismatch):
        laurent_divmod(f, F7.constant(3))
    with pytest.raises(RingMismatch):
        laurent_divmod(F5.constant(2), F7.constant(3))


def sympy_poly(f, p):
    """f times the power of x that makes its least exponent 0, as a Poly mod p."""
    x = symbols("x")
    lo = min((sum(e) for e in f.terms), default=0)
    return Poly(sum(c * x ** (sum(e) - lo) for e, c in f.terms.items()), x, modulus=p)


@st.composite
def divmod_cases(draw):
    """(f, g) over F_p or F_p[x^+-]: sparse terms, negative exponents, spans to 10^3.

    In half the draws f is a multiple of g.
    """
    p = draw(st.sampled_from((3, 5, 7, 101, 10**9 + 7)))
    d = draw(st.integers(0, 1))
    ring = RingDescriptor(p, d)

    def poly(min_terms):
        width = draw(st.sampled_from((2, 8, 1000)))
        base = draw(st.integers(-1000, 1000))
        exps = st.integers(base, base + width)
        terms = draw(st.lists(exps, min_size=min_terms, max_size=6))
        coeffs = st.integers(1, p - 1)
        return LaurentPolynomial(ring, {(e,) * d: draw(coeffs) for e in terms})

    f, g = poly(0), poly(1)
    return (f * g if draw(st.booleans()) else f), g


@settings(max_examples=150, deadline=None)
@given(divmod_cases())
def test_divmod_matches_sympy(case):
    f, g = case
    p = f.ring.p
    q, r = laurent_divmod(f, g)
    assert q * g + r == f
    assert r.is_zero() or spread(r) < spread(g)
    assert r.is_zero() == sympy_poly(f, p).rem(sympy_poly(g, p)).is_zero


def test_matrices_without_rows_keep_their_width():
    for ring in (F5, L5):
        flat = RingMatrix.zeros(ring, 0, 3)
        tall = RingMatrix.zeros(ring, 2, 0)
        assert flat.shape == (0, 3)
        assert tall.dagger().shape == tall.transpose().shape == (0, 2)
        assert flat.dagger().shape == flat.transpose().shape == (3, 0)
        assert RingMatrix.identity(ring, 3).submatrix([], range(3)).shape == (0, 3)
        assert (-flat).shape == (flat + flat).shape == flat.scale(2).shape == (0, 3)
        assert RingMatrix.block_diag([flat, flat]).shape == (0, 6)
        empty = RingMatrix.identity(ring, 0)
        assert RingMatrix.from_blocks([[flat, empty]]).shape == (0, 3)
        assert RingMatrix.from_blocks([[tall], [flat.submatrix([], range(0))]]).shape == (2, 0)
        # an empty inner dimension gives the zero matrix of the outer shape
        assert tall @ flat == RingMatrix.zeros(ring, 2, 3)
        assert (flat @ RingMatrix.identity(ring, 3)).shape == (0, 3)
        snf = smith_normal_form(flat)
        assert snf.D.shape == (0, 3) and snf.V == RingMatrix.identity(ring, 3)
        assert kernel_basis(flat) == RingMatrix.identity(ring, 3)
        assert solve_in_span(tall, RingMatrix.zeros(ring, 2, 2)).shape == (0, 2)
    lifted = RingMatrix.zeros(F5, 0, 3).lift_T()
    assert lifted.shape == lifted.eval_T(1).shape == (0, 3)
    # equality and hashing see the width of a matrix with no rows
    for a, b in [
        (RingMatrix.zeros(F5, 0, 3), RingMatrix.zeros(F5, 0, 5)),
        (RingMatrix.zeros(F5, 3, 0).transpose(), RingMatrix.zeros(F5, 0, 0)),
    ]:
        assert a != b and hash(a) != hash(b)


def test_lift_T_refuses_a_ring_with_T():
    # every shape is refused up front, with no entry to read
    for ring in (RingDescriptor(5, 0, True), RingDescriptor(5, 1, True)):
        shapes = (RingMatrix.zeros(ring, 0, 2), RingMatrix.zeros(ring, 1, 0),
                  RingMatrix.identity(ring, 2))
        for M in shapes:
            with pytest.raises(DomainError, match="matrix already lives in a ring with T"):
                M.lift_T()


# a changed shared constant spoils every later example, so a failure is
# reported as found, not shrunk
@settings(max_examples=40, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    st.sampled_from((L5, RingDescriptor(5, 2), RingDescriptor(5, 1, True),
                     RingDescriptor(5, 2, True))),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
def test_no_stored_terms_dict_is_changed(ring, n, rng):
    # views, stored rows, results and the shared zero share term dicts, so no
    # operation may change one: the stored rows and entries of every input,
    # and the rings' constants, are as they were after all of them ran
    base = ring.drop_T()
    a, b = rand_unit_matrix(base, rng, n), rand_unit_matrix(base, rng, n)
    q0 = HermitianForm(a.dagger() @ a, 1)
    q1 = HermitianForm(b.dagger() @ RingMatrix.scalar(base, n, 2) @ b, 1)
    A, B = rand_matrix(ring, rng, n, n), rand_matrix(ring, rng, n, n)
    inputs = (A, B, a, b, q0.matrix, q1.matrix)

    def snapshot():
        constants = [(r.zero().terms, r.one().terms) for r in (ring, base)]
        return copy.deepcopy([(_rows(M), [[e.terms for e in r] for r in M.entries]) for M in inputs]
                             + [constants, _ZERO])

    before = snapshot()
    loop = loop_from_pair(q0, q1)
    # the ops that build rows from the rows of another matrix come before
    # the ones that compute on those rows, so that a changed dict shows first
    ops = [lambda: A @ B, lambda: A + B, lambda: A - B, lambda: -A, lambda: A.scale(3),
           lambda: A.scale(ring.x(0)), A.dagger, a.lift_T, lambda: serialize.encode_loop(loop),
           lambda: loop.direct_sum(loop), lambda: det(A),
           lambda: inverse(a.lift_T() if ring.has_T else a), lambda: maslov_index(loop),
           lambda: maslov_index(loop.direct_sum(loop))]
    if ring.has_T:
        ops += [lambda t=t: A.eval_T(t) for t in (0, 1, 2)]
    else:
        ops += [A.lift_T, lambda: A.lift_T().eval_T(1), lambda: A.lift_T() @ A.lift_T()]
        if ring.spatial_vars == 1:
            ops.append(lambda: smith_normal_form(A))
    for k, op in enumerate(ops):  # each result read as entries too, and checked at once
        result = op()
        if isinstance(result, RingMatrix):
            result.entries
        unchanged = snapshot() == before and _ZERO == {}  # a bool: no diff of the rows
        assert unchanged, f"op {k} changed a stored terms dict"


def test_snf_divisibility_repair():
    # coprime diagonal entries: the Smith form must move the product onto one
    # entry, which only the divisibility repair (adding an offending row) does
    x = L5.x(0)
    G = RingMatrix(L5, [[1 + x, 0], [0, 2 + x]])
    snf = check_snf_contract(G)
    assert snf.D == RingMatrix(L5, [[1, 0], [0, x * x + 3 * x + 2]])
    G3 = RingMatrix(L5, [[1 + x, 0, 0], [0, 1 - x, 0], [0, 0, 2 + x]])
    snf = check_snf_contract(G3)
    # the product (1 + x)(1 - x)(2 + x), normalized to leading coefficient 1
    cubic = x * x * x + 2 * x * x + 4 * x + 3
    assert cubic == -(1 + x) * (1 - x) * (2 + x)
    assert snf.D == RingMatrix(L5, [[1, 0, 0], [0, 1, 0], [0, 0, cubic]])


def _from_entries(ring, rows, cols):
    """The matrix the public constructor builds from polynomial rows, cols wide."""
    return RingMatrix(ring, rows) if rows else RingMatrix.zeros(ring, 0, cols)


def _stored_of(ring, rows):
    """The rows a matrix over ring stores for rows of polynomials: their
    residues over F_p, their term dicts elsewhere."""
    if ring.nexponents:
        return [[e.terms for e in row] for row in rows]
    return [[e.terms.get((), 0) for e in row] for row in rows]


def _assert_entries(M, ring, rows, shape):
    """M is the shape x matrix over ring of the polynomial rows: as stored,
    as read and as built."""
    assert M.ring == ring and M.shape == shape
    assert _rows(M) == _stored_of(ring, rows)
    assert [list(row) for row in M.entries] == rows
    assert all(e.ring == ring for row in M.entries for e in row)
    expected = _from_entries(ring, rows, shape[1])
    assert M == expected and hash(M) == hash(expected) and repr(M) == repr(expected)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from((F5, RingDescriptor(10**9 + 7), RingDescriptor(7, 0, True), L5,
                     RingDescriptor(5, 2), RingDescriptor(5, 2, True))),
    st.integers(0, 3),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
def test_rows_round_trip(ring, rows, cols, rng):
    # a matrix stores the rows _rows copies: int residues over F_p, the
    # entries' term dicts elsewhere, which their views share; at T = 0 or 1
    # a matrix over R[T] gives the rows of its evaluation.  Every public
    # operation on the stored rows equals the same operation on the
    # polynomial entries, shapes with no rows or no columns included, their
    # cols kept, and equal matrices hash equal
    def draw(m, n):
        return rand_matrix(ring, rng, m, n) if m else RingMatrix.zeros(ring, 0, n)

    def shares_terms(M):  # each nonzero entry of the view holds the stored dict
        return all(e.terms is v for r, s in zip(M.entries, _rows(M)) for e, v in zip(r, s) if v)

    A, B, C = draw(rows, cols), draw(rows, cols), draw(cols, 2)
    got = _rows(A)
    assert got == _stored_of(ring, A.entries)
    if ring.nexponents:
        assert all(type(v) is dict for row in got for v in row) and shares_terms(A)
    else:
        assert all(type(v) is int and 0 <= v < ring.p for row in got for v in row)
    if got and got[0]:  # a fresh copy: elimination writes to its rows
        got[0][0] = None
        assert _rows(A)[0][0] is not None
    D = RingMatrix._unchecked(ring, _rows(A), A.cols)
    assert D == A and D.shape == A.shape and hash(D) == hash(A)
    assert D.entries == A.entries and (not ring.nexponents or shares_terms(D))
    if ring.has_T:
        for t in (0, 1, 2, ring.p - 1, ring.p):
            D = RingMatrix._unchecked(ring.drop_T(), _rows(A, t), A.cols)
            assert D == A.eval_T(t) and D.shape == A.shape
    a, b, c = ([list(row) for row in M.entries] for M in (A, B, C))
    m, n = A.shape
    assert A.is_zero() == all(not e for row in a for e in row)
    assert all(A[i, j] == a[i][j] for i in range(m) for j in range(n))
    _assert_entries(-A, ring, [[-e for e in row] for row in a], (m, n))
    _assert_entries(A + B, ring, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)], (m, n))
    _assert_entries(A - B, ring, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)], (m, n))
    for k in (0, 3, ring.p - 1, FieldElement(2, ring.p), ring.constant(2)):
        _assert_entries(A.scale(k), ring, [[k * e for e in row] for row in a], (m, n))
    columns = list(zip(*a)) if a else [()] * n
    _assert_entries(A.transpose(), ring, [list(col) for col in columns], (n, m))
    _assert_entries(A.dagger(), ring, [[e.involute() for e in col] for col in columns], (n, m))
    product = [[sum(map(mul, row, col), ring.zero()) for col in (zip(*c) if c else [()] * 2)]
               for row in a]
    _assert_entries(A @ C, ring, product, (m, 2))
    picks = ([rng.randrange(m) for _ in range(3 * bool(m))],
             [rng.randrange(n) for _ in range(2 * bool(n))])
    picked = [[a[i][j] for j in picks[1]] for i in picks[0]]
    _assert_entries(A.submatrix(*picks), ring, picked, tuple(map(len, picks)))
    beside = RingMatrix.from_blocks([[A, B]])
    _assert_entries(beside, ring, [r + s for r, s in zip(a, b)], (m, 2 * n))
    stacked = RingMatrix.from_blocks([[A], [B]])
    _assert_entries(stacked, ring, a + b, (2 * m, n))
    diagonal = [r + [ring.zero()] * n for r in a] + [[ring.zero()] * n + s for s in b]
    _assert_entries(RingMatrix.block_diag([A, B]), ring, diagonal, (2 * m, 2 * n))
    ident = [[ring.one() if i == j else ring.zero() for j in range(m)] for i in range(m)]
    _assert_entries(RingMatrix.identity(ring, m), ring, ident, (m, m))
    zeros = [[ring.zero()] * n for _ in range(m)]
    _assert_entries(RingMatrix.zeros(ring, m, n), ring, zeros, (m, n))
    thrice = [[3 * e for e in row] for row in ident]
    _assert_entries(RingMatrix.scalar(ring, m, 3), ring, thrice, (m, m))
    if ring.has_T:
        for t in (0, 1, 2):
            drop = ring.drop_T()
            _assert_entries(A.eval_T(t), drop, [[e.eval_T(t) for e in row] for row in a], (m, n))
        with pytest.raises(DomainError):
            A.lift_T()
    else:
        _assert_entries(A.lift_T(), ring.with_T(), [[e.lift_T() for e in row] for row in a], (m, n))
    if m == n:
        assert det(A) == det(_from_entries(ring, a, n))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((F5, RingDescriptor(10**9 + 7), L5, RingDescriptor(5, 2))),
    st.integers(0, 4),
    st.integers(0, 4),
    st.randoms(use_true_random=False),
)
def test_interpolate_round_trip(ring, rows, cols, rng):
    # the matrix v0 + T (v1 - v0) built on rows gives back its rows at T = 0
    # and T = 1, and equals A + T (B - A) built with public operations
    def draw():
        if not rows:
            return RingMatrix.zeros(ring, 0, cols)
        M = rand_matrix(ring, rng, rows, cols)
        if rng.random() < 0.3:  # large residues and repeated entries
            value = ring.constant(rng.choice((1, ring.p - 1)))
            M = RingMatrix(ring, [[value if rng.random() < 0.5 else e for e in row] for row in M.entries])
        return M

    A = draw()
    B = A if rng.random() < 0.2 else draw()
    r0, r1 = _rows(A), _rows(B)
    ring_T = ring.with_T()
    T = RingMatrix.scalar(ring_T, rows, ring_T.T())
    eager = A.lift_T() + T @ (B - A).lift_T()

    def interpolated():
        return _interpolate(ring_T, [list(r) for r in r0], [list(r) for r in r1], cols)

    # the kept rows come back as copies, and reading them builds nothing
    M = interpolated()
    assert M.ring is ring_T and M.shape == A.shape
    for t, want in ((0, r0), (1, r1), (ring.p, r0), (ring.p + 1, r1)):
        got = _rows(M, t)
        assert got == want
        if got and got[0]:
            got[0][0] = None
    assert _rows(M, 0) == r0 and _rows(M, 1) == r1 and M._stored_rows is None
    # copies and pickles keep the rows, built or not
    for source in (interpolated(), M):
        for twin in (copy.copy(source), copy.deepcopy(source), pickle.loads(pickle.dumps(source))):
            assert _rows(twin, 0) == r0 and _rows(twin, 1) == r1
            assert twin == eager and twin.shape == eager.shape
    # any other read builds the polynomial rows once, equal to the eager ones
    assert M == eager and hash(M) == hash(eager) and repr(M) == repr(eager)
    assert M.entries is M.entries and M.entries == eager.entries
    reads = (
        lambda X: X.dagger(), lambda X: X.transpose(), lambda X: -X, lambda X: X + X,
        lambda X: X.submatrix(range(X.rows), range(X.cols)), lambda X: X.is_zero(),
        lambda X: [X[i, j] for i in range(X.rows) for j in range(X.cols)],
        lambda X: RingMatrix.from_blocks([[X, X]]), lambda X: _rows(X),
    )
    for read in reads:
        assert read(interpolated()) == read(eager)
    # at every T = t, on the kept rows or on the built ones, as eval_T gives it
    for t in (0, 1, 2, ring.p - 1):
        want = eager.eval_T(t)
        for X in (interpolated(), M, eager):
            assert X.eval_T(t) == want and X.eval_T(t).shape == want.shape
            assert RingMatrix._unchecked(ring, _rows(X, t), cols) == want


def test_rows_at_any_T_over_a_field():
    # over F_p[T] the int rows at T = t are the polynomial's value there
    F5T = RingDescriptor(5, 0, True)
    T = F5T.T()
    A = RingMatrix(F5T, [[T + 1, 3 * T ** 2 + T], [0, 2]])
    for t, want in ((0, [[1, 0], [0, 2]]), (1, [[2, 4], [0, 2]]), (2, [[3, 4], [0, 2]]),
                    (4, [[0, 2], [0, 2]]), (7, [[3, 4], [0, 2]])):
        assert _rows(A, t) == want
        assert A.eval_T(t) == RingMatrix(F5, want)


def test_wrap_over_field_matches_constructor():
    # over F_p _unchecked stores the int rows as given, and the matrix equals
    # the one RingMatrix builds entry by entry; its entries are built once,
    # on first read, and the entries of one residue share one polynomial
    rng = random.Random(12)
    for p in (5, 10**9 + 7):
        ring = RingDescriptor(p)
        for rows, cols in ((0, 3), (1, 1), (3, 4), (6, 6)):
            grid = [[rng.choice((0, 1, 2, p - 1)) for _ in range(cols)] for _ in range(rows)]
            A = RingMatrix._unchecked(ring, grid, cols)
            B = RingMatrix(ring, grid) if rows else RingMatrix.zeros(ring, 0, cols)
            assert A == B and A.shape == B.shape and hash(A) == hash(B)
            assert _rows(A) == _rows(B) == grid
            assert A.entries is A.entries and A.entries == B.entries
            shared = {}
            for row, entries in zip(grid, A.entries):
                for v, e in zip(row, entries):
                    assert e == ring.constant(v) and shared.setdefault(v, e) is e
            with pytest.raises(AttributeError):
                A.entries = B.entries


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        (RingDescriptor(5, 1), RingDescriptor(7, 2), RingDescriptor(5, 3), RingDescriptor(5, 1, True))
    ),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 4),
    st.randoms(use_true_random=False),
)
def test_matmul_rows_matches_dense_product(ring, m, k, n, rng):
    # monomial-sparse entries, with an all-zero row of A and column of B
    # whenever there is one to clear, against the product entry by entry
    def sparse(rows, cols):
        def entry():
            if rng.random() < 0.5:
                return ring.zero()
            exps = [rng.randrange(-2, 3) for _ in range(ring.spatial_vars)]
            return ring.monomial(exps + [rng.randrange(3)] * ring.has_T, rng.randrange(1, ring.p))

        return [[entry() for _ in range(cols)] for _ in range(rows)]

    A, B = sparse(m, k), sparse(k, n)
    if m and k:
        A[rng.randrange(m)] = [ring.zero()] * k
    if k and n:
        j = rng.randrange(n)
        for row in B:
            row[j] = ring.zero()
    got = _matmul_rows(ring, _stored_of(ring, A), _stored_of(ring, B), n)
    assert got == _stored_of(ring, _dense_product(A, B, n, ring.zero()))


def _dense_product(A, B, n, zero):
    """The rows of A B entry by entry, from the rows of A and of B (n wide)."""
    columns = list(zip(*B)) if B else [()] * n
    return [[sum(map(mul, row, col), zero) for col in columns] for row in A]


def test_matmul_rows_int_rows_match_dense_product():
    # int rows over F_p on both sides of the packing gate (m k n against
    # _PACK_MIN) and of each slot width: for the drawn k, primes whose
    # k (p - 1)^2 lies just below and just above 2^16, 2^32 and 2^64.  A's
    # first row and B's first column are all p - 1, so one entry sums to
    # exactly k (p - 1)^2; A's last row and B's last column are all zero
    rng = random.Random(16)
    gate = linalg._PACK_MIN
    shapes = [(0, 5, 7), (5, 0, 7), (7, 5, 0), (1, 1, 1), (4, 8, 4), (1, 2, gate // 2 - 1),
              (1, 2, gate // 2), (6, 12, 6), (12, 24, 12), (24, 48, 24)]
    for m, k, n in shapes:
        primes = [3, 13, 10**9 + 7]
        for bits in (16, 32, 64):
            below = prevprime(isqrt((2**bits - 1) // max(k, 1)) + 2)
            primes += [below, nextprime(below)]
        for p in primes:
            ring = RingDescriptor(p)
            A = [[rng.randrange(p) for _ in range(k)] for _ in range(m)]
            B = [[rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(n)] for _ in range(k)]
            if m and k:
                A[0], A[-1] = [p - 1] * k, [0] * k
            for row in B if n else ():
                row[0], row[-1] = p - 1, 0
            got = _matmul_rows(ring, A, B, n)
            want = [[v % p for v in row] for row in _dense_product(A, B, n, 0)]
            assert got == want and all(len(row) == n for row in got)


@st.composite
def half_zero_matrix(draw, ring, m, n):
    """An m x n matrix over ring of which at least half the entries are zero."""
    spatial = st.lists(st.integers(-2, 2), min_size=ring.spatial_vars, max_size=ring.spatial_vars)
    term = st.tuples(spatial, st.integers(0, 2), st.integers(1, ring.p - 1))
    nonzero = draw(st.permutations(range(m * n)))[: draw(st.integers(0, m * n // 2))]
    grid = [[ring.zero()] * n for _ in range(m)]
    for k in nonzero:
        drawn = draw(st.lists(term, min_size=1, max_size=3))
        terms = {tuple(e) + (t,) * ring.has_T: c for e, t, c in drawn}
        grid[k // n][k % n] = LaurentPolynomial(ring, terms)
    return RingMatrix(ring, grid)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_row_helpers_match_entrywise_operations(data):
    # the row helpers and the public operations they serve against the
    # polynomial operations entry by entry, on mostly zero matrices; on
    # term-dict rows a zero entry is passed through as a zero that no
    # function ran on, and no input entry's terms change.  Over F_p the rows
    # are ints
    ring = data.draw(st.sampled_from((RingDescriptor(5, 0, True), RingDescriptor(5, 1, True),
                                      RingDescriptor(5, 2, True), RingDescriptor(5, 1),
                                      RingDescriptor(5, 2), F5, RingDescriptor(10**9 + 7))))
    m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    A, B = data.draw(half_zero_matrix(ring, m, n)), data.draw(half_zero_matrix(ring, m, n))
    before = [[dict(e.terms) for e in row] for M in (A, B) for row in M.entries]
    term_rows = ring.nexponents > 0
    zero = _scalars(ring)[0]
    for t in (0, 1) if ring.has_T else ():
        got = _rows(A, t)
        drop = ring.drop_T()
        assert got == _stored_of(drop, [[e.eval_T(t) for e in row] for row in A.entries])
        if ring.spatial_vars:  # over F_p[T] the rows hold ints
            assert all(g is zero for row, r in zip(got, A.entries) for g, e in zip(row, r) if not e)
    want = _stored_of(ring, [[e.involute() for e in col] for col in zip(*A.entries)])
    for got in (_dagger_rows(ring, _rows(A)), A.dagger()._stored):
        assert [list(row) for row in got] == want
        pairs = zip((e for row in got for e in row), (f for col in zip(*_rows(A)) for f in col))
        assert all(e is f for e, f in pairs if not f) or not term_rows
    assert A.dagger().shape == (n, m)
    diff = [[x - y for x, y in zip(a, b)] for a, b in zip(A.entries, B.entries)]
    assert _sub_rows(ring, _rows(A), _rows(B)) == _stored_of(ring, diff)
    assert [list(row) for row in (A - B).entries] == diff
    neg = _scalars(ring)[2]
    negated = [[-e for e in row] for row in A.entries]
    assert [[neg(e) for e in row] for row in _rows(A)] == _stored_of(ring, negated)
    assert [list(row) for row in (-A).entries] == negated
    assert all(neg(e) is e for row in _rows(A) for e in row if not e) or not term_rows
    assert [[dict(e.terms) for e in row] for M in (A, B) for row in M.entries] == before
    assert zero is _scalars(ring)[0] and not zero and (zero == {} if term_rows else zero == 0)
