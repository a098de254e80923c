"""Matrix algebra, Smith normal form, kernels and inverses."""

import random

import pytest

from maslovkit import (
    RingDescriptor,
    RingMismatch,
    RingMatrix,
    ShapeError,
    UnsupportedRing,
    inverse,
    is_unit_matrix,
    kernel_basis,
    smith_normal_form,
    solve_in_span,
    span_contains,
    spans_equal,
)
from maslovkit.linalg import laurent_divmod, spread

from helpers import check_snf_contract, rand_matrix, rand_unit_matrix


F5 = RingDescriptor(5)
F3 = RingDescriptor(3)
L3 = RingDescriptor(3, 1)
L5 = RingDescriptor(5, 1)


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
    with pytest.raises(ShapeError):
        RingMatrix.identity(F5, 2) @ RingMatrix.identity(F5, 3)


def test_block_assembly_checks_shapes_and_rings():
    A = RingMatrix.identity(F5, 2)
    with pytest.raises(ShapeError):
        RingMatrix.from_blocks([[A, A], [A]])
    with pytest.raises(ShapeError):
        RingMatrix.from_blocks([[A, RingMatrix.zeros(F5, 1, 2)]])
    with pytest.raises(RingMismatch):
        RingMatrix.from_blocks([[A, RingMatrix.identity(F3, 2)]])
    with pytest.raises(RingMismatch):
        RingMatrix.block_diag([A, RingMatrix.identity(F3, 2)])


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


def test_snf_random_field():
    rng = random.Random(99)
    for _ in range(100):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        check_snf_contract(rand_matrix(F5, rng, rows, cols))


def test_snf_ring_restrictions():
    with pytest.raises(UnsupportedRing):
        smith_normal_form(RingMatrix.identity(RingDescriptor(5, 2), 2))
    with pytest.raises(UnsupportedRing):
        smith_normal_form(RingMatrix.identity(RingDescriptor(5, 1, True), 2))


def test_kernel_examples():
    x = L5.x(0)
    G = RingMatrix(L5, [[1, x]])
    K = kernel_basis(G)
    assert (G @ K).is_zero()
    assert K.cols == 1
    expected = RingMatrix(L5, [[x], [-1]])
    assert spans_equal(K, expected)
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
    assert is_unit_matrix(RingMatrix(L5, [[L5.x(0)]]))
    assert not is_unit_matrix(RingMatrix(L5, [[L5.x(0) + 1]]))
    assert is_unit_matrix(RingMatrix(RingDescriptor(7), [[2]]))
    with pytest.raises(ShapeError):
        is_unit_matrix(RingMatrix.zeros(F5, 1, 2))


def test_is_unit_matrix_general_d():
    L2d = RingDescriptor(5, 2)
    m = RingMatrix(L2d, [[L2d.x(0) * L2d.x(1, -1), 0], [1, L2d.x(1)]])
    assert is_unit_matrix(m)
    m2 = RingMatrix(L2d, [[L2d.x(0) + L2d.x(1), 0], [1, L2d.x(1)]])
    assert not is_unit_matrix(m2)


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
    assert span_contains(G, B)


def test_spread_and_divmod():
    x = L3.x(0)
    f = x ** 3 + x + 1
    g = x + 1
    q, r = laurent_divmod(f, g)
    assert q * g + r == f
    assert r.is_zero() or spread(r) < spread(g)
    q2, r2 = laurent_divmod(L3.x(0, -2) + 1, x + 2)
    assert q2 * (x + 2) + r2 == L3.x(0, -2) + 1
