"""Pauli modules, stabilizer checks and Clifford unitaries."""

import random

import pytest

from maslovkit import (
    CliffordUnitary,
    DomainError,
    FormError,
    HermitianForm,
    NotAUnit,
    PauliModule,
    RingDescriptor,
    RingMatrix,
    RingMismatch,
    ShapeError,
    StabilizerModule,
    UnsupportedRing,
    apply,
    commutation_phase,
    diag_identity_decomposition,
    elementary_unitary,
    hyperbolic_unitary,
    inverse,
    is_isotropic,
    is_transversal,
    lagrangian_report,
    modules_equal,
    pairing,
)
from maslovkit.fixtures import cluster_module, disentangling_circuit, product_state_module

from helpers import rand_clifford_word, rand_hermitian, rand_matrix, rand_unit_matrix


F5 = RingDescriptor(5)
L5 = RingDescriptor(5, 1)


def col(ring, entries):
    return RingMatrix(ring, [[e] for e in entries])


def test_pairing_examples():
    assert pairing(col(F5, [1, 0]), col(F5, [0, 1])) == F5.one()
    v = col(L5, [L5.x(0) + L5.x(0, -1), 1])
    assert pairing(v, v).is_zero()
    assert pairing(col(L5, [L5.x(0), 0]), col(L5, [0, L5.x(0)])) == L5.one()


def test_pairing_anti_hermitian():
    rng = random.Random(5)
    for _ in range(40):
        v = rand_matrix(L5, rng, 4, 1)
        w = rand_matrix(L5, rng, 4, 1)
        assert pairing(v, w) + pairing(w, v).involute() == L5.zero()


def test_commutation_phase_examples():
    assert commutation_phase(col(F5, [1, 0]), col(F5, [0, 1])) == 1
    assert commutation_phase(col(F5, [1, 0]), col(F5, [1, 0])) == 0
    # X at site 0 against Z at site 1: phase is the augmentation of x
    assert commutation_phase(col(L5, [1, 0]), col(L5, [0, L5.x(0)])) == 0
    with pytest.raises(DomainError):
        ring_t = RingDescriptor(5, 0, True)
        commutation_phase(col(ring_t, [1, 0]), col(ring_t, [0, 1]))


def test_is_isotropic_examples():
    module = PauliModule(L5, 1)
    assert is_isotropic(module.standard_lagrangian())
    assert is_isotropic(cluster_module())
    full = StabilizerModule(module, RingMatrix.identity(L5, 2))
    assert not is_isotropic(full)


def test_is_lagrangian_examples():
    module = PauliModule(L5, 1)
    assert lagrangian_report(module.standard_lagrangian())["lagrangian"]
    assert lagrangian_report(cluster_module())["lagrangian"]
    bad = StabilizerModule(module, col(L5, [L5.x(0) - 1, 0]))
    report = lagrangian_report(bad)
    assert report["isotropic"] and not report["summand"] and not report["lagrangian"]


def test_is_lagrangian_unsupported_ring():
    ring = RingDescriptor(5, 2)
    module = PauliModule(ring, 1)
    with pytest.raises(UnsupportedRing):
        lagrangian_report(module.standard_lagrangian())["lagrangian"]
    # isotropy alone stays available for every d
    assert is_isotropic(module.standard_lagrangian())


def test_elementary_unitary_examples():
    q = HermitianForm(RingMatrix(L5, [[L5.x(0) + L5.x(0, -1)]]), 1)
    e1 = elementary_unitary("E1", q)
    assert e1.matrix == RingMatrix(L5, [[1, L5.x(0) + L5.x(0, -1)], [0, 1]])
    zero = HermitianForm(RingMatrix.zeros(L5, 2, 2), 1)
    assert elementary_unitary("E0", zero).matrix == RingMatrix.identity(L5, 4)
    rng = random.Random(8)
    qa = rand_hermitian(L5, 2, rng)
    qb = rand_hermitian(L5, 2, rng)
    lhs = elementary_unitary("E0", qa) @ elementary_unitary("E0", qb)
    rhs = elementary_unitary("E0", HermitianForm(qa.matrix + qb.matrix, 1))
    assert lhs.matrix == rhs.matrix


def test_elementary_unitary_rejects_non_hermitian():
    with pytest.raises(FormError):
        elementary_unitary("E0", HermitianForm(RingMatrix(L5, [[L5.x(0)]]), 1))
    with pytest.raises(DomainError):
        q = HermitianForm(RingMatrix.identity(L5, 1), 1)
        elementary_unitary("E7", q)


def test_hyperbolic_unitary_examples():
    shift = hyperbolic_unitary(RingMatrix(L5, [[L5.x(0)]]))
    assert shift.matrix == RingMatrix(L5, [[L5.x(0), 0], [0, L5.x(0)]])
    ident = hyperbolic_unitary(RingMatrix.identity(L5, 2))
    assert ident.matrix == RingMatrix.identity(L5, 4)
    scale = hyperbolic_unitary(RingMatrix(F5, [[2]]))
    assert scale.matrix == RingMatrix(F5, [[2, 0], [0, 3]])
    with pytest.raises(NotAUnit):
        hyperbolic_unitary(RingMatrix(L5, [[L5.x(0) + 1]]))


def test_apply_examples():
    module = PauliModule(L5, 1)
    base = module.standard_lagrangian()
    ident = CliffordUnitary(module, RingMatrix.identity(L5, 2))
    assert modules_equal(apply(ident, base), base)
    q = HermitianForm(RingMatrix(L5, [[L5.x(0) + L5.x(0, -1)]]), 1)
    moved = apply(elementary_unitary("E0", q), base)
    assert modules_equal(
        moved, StabilizerModule(module, col(L5, [1, L5.x(0) + L5.x(0, -1)]))
    )
    dual = module.dual_lagrangian()
    assert modules_equal(apply(elementary_unitary("E1", q), dual), cluster_module())


def test_cluster_circuit_fixture():
    state = product_state_module()
    for gate in disentangling_circuit():
        state = apply(gate, state)
    assert modules_equal(state, cluster_module())
    assert lagrangian_report(cluster_module())["lagrangian"]


def test_is_transversal_examples():
    module = PauliModule(L5, 1)
    L = module.standard_lagrangian()
    Lstar = module.dual_lagrangian()
    assert is_transversal(L, Lstar)
    assert not is_transversal(L, L)
    q = HermitianForm(RingMatrix(F5, [[1]]), 1)
    f5_module = PauliModule(F5, 1)
    graph = apply(elementary_unitary("E0", q), f5_module.standard_lagrangian())
    assert is_transversal(graph, f5_module.standard_lagrangian())


def test_unitarity_enforced_on_construction():
    module = PauliModule(F5, 1)
    with pytest.raises(FormError):
        CliffordUnitary(module, RingMatrix(F5, [[1, 1], [1, 1]]))
    rng = random.Random(21)
    lam = module.lambda_minus()
    for _ in range(10):
        u = rand_clifford_word(F5, rng, 1, length=4)
        assert u.matrix.dagger() @ lam @ u.matrix == lam


def test_apply_preserves_structure():
    rng = random.Random(77)
    for ring in (F5, L5):
        module = PauliModule(ring, 2)
        base = module.standard_lagrangian()
        for _ in range(20):
            u = rand_clifford_word(ring, rng, 2, length=3)
            image = apply(u, base)
            assert is_isotropic(image)
            assert lagrangian_report(image)["lagrangian"]


def test_diag_identity_examples():
    for a, expected in (
        (RingMatrix(F5, [[1]]), RingMatrix.identity(F5, 2)),
        (
            RingMatrix(L5, [[L5.x(0)]]),
            RingMatrix(L5, [[L5.x(0), 0], [0, L5.x(0, -1)]]),
        ),
        (RingMatrix(RingDescriptor(7), [[2]]), RingMatrix(RingDescriptor(7), [[2, 0], [0, 4]])),
    ):
        factors = diag_identity_decomposition(a)
        assert len(factors) == 6
        product = factors[0]
        for f in factors[1:]:
            product = product @ f
        assert product == expected


def test_diag_identity_random_blocks():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randrange(1, 3)
        a = rand_unit_matrix(L5, rng, n)
        factors = diag_identity_decomposition(a)
        product = factors[0]
        for f in factors[1:]:
            product = product @ f
        assert product == RingMatrix.block_diag([a, inverse(a)])
    with pytest.raises(NotAUnit):
        diag_identity_decomposition(RingMatrix(L5, [[L5.x(0) + 1]]))


def test_modules_equal_redundant_generators():
    clus = cluster_module()
    single = StabilizerModule(
        PauliModule(L5, 1), col(L5, [L5.x(0) + L5.x(0, -1), 1])
    )
    assert modules_equal(clus, single)
    assert clus.generators.cols == 2, "redundant generator is kept"


def test_zero_module_keeps_its_shape():
    # every generator is zero: the module keeps a 2N x 0 generator matrix
    for ring in (F5, L5):
        module = PauliModule(ring, 1)
        zero = StabilizerModule(module, RingMatrix.zeros(ring, 2, 2))
        assert zero.generators.shape == (2, 0)
        assert is_isotropic(zero)
        assert lagrangian_report(zero) == {
            "isotropic": True,
            "coisotropic": False,
            "summand": True,
            "lagrangian": False,
        }
        L = module.standard_lagrangian()
        assert not is_transversal(zero, L)
        assert modules_equal(zero, zero)
        assert not modules_equal(zero, L) and not modules_equal(L, zero)


F5_1, F5_2, L5_1 = PauliModule(F5, 1), PauliModule(F5, 2), PauliModule(L5, 1)
F5_L, F5_2L = F5_1.standard_lagrangian(), F5_2.standard_lagrangian()


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: StabilizerModule(F5_1, col(L5, [1, 0])), RingMismatch),
        (lambda: CliffordUnitary(F5_1, RingMatrix.identity(L5, 2)), RingMismatch),
        (lambda: CliffordUnitary(F5_1, RingMatrix.identity(F5, 4)), ShapeError),
        (
            lambda: CliffordUnitary(F5_1, RingMatrix.identity(F5, 2))
            @ CliffordUnitary(F5_2, RingMatrix.identity(F5, 4)),
            RingMismatch,
        ),
        (lambda: pairing(col(F5, [1, 0]), col(L5, [1, 0])), RingMismatch),
        (lambda: pairing(col(F5, [1, 0, 0]), col(F5, [1, 0, 0])), ShapeError),
        (lambda: pairing(col(F5, [1, 0]), col(F5, [1, 0, 0, 0])), ShapeError),
        (lambda: is_transversal(F5_L, L5_1.dual_lagrangian()), RingMismatch),
        (lambda: modules_equal(F5_L, F5_2L), RingMismatch),
        (lambda: hyperbolic_unitary(RingMatrix.zeros(F5, 1, 2)), ShapeError),
        (
            lambda: apply(
                CliffordUnitary(F5_1, RingMatrix.identity(F5, 2)), L5_1.standard_lagrangian()
            ),
            RingMismatch,
        ),
        (lambda: diag_identity_decomposition(RingMatrix.zeros(L5, 2, 1)), ShapeError),
        (lambda: PauliModule(5, 1), DomainError),
        (lambda: PauliModule(None, 1), DomainError),
        (lambda: CliffordUnitary(F5_1, RingMatrix.identity(F5, 2)) @ 3, TypeError),
        (lambda: StabilizerModule(None, col(F5, [1, 0])), DomainError),
        (lambda: StabilizerModule(F5_1, [[1], [0]]), DomainError),
        (lambda: CliffordUnitary(None, RingMatrix.identity(F5, 2)), DomainError),
        (lambda: CliffordUnitary(F5_1, [[1, 0], [0, 1]]), DomainError),
    ],
    ids=[
        "module-ring", "unitary-ring", "unitary-shape", "product-ambient", "pairing-rings",
        "pairing-odd-rows", "pairing-row-counts", "transversal-ambient", "equal-ambient",
        "hyperbolic-square", "apply-ambient", "decomposition-square", "module-int-ring",
        "module-no-ring", "product-by-int", "stabilizer-no-module", "stabilizer-list",
        "unitary-no-module", "unitary-list",
    ],
)
def test_ring_and_shape_checks(build, error):
    with pytest.raises(error):
        build()
