"""Sturm sequences, loops of Lagrangians and the Maslov index."""

import json
import random

import pytest

from maslovkit import (
    DegenerateForm,
    DomainError,
    FieldElement,
    FormError,
    HermitianForm,
    InternalInvariantViolation,
    LagrangianLoop,
    LaurentPolynomial,
    NotALoop,
    PauliModule,
    RingDescriptor,
    RingMatrix,
    RingMismatch,
    ShapeError,
    StabilizerModule,
    SturmSequence,
    WittClass,
    constant_loop,
    elementary_unitary,
    hyperbolic_form,
    in_fundamental_ideal,
    inverse,
    is_transversal,
    lambda_flip_homotopy,
    loop_from_pair,
    maslov_index,
    stabilized_image,
    sturm_tridiagonal,
    sturm_unitary,
    transversal_witness,
    trivmas_homotopy,
    validate_loop,
    witt_class,
)
from maslovkit import serialize, sturm
from maslovkit.linalg import _rows, det
from maslovkit.sturm import _three_term

from helpers import (
    rand_hermitian,
    rand_matrix,
    rand_symmetric_nondeg,
    rand_unit_matrix,
    time_limit,
    unipotent,
)


F5 = RingDescriptor(5)
F7 = RingDescriptor(7)
F5T = RingDescriptor(5, 0, True)
L5 = RingDescriptor(5, 1)


def scalar_form(ring, value, n=1):
    return HermitianForm(RingMatrix.scalar(ring, n, value), 1)


def _modp_rank(matrix, p):
    """Row-reduction rank oracle for d = 0 matrices."""
    zero = (0,) * matrix.ring.nexponents
    rows = [
        [matrix[i, j].terms.get(zero, 0) for j in range(matrix.cols)]
        for i in range(matrix.rows)
    ]
    rank = 0
    col = 0
    while rank < len(rows) and col < matrix.cols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def dense_word(seq):
    """Reference word: the left-to-right product of the 2N x 2N elementary factors."""
    out = RingMatrix.identity(seq.ring, 2 * seq.N)
    for k, q in enumerate(seq.forms, seq.start):
        out = out @ elementary_unitary("E0" if k % 2 == 0 else "E1", q).matrix
    return out


def _dense_stabilized_image(seq):
    """stabilized_image generators built from the dense word's first N columns."""
    ring, N = seq.ring, seq.N
    total = (len(seq.forms) - 1) * N
    word = dense_word(seq)
    cols = [
        [word[i, j] for i in range(N)]
        + [ring.zero()] * (total - N)
        + [word[N + i, j] for i in range(N)]
        + [ring.zero()] * (total - N)
        for j in range(N)
    ]
    for k in range(N, total):
        col = [ring.zero()] * (2 * total)
        col[k] = ring.one()
        cols.append(col)
    gens = RingMatrix(ring, [[c[i] for c in cols] for i in range(2 * total)])
    return StabilizerModule(PauliModule(ring, total), gens)


ORACLE_RINGS = (F5, RingDescriptor(7, 1), RingDescriptor(5, 2))


def test_sturm_unitary_matches_dense_word():
    rng = random.Random(60)
    for ring in ORACLE_RINGS:
        for _ in range(40):
            N = rng.randrange(1, 4)
            forms = tuple(rand_hermitian(ring, N, rng) for _ in range(rng.randrange(6)))
            seq = SturmSequence(ring, N, forms, rng.randrange(4))
            assert sturm_unitary(seq).matrix == dense_word(seq)


def test_stabilized_image_matches_dense_word():
    rng = random.Random(61)
    for ring in ORACLE_RINGS:
        for _ in range(20):
            N = rng.randrange(1, 4)
            length = rng.choice((3, 5))
            forms = tuple(rand_hermitian(ring, N, rng) for _ in range(length))
            seq = SturmSequence(ring, N, forms)
            assert stabilized_image(seq) == _dense_stabilized_image(seq)


def _nondeg_form(ring, N, rng):
    if ring.spatial_vars == 0:
        return rand_symmetric_nondeg(ring.p, N, rng)
    c = rand_unit_matrix(ring, rng, N)
    diag = [[rng.randrange(1, ring.p) if i == j else 0 for j in range(N)] for i in range(N)]
    return HermitianForm(c.dagger() @ RingMatrix(ring, diag) @ c, 1)


def _first_moved_endpoint(seq):
    """The first T in (0, 1) whose dense word has a nonzero lower-left block."""
    N = seq.N
    for t in (0, 1):
        word = dense_word(seq.eval_T(t))
        if not word.submatrix(range(N, 2 * N), range(N)).is_zero():
            return t
    return None


def test_validate_loop_matches_dense_word():
    # loop_from_pair loops, and the same words with T r or (1 - T) r added to
    # one form: validate_loop must reject exactly when the dense word moves L,
    # naming the same first endpoint; p = 10^9 + 7 puts large residues
    # through the int recurrence over F_p
    rng = random.Random(62)
    seen = set()
    for ring in ORACLE_RINGS + (RingDescriptor(10**9 + 7),):
        for _ in range(12):
            N = rng.randrange(1, 4)
            loop = loop_from_pair(_nondeg_form(ring, N, rng), _nondeg_form(ring, N, rng))
            assert _first_moved_endpoint(loop.seq) is None
            ring_T = loop.ring
            T = ring_T.T()
            r = rand_hermitian(ring, N, rng).matrix
            while r.is_zero():
                r = rand_hermitian(ring, N, rng).matrix
            weight = rng.choice((T, ring_T.one() - T))
            k = rng.randrange(len(loop.seq.forms))
            forms = list(loop.seq.forms)
            forms[k] = HermitianForm(forms[k].matrix + r.lift_T().scale(weight), 1)
            seq = SturmSequence(ring_T, N, tuple(forms))
            expected = _first_moved_endpoint(seq)
            seen.add(expected)
            if expected is None:
                validate_loop(seq)
            else:
                with pytest.raises(NotALoop, match=f"at T = {expected}$"):
                    validate_loop(seq)
    assert seen == {None, 0, 1}, "loops and both endpoints occur among the draws"


def test_sturm_unitary_examples():
    empty = SturmSequence(F5, 1, ())
    assert sturm_unitary(empty).matrix == RingMatrix.identity(F5, 2)
    q0 = scalar_form(F5, 2)
    single = SturmSequence(F5, 1, (q0,))
    assert sturm_unitary(single).matrix == elementary_unitary("E0", q0).matrix
    q1 = scalar_form(F5, 3)
    double = SturmSequence(F5, 1, (q0, q1))
    expected = elementary_unitary("E0", q0) @ elementary_unitary("E1", q1)
    assert sturm_unitary(double).matrix == expected.matrix
    # entries are HermitianForms, not bare matrices
    with pytest.raises(FormError):
        SturmSequence(F5, 1, (RingMatrix.identity(F5, 1),))


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: SturmSequence(5, 1, ()), DomainError),
        (lambda: SturmSequence(F5, 1, scalar_form(F5, 2)), DomainError),
        (lambda: SturmSequence(F5, 1, None), DomainError),
        (lambda: SturmSequence(F5, 1, (scalar_form(F5, 2),), start=1.5), DomainError),
        (lambda: SturmSequence(F5, 1, (scalar_form(F5, 2),), start=True), DomainError),
        (lambda: SturmSequence(F5, 1, [RingMatrix.identity(F5, 1)]), FormError),
        (lambda: LagrangianLoop(5), DomainError),
        (lambda: LagrangianLoop((scalar_form(F5T, 1),)), DomainError),
        (lambda: SturmSequence(F5T, 1, ()).padded(-1), DomainError),
        (lambda: SturmSequence(F5T, 1, ()).padded(0.5), DomainError),
        (lambda: SturmSequence(F5T, 1, ()).padded(True), DomainError),
        (lambda: constant_loop(F5, 1).padded(-1), DomainError),
        (lambda: constant_loop(F5, 1).padded(True), DomainError),
        (lambda: constant_loop(F5, 1).direct_sum(5), DomainError),
        (lambda: constant_loop(F5, "x"), DomainError),
    ],
    ids=["int-ring", "bare-form", "no-forms", "float-start", "bool-start", "list-of-matrices",
         "int-loop", "loop-of-forms", "negative-padding", "float-padding", "bool-padding",
         "negative-loop-padding", "bool-loop-padding", "int-summand", "str-constant-loop-N"],
)
def test_sturm_sequence_and_loop_fields_are_checked(build, error):
    with pytest.raises(error):
        build()


def test_sturm_sequence_stores_forms_as_a_tuple():
    q = scalar_form(F5, 2)
    seq = SturmSequence(F5, 1, [q])
    assert seq.forms == (q,)
    assert seq == SturmSequence(F5, 1, (q,)) and hash(seq) == hash(SturmSequence(F5, 1, (q,)))


def test_sturm_tridiagonal_examples():
    q0 = scalar_form(F5, 2)
    assert sturm_tridiagonal(SturmSequence(F5, 1, (q0,))).matrix == RingMatrix(
        F5, [[2]]
    )
    q1 = scalar_form(F5, 3)
    tri = sturm_tridiagonal(SturmSequence(F5, 1, (q0, q1)))
    assert tri.matrix == RingMatrix(F5, [[2, 1], [1, -3]])
    zeros = SturmSequence(F5, 1, (scalar_form(F5, 0), scalar_form(F5, 0)))
    assert sturm_tridiagonal(zeros).matrix == hyperbolic_form(1, 1, F5).matrix
    assert tri.is_hermitian()


def test_transversal_witness_base_case():
    seq = SturmSequence(F5, 1, (scalar_form(F5, 3),))
    witness, sprime = transversal_witness(seq)
    module = PauliModule(F5, 1)
    assert witness == module.dual_lagrangian()
    assert sprime.dim == 0
    word = sturm_unitary(seq)
    image = word.matrix.submatrix(range(2), range(1))
    stacked = RingMatrix.from_blocks([[witness.generators, image]])
    assert _modp_rank(stacked, 5) == 2


def test_transversal_constructions_take_t_free_type_0_2n_sequences():
    # one gate for both: evaluated at a parameter value, start 0, odd length
    zero = scalar_form(F5, 0)
    bad = (
        SturmSequence(F5T, 1, (scalar_form(F5T, 0),) * 3),
        SturmSequence(F5, 1, (zero,) * 3, start=1),
        SturmSequence(F5, 1, (zero,) * 2),
    )
    for seq in bad:
        for construction in (stabilized_image, transversal_witness):
            with pytest.raises(DomainError):
                construction(seq)
    # the type (0, 0) base case has a witness but no stabilized image
    with pytest.raises(DomainError, match="no stabilized image"):
        stabilized_image(SturmSequence(F5, 1, (zero,)))


def test_transversal_witness_zero_forms():
    zero = scalar_form(F5, 0)
    seq = SturmSequence(F5, 1, (zero, zero, zero))
    witness, sprime = transversal_witness(seq)
    image = stabilized_image(seq)
    assert witness.ambient == image.ambient
    assert is_transversal(witness, image)
    stacked = RingMatrix.from_blocks([[witness.generators, image.generators]])
    assert _modp_rank(stacked, 5) == witness.ambient.rank


def test_transversal_witness_random_field():
    rng = random.Random(29)
    for _ in range(25):
        forms = tuple(
            HermitianForm(rand_symmetric_nondeg(5, 1, rng).matrix, 1) for _ in range(3)
        )
        seq = SturmSequence(F5, 1, forms)
        witness, _ = transversal_witness(seq)
        image = stabilized_image(seq)
        assert is_transversal(witness, image)
        stacked = RingMatrix.from_blocks([[witness.generators, image.generators]])
        assert _modp_rank(stacked, 5) == witness.ambient.rank


def test_transversal_witness_random_laurent():
    rng = random.Random(30)
    for _ in range(8):
        forms = tuple(rand_hermitian(L5, 1, rng) for _ in range(3))
        seq = SturmSequence(L5, 1, forms)
        witness, _ = transversal_witness(seq)
        image = stabilized_image(seq)
        assert is_transversal(witness, image)


def test_validate_loop_examples():
    loop = constant_loop(F5, 1)
    assert maslov_index(loop).witt.is_zero()
    T = F5T.T()
    # E0(cT) moves L at T = 1: not a loop
    bad = SturmSequence(
        F5T, 1, (HermitianForm(RingMatrix(F5T, [[2 * T]]), 1),)
    )
    with pytest.raises(NotALoop):
        validate_loop(bad)
    # E1 words always fix L, so a pure E1 path is a loop
    ok = SturmSequence(
        F5T,
        1,
        (
            HermitianForm(RingMatrix.zeros(F5T, 1, 1), 1),
            HermitianForm(RingMatrix(F5T, [[3 * T]]), 1),
        ),
    )
    validated = validate_loop(ok)
    assert len(validated.seq.forms) == 3, "padded to type (0, 2n)"


def test_loop_constructor_is_the_gate():
    # the constructor runs the check of validate_loop: E0(T) moves L at T = 1
    T = F5T.T()
    zero = scalar_form(F5T, 0)
    seq = SturmSequence(F5T, 1, (HermitianForm(RingMatrix(F5T, [[T]]), 1), zero, zero))
    for build in (validate_loop, LagrangianLoop):
        with pytest.raises(NotALoop, match="at T = 1$"):
            build(seq)
    # an even number of forms is padded, by either spelling
    ok = SturmSequence(F5T, 1, (zero, HermitianForm(RingMatrix(F5T, [[3 * T]]), 1)))
    assert LagrangianLoop(ok) == validate_loop(ok)
    assert len(LagrangianLoop(ok).seq) == 3


def test_validate_loop_laurent_ring():
    # d = 1: the lower-left-block test alone decides whether the word fixes L
    L5T = RingDescriptor(5, 1, True)
    x, T = L5T.x(0), L5T.T()
    bad = SturmSequence(
        L5T, 1, (HermitianForm(RingMatrix(L5T, [[(x + L5T.x(0, -1)) * T]]), 1),)
    )
    with pytest.raises(NotALoop):
        validate_loop(bad)
    ok = SturmSequence(
        L5T,
        1,
        (
            HermitianForm(RingMatrix.zeros(L5T, 1, 1), 1),
            HermitianForm(RingMatrix(L5T, [[(x + L5T.x(0, -1)) * T + 2]]), 1),
        ),
    )
    assert len(validate_loop(ok).seq.forms) == 3


def test_derived_sequences_equal_checked_construction():
    rng = random.Random(14)
    L5T = RingDescriptor(5, 1, True)
    forms = tuple(rand_hermitian(L5T, 2, rng) for _ in range(3))
    seq = SturmSequence(L5T, 2, forms)
    zero = HermitianForm(RingMatrix.zeros(L5T, 2, 2), 1)
    assert seq.truncated() == SturmSequence(L5T, 2, forms[:-1])
    assert seq.padded(2) == SturmSequence(L5T, 2, forms + (zero, zero))
    for t in (0, 1, 3):
        evaluated = seq.eval_T(t)
        assert evaluated == SturmSequence(L5, 2, tuple(q.eval_T(t) for q in forms))
        assert all(q.is_hermitian() for q in evaluated.forms)


def test_maslov_determinant_equals_det_of_representative():
    rng = random.Random(31)
    cases = [
        (rand_symmetric_nondeg(7, 3, rng), rand_symmetric_nondeg(7, 3, rng)),
        (rand_symmetric_nondeg(5, 2, rng), rand_symmetric_nondeg(5, 2, rng)),
    ]
    c = rand_unit_matrix(L5, rng, 2)
    cases.append(
        (
            HermitianForm(c.dagger() @ RingMatrix(L5, [[1, 0], [0, 2]]) @ c, 1),
            scalar_form(L5, 3, 2),
        )
    )
    L5xy = RingDescriptor(5, 2)
    x, y = L5xy.x(0), L5xy.x(1)
    a = RingMatrix(L5xy, [[1, x + y], [0, 1]])
    cases.append(
        (
            HermitianForm(a.dagger() @ RingMatrix.scalar(L5xy, 2, 2) @ a, 1),
            scalar_form(L5xy, 1, 2),
        )
    )
    # seeded draws over F_p (int rows) and over d = 1 and d = 2 (polynomial rows)
    for p in (3, 5, 7, 13, 10**9 + 7):
        for _ in range(12):
            n = rng.randrange(1, 7)
            cases.append((rand_symmetric_nondeg(p, n, rng), rand_symmetric_nondeg(p, n, rng)))
    for ring, sizes in ((L5, range(1, 4)), (RingDescriptor(7, 1), range(1, 4)), (L5xy, (1, 2))):
        for n in sizes:
            cases.append((_nondeg_form(ring, n, rng), _nondeg_form(ring, n, rng)))
            a = unipotent(ring, n, ring.x(0) + (ring.x(1) if ring.spatial_vars > 1 else 1))
            cases.append((HermitianForm(a.dagger() @ a, 1), _nondeg_form(ring, n, rng)))
    loops = [loop_from_pair(q0, q1) for q0, q1 in cases]
    # longer recurrences: padded loops (k = 6, 8, 10 blocks in S(t)), direct
    # sums of loops of different lengths, and constant loops (k = 0 and 2)
    loops += [loop.padded(rng.randrange(1, 4)) for loop in loops[::3]]
    summands = [(a, b) for a, b in zip(loops[::4], loops[1::4]) if a.ring == b.ring]
    loops += [a.direct_sum(b.padded(1)) for a, b in summands]
    loops += [constant_loop(ring, N, pairs) for ring in (F5, L5) for N in (1, 2) for pairs in (0, 1)]
    # an even number of forms is no loop shape, but S(t) then has an odd
    # number k of blocks and the determinant its sign (-1)^(kN)
    for ring in (F5T, RingDescriptor(5, 1, True)):
        for N in (1, 2):
            forms = (scalar_form(ring, 2 + ring.T(), N), scalar_form(ring, 0, N))
            loops.append(LagrangianLoop._unchecked(SturmSequence(ring, N, forms)))
    # F_p loops whose products are packed; at p = 10^9 + 7 the 2N-term sums
    # of the recurrence are too wide for a slot and fall back; the dense
    # inverse below packs nothing
    wide = random.Random(16)
    for p in (5, 13, 10**9 + 7):
        for N in (12, 16, 24):
            q0, q1 = (rand_symmetric_nondeg(p, N, wide) for _ in range(2))
            loops.append(loop_from_pair(q0, q1))
    for loop in loops:
        result = maslov_index(loop)
        s0, s1 = (sturm_tridiagonal(loop.seq.truncated()).eval_T(t).matrix for t in (0, 1))
        assert result.form.matrix == RingMatrix.block_diag([s1, inverse(-s0)])
        assert result.determinant == det(result.form.matrix)
        assert result.determinant.is_unit()
        if result.form.ring.spatial_vars == 0:
            assert result.witt == witt_class(result.form)


def test_three_term_determinant_identity():
    # det S = (-1)^(kN) det Q_{-1} for the right solutions Q_k = 0,
    # Q_{k-1} = I, Q_{i-1} = -Q_{i+1} - D_i Q_i of any S = tridiag(I, D_i, I);
    # the D_i are arbitrary, so these are not loop shapes
    rng = random.Random(71)
    for ring in (F7, L5, RingDescriptor(5, 2)):
        for k in (1, 2, 3, 5):
            for N in (1, 2, 3):
                D = [rand_matrix(ring, rng, N, N) for _ in range(k)]
                one, zero = RingMatrix.identity(ring, N), RingMatrix.zeros(ring, N, N)
                grid = [[one if abs(i - j) == 1 else zero for j in range(k)] for i in range(k)]
                for i in range(k):
                    grid[i][i] = D[i]
                S = RingMatrix.from_blocks(grid)
                steps = [_rows(RingMatrix.from_blocks([[-d, -one]])) for d in reversed(D)]
                Q = _three_term(ring, steps, _rows(one), _rows(zero))
                sign = -1 if k * N % 2 else 1
                assert det(S) == sign * det(RingMatrix._unchecked(ring, Q[-1], N))
    # the recurrence itself, densely, on Sturm sequences: with D_i = (-1)^(m+i) q_i
    # the diagonal of sturm_tridiagonal, S (Q_0; ...; Q_{k-1}) = (-Q_{-1}; 0; ...; 0)
    for ring in (F5, RingDescriptor(7, 1), RingDescriptor(5, 2)):
        for k in range(1, 5):
            for N in (1, 2, 3):
                one, zero = RingMatrix.identity(ring, N), RingMatrix.zeros(ring, N, N)
                for start in range(4):
                    forms = tuple(rand_hermitian(ring, N, rng) for _ in range(k))
                    D = [(-q if (start + i) % 2 else q).matrix for i, q in enumerate(forms)]
                    steps = [_rows(RingMatrix.from_blocks([[-d, -one]])) for d in reversed(D)]
                    Q = _three_term(ring, steps, _rows(one), _rows(zero))
                    solution = RingMatrix._unchecked(ring, [r for Qi in Q[k:0:-1] for r in Qi], N)
                    rhs = [[-RingMatrix._unchecked(ring, Q[-1], N)]] + [[zero]] * (k - 1)
                    S = sturm_tridiagonal(SturmSequence(ring, N, forms, start)).matrix
                    assert S @ solution == RingMatrix.from_blocks(rhs)


def test_maslov_index_eliminates_at_most_N_rows(monkeypatch):
    # both determinants and -S(0)^-1 come from N x N blocks: no elimination
    # inside maslov_index sees more than N rows, whatever the loop's length
    eliminate, sizes = sturm._eliminate_rows, []

    def recording(ring, M):
        sizes.append(len(M))
        return eliminate(ring, M)

    monkeypatch.setattr(sturm, "_eliminate_rows", recording)
    rng = random.Random(72)
    for ring in (F5, L5):
        loop = loop_from_pair(_nondeg_form(ring, 4, rng), _nondeg_form(ring, 4, rng))
        for extra in (0, 2):
            sizes.clear()
            maslov_index(loop.padded(extra))
            assert sizes == [4, 4]


def test_validate_loop_requires_T():
    with pytest.raises(DomainError, match="ring with T"):
        validate_loop(SturmSequence(F5, 1, (scalar_form(F5, 0),)))
    # and a sequence that starts at index 0
    with pytest.raises(DomainError, match="index 0"):
        validate_loop(SturmSequence(F5T, 1, (scalar_form(F5T, 0),), start=2))


def test_validate_loop_rejects_an_empty_sequence():
    # a type (0, 2n) sequence has at least one form; the empty one is refused
    # before any padding, whatever its N
    for N in (0, 1, 10**9):
        with time_limit(1), pytest.raises(DomainError, match="at least one form"):
            validate_loop(SturmSequence(F5T, N, ()))


def test_constant_loop_needs_a_non_negative_pair_count():
    for pairs in (-1, 0.5, True):
        with pytest.raises(DomainError, match="pairs >= 0"):
            constant_loop(F5, 2, pairs)
    assert [len(constant_loop(F5, 2, k).seq) for k in (0, 1)] == [1, 3]


def test_loop_from_pair_examples():
    one = scalar_form(F5, 1)
    assert maslov_index(loop_from_pair(one, one)).witt.is_zero()
    lam = hyperbolic_form(1, 1, F5)
    assert maslov_index(loop_from_pair(lam, lam)).witt.is_zero()
    theta = scalar_form(F5, 2)
    result = maslov_index(loop_from_pair(one, theta))
    assert not result.witt.is_zero()
    with pytest.raises(DegenerateForm):
        loop_from_pair(one, scalar_form(F5, 0))


def test_maslov_matches_pair_formula():
    rng = random.Random(101)
    for p, ring in ((5, F5), (7, F7)):
        for _ in range(15):
            n = rng.randrange(1, 4)
            q0 = rand_symmetric_nondeg(p, n, rng)
            q1 = rand_symmetric_nondeg(p, n, rng)
            got = maslov_index(loop_from_pair(q0, q1)).witt
            expected = witt_class(
                q1.direct_sum(HermitianForm(-inverse(q0.matrix), 1))
            )
            assert got == expected
            assert in_fundamental_ideal(got)


def test_maslov_stabilization_invariance():
    rng = random.Random(55)
    for p in (5, 7):
        ring = RingDescriptor(p)
        for _ in range(10):
            n = rng.randrange(1, 3)
            loop = loop_from_pair(
                rand_symmetric_nondeg(p, n, rng), rand_symmetric_nondeg(p, n, rng)
            )
            base = maslov_index(loop).witt
            assert maslov_index(loop.padded(1)).witt == base
            assert maslov_index(loop.padded(2)).witt == base
            summed = loop.direct_sum(constant_loop(ring, 2))
            assert maslov_index(summed).witt == base


def test_maslov_additivity():
    rng = random.Random(56)
    for _ in range(10):
        l1 = loop_from_pair(
            rand_symmetric_nondeg(5, 1, rng), rand_symmetric_nondeg(5, 1, rng)
        )
        l2 = loop_from_pair(
            rand_symmetric_nondeg(5, 2, rng), rand_symmetric_nondeg(5, 2, rng)
        )
        combined = maslov_index(l1.direct_sum(l2)).witt
        assert combined == maslov_index(l1).witt + maslov_index(l2).witt
    # summands live over one ring
    with pytest.raises(RingMismatch):
        constant_loop(F5, 1).direct_sum(constant_loop(F7, 1))


def test_loop_from_pair_builds_loops():
    # loop_from_pair trusts its construction; validate_loop is the oracle here,
    # on c^+ D c forms and unipotent a^+ a forms for d = 0, 1 and 2
    rng = random.Random(73)
    for ring in (F7, L5, RingDescriptor(5, 2)):
        entry = sum((ring.x(i) for i in range(ring.spatial_vars)), ring.constant(2))
        for N in (1, 2, 3):
            a = unipotent(ring, N, entry)
            forms = [HermitianForm(a.dagger() @ a, 1)]
            for _ in range(3):
                c = rand_unit_matrix(ring, rng, N)
                diag = [[rng.randrange(1, ring.p) * (i == j) for j in range(N)] for i in range(N)]
                forms.append(HermitianForm(c.dagger() @ RingMatrix(ring, diag) @ c, 1))
            for q0 in forms:
                for q1 in forms:
                    loop = loop_from_pair(q0, q1)
                    assert validate_loop(loop.seq) == loop


def entrywise_loop_forms(q0, q1):
    """Reference: the forms of loop_from_pair built entry by entry, as
    (q0 + T(q1 - q0), (1 - q0^-1) + T(q0^-1 - q1^-1), -1, 1, 0)."""
    ring, N = q0.ring, q0.dim
    ring_T, T = ring.with_T(), ring.with_T().T()
    q0inv, q1inv = inverse(q0.matrix), inverse(q1.matrix)
    one, one_T = RingMatrix.identity(ring, N), RingMatrix.identity(ring_T, N)
    matrices = (
        q0.matrix.lift_T() + (q1.matrix - q0.matrix).lift_T().scale(T),
        (one - q0inv).lift_T() + (q0inv - q1inv).lift_T().scale(T),
        -one_T,
        one_T,
        RingMatrix.zeros(ring_T, N, N),
    )
    return tuple(HermitianForm(m, 1) for m in matrices)


def test_loop_from_pair_matches_entrywise_construction():
    rng = random.Random(74)
    cases = []
    for ring in (F5, RingDescriptor(13), RingDescriptor(10**9 + 7), L5, RingDescriptor(5, 2)):
        entry = sum((ring.x(i) for i in range(ring.spatial_vars)), ring.constant(2))
        for N in (0, 1, 3, 8):
            a = unipotent(ring, N, entry)
            q, r = _nondeg_form(ring, N, rng), _nondeg_form(ring, N, rng)
            cases += [(q, r), (HermitianForm(a.dagger() @ a, 1), q), (q, q)]
    for q0, q1 in cases:
        loop = loop_from_pair(q0, q1)
        expected = SturmSequence(q0.ring.with_T(), q0.dim, entrywise_loop_forms(q0, q1))
        assert loop.seq == expected
        assert all(q.ring is loop.ring for q in loop.seq.forms)
        # a fresh loop reads its forms' kept rows at T = 0 and T = 1; its
        # index and its encoding equal those of the loop of eager forms
        eager = LagrangianLoop._unchecked(expected)
        assert maslov_index(loop_from_pair(q0, q1)) == maslov_index(eager)
        encoded = serialize.encode_loop(loop_from_pair(q0, q1))
        assert json.dumps(encoded) == json.dumps(serialize.encode_loop(eager))
    # the checks come first, in the same order: hermitian, then nondegenerate
    one, x = scalar_form(L5, 1), L5.x(0)
    not_hermitian = HermitianForm(RingMatrix(L5, [[1, x], [0, 1]]), 1)
    singular = HermitianForm(RingMatrix(L5, [[x + L5.x(0, -1), 0], [0, 1]]), 1)  # det no unit
    with pytest.raises(FormError):
        loop_from_pair(scalar_form(L5, 1, 2), not_hermitian)
    with pytest.raises(FormError):
        loop_from_pair(HermitianForm(RingMatrix(F5, [[1, 2], [3, 1]]), 1), scalar_form(F5, 1, 2))
    with pytest.raises(FormError):
        loop_from_pair(HermitianForm(RingMatrix.identity(F5, 1), -1), scalar_form(F5, 1))
    with pytest.raises(DegenerateForm):
        loop_from_pair(singular, not_hermitian)
    with pytest.raises(DegenerateForm):
        loop_from_pair(scalar_form(F5, 1), scalar_form(F5, 5))
    with pytest.raises(RingMismatch):
        loop_from_pair(one, scalar_form(RingDescriptor(7, 1), 1))
    with pytest.raises(RingMismatch):
        loop_from_pair(scalar_form(F5, 1), one)
    with pytest.raises(ShapeError):
        loop_from_pair(scalar_form(F5, 1), scalar_form(F5, 1, 2))
    with pytest.raises(DomainError, match="T-free"):
        loop_from_pair(scalar_form(F5T, 1), scalar_form(F5T, 1))


def test_maslov_index_of_a_pair_builds_no_polynomial_over_R_T(monkeypatch):
    # the index reads the forms of loop_from_pair at T = 0 and T = 1 only,
    # and they keep their rows there: after a warm-up (the shared zero of the
    # padded form), no polynomial over a ring with T is built
    built = []
    init, unchecked = LaurentPolynomial.__init__, LaurentPolynomial._unchecked.__func__

    def counting_init(self, ring, terms):
        init(self, ring, terms)
        if ring.has_T:
            built.append(self)

    def counting_unchecked(cls, ring, terms):
        if ring.has_T:
            built.append(terms)
        return unchecked(cls, ring, terms)

    monkeypatch.setattr(LaurentPolynomial, "__init__", counting_init)
    monkeypatch.setattr(LaurentPolynomial, "_unchecked", classmethod(counting_unchecked))
    rng = random.Random(30)
    for d, N in ((0, 6), (1, 3), (2, 2)):
        ring = RingDescriptor(7, d)
        q0, q1 = _nondeg_form(ring, N, rng), _nondeg_form(ring, N, rng)
        want = maslov_index(loop_from_pair(q0, q1))
        built.clear()
        assert maslov_index(loop_from_pair(q0, q1)) == want
        assert len(built) == 0, (d, N)
    # the counter sees the polynomials that other reads build
    loop_from_pair(q0, q1).seq.forms[0].matrix.entries
    assert len(built) == N * N


def test_maslov_laurent_ring_invariants():
    rng = random.Random(57)
    c = rand_unit_matrix(L5, rng, 2)
    d = RingMatrix(L5, [[1, 0], [0, 2]])
    q0 = HermitianForm(c.dagger() @ d @ c, 1)
    q1 = scalar_form(L5, 1, 2)
    loop = loop_from_pair(q0, q1)
    result = maslov_index(loop)
    assert result.witt is None
    assert result.rank_parity == 0
    assert result.determinant.is_unit()
    assert result.form.is_hermitian()


def test_maslov_degenerate_endpoint_is_caught():
    # non-loops smuggled past validation must be rejected by the invariant
    # checks, over F_5[T] (int rows) and over F_5[x^+-][T] (polynomial rows):
    # S(0) = (2 1; 1 -2) is singular mod 5; for the forms (1, 4T, 0),
    # S(0) = (1 1; 1 0) is invertible and det S(1) = det (1 1; 1 -4) = -5
    for ring in (F5T, RingDescriptor(5, 1, True)):
        two = scalar_form(ring, 2)
        zero = HermitianForm(RingMatrix.zeros(ring, 1, 1), 1)
        fake = LagrangianLoop._unchecked(SturmSequence(ring, 1, (two, two, zero)))
        with pytest.raises(InternalInvariantViolation, match=r"^S\(0\) is degenerate"):
            maslov_index(fake)
        # the same sequence genuinely fails validation
        with pytest.raises(NotALoop):
            validate_loop(fake.seq)
        four_T = HermitianForm(RingMatrix(ring, [[4 * ring.T()]]), 1)
        fake = LagrangianLoop._unchecked(SturmSequence(ring, 1, (scalar_form(ring, 1), four_T, zero)))
        with pytest.raises(InternalInvariantViolation, match=r"^S\(1\) is degenerate"):
            maslov_index(fake)


def test_trivmas_homotopy():
    assert trivmas_homotopy(scalar_form(F5, 1), 0) == RingMatrix.identity(F5, 2)
    for ring, val in ((F5, 1), (F7, 2)):
        q = scalar_form(ring, val)
        e = trivmas_homotopy(q, 1)
        rep = q.direct_sum(HermitianForm(-inverse(q.matrix), 1))
        assert e.dagger() @ rep.matrix @ e == hyperbolic_form(1, 1, ring).matrix
    rng = random.Random(58)
    for _ in range(10):
        q = rand_symmetric_nondeg(5, 2, rng)
        for t in range(5):
            e = trivmas_homotopy(q, t)
            assert det(e).is_unit()
    with pytest.raises(DegenerateForm):
        trivmas_homotopy(scalar_form(F5, 0), 1)


def test_lambda_flip_homotopy():
    assert lambda_flip_homotopy(0, 1, F5) == RingMatrix.identity(F5, 2)
    for ring in (F5, F7, L5):
        for n in (1, 2):
            e = lambda_flip_homotopy(1, n, ring)
            lam = hyperbolic_form(n, 1, ring).matrix
            assert e.dagger() @ lam @ e == -lam


def test_homotopy_witnesses_match_dense_words():
    # each witness against the product of its 2N x 2N elementary factors
    rng = random.Random(64)
    for ring in (F5, F7, L5):
        half = pow(2, -1, ring.p)
        for N in (1, 2):
            q = _nondeg_form(ring, N, rng)
            qinv = inverse(q.matrix)
            for t in range(ring.p):
                forms = (qinv.scale(t), q.matrix.scale(-t * half))
                word = SturmSequence(ring, N, tuple(HermitianForm(m, 1) for m in forms), 1)
                assert trivmas_homotopy(q, t) == dense_word(word)
                scalars = (t * half, -t, t, -t * half)
                word = SturmSequence(ring, N, tuple(scalar_form(ring, c, N) for c in scalars))
                assert lambda_flip_homotopy(t, N, ring) == dense_word(word)
    with pytest.raises(DomainError):
        trivmas_homotopy(HermitianForm(RingMatrix(F5, []), 1), 1)
    with pytest.raises(DomainError):
        lambda_flip_homotopy(1, 0, F5)


def test_homotopy_parameter_is_an_int_or_field_element():
    # a float, bool or string parameter is refused rather than truncated
    q = scalar_form(F5, 2)
    for t in (0.5, 1.9, True, "1"):
        with pytest.raises(DomainError):
            trivmas_homotopy(q, t)
        with pytest.raises(DomainError):
            lambda_flip_homotopy(t, 1, F5)
    for t in (-2, FieldElement(3, 5)):
        assert lambda_flip_homotopy(t, 1, F5) == lambda_flip_homotopy(3, 1, F5)
        assert trivmas_homotopy(q, t) == trivmas_homotopy(q, 3)


def test_loop_json_independent_of_padding():
    one = scalar_form(F5, 1)
    theta = scalar_form(F5, 2)
    loop = loop_from_pair(one, theta)
    res = maslov_index(loop)
    assert res.witt == WittClass.from_name(5, "<1>+<t>")


def test_pure_upper_triangular_loop_is_trivial():
    # E1 words fix L pointwise, so the loop is the constant loop
    T = F5T.T()
    zero = HermitianForm(RingMatrix.zeros(F5T, 1, 1), 1)
    seq = SturmSequence(F5T, 1, (zero, HermitianForm(RingMatrix(F5T, [[3 * T]]), 1), zero))
    loop = validate_loop(seq)
    assert maslov_index(loop).witt.is_zero()


def test_bump_loop_is_trivial():
    # E0(c T (1 - T)) L traces the graphs of a pencil vanishing at both ends
    T = F5T.T()
    bump = HermitianForm(RingMatrix(F5T, [[2 * T * (1 - T)]]), 1)
    zero = HermitianForm(RingMatrix.zeros(F5T, 1, 1), 1)
    loop = validate_loop(SturmSequence(F5T, 1, (bump, zero, zero)))
    assert maslov_index(loop).witt.is_zero()


def _substitute_one_minus_T(poly):
    """T -> 1 - T, leaving the other variables alone."""
    ring = poly.ring
    out = ring.zero()
    flip = ring.one() - ring.T()
    for exps, c in poly.terms.items():
        monomial = ring.monomial(exps[:-1] + (0,), c)
        out = out + monomial * flip ** exps[-1]
    return out


def _reversed_loop(loop):
    forms = tuple(
        HermitianForm(
            RingMatrix(
                loop.ring,
                [
                    [_substitute_one_minus_T(q.matrix[i, j]) for j in range(q.dim)]
                    for i in range(q.dim)
                ],
            ),
            1,
        )
        for q in loop.seq.forms
    )
    return validate_loop(SturmSequence(loop.ring, loop.N, forms))


def test_maslov_reversal_negates_the_class():
    # running a loop backwards inverts its class; with the reversed word the
    # tridiagonal form is evaluated at swapped endpoints, an independent
    # exercise of the sign conventions
    rng = random.Random(90)
    for p in (5, 7):
        for _ in range(10):
            n = rng.randrange(1, 3)
            loop = loop_from_pair(
                rand_symmetric_nondeg(p, n, rng), rand_symmetric_nondeg(p, n, rng)
            )
            backwards = _reversed_loop(loop)
            assert maslov_index(backwards).witt == -maslov_index(loop).witt


def test_maslov_well_defined_across_different_words():
    # appending E0(rT) E1(0) E0(-rT), the identity word for every T, changes
    # the Sturm sequence and its tridiagonal form but must not change the class
    rng = random.Random(91)
    for _ in range(10):
        n = rng.randrange(1, 3)
        q0 = rand_symmetric_nondeg(5, n, rng)
        q1 = rand_symmetric_nondeg(5, n, rng)
        loop = loop_from_pair(q0, q1)
        base = maslov_index(loop).witt
        T = F5T.T()
        r = rand_symmetric_nondeg(5, n, rng).matrix.lift_T()
        rt = HermitianForm(r.scale(T), 1)
        zero = HermitianForm(RingMatrix.zeros(loop.ring, n, n), 1)
        garnished = SturmSequence(
            loop.ring,
            n,
            loop.seq.forms[:-1] + (rt, zero, HermitianForm(-rt.matrix, 1)),
        )
        word_a = sturm_unitary(garnished.eval_T(3)).matrix
        word_b = sturm_unitary(loop.seq.eval_T(3)).matrix
        assert word_a == word_b, "the appended factors cancel pointwise"
        assert maslov_index(validate_loop(garnished)).witt == base


def _pair_formula_disc_class(q0, q1, p):
    """Square class of the signed discriminant of q1 + (-q0^-1), via sympy."""
    from sympy import Matrix, diag

    def to_sympy(q):
        return Matrix(
            [[e.augment().value for e in row] for row in q.matrix.entries]
        )

    neg_inv = (-to_sympy(q0).inv_mod(p)).applyfunc(lambda c: c % p)
    rep = diag(to_sympy(q1), neg_inv)
    m = rep.rows
    disc = (-1) ** (m * (m - 1) // 2) * rep.det() % p
    return 0 if pow(disc, (p - 1) // 2, p) == 1 else 1


@pytest.mark.parametrize("p", (10**12 + 39, 2**61 - 1))
def test_maslov_matches_pair_formula_at_large_p(p):
    rng = random.Random(p % 1000)
    seen = set()
    for n in (2, 3):
        for _ in range(4):
            q0 = rand_symmetric_nondeg(p, n, rng)
            q1 = rand_symmetric_nondeg(p, n, rng)
            got = maslov_index(loop_from_pair(q0, q1)).witt
            expected = _pair_formula_disc_class(q0, q1, p)
            assert (got.p, got.rank_parity, got.disc_class) == (p, 0, expected)
            seen.add(expected)
    assert seen == {0, 1}, "both square classes occur among the draws"


@pytest.mark.parametrize("p", (5, 10**9 + 7))
def test_pair_op_past_the_packing_gate(p):
    # loop_from_pair and maslov_index at N = 12 and 20, where the mod-p
    # eliminations run on packed rows (at p = 10^9 + 7 and N = 20 no slot
    # fits, and they take the plain update): the inverses against sympy's
    # inv_mod, the class against the pair formula
    from sympy import Matrix

    rng = random.Random(p % 1000 + 22)
    ring = RingDescriptor(p)
    for N in (12, 20):
        q0 = rand_symmetric_nondeg(p, N, rng)
        q1 = rand_symmetric_nondeg(p, N, rng)
        for q in (q0, q1):
            rows = [[e.augment().value for e in row] for row in q.matrix.entries]
            want = Matrix(rows).inv_mod(p).tolist()
            assert inverse(q.matrix) == RingMatrix(ring, [[int(v) for v in r] for r in want])
        got = maslov_index(loop_from_pair(q0, q1)).witt
        expected = _pair_formula_disc_class(q0, q1, p)
        assert (got.p, got.rank_parity, got.disc_class) == (p, 0, expected)
