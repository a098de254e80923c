"""Sturm sequences of hermitian forms, loops of Lagrangians, Maslov index.

A Sturm sequence of type (m, n) is a list of +hermitian forms q_m..q_n, the
k-th living on L for even k and on L* for odd k.  It encodes the word of
elementary unitaries E_m(q_m) ... E_n(q_n) and, through the associated
block-tridiagonal form, a Lagrangian transversal to the image of the
standard Lagrangian under that word.

Every word is applied factor by factor from the right to N-row blocks
(a; c): E0(q) adds q a to c and E1(q) adds q c to a, one N x N product per
form.  A based loop is a Sturm sequence over R[T] whose word fixes the
standard Lagrangian L at T = 0 and T = 1; the test applies the word to the
N columns (I; 0) of L.  Its Maslov index is the stable class of
S(1) + (-S(0)^-1) for the tridiagonal form S(t) of the truncated sequence;
over F_p this is a Witt class, over Laurent rings the representative form
and its computable invariants are returned.  Both determinants and -S(0)^-1
come from the three-term recurrence x_{i-1} = -x_{i+1} - D_i x_i of S(t) on
N x N blocks, the same recurrence the words run on, so no elimination sees
more than N rows.  _three_term is the one implementation of that recurrence:
words, loop tests and the index all run it on the private rows of linalg
(residues over F_p, term dicts elsewhere), one path for every ring, with no
polynomial built per entry.  loop_from_pair builds its forms on the same
rows: each T-form is the interpolation of its rows at T = 0 and T = 1, and
keeps them (see linalg._interpolate), so maslov_index reads them back
without a row over R[T]; a form builds its rows over R[T] only when
something else, such as encode_loop or ==, reads them.
"""

from __future__ import annotations

from .errors import (
    DegenerateForm,
    DomainError,
    FormError,
    InternalInvariantViolation,
    NotALoop,
    NotAUnit,
    RingMismatch,
    ShapeError,
    _Value,
)
from .forms import HermitianForm, WittClass, _require_plus_hermitian
from .linalg import RingMatrix, _dagger_rows, _eliminate_rows, _identity_rows, inverse
from .linalg import _interpolate, _inverse_rows, _matmul_rows, _rows, _scalars, _sub_rows
from .ring import LaurentPolynomial, RingDescriptor, _residue


class SturmSequence(_Value):
    """Alternating +hermitian forms q_start..q_{start+len-1} of rank N.

    forms may be given as a tuple or a list; it is stored as a tuple.
    """

    __slots__ = ("ring", "N", "forms", "start")

    def __init__(self, ring: RingDescriptor, N: int, forms: tuple, start: int = 0):
        if not isinstance(ring, RingDescriptor):
            raise DomainError(f"a Sturm sequence needs a RingDescriptor, got {type(ring).__name__}")
        if type(N) is not int or N < 0:
            raise DomainError(f"Sturm sequences need an int N >= 0, got {N!r}")
        if not isinstance(forms, (tuple, list)):
            raise DomainError(f"Sturm sequence forms come as a tuple or list, got {type(forms).__name__}")
        if type(start) is not int:
            raise DomainError(f"a Sturm sequence starts at an int index, got {start!r}")
        for q in forms:
            if not isinstance(q, HermitianForm):
                raise FormError("Sturm sequences consist of HermitianForm entries")
            if q.ring != ring:
                raise RingMismatch("sequence entry over the wrong ring")
            if q.dim != N:
                raise ShapeError(f"sequence entry of rank {q.dim}, expected {N}")
            _require_plus_hermitian(q, "sequence entries must be +hermitian")
        self._set(ring, N, tuple(forms), start)

    def __len__(self):
        return len(self.forms)

    @property
    def end(self) -> int:
        return self.start + len(self.forms) - 1

    def eval_T(self, t) -> "SturmSequence":
        """The sequence at T = t, a scalar, checked even when it has no forms."""
        if not self.ring.has_T:
            raise DomainError("ring has no T variable to evaluate")
        t = _residue(t, self.ring.p)
        forms = tuple(q.eval_T(t) for q in self.forms)
        return SturmSequence._unchecked(self.ring.drop_T(), self.N, forms, self.start)

    def truncated(self) -> "SturmSequence":
        """Drop the last form (q' in the transversality construction)."""
        return SturmSequence._unchecked(
            self.ring, self.N, self.forms[:-1], self.start
        )

    def padded(self, extra: int) -> "SturmSequence":
        """Append extra zero forms; E(0) is the identity, so the word is unchanged."""
        if type(extra) is not int or extra < 0:
            raise DomainError(f"a sequence is padded by an int count >= 0, got {extra!r}")
        zero = HermitianForm(RingMatrix.zeros(self.ring, self.N, self.N), 1)
        return SturmSequence._unchecked(self.ring, self.N, self.forms + (zero,) * extra, self.start)


def _three_term(ring: RingDescriptor, steps, x: list, y: list) -> list:
    """The blocks y, x, x', x'', ... with x' = L (x; y) for each step L in turn.

    Every block is a list of rows over ring; each step gives the rows of an
    N x 2N matrix L and costs one product with the stacked rows of (x; y).
    """
    out = [y, x]
    for left in steps:
        out.append(_matmul_rows(ring, left, out[-1] + out[-2]))
    return out


def _apply_word(seq: SturmSequence, a: list | None = None, c: list | None = None,
                t: int | None = None):
    """(A; C) = E_m(q_m) ... E_n(q_n) (a; c) for N-row blocks a and c.

    The factors act right to left: E0(q) = (1 0; q 1) adds q a to c and
    E1(q) = (1 q; 0 1) adds q c to a, so each factor sends the pair (x, y)
    of the last block updated and the other one to (y + q x, x), one step
    [q | I] of _three_term.  The blocks are rows as linalg._rows gives them,
    over the sequence's ring, or at T = t when t is given.  Given no blocks,
    the word is applied to the N columns (I; 0) of L.
    """
    ring = seq.ring if t is None else seq.ring.drop_T()
    ident = _identity_rows(ring, seq.N)
    if a is None:
        a, c = ident, [[_scalars(ring)[0]] * seq.N] * seq.N
    steps = [
        [row + e for row, e in zip(_rows(q.matrix, t), ident)]
        for q in reversed(seq.forms)
    ]
    x, y = (c, a) if seq.end % 2 else (a, c)
    *_, y, x = _three_term(ring, steps, x, y)
    return (x, y) if seq.start % 2 else (y, x)


def sturm_unitary(seq: SturmSequence) -> CliffordUnitary:
    """The elementary word E_m(q_m) ... E_n(q_n); empty sequences give 1.

    The word is applied to the two row blocks of the identity.  The forms
    were checked when the sequence was built, so the word is unitary by
    construction and is not checked again.
    """
    from .pauli import CliffordUnitary, PauliModule

    ring, N = seq.ring, seq.N
    ident = _identity_rows(ring, 2 * N)
    a, c = _apply_word(seq, ident[:N], ident[N:])
    matrix = RingMatrix._unchecked(ring, a + c, 2 * N)
    return CliffordUnitary._unchecked(PauliModule(ring, N), matrix)


def _tridiagonal(ring: RingDescriptor, blocks, start: int, N: int) -> list:
    """Rows of the block tridiagonal matrix of the N x N blocks b_start, ...

    Block k, given as rows over ring, sits on the diagonal as (-1)^k b_k;
    the blocks beside the diagonal are I.
    """
    zero, one, neg = _scalars(ring)
    size = len(blocks) * N
    grid = [[zero] * size for _ in range(size)]
    for k, rows in enumerate(blocks, start):
        offset = (k - start) * N
        for i, row in enumerate(rows):
            grid[offset + i][offset : offset + N] = map(neg, row) if k % 2 else row
    for i in range(size - N):
        grid[i][i + N] = grid[i + N][i] = one
    return grid


def sturm_tridiagonal(seq: SturmSequence) -> HermitianForm:
    """Block tridiagonal form with (-1)^k q_k diagonal, identity off-diagonal."""
    blocks = [_rows(q.matrix) for q in seq.forms]
    rows = _tridiagonal(seq.ring, blocks, seq.start, seq.N)
    return HermitianForm(RingMatrix._unchecked(seq.ring, rows), 1)


def _require_loop_type(seq: SturmSequence):
    """A T-free sequence of type (0, 2n): one evaluated at a parameter value."""
    if seq.ring.has_T:
        raise DomainError("evaluate the sequence at a parameter value first")
    if seq.start != 0:
        raise DomainError("loop sequences must start at index 0")
    if len(seq.forms) % 2 == 0:
        raise DomainError("loop sequences have type (0, 2n); pad with a zero form")


def stabilized_image(seq: SturmSequence) -> StabilizerModule:
    """E(q) L + L_{1,2n-1} inside the Pauli module of L_{0,2n-1}.

    Requires a T-free sequence of type (0, 2n) with n >= 1.  Index k of the
    direct sum occupies the k-th N-wide slot of both the X and Z sides.
    """
    from .pauli import PauliModule, StabilizerModule

    _require_loop_type(seq)
    blocks = len(seq.forms) - 1
    if blocks == 0:
        raise DomainError("the type (0,0) base case has no stabilized image")
    ring = seq.ring
    N = seq.N
    a, c = (RingMatrix._unchecked(ring, x, N) for x in _apply_word(seq))
    # columns: the word applied to slot 0 of L, then L_{1,2n-1} on the X side
    cells = [[int(i == j) for j in range(blocks)] for i in range(2 * blocks)]
    cells[0][0], cells[blocks][0] = a, c
    return StabilizerModule(PauliModule(ring, blocks * N), RingMatrix._grid(ring, N, cells))


def transversal_witness(seq: SturmSequence):
    """Graph Lagrangian of S(q') transverse to E(q) L + L_{1,2n-1}.

    The base case n = 0 returns the dual summand L* (with an empty form) as
    the witness: every graph of a form on L is transverse to it.
    """
    from .pauli import PauliModule, StabilizerModule

    _require_loop_type(seq)
    ring = seq.ring
    N = seq.N
    if len(seq.forms) == 1:
        module = PauliModule(ring, N)
        empty = HermitianForm(RingMatrix(ring, []), 1)
        return module.dual_lagrangian(), empty
    sprime = sturm_tridiagonal(seq.truncated())
    size = sprime.dim
    big = PauliModule(ring, size)
    gens = RingMatrix._grid(ring, size, [[1], [sprime.matrix]])
    return StabilizerModule(big, gens), sprime


class LagrangianLoop(_Value):
    """A Sturm sequence over R[T] whose word fixes L at T = 0 and T = 1.

    The constructor is the gate: it checks the loop condition exactly, for
    every d, and pads a sequence of an even number of forms with a zero form.
    The word u maps L onto the span of its first N columns (A; C), the word
    applied to (I; 0).  That span lies in L exactly when C = 0.  And if the
    Lagrangian uL lies in the Lagrangian L, then L = L^perp is inside
    (uL)^perp = uL.  loop_from_pair, direct_sum, padded and constant_loop
    build loops by construction, through _unchecked.
    """

    __slots__ = ("seq",)

    def __init__(self, seq: SturmSequence):
        if not isinstance(seq, SturmSequence):
            raise DomainError(f"a loop is a SturmSequence, got {type(seq).__name__}")
        if not seq.ring.has_T:
            raise DomainError("loops are sequences over a ring with T")
        if seq.start != 0:
            raise DomainError("loop sequences must start at index 0")
        if not seq.forms:
            raise DomainError("a loop sequence of type (0, 2n) has at least one form")
        if len(seq.forms) % 2 == 0:
            seq = seq.padded(1)
        for t in (0, 1):
            if any(map(any, _apply_word(seq, t=t)[1])):
                raise NotALoop(f"the word does not fix the base Lagrangian at T = {t}")
        self._set(seq)

    @property
    def ring(self) -> RingDescriptor:
        return self.seq.ring

    @property
    def N(self) -> int:
        return self.seq.N

    def direct_sum(self, other: "LagrangianLoop") -> "LagrangianLoop":
        if not isinstance(other, LagrangianLoop):
            raise DomainError(f"a loop sums with a LagrangianLoop, got {type(other).__name__}")
        a, b = self.seq, other.seq
        if a.ring != b.ring:
            raise RingMismatch("loops live over different rings")
        length = max(len(a), len(b))
        a = a.padded(length - len(a))
        b = b.padded(length - len(b))
        forms = tuple(
            qa.direct_sum(qb) for qa, qb in zip(a.forms, b.forms)
        )
        return LagrangianLoop._unchecked(SturmSequence._unchecked(a.ring, a.N + b.N, forms, 0))

    def padded(self, extra_pairs: int) -> "LagrangianLoop":
        # twice by extra_pairs, not once by 2 * extra_pairs: each call checks
        # the count, and 2 * True would pass as an int
        return LagrangianLoop._unchecked(self.seq.padded(extra_pairs).padded(extra_pairs))


def validate_loop(seq: SturmSequence) -> LagrangianLoop:
    """The LagrangianLoop of seq, whose constructor checks E(q)(0) L = L = E(q)(1) L."""
    return LagrangianLoop(seq)


def constant_loop(ring: RingDescriptor, N: int, pairs: int = 0) -> LagrangianLoop:
    """The constant loop at L, as 2*pairs + 1 zero forms over R[T]."""
    if type(pairs) is not int or pairs < 0:
        raise DomainError(f"a constant loop has an int pairs >= 0, got {pairs!r}")
    if not ring.has_T:
        ring = ring.with_T()
    return LagrangianLoop._unchecked(SturmSequence._unchecked(ring, N, (), 0).padded(2 * pairs + 1))


def loop_from_pair(q0: HermitianForm, q1: HermitianForm) -> LagrangianLoop:
    """The loop interpolating the graphs of two nondegenerate forms.

    The parametrized word E0((1-T)q0 + Tq1) E1((T-1)q0^-1 - Tq1^-1) lands on
    L* rather than L; conjugating by sigma = E1(1) E0(-1) E1(1) turns it
    into the L-based type (0, 4) sequence
        ((1-T)q0 + Tq1, (T-1)q0^-1 - Tq1^-1 + 1, -1, 1, 0).
    Its first two forms are the interpolations v0 + T(v1 - v0) from q0 to q1
    and from 1 - q0^-1 to 1 - q1^-1, built on the rows of linalg, where the
    inverses are taken; -1 and 1 are the interpolations of their rows with
    themselves.  All four keep their rows at T = 0 and T = 1 and build their
    polynomial entries on first read.  It is a loop by construction: not
    re-validated.
    """
    if q0.ring != q1.ring:
        raise RingMismatch("forms live over different rings")
    if q0.dim != q1.dim:
        raise ShapeError("forms have different ranks")
    if q0.ring.has_T:
        raise DomainError("input forms must be T-free")
    ring, N = q0.ring, q0.dim
    ident = _identity_rows(ring, N)
    ends, shifted = [], []  # the rows of q and of 1 - q^-1 at T = 0 and T = 1
    for q in (q0, q1):
        _require_plus_hermitian(q, "loop construction needs +hermitian forms")
        ends.append(_rows(q.matrix))
        try:
            inv = _inverse_rows(ring, ends[-1])
        except NotAUnit:
            raise DegenerateForm(
                "loop construction needs nondegenerate forms"
            ) from None
        shifted.append(_sub_rows(ring, ident, inv))
    minus = [list(map(_scalars(ring)[2], row)) for row in ident]
    ring_T = ring.with_T()
    forms = tuple(
        HermitianForm(_interpolate(ring_T, *rows, N), 1)
        for rows in (ends, shifted, (minus, minus), (ident, ident))
    )
    return LagrangianLoop._unchecked(SturmSequence._unchecked(ring_T, N, forms, 0).padded(1))


class MaslovResult(_Value):
    """Representative form S(1) + (-S(0)^-1) with its computable invariants.

    The block -S(0)^-1 comes from the three-term recurrence of S(0) (see
    maslov_index), not from a dense inverse; it is the same matrix.  witt is
    present exactly when the loop lives over F_p (d = 0); for d >= 1 the rank
    parity and determinant are still exact invariants of the class.  The
    constructor checks the field types; maslov_index builds its result
    through _unchecked.
    """

    __slots__ = ("form", "witt", "rank_parity", "determinant")

    def __init__(self, form: HermitianForm, witt: WittClass | None, rank_parity: int,
                 determinant: LaurentPolynomial):
        if not (isinstance(form, HermitianForm) and isinstance(determinant, LaurentPolynomial)
                and (witt is None or isinstance(witt, WittClass))
                and type(rank_parity) is int and rank_parity in (0, 1)):
            raise DomainError("a Maslov result is a HermitianForm, a WittClass or None, "
                              "an int rank parity bit and a LaurentPolynomial determinant")
        self._set(form, witt, rank_parity, determinant)


def maslov_index(loop: LagrangianLoop) -> MaslovResult:
    """Maslov index of a based loop of Lagrangians.

    For the k forms b_i of the truncated sequence, from index m, S(t) is
    block tridiagonal with D_i = (-1)^(m+i) b_i(t) on the diagonal and I
    beside it.  Its right solutions Q_k = 0, Q_{k-1} = I,
    Q_{i-1} = -Q_{i+1} - D_i Q_i give det S(t) = (-1)^(kN) det Q_{-1}(t) and,
    with W = Q_{-1}(0), the block column Q_j W^-1 of H = -S(0)^-1.  Its
    dagger is block row 0, and S(0) H = -I gives the blocks above the
    diagonal row by row as H_{i+1,j} = -H_{i-1,j} - D_i H_ij; H is
    hermitian.  Only W and Q_{-1}(1) are eliminated, on N rows each.

    The loop is trusted (its constructor is the gate): one built with
    _unchecked whose word does not fix L gets a class all the same.
    """
    seq = loop.seq.truncated()
    ring0, N, k = seq.ring.drop_T(), seq.N, len(seq.forms)
    n = k * N
    zero, _, neg = _scalars(ring0)
    ident = _identity_rows(ring0, N)
    minus = [list(map(neg, row)) for row in ident]
    zeros = [[zero] * N] * N
    invalid = "is degenerate; the sequence is not a valid loop"

    def steps(blocks):  # the rows of [-D_i | -I] for i = 0, ..., k - 1
        return [
            [(r if (seq.start + i) % 2 else [*map(neg, r)]) + e
             for r, e in zip(b, minus)]
            for i, b in enumerate(blocks)
        ]

    left0 = steps(_rows(q.matrix, 0) for q in seq.forms)
    Q = _three_term(ring0, left0[::-1], ident, zeros)  # Q_k, Q_{k-1}, ..., Q_{-1}
    M = [w + e for w, e in zip(Q[-1], ident)]
    if not (det0 := _eliminate_rows(ring0, M)).is_unit():
        raise InternalInvariantViolation(f"S(0) {invalid}")
    blocks1 = [_rows(q.matrix, 1) for q in seq.forms]
    W1 = _three_term(ring0, steps(blocks1)[::-1], ident, zeros)[-1]
    if not (det1 := _eliminate_rows(ring0, W1)).is_unit():
        raise InternalInvariantViolation(f"S(1) {invalid}")
    s1 = _tridiagonal(ring0, blocks1, seq.start, N)
    # H's block column Q_j W^-1 for j = 0, ..., k - 1; upper[i] is block row i
    # of H from column i N on, and lower[i] its dagger
    winv = [row[N:] for row in M]
    column = _matmul_rows(ring0, [r for Qj in Q[k:0:-1] for r in Qj], winv)
    upper = [_dagger_rows(ring0, column)]
    for i in range(k - 1):
        x = [row[N:] for row in upper[i]]
        y = [row[2 * N :] for row in upper[i - 1]] if i else [[zero] * (n - N)] * N
        upper.append(_matmul_rows(ring0, left0[i], x + y))
    lower = [column] + [_dagger_rows(ring0, u) for u in upper[1:-1]]
    H = [
        [e for h in range(i) for e in lower[h][(i - h) * N + r]] + row
        for i, u in enumerate(upper)
        for r, row in enumerate(u)
    ]
    # rep is hermitian by construction, and its Witt class over F_p follows
    # from det(rep) = det S(1) / det(-S(0)) = (-1)^(kN) det Q_{-1}(1) / det W
    determinant = det1 * det0.unit_inverse()
    if n % 2:
        determinant = -determinant
    # rep is block diagonal, S(1) then H, on rows as _rows gives them
    pad = [zero] * n
    rows = [row + pad for row in s1] + [pad + row for row in H]
    rep = HermitianForm(RingMatrix._unchecked(ring0, rows, 2 * n), 1)
    witt = None if ring0.spatial_vars else WittClass.from_determinant(2 * n, determinant)
    return MaslovResult._unchecked(rep, witt, rep.dim % 2, determinant)


def trivmas_homotopy(q: HermitianForm, t) -> RingMatrix:
    """Congruence e(t) = E1(t q^-1) E0(-t q/2) trivializing q + (-q^-1).

    At t = 0 this is the identity; at t = 1 it satisfies
    dagger(e) (q + (-q^-1)) e = lambda^+ exactly (2 must be invertible).
    """
    _require_plus_hermitian(q, "homotopy needs a +hermitian form")
    try:
        qinv = inverse(q.matrix)
    except NotAUnit:
        raise DegenerateForm("homotopy needs a nondegenerate form") from None
    t = _residue(t, q.ring.p)
    half = pow(2, -1, q.ring.p)
    return _word_matrix(q.ring, q.dim, 1, [qinv.scale(t), q.matrix.scale(-t * half)])


def lambda_flip_homotopy(t, N: int, ring: RingDescriptor) -> RingMatrix:
    """Congruence e(t) = E0(t/2) E1(-t) E0(t) E1(-t/2) on scalar blocks.

    At t = 1 it conjugates lambda^+ to -lambda^+.
    """
    t = _residue(t, ring.p)
    half = pow(2, -1, ring.p)
    scalars = (t * half, -t, t, -t * half)
    return _word_matrix(ring, N, 0, [RingMatrix.scalar(ring, N, c) for c in scalars])


def _word_matrix(ring: RingDescriptor, N: int, start: int, matrices) -> RingMatrix:
    """The word of the hermitian-by-construction forms, from index start."""
    forms = tuple(HermitianForm(m, 1) for m in matrices)
    return sturm_unitary(SturmSequence._unchecked(ring, N, forms, start)).matrix
