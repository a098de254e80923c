"""Sturm sequences of hermitian forms, loops of Lagrangians, Maslov index.

A Sturm sequence of type (m, n) is a list of +hermitian forms q_m..q_n, the
k-th living on L for even k and on L* for odd k.  It encodes the word of
elementary unitaries E_m(q_m) ... E_n(q_n) and, through the associated
block-tridiagonal form, a Lagrangian transversal to the image of the
standard Lagrangian under that word.

A based loop is a Sturm sequence over R[T] whose word fixes the standard
Lagrangian at T = 0 and T = 1.  Its Maslov index is the stable class of
S(1) + (-S(0)^-1) for the tridiagonal form S(T) of the truncated sequence;
over F_p this is a Witt class, over Laurent rings the representative form
and its computable invariants are returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegenerateForm,
    DomainError,
    FormError,
    InternalInvariantViolation,
    NotALoop,
    NotAUnit,
    RingMismatch,
    ShapeError,
)
from .forms import HermitianForm, WittClass
from .linalg import RingMatrix, _inverse_and_det, det, inverse
from .pauli import (
    CliffordUnitary,
    PauliModule,
    StabilizerModule,
    _elementary_unitary,
    elementary_unitary,
)
from .ring import FieldElement, LaurentPolynomial, RingDescriptor


@dataclass(frozen=True)
class SturmSequence:
    """Alternating +hermitian forms q_start..q_{start+len-1} of rank N."""

    ring: RingDescriptor
    N: int
    forms: tuple
    start: int = 0

    def __post_init__(self):
        for q in self.forms:
            if not isinstance(q, HermitianForm):
                raise FormError("Sturm sequences consist of HermitianForm entries")
            if q.ring != self.ring:
                raise RingMismatch("sequence entry over the wrong ring")
            if q.dim != self.N:
                raise ShapeError(f"sequence entry of rank {q.dim}, expected {self.N}")
            if q.sign != 1 or not q.is_hermitian():
                raise FormError("sequence entries must be +hermitian")

    @classmethod
    def _unchecked(cls, ring, N, forms, start) -> "SturmSequence":
        """A sequence of forms hermitian by construction; they are not checked again."""
        seq = object.__new__(cls)
        fields = {"ring": ring, "N": N, "forms": forms, "start": start}
        for name, value in fields.items():
            object.__setattr__(seq, name, value)
        return seq

    def __len__(self):
        return len(self.forms)

    @property
    def end(self) -> int:
        return self.start + len(self.forms) - 1

    def eval_T(self, t) -> "SturmSequence":
        return SturmSequence._unchecked(
            self.ring.drop_T(),
            self.N,
            tuple(q.eval_T(t) for q in self.forms),
            self.start,
        )

    def truncated(self) -> "SturmSequence":
        """Drop the last form (q' in the transversality construction)."""
        return SturmSequence._unchecked(
            self.ring, self.N, self.forms[:-1], self.start
        )

    def padded(self, extra: int) -> "SturmSequence":
        """Append zero forms; E(0) is the identity, so the word is unchanged."""
        zero = HermitianForm(RingMatrix.zeros(self.ring, self.N, self.N), 1)
        return SturmSequence._unchecked(
            self.ring, self.N, self.forms + (zero,) * extra, self.start
        )


def sturm_unitary(seq: SturmSequence) -> CliffordUnitary:
    """The elementary word E_m(q_m) ... E_n(q_n); empty sequences give 1.

    The forms were checked when the sequence was built, so the elementary
    factors are not checked again.
    """
    module = PauliModule(seq.ring, seq.N)
    identity = RingMatrix.identity(seq.ring, 2 * seq.N)
    result = CliffordUnitary._unchecked(module, identity)
    for offset, q in enumerate(seq.forms):
        k = seq.start + offset
        kind = "E0" if k % 2 == 0 else "E1"
        result = result @ _elementary_unitary(kind, q)
    return result


def sturm_tridiagonal(seq: SturmSequence) -> HermitianForm:
    """Block tridiagonal form with (-1)^k q_k diagonal, identity off-diagonal."""
    ring = seq.ring
    N = seq.N
    blocks = len(seq.forms)
    size = blocks * N
    zero = ring.zero()
    grid = [[zero] * size for _ in range(size)]
    for b, q in enumerate(seq.forms):
        k = seq.start + b
        sgn = 1 if k % 2 == 0 else -1
        for i in range(N):
            for j in range(N):
                entry = q.matrix[i, j]
                grid[b * N + i][b * N + j] = entry if sgn == 1 else -entry
    one = ring.one()
    for b in range(blocks - 1):
        for i in range(N):
            grid[b * N + i][(b + 1) * N + i] = one
            grid[(b + 1) * N + i][b * N + i] = one
    return HermitianForm(RingMatrix._unchecked(ring, map(tuple, grid)), 1)


def _require_loop_type(seq: SturmSequence):
    if seq.start != 0:
        raise DomainError("loop sequences must start at index 0")
    if len(seq.forms) % 2 == 0:
        raise DomainError("loop sequences have type (0, 2n); pad with a zero form")


def stabilized_image(seq: SturmSequence) -> StabilizerModule:
    """E(q) L + L_{1,2n-1} inside the Pauli module of L_{0,2n-1}.

    Requires a T-free sequence of type (0, 2n) with n >= 1.  Index k of the
    direct sum occupies the k-th N-wide slot of both the X and Z sides.
    """
    if seq.ring.has_T:
        raise DomainError("evaluate the sequence at a parameter value first")
    _require_loop_type(seq)
    blocks = len(seq.forms) - 1
    if blocks == 0:
        raise DomainError("the type (0,0) base case has no stabilized image")
    ring = seq.ring
    N = seq.N
    big = PauliModule(ring, blocks * N)
    word = sturm_unitary(seq).matrix
    lam_gens = word.submatrix(range(2 * N), range(N))  # E(q) applied to (1; 0)
    total = blocks * N
    cols = []
    for j in range(N):
        col = [ring.zero()] * (2 * total)
        for i in range(N):
            col[i] = lam_gens[i, j]  # X slot 0
            col[total + i] = lam_gens[N + i, j]  # Z slot 0
        cols.append(col)
    for k in range(1, blocks):
        for i in range(N):
            col = [ring.zero()] * (2 * total)
            col[k * N + i] = ring.one()
            cols.append(col)
    gens = RingMatrix(ring, [[c[i] for c in cols] for i in range(2 * total)])
    return StabilizerModule(big, gens)


def transversal_witness(seq: SturmSequence):
    """Graph Lagrangian of S(q') transverse to E(q) L + L_{1,2n-1}.

    The base case n = 0 returns the dual summand L* (with an empty form) as
    the witness: every graph of a form on L is transverse to it.
    """
    if seq.ring.has_T:
        raise DomainError("evaluate the sequence at a parameter value first")
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
    gens = RingMatrix.from_blocks([[RingMatrix.identity(ring, size)], [sprime.matrix]])
    return StabilizerModule(big, gens), sprime


@dataclass(frozen=True)
class LagrangianLoop:
    """A Sturm sequence over R[T] whose word fixes L at T = 0 and T = 1."""

    seq: SturmSequence

    @property
    def ring(self) -> RingDescriptor:
        return self.seq.ring

    @property
    def N(self) -> int:
        return self.seq.N

    def direct_sum(self, other: "LagrangianLoop") -> "LagrangianLoop":
        a, b = self.seq, other.seq
        if a.ring != b.ring:
            raise RingMismatch("loops live over different rings")
        length = max(len(a), len(b))
        a = a.padded(length - len(a))
        b = b.padded(length - len(b))
        forms = tuple(
            qa.direct_sum(qb) for qa, qb in zip(a.forms, b.forms)
        )
        return LagrangianLoop(SturmSequence._unchecked(a.ring, a.N + b.N, forms, 0))

    def padded(self, extra_pairs: int) -> "LagrangianLoop":
        return LagrangianLoop(self.seq.padded(2 * extra_pairs))


def _fixes_standard_lagrangian(u: CliffordUnitary) -> bool:
    """uL = L for the standard Lagrangian L, exactly for every d.

    uL is spanned by the first N columns (A; C) of u, so uL is inside L
    exactly when the lower-left block C is 0.  And if the Lagrangian uL lies
    in the Lagrangian L, then L = L^perp is inside (uL)^perp = uL.
    """
    N = u.ambient.N
    return u.matrix.submatrix(range(N, 2 * N), range(N)).is_zero()


def validate_loop(seq: SturmSequence) -> LagrangianLoop:
    """Check the loop condition E(q)(0) L = L = E(q)(1) L."""
    if not seq.ring.has_T:
        raise DomainError("loops are sequences over a ring with T")
    if seq.start != 0:
        raise DomainError("loop sequences must start at index 0")
    if len(seq.forms) % 2 == 0:
        seq = seq.padded(1)
    for t in (0, 1):
        u = sturm_unitary(seq.eval_T(t))
        if not _fixes_standard_lagrangian(u):
            raise NotALoop(f"the word does not fix the base Lagrangian at T = {t}")
    return LagrangianLoop(seq)


def constant_loop(ring: RingDescriptor, N: int, pairs: int = 0) -> LagrangianLoop:
    """The constant loop at L, as 2*pairs + 1 zero forms over R[T]."""
    if not ring.has_T:
        ring = ring.with_T()
    zero = HermitianForm(RingMatrix.zeros(ring, N, N), 1)
    return LagrangianLoop(SturmSequence(ring, N, (zero,) * (2 * pairs + 1)))


def loop_from_pair(q0: HermitianForm, q1: HermitianForm) -> LagrangianLoop:
    """The loop interpolating the graphs of two nondegenerate forms.

    The parametrized word E0((1-T)q0 + Tq1) E1((T-1)q0^-1 - Tq1^-1) lands on
    L* rather than L; conjugating by sigma = E1(1) E0(-1) E1(1) turns it
    into the L-based type (0, 4) sequence
        ((1-T)q0 + Tq1, (T-1)q0^-1 - Tq1^-1 + 1, -1, 1, 0).
    """
    if q0.ring != q1.ring:
        raise RingMismatch("forms live over different rings")
    if q0.dim != q1.dim:
        raise ShapeError("forms have different ranks")
    if q0.ring.has_T:
        raise DomainError("input forms must be T-free")
    inverses = []
    for q in (q0, q1):
        if q.sign != 1 or not q.is_hermitian():
            raise FormError("loop construction needs +hermitian forms")
        try:
            inverses.append(inverse(q.matrix).lift_T())
        except NotAUnit:
            raise DegenerateForm(
                "loop construction needs nondegenerate forms"
            ) from None
    q0inv, q1inv = inverses
    ring_T = q0.ring.with_T()
    T = ring_T.T()
    one = ring_T.one()
    N = q0.dim
    q0m = q0.matrix.lift_T()
    q1m = q1.matrix.lift_T()
    ident = RingMatrix.identity(ring_T, N)
    a = q0m.scale(one - T) + q1m.scale(T)
    b1 = q0inv.scale(T - one) - q1inv.scale(T) + ident
    forms = (
        HermitianForm(a, 1),
        HermitianForm(b1, 1),
        HermitianForm(-ident, 1),
        HermitianForm(ident, 1),
        HermitianForm(RingMatrix.zeros(ring_T, N, N), 1),
    )
    return validate_loop(SturmSequence._unchecked(ring_T, N, forms, 0))


@dataclass(frozen=True)
class MaslovResult:
    """Representative form S(1) + (-S(0)^-1) with its computable invariants.

    witt is present exactly when the loop lives over F_p (d = 0); for d >= 1
    the rank parity and determinant are still exact invariants of the class.
    """

    form: HermitianForm
    witt: WittClass | None
    rank_parity: int
    determinant: LaurentPolynomial


def maslov_index(loop: LagrangianLoop) -> MaslovResult:
    """Maslov index of a based loop of Lagrangians."""
    seq = loop.seq
    ring0 = seq.ring.drop_T()
    if len(seq.forms) == 1:
        empty = HermitianForm(RingMatrix(ring0, []), 1)
        witt = WittClass.zero(ring0.p) if ring0.spatial_vars == 0 else None
        return MaslovResult(empty, witt, 0, ring0.one())
    s_of_t = sturm_tridiagonal(seq.truncated())
    s0 = s_of_t.eval_T(0)
    s1 = s_of_t.eval_T(1)
    invalid = "is degenerate; the sequence is not a valid loop"
    try:
        inv0, det0 = _inverse_and_det(s0.matrix)
    except NotAUnit:
        raise InternalInvariantViolation(f"S(0) {invalid}") from None
    det1 = det(s1.matrix)
    if not det1.is_unit():
        raise InternalInvariantViolation(f"S(1) {invalid}")
    # rep is hermitian by construction, and its Witt class over F_p follows
    # from det(rep) = det S(1) * det(-S(0)^-1) = det S(1) * (-1)^n / det S(0)
    rep = HermitianForm(RingMatrix.block_diag([s1.matrix, -inv0]), 1)
    determinant = det1 * det0.unit_inverse() * (-1) ** s0.dim
    witt = (
        WittClass.from_determinant(rep.dim, determinant)
        if ring0.spatial_vars == 0
        else None
    )
    return MaslovResult(rep, witt, rep.dim % 2, determinant)


def trivmas_homotopy(q: HermitianForm, t) -> RingMatrix:
    """Congruence e(t) = E1(t q^-1) E0(-t q/2) trivializing q + (-q^-1).

    At t = 0 this is the identity; at t = 1 it satisfies
    dagger(e) (q + (-q^-1)) e = lambda^+ exactly (2 must be invertible).
    """
    if q.sign != 1 or not q.is_hermitian():
        raise FormError("homotopy needs a +hermitian form")
    try:
        qinv = inverse(q.matrix)
    except NotAUnit:
        raise DegenerateForm("homotopy needs a nondegenerate form") from None
    ring = q.ring
    n = q.dim
    t = _as_scalar(ring, t)
    half = pow(2, -1, ring.p)
    ident = RingMatrix.identity(ring, n)
    zero = RingMatrix.zeros(ring, n, n)
    upper = RingMatrix.from_blocks([[ident, qinv.scale(t)], [zero, ident]])
    lower = RingMatrix.from_blocks(
        [[ident, zero], [q.matrix.scale(-t * half), ident]]
    )
    return upper @ lower


def lambda_flip_homotopy(t, N: int, ring: RingDescriptor) -> RingMatrix:
    """Congruence e(t) = E0(t/2) E1(-t) E0(t) E1(-t/2) on scalar blocks.

    At t = 1 it conjugates lambda^+ to -lambda^+.
    """
    t = _as_scalar(ring, t)
    half = pow(2, -1, ring.p)
    ident = RingMatrix.identity(ring, N)
    zero = RingMatrix.zeros(ring, N, N)

    def upper(c):
        return RingMatrix.from_blocks([[ident, ident.scale(c)], [zero, ident]])

    def lower(c):
        return RingMatrix.from_blocks([[ident, zero], [ident.scale(c), ident]])

    return lower(t * half) @ upper(-t) @ lower(t) @ upper(-t * half)


def _as_scalar(ring: RingDescriptor, t) -> int:
    if isinstance(t, FieldElement):
        if t.p != ring.p:
            raise RingMismatch("scalar modulus differs from the ring")
        return t.value
    return int(t) % ring.p


def three_term_transfer(q: HermitianForm, k: int) -> RingMatrix:
    """Transfer matrix (-1)^(k-1) sigma_{k-1} E_k(q) sigma_k^-1.

    Relates consecutive solution pairs: (x_{k-1}, x_k) = transfer (x_k, x_{k+1})
    holds iff x_{k-1} + (-1)^k q(x_k) + x_{k+1} = 0.
    """
    ring = q.ring
    n = q.dim
    module = PauliModule(ring, n)
    sigma = module.lambda_minus()
    ident = RingMatrix.identity(ring, 2 * n)
    kind = "E0" if k % 2 == 0 else "E1"
    ek = elementary_unitary(kind, q).matrix
    left = ident if (k - 1) % 2 == 0 else sigma
    right = ident if k % 2 == 0 else inverse(sigma)
    out = left @ ek @ right
    return out if (k - 1) % 2 == 0 else -out


def recurrence_companion(q: HermitianForm, k: int) -> RingMatrix:
    """Companion form of the three-term recurrence, for consistency checks."""
    ring = q.ring
    n = q.dim
    ident = RingMatrix.identity(ring, n)
    zero = RingMatrix.zeros(ring, n, n)
    top_left = q.matrix if k % 2 == 1 else -q.matrix
    return RingMatrix.from_blocks([[top_left, -ident], [ident, zero]])
