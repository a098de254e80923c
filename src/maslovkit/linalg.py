"""Matrix algebra over the library's exact coefficient rings.

Provides dense matrices of Laurent polynomials with the dagger
(involution-transpose), exact polynomial-time determinants and inverses over
every ring, and Smith normal form over F_p and F_p[x, x^-1] for kernels and spans.

The Euclidean size function on F_p[x, x^-1] is the exponent spread
(max degree - min degree); every nonzero element factors as a unit times an
ordinary polynomial with nonzero constant term, which is what the division
helper below reduces to.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import add, sub

from .errors import (
    DivisionByZero,
    InternalInvariantViolation,
    NotAUnit,
    RingMismatch,
    ShapeError,
    UnsupportedRing,
)
from .ring import FieldElement, LaurentPolynomial, RingDescriptor, _reduced


class RingMatrix:
    """Rectangular matrix of Laurent polynomials over a fixed ring.

    Entries are stored densely; matrices in this library stay small.
    Instances are treated as immutable.
    """

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: RingDescriptor, entries):
        rows = []
        for raw in entries:
            row = []
            for e in raw:
                if isinstance(e, (int, FieldElement)):
                    e = ring.constant(e)
                if not isinstance(e, LaurentPolynomial):
                    raise ShapeError(f"bad matrix entry {e!r}")
                if e.ring != ring:
                    raise RingMismatch("entry ring differs from matrix ring")
                row.append(e)
            rows.append(tuple(row))
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ShapeError("rows have inconsistent lengths")
        self.ring = ring
        self.rows = len(rows)
        self.cols = ncols
        self.entries = tuple(rows)

    @classmethod
    def _unchecked(cls, ring: RingDescriptor, rows) -> "RingMatrix":
        """Wrap rows computed by the library, without checking them.

        rows is a sequence of equal-length tuples of polynomials over ring.
        """
        m = object.__new__(cls)
        m.ring = ring
        m.entries = tuple(rows)
        m.rows = len(m.entries)
        m.cols = len(m.entries[0]) if m.entries else 0
        return m

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, ring: RingDescriptor, n: int) -> "RingMatrix":
        one, zero = ring.one(), ring.zero()
        return cls._unchecked(
            ring, [tuple(one if i == j else zero for j in range(n)) for i in range(n)]
        )

    @classmethod
    def zeros(cls, ring: RingDescriptor, r: int, c: int) -> "RingMatrix":
        return cls._unchecked(ring, [(ring.zero(),) * c] * r)

    @classmethod
    def scalar(cls, ring: RingDescriptor, n: int, c) -> "RingMatrix":
        return cls(ring, [[c if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, ring: RingDescriptor, entries) -> "RingMatrix":
        return cls(ring, [[e] for e in entries])

    @classmethod
    def from_blocks(cls, blocks) -> "RingMatrix":
        """Assemble a block matrix from a grid of RingMatrix pieces."""
        ring = blocks[0][0].ring
        width = sum(b.cols for b in blocks[0])
        rows = []
        for block_row in blocks:
            height = block_row[0].rows
            if any(b.rows != height for b in block_row):
                raise ShapeError("block row heights differ")
            if sum(b.cols for b in block_row) != width:
                raise ShapeError("block row widths differ")
            if any(b.ring != ring for b in block_row):
                raise RingMismatch("block ring mismatch")
            for i in range(height):
                rows.append(tuple(e for b in block_row for e in b.entries[i]))
        return cls._unchecked(ring, rows)

    @classmethod
    def block_diag(cls, blocks) -> "RingMatrix":
        blocks = list(blocks)
        if not blocks:
            raise ShapeError("block_diag needs at least one block")
        ring = blocks[0].ring
        if any(b.ring != ring for b in blocks):
            raise RingMismatch("block ring mismatch")
        total_c = sum(b.cols for b in blocks)
        zero = ring.zero()
        rows = []
        c0 = 0
        for b in blocks:
            left = (zero,) * c0
            right = (zero,) * (total_c - c0 - b.cols)
            rows.extend(left + row + right for row in b.entries)
            c0 += b.cols
        return cls._unchecked(ring, rows)

    @classmethod
    def hstack(cls, blocks) -> "RingMatrix":
        blocks = list(blocks)
        return cls.from_blocks([blocks])

    # -- basic operations --------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, RingMatrix)
            and self.ring == other.ring
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring, self.entries))

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if self.ring != other.ring:
            raise RingMismatch("matrix rings differ")
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        # each entry sums all its term products in one dict and reduces once
        ring = self.ring
        p = ring.p
        wrap = LaurentPolynomial._unchecked
        columns = [[b.terms for b in col] for col in zip(*other.entries)]
        out = []
        for row in self.entries:
            left = [a.terms for a in row]
            new_row = []
            for col in columns:
                acc: dict = {}
                for a, b in zip(left, col):
                    if a and b:
                        for e1, c1 in a.items():
                            for e2, c2 in b.items():
                                e = tuple(map(add, e1, e2))
                                acc[e] = acc.get(e, 0) + c1 * c2
                new_row.append(wrap(ring, _reduced(acc, p)))
            out.append(tuple(new_row))
        return RingMatrix._unchecked(ring, out)

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        if self.ring != other.ring:
            raise RingMismatch("matrix rings differ")
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        return RingMatrix._unchecked(
            self.ring,
            [
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        return self + (-other)

    def __neg__(self) -> "RingMatrix":
        return RingMatrix._unchecked(
            self.ring, [tuple(-e for e in row) for row in self.entries]
        )

    def scale(self, c) -> "RingMatrix":
        if isinstance(c, (int, FieldElement)):
            c = self.ring.constant(c)
        return RingMatrix._unchecked(
            self.ring, [tuple(c * e for e in row) for row in self.entries]
        )

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def dagger(self) -> "RingMatrix":
        """Transpose with entrywise involution (the dual map)."""
        return RingMatrix._unchecked(
            self.ring,
            [tuple(e.involute() for e in col) for col in zip(*self.entries)],
        )

    def transpose(self) -> "RingMatrix":
        return RingMatrix._unchecked(self.ring, list(zip(*self.entries)))

    def eval_T(self, t) -> "RingMatrix":
        return RingMatrix._unchecked(
            self.ring.drop_T(),
            [tuple(e.eval_T(t) for e in row) for row in self.entries],
        )

    def lift_T(self) -> "RingMatrix":
        return RingMatrix._unchecked(
            self.ring.with_T(),
            [tuple(e.lift_T() for e in row) for row in self.entries],
        )

    def submatrix(self, row_indices, col_indices) -> "RingMatrix":
        col_indices = list(col_indices)
        return RingMatrix._unchecked(
            self.ring,
            [tuple(self.entries[i][j] for j in col_indices) for i in row_indices],
        )

    def __repr__(self):
        body = "; ".join(
            ", ".join(repr(e) for e in row) for row in self.entries
        )
        return f"RingMatrix[{self.rows}x{self.cols}: {body}]"


# -- Euclidean division in F_p[x, x^-1] -----------------------------------


def spread(f: LaurentPolynomial) -> int:
    """Exponent spread of a nonzero element; the Euclidean size for d = 1."""
    if f.is_zero():
        raise DivisionByZero("spread of zero is undefined")
    if f.ring.spatial_vars == 0:
        return 0
    exps = [e[0] for e in f.terms]
    return max(exps) - min(exps)


def _unipoly(f: LaurentPolynomial):
    """Shift a d=1 Laurent polynomial to (min_exp, dense coefficient list)."""
    exps = [e[0] for e in f.terms]
    lo, hi = min(exps), max(exps)
    coeffs = [0] * (hi - lo + 1)
    for (e,), c in f.terms.items():
        coeffs[e - lo] = c
    return lo, coeffs


def _from_unipoly(ring: RingDescriptor, shift: int, coeffs) -> LaurentPolynomial:
    return LaurentPolynomial(
        ring, {(shift + i,): c for i, c in enumerate(coeffs) if c % ring.p}
    )


def laurent_divmod(f: LaurentPolynomial, g: LaurentPolynomial):
    """f = q*g + r with spread(r) < spread(g), over F_p or F_p[x, x^-1]."""
    ring = f.ring
    if ring.has_T or ring.spatial_vars > 1:
        raise UnsupportedRing("division implemented for d <= 1 without T")
    if g.is_zero():
        raise DivisionByZero("division by zero polynomial")
    if f.is_zero():
        return ring.zero(), ring.zero()
    p = ring.p
    if ring.spatial_vars == 0:
        fc = next(iter(f.terms.values()))
        gc = next(iter(g.terms.values()))
        return ring.constant(fc * pow(gc, -1, p)), ring.zero()
    flo, fc = _unipoly(f)
    glo, gc = _unipoly(g)
    ginv = pow(gc[-1], -1, p)
    rem = list(fc)
    quo = [0] * max(len(fc) - len(gc) + 1, 0)
    while len(rem) >= len(gc) and any(rem):
        while rem and rem[-1] % p == 0:
            rem.pop()
        if len(rem) < len(gc):
            break
        k = len(rem) - len(gc)
        c = rem[-1] * ginv % p
        quo[k] = c
        for i, gcoef in enumerate(gc):
            rem[k + i] = (rem[k + i] - c * gcoef) % p
        rem.pop()
    q = _from_unipoly(ring, flo - glo, quo)
    r = _from_unipoly(ring, flo, rem)
    return q, r


def _canonical_unit(f: LaurentPolynomial) -> LaurentPolynomial:
    """Unit u such that u*f has lowest exponent 0 and leading coefficient 1."""
    ring = f.ring
    p = ring.p
    if ring.spatial_vars == 0:
        c = next(iter(f.terms.values()))
        return ring.constant(pow(c, -1, p))
    lo, coeffs = _unipoly(f)
    lead_inv = pow(coeffs[-1], -1, p)
    return LaurentPolynomial(ring, {(-lo,): lead_inv})


# -- Smith normal form ------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ G @ V = D with U, V invertible and D a canonical diagonal.

    Nonzero diagonal entries come first, satisfy the divisibility chain
    d1 | d2 | ..., and are normalized to lowest exponent 0 with leading
    coefficient 1.
    """

    U: RingMatrix
    D: RingMatrix
    V: RingMatrix

    @property
    def invariant_factors(self) -> list:
        n = min(self.D.rows, self.D.cols)
        return [self.D[k, k] for k in range(n) if not self.D[k, k].is_zero()]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def _check_snf_ring(ring: RingDescriptor):
    if ring.has_T:
        raise UnsupportedRing("Smith normal form over rings with T is unsupported")
    if ring.spatial_vars > 1:
        raise UnsupportedRing(
            f"Smith normal form needs d <= 1, got d = {ring.spatial_vars}"
        )


def smith_normal_form(G: RingMatrix) -> SmithDecomposition:
    """Smith normal form over F_p or F_p[x, x^-1].

    Pivots are chosen with least spread (ties by lowest row, then column
    index) so the output is deterministic.
    """
    ring = G.ring
    _check_snf_ring(ring)
    m, n = G.rows, G.cols
    A = [list(row) for row in G.entries]
    U = [[ring.one() if i == j else ring.zero() for j in range(m)] for i in range(m)]
    V = [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]

    def swap_rows(M, a, b):
        M[a], M[b] = M[b], M[a]

    def swap_cols(M, a, b):
        for row in M:
            row[a], row[b] = row[b], row[a]

    def row_submul(M, dst, q, src):
        M[dst] = [e - q * f for e, f in zip(M[dst], M[src])]

    def col_submul(M, dst, q, src):
        for row in M:
            row[dst] = row[dst] - q * row[src]

    def row_add(M, dst, src):
        M[dst] = [e + f for e, f in zip(M[dst], M[src])]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if not A[i][j].is_zero():
                    key = (spread(A[i][j]), i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            swap_rows(A, t, pi)
            swap_rows(U, t, pi)
        if pj != t:
            swap_cols(A, t, pj)
            swap_cols(V, t, pj)

        while True:
            restarted = False
            i = 0
            while i < m:
                if i != t and not A[i][t].is_zero():
                    q, r = laurent_divmod(A[i][t], A[t][t])
                    row_submul(A, i, q, t)
                    row_submul(U, i, q, t)
                    if not r.is_zero():
                        swap_rows(A, t, i)
                        swap_rows(U, t, i)
                        restarted = True
                        break
                i += 1
            if restarted:
                continue
            j = 0
            while j < n:
                if j != t and not A[t][j].is_zero():
                    q, r = laurent_divmod(A[t][j], A[t][t])
                    col_submul(A, j, q, t)
                    col_submul(V, j, q, t)
                    if not r.is_zero():
                        swap_cols(A, t, j)
                        swap_cols(V, t, j)
                        restarted = True
                        break
                j += 1
            if restarted:
                continue
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] and laurent_divmod(A[i][j], A[t][t])[1]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(A, t, offender)
            row_add(U, t, offender)
        t += 1

    for k in range(min(m, n)):
        if not A[k][k].is_zero():
            u = _canonical_unit(A[k][k])
            A[k] = [u * e for e in A[k]]
            U[k] = [u * e for e in U[k]]

    return SmithDecomposition(
        U=RingMatrix(ring, U),
        D=RingMatrix(ring, A),
        V=RingMatrix(ring, V),
    )


def kernel_basis(G: RingMatrix) -> RingMatrix:
    """Columns generating {v : G v = 0}; a rows x 0 matrix for zero kernel."""
    snf = smith_normal_form(G)
    r = snf.rank
    cols = range(r, G.cols)
    return snf.V.submatrix(range(G.cols), cols)


def solve_in_span(G: RingMatrix, B: RingMatrix) -> RingMatrix | None:
    """Solve G X = B over the ring; None when some column is not in the span."""
    if G.rows != B.rows:
        raise ShapeError("row counts differ")
    snf = smith_normal_form(G)
    r = snf.rank
    W = snf.U @ B
    ring = G.ring
    Y = [[ring.zero()] * B.cols for _ in range(G.cols)]
    for i in range(G.rows):
        for j in range(B.cols):
            w = W[i, j]
            if i < r:
                q, rem = laurent_divmod(w, snf.D[i, i])
                if not rem.is_zero():
                    return None
                Y[i][j] = q
            elif not w.is_zero():
                return None
    return snf.V @ RingMatrix(ring, Y)


def span_contains(G: RingMatrix, B: RingMatrix) -> bool:
    """True when every column of B lies in the column span of G."""
    return solve_in_span(G, B) is not None


def spans_equal(G1: RingMatrix, G2: RingMatrix) -> bool:
    return span_contains(G1, G2) and span_contains(G2, G1)


# -- determinants, units, inverses -----------------------------------------


def _constant_rows(A: RingMatrix) -> list:
    """The constant terms of A's entries as int rows: A itself over F_p."""
    zero = (0,) * A.ring.nexponents
    return [[e.terms.get(zero, 0) for e in row] for row in A.entries]


def _eliminate_modp(M: list, p: int) -> int:
    """Row-reduce the n int rows M in place mod p; det of their n x n part.

    Entries are residues in [0, p).  With n columns only the rows below each
    pivot are cleared, which is all the determinant needs.  With augmented
    columns [A | B] each pivot row is scaled to 1 and every other row is
    cleared, so a nonsingular A leaves [I | A^-1 B].  A singular A gives 0.
    """
    n = len(M)
    augmented = n > 0 and len(M[0]) > n
    d = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            d = -d
        d = d * M[c][c] % p
        inv = pow(M[c][c], -1, p)
        if augmented:
            M[c] = [v * inv % p for v in M[c]]
            inv = 1
            targets = [r for r in range(n) if r != c]
        else:
            targets = range(c + 1, n)
        for r in targets:
            factor = M[r][c] * inv % p
            if factor:
                M[r] = [(a - factor * b) % p for a, b in zip(M[r], M[c])]
    return d


def _exact_quotient(f: LaurentPolynomial, g: LaurentPolynomial) -> LaurentPolynomial:
    """The q with q * g = f; InternalInvariantViolation if g does not divide f.

    Lex long division from the least term up.  Newton polytopes add, so q lies
    in the box min(f) - min(g) .. max(f) - max(g) of each variable (T also >= 0)
    and its terms rise in lex order: an inexact division leaves the box.
    """
    if not f.terms:
        return f
    p = f.ring.p
    lo = [min(a) - min(b) for a, b in zip(zip(*f.terms), zip(*g.terms))]
    hi = [max(a) - max(b) for a, b in zip(zip(*f.terms), zip(*g.terms))]
    if f.ring.has_T:
        lo[-1] = max(lo[-1], 0)
    lead = min(g.terms)
    lead_inv = pow(g.terms[lead], -1, p)
    rem, q = dict(f.terms), {}
    heapify(heap := list(rem))
    while heap:
        e = heappop(heap)
        if e not in rem:
            continue
        m = tuple(map(sub, e, lead))
        if not all(a <= v <= b for a, v, b in zip(lo, m, hi)):
            raise InternalInvariantViolation(f"{g} does not divide {f}")
        q[m] = c = rem[e] * lead_inv % p
        for e2, c2 in g.terms.items():
            t = tuple(map(add, m, e2))
            if v := (rem.get(t, 0) - c * c2) % p:
                if t not in rem:
                    heappush(heap, t)
                rem[t] = v
            else:
                rem.pop(t, None)
    return LaurentPolynomial._unchecked(f.ring, q)


def _eliminate(M: list) -> LaurentPolynomial:
    """Fraction-free (Bareiss) elimination of the n polynomial rows M in place.

    As _eliminate_modp, but each update is divided exactly by the previous
    pivot; returns det.  With augmented columns [A | B] a nonsingular A leaves
    s A^-1 B in the columns of B, s = +-det(A) the last pivot M[n-1][n-1].
    """
    n, width = len(M), len(M[0])
    ring = M[0][0].ring
    prev, negate = ring.one(), False
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return ring.zero()
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            negate = not negate
        top = M[c]
        pivot = top[c]
        for r in range(n) if width > n else range(c + 1, n):
            row, factor = M[r], M[r][c]
            if r == c or (not factor and pivot == prev):
                continue
            for j in range(c + 1, width):
                if row[j] or (factor and top[j]):  # skip zeros: S(0), S(1) are sparse
                    t = pivot * row[j] - factor * top[j]
                    row[j] = _exact_quotient(t, prev)
        prev = pivot
    return -prev if negate else prev


def det(A: RingMatrix) -> LaurentPolynomial:
    """Exact determinant in polynomial time: mod-p or fraction-free elimination."""
    if not A.is_square():
        raise ShapeError("determinant of a non-square matrix")
    ring = A.ring
    if A.rows == 0:
        return ring.one()
    if ring.spatial_vars == 0 and not ring.has_T:
        return ring.constant(_eliminate_modp(_constant_rows(A), ring.p))
    return _eliminate([list(row) for row in A.entries])


def is_unit_matrix(A: RingMatrix) -> bool:
    """True iff det(A) is a unit of the ring (a nonzero monomial)."""
    if not A.is_square():
        raise ShapeError("unit test needs a square matrix")
    return det(A).is_unit()


def inverse(A: RingMatrix) -> RingMatrix:
    """Inverse of a matrix whose determinant is a unit; NotAUnit otherwise."""
    return _inverse_and_det(A)[0]


def _inverse_and_det(A: RingMatrix) -> tuple[RingMatrix, LaurentPolynomial]:
    """(A^-1, det A) from the one elimination of [A | I] that inverts A."""
    if not A.is_square():
        raise ShapeError("inverse of a non-square matrix")
    ring, n = A.ring, A.rows
    if n == 0:
        return A, ring.one()
    augmented = RingMatrix.hstack([A, RingMatrix.identity(ring, n)])
    if ring.spatial_vars == 0 and not ring.has_T:
        M = _constant_rows(augmented)
        if not (d := _eliminate_modp(M, ring.p)):
            raise NotAUnit("matrix is singular mod p")
        wrap = LaurentPolynomial._unchecked
        rows = [tuple(wrap(ring, {(): v} if v else {}) for v in row[n:]) for row in M]
        return RingMatrix._unchecked(ring, rows), ring.constant(d)
    M = [list(row) for row in augmented.entries]
    if not (d := _eliminate(M)).is_unit():
        raise NotAUnit("matrix is not invertible over the ring")
    s = M[-1][n - 1].unit_inverse()
    return RingMatrix._unchecked(ring, [tuple(s * e for e in row[n:]) for row in M]), d
