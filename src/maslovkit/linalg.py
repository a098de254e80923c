"""Matrix algebra over the library's exact coefficient rings.

Provides dense matrices of Laurent polynomials with the dagger
(involution-transpose), exact polynomial-time determinants and inverses over
every ring, and Smith normal form over F_p and F_p[x, x^-1] for kernels and spans.

A matrix stores its rows as this module computes on them: int residues over
F_p, the entries' term dicts (see ring) elsewhere.  _rows gives a fresh list
of them, RingMatrix._unchecked stores rows as given, and
serialize.decode_matrix hands it the rows it reads from a document.
entries is a view of them as polynomials, built on first read: one per
residue over F_p, elsewhere one per nonzero entry, which shares its terms
dict with the stored row.  No stored dict is ever changed.
_interpolate makes the matrix A + T (B - A) over R[T] from the rows of two
T-free matrices A and B and keeps them: _rows at T = 0 and T = 1 copies
them, and RingMatrix.eval_T there reads them, without a row over R[T]; any
other read (entries, A[i, j], ==, hash, dagger, encoding) first builds the
stored rows, once.  On term-dict rows no function runs on a zero entry:
_dagger_rows (and so RingMatrix.dagger), _sub_rows and the negation of
_scalars pass it through, and _rows at T = t gives it as ring._ZERO, the
shared zero that _scalars gives and _matmul_rows puts in every entry no
term reaches.  Eliminations run mod p over F_p and fraction-free (Bareiss)
elsewhere; a Bareiss step touches only the rows with a nonzero entry in the
pivot column, the others keep the level of their last update and are caught
up lazily.  A division by a single-term pivot is an exponent shift, by a
constant a scaling.

Products have one kernel, _matmul_rows, in row form: it takes the rows of A
and of B and returns the rows C[i] = sum_k A[i][k] B[k].  Matrix products,
each Bareiss row update (a 1 x 2 by 2 x w product, in which a column zero in
both rows stays zero) and every step of the Sturm recurrence call it.
Polynomial rows sum their term products in one dict per nonzero entry of C.
Over F_p a product is packed when two properties of its input hold: it has
at least _PACK_MIN entry products (rows of A x width x inner length K), and
K (p - 1)^2 fits the widest unsigned array slot (8 bytes).  Each row of B is
then packed once into one int with a byte-aligned slot per entry, each row of
C is one big-int multiply-add of those ints, unpacked once and reduced mod p.
Any other product takes the plain sums; the output is the same either way,
and nothing but the input selects the path.

F_p eliminations run on packed rows too, with delayed reduction (as in
FFLAS-FFPACK, Dumas, Giorgi and Pernet 2008).  Each of the n rows is one int
with a byte-aligned slot per entry, the narrowest slot that holds
p^2 (n + 1).  A row update adds (p - f) T, T the packed and reduced pivot
row, as one big-int multiply-add; the pivot column is read from the slots and
reduced.  An update adds at most (p - 1)^2 to a slot, and a row takes at most
n - 1 updates between two reductions: when it becomes the pivot row it is
unpacked, reduced (over [A | B] also scaled to 1) and repacked, and every row
is unpacked and reduced at the end.  An elimination of fewer than
_PACK_ELIMINATE_MIN entries (n x width) keeps the plain update, which is
faster there, as does one whose p^2 (n + 1) fits no slot (p near 10^9 and
n >= 18); the rows and the det are the same either way.

Smith normal form, division and solve run for d <= 1 on term-dict rows, the
stored ones, with an F_p residue v entering as {(): v} and leaving as v; no
computation reads entries, only A[i, j], repr and invariant_factors do.  The
Euclidean size is the exponent spread (max - min degree, 0 for one term):
long division walks f's exponents from the top down and leaves a remainder
of smaller spread than the divisor, and a single-term divisor (every unit)
divides through ring._quotient as an exponent shift.  Division walks the
exponent range, so the Smith form rejects entries whose spread exceeds 2^16.
"""

from __future__ import annotations

import sys
from array import array
from operator import add, mul, sub

from .errors import (
    DivisionByZero,
    DomainError,
    NotAUnit,
    RingMismatch,
    ShapeError,
    UnsupportedRing,
    _Value,
)
from .ring import LaurentPolynomial, RingDescriptor, _ZERO, _at_T, _combined, _involuted
from .ring import _is_unit, _lifted, _negated, _product, _products, _quotient, _reduced, _residue


class RingMatrix:
    """Rectangular matrix of Laurent polynomials over a fixed ring.

    Entries are stored densely, as the rows linalg computes on: int residues
    over F_p, the entries' term dicts elsewhere.  entries (and so A[i, j])
    is a read-only view of them, built on first read (the constructor keeps
    the polynomials it was given): a nonzero entry shares its terms dict
    with the stored row, and no stored dict is ever changed.  A matrix made
    by _interpolate keeps its T-free rows at T = 0 and T = 1 and builds its
    stored rows on first read.  Instances are treated as immutable.
    """

    __slots__ = ("ring", "rows", "cols", "_stored_rows", "_ends", "_entries")

    def __init__(self, ring: RingDescriptor, entries):
        if not isinstance(ring, RingDescriptor):
            raise DomainError(f"a matrix's ring is a RingDescriptor, got {type(ring).__name__}")
        rows = []
        try:
            for raw in entries:
                row = []
                for e in raw:
                    if not isinstance(e, LaurentPolynomial):
                        e = ring.constant(e)
                    if e.ring != ring:
                        raise RingMismatch("entry ring differs from matrix ring")
                    row.append(e)
                rows.append(tuple(row))
        except TypeError as exc:
            raise DomainError(f"matrix entries are an iterable of rows: {exc}") from None
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ShapeError("rows have inconsistent lengths")
        self._store(ring, _from_terms(ring, [[e.terms for e in r] for r in rows]), ncols)
        self._entries = tuple(rows)

    def _store(self, ring: RingDescriptor, rows, cols: int, ends: tuple | None = None):
        """Store rows, or with rows None keep ends, the rows at T = 0 and T = 1."""
        self.ring = ring
        self._ends = ends
        self._stored_rows = None if rows is None else tuple(map(tuple, rows))
        shaped = ends[0] if rows is None else self._stored_rows
        self.rows = len(shaped)
        self.cols = len(shaped[0]) if shaped else cols
        self._entries = None

    @classmethod
    def _unchecked(cls, ring: RingDescriptor, rows, cols: int = 0) -> "RingMatrix":
        """Store rows computed by the library, equal-length and as _rows gives
        them, unchecked; cols is the width to record when there are no rows."""
        m = object.__new__(cls)
        m._store(ring, rows, cols)
        return m

    @property
    def _stored(self) -> tuple:
        """The stored rows; a matrix made by _interpolate builds them on first read."""
        if self._stored_rows is None:
            self._stored_rows = _interpolated_rows(self.ring, *self._ends)
        return self._stored_rows

    @property
    def entries(self) -> tuple:
        """The rows of polynomial entries, built once from the stored rows."""
        if self._entries is None:
            ring, rows, wrap = self.ring, self._stored, LaurentPolynomial._unchecked
            if ring.nexponents:
                zero = ring.zero()
                self._entries = tuple(tuple(wrap(ring, e) if e else zero for e in r) for r in rows)
            else:
                shared = {v: wrap(ring, {(): v} if v else _ZERO) for v in set().union(*rows)}
                self._entries = tuple(tuple(map(shared.__getitem__, r)) for r in rows)
        return self._entries

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, ring: RingDescriptor, n: int) -> "RingMatrix":
        return cls.scalar(ring, n, 1)

    @classmethod
    def zeros(cls, ring: RingDescriptor, r: int, c: int) -> "RingMatrix":
        if not all(type(n) is int and n >= 0 for n in (r, c)):
            raise DomainError(f"matrix sizes are ints >= 0, got {r!r} x {c!r}")
        return cls._unchecked(ring, [(_scalars(ring)[0],) * c] * r, c)

    @classmethod
    def scalar(cls, ring: RingDescriptor, n: int, c) -> "RingMatrix":
        """c times the n x n identity; c is checked once and its entries shared."""
        ((c,),) = cls(ring, [[c]])._stored
        rows = cls.zeros(ring, n, n)._stored
        return cls._unchecked(ring, [r[:i] + (c,) + r[i + 1 :] for i, r in enumerate(rows)], n)

    @classmethod
    def from_blocks(cls, blocks) -> "RingMatrix":
        """Assemble a block matrix from a grid of RingMatrix pieces; the blocks
        of one row have one height, and those of one column one width."""
        if not blocks or not all(blocks):
            raise ShapeError("from_blocks needs a nonempty grid of nonempty block rows")
        if not all(isinstance(b, RingMatrix) for block_row in blocks for b in block_row):
            raise DomainError("from_blocks takes RingMatrix blocks")
        ring = blocks[0][0].ring
        widths = [b.cols for b in blocks[0]]
        rows = []
        for block_row in blocks:
            height = block_row[0].rows
            if any(b.rows != height for b in block_row):
                raise ShapeError("block row heights differ")
            if [b.cols for b in block_row] != widths:
                raise ShapeError("block column widths differ")
            if any(b.ring != ring for b in block_row):
                raise RingMismatch("block ring mismatch")
            for i in range(height):
                rows.append([e for b in block_row for e in b._stored[i]])
        return cls._unchecked(ring, rows, sum(widths))

    @classmethod
    def _grid(cls, ring: RingDescriptor, n: int, cells) -> "RingMatrix":
        """from_blocks of a grid of n x n cells over ring; an int c is c times I."""
        blocks = [[cls.scalar(ring, n, c) if type(c) is int else c for c in row] for row in cells]
        if any(isinstance(b, RingMatrix) and b.shape != (n, n) for row in blocks for b in row):
            raise ShapeError(f"grid cells are {n} x {n} matrices")
        return cls.from_blocks(blocks)

    @classmethod
    def block_diag(cls, blocks) -> "RingMatrix":
        blocks = list(blocks)
        if not blocks:
            raise ShapeError("block_diag needs at least one block")
        ring = blocks[0].ring
        grid = [[cls.zeros(ring, a.rows, b.cols) for b in blocks] for a in blocks]
        for i, b in enumerate(blocks):
            grid[i][i] = b
        return cls.from_blocks(grid)

    # -- basic operations --------------------------------------------------

    def __getitem__(self, key):
        """The entry at key = (i, j), its indices checked as submatrix checks them."""
        i, j = key if type(key) is tuple and len(key) == 2 else (None, None)
        self._check_indices("entry", ([i], [j]), key)
        return self.entries[i][j]

    def _check_indices(self, what: str, picks, given):
        """DomainError unless picks, the row and the column indices, are ints
        in range of the shape: not bools, and not read from the end."""
        if not all(type(i) is int and 0 <= i < n for idx, n in zip(picks, self.shape) for i in idx):
            raise DomainError(f"{what} indices are ints in range of {self.shape}, got {given!r}")

    def __eq__(self, other):
        return (
            isinstance(other, RingMatrix)
            and self.ring == other.ring
            and self.cols == other.cols
            and self._stored == other._stored
        )

    def __hash__(self):
        # cols tells apart the matrices with no rows; a terms dict hashes as its items
        rows = self._stored
        if self.ring.nexponents:
            rows = tuple(tuple(frozenset(e.items()) for e in r) for r in rows)
        return hash((self.ring, self.cols, rows))

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if self.ring != other.ring:
            raise RingMismatch("matrix rings differ")
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        rows = _matmul_rows(self.ring, _rows(self), _rows(other), other.cols)
        return RingMatrix._unchecked(self.ring, rows, other.cols)

    def _map(self, ints, terms, *others) -> "RingMatrix":
        """At each position of self and others, ints of the residues reduced
        mod p over F_p, terms of the term dicts elsewhere."""
        p = self.ring.p
        f = terms if self.ring.nexponents else lambda *v: ints(*v) % p
        rows = [map(f, *r) for r in zip(self._stored, *(o._stored for o in others))]
        return RingMatrix._unchecked(self.ring, rows, self.cols)

    def _entrywise(self, other: "RingMatrix", op) -> "RingMatrix":
        if not isinstance(other, RingMatrix):
            raise DomainError(f"matrices combine with a RingMatrix, got {type(other).__name__}")
        if self.ring != other.ring:
            raise RingMismatch("matrix rings differ")
        if self.shape != other.shape:
            raise ShapeError(f"cannot combine {self.shape} and {other.shape}")
        p = self.ring.p
        return self._map(op, lambda x, y: _combined(x, y, p, op), other)

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        return self._entrywise(other, add)

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        return self._entrywise(other, sub)

    def __neg__(self) -> "RingMatrix":
        negate = _scalars(self.ring)[2]
        return self._map(negate, negate)

    def scale(self, c) -> "RingMatrix":
        ((c,),) = RingMatrix(self.ring, [[c]])._stored
        p = self.ring.p
        return self._map(lambda v: c * v, lambda e: _product(c, e, p))

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(map(any, self._stored))

    def dagger(self) -> "RingMatrix":
        """Transpose with entrywise involution (the dual map), by _dagger_rows."""
        if not self._stored:
            return self.transpose()
        return RingMatrix._unchecked(self.ring, _dagger_rows(self.ring, self._stored), self.rows)

    def transpose(self) -> "RingMatrix":
        """The columns as rows; a matrix with no rows gives cols empty ones."""
        columns = list(zip(*self._stored)) if self._stored else [()] * self.cols
        return RingMatrix._unchecked(self.ring, columns, self.rows)

    def eval_T(self, t) -> "RingMatrix":
        """The matrix at T = t, a scalar, from _rows."""
        if not self.ring.has_T:
            raise DomainError("ring has no T variable to evaluate")
        rows = _rows(self, _residue(t, self.ring.p))
        return RingMatrix._unchecked(self.ring.drop_T(), rows, self.cols)

    def lift_T(self) -> "RingMatrix":
        """The interpolation of the rows with themselves; DomainError over R[T]."""
        if self.ring.has_T:
            raise DomainError("matrix already lives in a ring with T")
        return _interpolate(self.ring.with_T(), self._stored, self._stored, self.cols)

    def submatrix(self, row_indices, col_indices) -> "RingMatrix":
        rows, cols = picks = list(row_indices), list(col_indices)
        self._check_indices("submatrix", picks, picks)
        picked = [[self._stored[i][j] for j in cols] for i in rows]
        return RingMatrix._unchecked(self.ring, picked, len(cols))

    def __repr__(self):  # a residue prints as its constant polynomial
        rows = self.entries if self.ring.nexponents else self._stored
        body = "; ".join(", ".join(map(repr, row)) for row in rows)
        return f"RingMatrix[{self.rows}x{self.cols}: {body}]"


# -- Euclidean division in F_p[x, x^-1] -----------------------------------

# The largest exponent spread of an entry that enters the Smith form: long
# division walks the exponent range, so its cost grows with the spread.
_MAX_SPREAD = 1 << 16


def spread(f: LaurentPolynomial) -> int:
    """Exponent spread of a nonzero element; the Euclidean size for d <= 1."""
    _check_snf_ring(f.ring)
    if f.is_zero():
        raise DivisionByZero("spread of zero is undefined")
    return _spread(f.terms)


def _spread(f: dict) -> int:
    """spread of the nonzero term dict f; a single term has spread 0."""
    return max(f)[0] - min(f)[0] if len(f) > 1 else 0


def _check_spread(rows: list):
    """DomainError when an entry of the term-dict rows has spread beyond _MAX_SPREAD."""
    worst = max((_spread(e) for row in rows for e in row if e), default=0)
    if worst > _MAX_SPREAD:
        raise DomainError(f"exponent spread {worst} exceeds the bound {_MAX_SPREAD}")


def laurent_divmod(f: LaurentPolynomial, g: LaurentPolynomial):
    """f = q*g + r with r = 0 or spread(r) < spread(g), over F_p or F_p[x, x^-1].

    Long division on the terms, from the top exponent of f down to the
    window of width spread(g) at f's lowest exponent, which keeps r.  That
    walk grows with spread(f), so a g of more than one term takes an f of
    spread at most _MAX_SPREAD; a single-term g is an exponent shift.
    """
    ring = f.ring
    if g.ring != ring:
        raise RingMismatch(f"rings differ: {ring} vs {g.ring}")
    _check_snf_ring(ring)
    if g.is_zero():
        raise DivisionByZero("division by zero polynomial")
    return tuple(LaurentPolynomial._unchecked(ring, h) for h in _divmod(f.terms, g.terms, ring.p))


def _divmod(f: dict, g: dict, p: int) -> tuple:
    """The term dicts (q, r) of laurent_divmod for the term dicts f and g != 0."""
    if len(g) == 1 or not f:  # exact: a unit g is an exponent shift
        return _quotient(f, g, p, False), _ZERO
    if (s := _spread(f)) > _MAX_SPREAD:
        raise DomainError(f"dividend spread {s} exceeds the bound {_MAX_SPREAD}")
    (lo,), (hi,) = min(g), max(g)
    inv = pow(g[(hi,)], -1, p)
    lower = [(e - hi, c) for (e,), c in g.items() if e != hi]
    rem, q = dict(f), {}
    for k in range(max(rem)[0], min(rem)[0] + hi - lo - 1, -1):
        if c := rem.pop((k,), 0):
            q[(k - hi,)] = c = c * inv % p
            for e, gc in lower:
                t = (k + e,)
                if v := (rem.get(t, 0) - c * gc) % p:
                    rem[t] = v
                else:
                    rem.pop(t, None)
    return q, rem


# -- Smith normal form ------------------------------------------------------


class SmithDecomposition(_Value):
    """U @ G @ V = D with U, V invertible and D a canonical diagonal.

    Nonzero diagonal entries come first, satisfy the divisibility chain
    d1 | d2 | ..., and are normalized to lowest exponent 0 with leading
    coefficient 1.  The constructor checks that U, D and V are matrices over
    one ring; smith_normal_form builds its result through _unchecked.
    """

    __slots__ = ("U", "D", "V")

    def __init__(self, U: RingMatrix, D: RingMatrix, V: RingMatrix):
        if not all(isinstance(M, RingMatrix) for M in (U, D, V)):
            raise DomainError("a Smith decomposition consists of three RingMatrix fields")
        if not U.ring == D.ring == V.ring:
            raise RingMismatch("Smith decomposition fields over different rings")
        self._set(U, D, V)

    @property
    def invariant_factors(self) -> list:
        return [self.D[k, k] for k in range(self.rank)]

    @property
    def rank(self) -> int:
        return sum(bool(row[k]) for k, row in zip(range(self.D.cols), self.D._stored))


def _check_snf_ring(ring: RingDescriptor):
    """Division and the Smith form are Euclidean over F_p and F_p[x, x^-1] only."""
    if ring.has_T or ring.spatial_vars > 1:
        raise UnsupportedRing(f"division and Smith normal form need d <= 1 and no T, got {ring}")


def _submul(M: list, dst: int, q: dict, src: int, p: int):
    """Term-dict row dst of M minus q times row src."""
    M[dst] = [_combined(a, _product(q, b, p), p, sub) if b else a for a, b in zip(M[dst], M[src])]


def smith_normal_form(G: RingMatrix) -> SmithDecomposition:
    """Smith normal form over F_p or F_p[x, x^-1], on term-dict rows.

    The pivot is the entry of least spread left, ties by lowest row, then
    column, so the output is deterministic.  Row operations clear its column,
    then column operations (row operations on V transposed) clear its row; the
    first nonzero remainder has a smaller spread, so the pass ends there and
    the pivot is picked again.  Once the cross is clear, a pivot that does not
    divide some entry left gets that entry's row added to its own.  A pivot f
    and its row of U are then divided by the monomial f[max(f)] x^min(f).  An
    entry of G whose spread exceeds 2^16 raises DomainError.
    """
    ring, p = G.ring, G.ring.p
    _check_snf_ring(ring)
    A = _term_rows(G)
    _check_spread(A)
    m, n = G.rows, G.cols
    one = ring.one().terms
    U, Vt = ([[one if i == j else _ZERO for j in range(k)] for i in range(k)] for k in (m, n))
    minus_one = _negated(one, p)
    t = 0
    while t < min(m, n):
        cells = [(_spread(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]]
        if not cells:
            break
        _, pi, pj = min(cells)
        A[t], A[pi], U[t], U[pi] = A[pi], A[t], U[pi], U[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]
        Vt[t], Vt[pj] = Vt[pj], Vt[t]
        pivot = A[t][t]
        for i in range(t + 1, m):
            if A[i][t]:
                q, r = _divmod(A[i][t], pivot, p)
                _submul(A, i, q, t, p)
                _submul(U, i, q, t, p)
                if r:
                    break
        else:  # the column is clear, so a column operation changes only row t
            for j in range(t + 1, n):
                if A[t][j]:
                    q, A[t][j] = _divmod(A[t][j], pivot, p)
                    _submul(Vt, j, q, t, p)
                    if A[t][j]:
                        break
            else:  # the cross is clear; a unit pivot divides every entry left
                for i in () if _is_unit(pivot, False) else range(t + 1, m):
                    if any(e and _divmod(e, pivot, p)[1] for e in A[i]):
                        _submul(A, t, minus_one, i, p)
                        _submul(U, t, minus_one, i, p)
                        break
                else:
                    t += 1

    for k in range(min(m, n)):
        if f := A[k][k]:
            unit = {min(f): f[max(f)]}
            A[k][k] = _quotient(f, unit, p, False)
            U[k] = [_quotient(e, unit, p, False) for e in U[k]]

    return SmithDecomposition._unchecked(*(
        RingMatrix._unchecked(ring, _from_terms(ring, rows), cols)
        for rows, cols in ((U, m), (A, n), (zip(*Vt), n))
    ))


def kernel_basis(G: RingMatrix) -> RingMatrix:
    """Columns generating {v : G v = 0}; a rows x 0 matrix for zero kernel."""
    snf = smith_normal_form(G)
    return snf.V.submatrix(range(G.cols), range(snf.rank, G.cols))


def solve_in_span(G: RingMatrix, B: RingMatrix) -> RingMatrix | None:
    """Solve G X = B over the ring; None when some column is not in the span."""
    if G.rows != B.rows:
        raise ShapeError("row counts differ")
    _check_spread(_term_rows(B))
    return _solve(smith_normal_form(G), B)


def _solve(snf: SmithDecomposition, B: RingMatrix) -> RingMatrix | None:
    """solve_in_span from the Smith form U G V = D of G, on term-dict rows."""
    ring, r, D = B.ring, snf.rank, _term_rows(snf.D)
    Y = [[_ZERO] * B.cols for _ in range(snf.D.cols)]
    for i, row in enumerate(_term_rows(snf.U @ B)):
        for j, w in enumerate(row):
            if i < r:
                Y[i][j], w = _divmod(w, D[i][i], ring.p)
            if w:
                return None
    return snf.V @ RingMatrix._unchecked(ring, _from_terms(ring, Y), B.cols)


# -- the rows linalg computes on; determinants and inverses ----------------


def _rows(A: RingMatrix, t: int | None = None) -> list:
    """A fresh list of A's stored rows: int residues over F_p, term dicts
    elsewhere, the dicts shared with A and never changed.

    With an int t a matrix over R[T] is evaluated at T = t first, so a
    matrix over F_p[T] then gives int rows.  A matrix made by _interpolate
    gives a copy of its kept rows at T = 0 and T = 1, and does not build its
    stored rows for it.
    """
    ring = A.ring
    if t is None or not ring.has_T:
        return [list(row) for row in A._stored]
    p = ring.p
    t %= p
    if A._ends is not None and t < 2:
        return [list(row) for row in A._ends[t]]
    if ring.spatial_vars:
        return [[_at_T(e, t, p) if e else _ZERO for e in row] for row in A._stored]
    return [[_at_T(e, t, p).get((), 0) for e in row] for row in A._stored]


def _term_rows(A: RingMatrix) -> list:
    """_rows(A) as term dicts: over F_p a residue v enters as {(): v}."""
    if A.ring.nexponents:
        return _rows(A)
    return [[{(): v} if v else _ZERO for v in row] for row in A._stored]


def _from_terms(ring: RingDescriptor, rows) -> list:
    """The rows RingMatrix stores for term-dict rows: over F_p a dict leaves as its residue."""
    if ring.nexponents:
        return rows
    return [[e.get((), 0) for e in row] for row in rows]


def _interpolate(ring: RingDescriptor, rows0, rows1, cols: int = 0) -> RingMatrix:
    """The matrix over ring, a ring with T, whose entries are v0 + T (v1 - v0).

    rows0 and rows1 hold the entries v0 and v1 as _rows gives them over the
    ring without T.  The result M keeps them, so _rows(M, 0) == rows0 and
    _rows(M, 1) == rows1 are copies of them, and builds its stored rows, by
    _interpolated_rows, on the first read of anything else.  cols is the
    width when there are no rows.
    """
    m = object.__new__(RingMatrix)
    m._store(ring, None, cols, tuple(tuple(map(tuple, r)) for r in (rows0, rows1)))
    return m


def _interpolated_rows(ring: RingDescriptor, rows0, rows1) -> tuple:
    """The stored rows of _interpolate(ring, rows0, rows1), as tuples.

    Over F_p each entry is one small dict; elsewhere the terms of v0 and of
    v1 - v0 are shifted to T^0 and T^1.
    """
    if ring.spatial_vars:

        def entry(v0, slope):
            return {**_lifted(v0), **{e + (1,): c for e, c in slope.items()}} or _ZERO

    else:

        def entry(v0, slope):
            terms = {(0,): v0} if v0 else {}
            if slope:
                terms[(1,)] = slope
            return terms or _ZERO

    slopes = _sub_rows(ring.drop_T(), rows1, rows0)
    return tuple(tuple(map(entry, r0, s)) for r0, s in zip(rows0, slopes))


def _sub_rows(ring: RingDescriptor, A: list, B: list) -> list:
    """The rows of A - B from the rows of A and of B, as _rows gives them."""
    p = ring.p
    if ring.nexponents:
        return [[_combined(x, y, p, sub) if y else x for x, y in zip(a, b)] for a, b in zip(A, B)]
    return [[(x - y) % p for x, y in zip(a, b)] for a, b in zip(A, B)]


def _scalars(ring: RingDescriptor) -> tuple:
    """(zero, one, neg) for _rows over ring; neg negates an entry."""
    p = ring.p
    if ring.nexponents:
        return _ZERO, ring.one().terms, lambda v: _negated(v, p) if v else v
    return 0, 1, lambda v: -v % p


def _identity_rows(ring: RingDescriptor, n: int) -> list:
    """The rows of the n x n identity over ring."""
    zero, one, _ = _scalars(ring)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _dagger_rows(ring: RingDescriptor, rows: list) -> list:
    """The rows of the dagger of the matrix with these rows; no rows give none.

    Without spatial variables the involution is trivial and the dagger is the
    transpose.
    """
    if d := ring.spatial_vars:
        return [[_involuted(e, d) if e else e for e in col] for col in zip(*rows)]
    return [list(col) for col in zip(*rows)]


# Int products of at least this many entry products (rows of A x width x
# inner length) are packed; measured, smaller ones are faster as plain sums.
_PACK_MIN = 256
# (itemsize, typecode) of the unsigned array types, narrowest first.
_SLOTS = sorted({array(code).itemsize: code for code in "BHILQ"}.items())


def _slot(bound: int) -> tuple | None:
    """The narrowest (itemsize, typecode) of _SLOTS that holds bound, or None."""
    return next((s for s in _SLOTS if not bound >> 8 * s[0]), None)


def _pack(slot: tuple, row) -> int:
    """The residues row as one int, one slot per entry; slot is one of _SLOTS.

    Array bytes are in the machine's order, so entry 0 is the lowest slot on
    a little-endian machine and the highest on a big-endian one.
    """
    return int.from_bytes(array(slot[1], row).tobytes(), sys.byteorder)


def _unpack(slot: tuple, v: int, width: int) -> memoryview:
    """The width slots of the packed row v, unreduced."""
    size, code = slot
    return memoryview(v.to_bytes(width * size, sys.byteorder)).cast(code)


def _matmul_rows(ring: RingDescriptor, A: list, B: list, cols: int = 0) -> list:
    """The rows C[i] = sum_k A[i][k] B[k] of A B from the rows of A and of B.

    cols is the width of B when it has no rows.  Int rows are residues; over
    F_p a product of at least _PACK_MIN entry products whose sums, at most
    K (p - 1)^2 for K = len(B), fit a slot is packed (see the module text).
    """
    p, width = ring.p, len(B[0]) if B else cols
    if not ring.nexponents:
        K = len(B)
        if len(A) * width * K < _PACK_MIN or not (slot := _slot(K * (p - 1) ** 2)):
            columns = list(zip(*B)) if B else [()] * width
            return [[sum(map(mul, row, col)) % p for col in columns] for row in A]
        packed = [_pack(slot, b) for b in B]
        return [[v % p for v in _unpack(slot, sum(map(mul, row, packed)), width)] for row in A]
    # each entry of a row of C sums all its term products in one dict and
    # reduces once; an entry no term reaches is the shared _ZERO
    out = []
    for row in A:
        accs: dict = {}
        for a, right in zip(row, B):
            if a:
                for j, b in enumerate(right):
                    if b:
                        if (acc := accs.get(j)) is None:
                            acc = accs[j] = {}
                        _products(acc, a, b)
        new_row = [_ZERO] * width
        for j, acc in accs.items():
            new_row[j] = _reduced(acc, p)
        out.append(new_row)
    return out


def _eliminate_rows(ring: RingDescriptor, M: list) -> LaurentPolynomial:
    """Row-reduce the n rows M over ring in place; det of their n x n part.

    With augmented columns [A | B] and a unit det, B's columns end as A^-1 B.
    """
    if not M:
        return ring.one()
    if ring.nexponents:
        return LaurentPolynomial._unchecked(ring, _eliminate(ring, M))
    return ring.constant(_eliminate_modp(M, ring.p))


# Eliminations of at least this many entries (rows x width) run on packed
# rows.  Measured on random draws at p = 7 (x86-64, CPython 3.11), packed
# rows ran at 0.74x the plain update's speed for a det at n = 8 (64
# entries), 0.99x at n = 10 (100) and 1.31x at n = 12 (144); for an [A | I]
# at 0.85x at n = 4 (32), 1.17x at n = 6 (72) and 1.46x at n = 8 (128).
_PACK_ELIMINATE_MIN = 100


def _eliminate_modp(M: list, p: int) -> int:
    """Row-reduce the n int rows M in place mod p; det of their n x n part.

    Entries are residues in [0, p).  With n columns only the rows below each
    pivot are cleared, which is all the determinant needs.  With augmented
    columns [A | B] each pivot row is scaled to 1 and every other row is
    cleared, so a nonsingular A leaves [I | A^-1 B].  A singular A gives 0.

    At least _PACK_ELIMINATE_MIN entries (n x width; below it the plain
    update measured faster) run on packed rows when p^2 (n + 1) fits a slot
    of _SLOTS: each row one int, each update one multiply-add, a row reduced
    when it becomes the pivot row and at the end (see the module text).
    The rows M is left with are the same on either path.
    """
    n, width = len(M), len(M[0])
    if n * width >= _PACK_ELIMINATE_MIN and (slot := _slot(p * p * (n + 1))):
        return _eliminate_packed(M, p, slot)
    augmented = width > n
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
            M[c][c:] = [v * inv % p for v in M[c][c:]]
            inv = 1
            targets = [r for r in range(n) if r != c]
        else:
            targets = range(c + 1, n)
        top = M[c][c:]  # the pivot row is zero left of column c
        for r in targets:
            factor = M[r][c] * inv % p
            if factor:
                M[r][c:] = [(a - factor * b) % p for a, b in zip(M[r][c:], top)]
    return d


def _eliminate_packed(M: list, p: int, slot: tuple) -> int:
    """_eliminate_modp on rows packed into slot, an (itemsize, typecode) of _SLOTS.

    A slot starts as a residue and takes at most n - 1 updates of at most
    (p - 1)^2 before its row is reduced, so it stays below p^2 (n + 1).
    """
    n, width = len(M), len(M[0])
    bits, mask = 8 * slot[0], (1 << 8 * slot[0]) - 1
    little = sys.byteorder == "little"  # where _pack puts entry 0
    R = [_pack(slot, row) for row in M]
    augmented = width > n
    d = 1
    for c in range(n):
        shift = bits * (c if little else width - 1 - c)  # of column c's slot
        piv = next((r for r in range(c, n) if (R[r] >> shift & mask) % p), None)
        if piv is None:
            d = 0
            break
        if piv != c:
            R[c], R[piv] = R[piv], R[c]
            d = -d
        top = _unpack(slot, R[c], width)
        a = top[c] % p
        d = d * a % p
        inv = pow(a, -1, p)
        if augmented:  # scale the pivot row to 1 as it is reduced
            R[c] = T = _pack(slot, [v * inv % p for v in top])
            targets = [r for r in range(n) if r != c]
            inv = 1
        else:
            R[c] = T = _pack(slot, [v % p for v in top])
            targets = range(c + 1, n)
        for r in targets:
            if f := (R[r] >> shift & mask) * inv % p:
                R[r] += (p - f) * T
    M[:] = ([v % p for v in _unpack(slot, row, width)] for row in R)
    return d


def _eliminate(ring: RingDescriptor, M: list) -> dict:
    """Fraction-free (Bareiss) elimination of the n term-dict rows M over ring in place.

    As _eliminate_modp, but each update is divided exactly by an earlier pivot,
    and a row is touched only at the steps that change it.  Let p_0 = 1 and
    p_{k+1} be the pivot of step k.  Each row keeps the level l of its last
    update: in the columns >= l it holds R_l, the row after l steps of the
    standard Bareiss update.  A standard step k with a zero entry in column k
    maps R_k to p_{k+1} R_k / p_k; over steps l .. c-1 these factors telescope,
    so a row left alone since level l stands for R_c = p_c R_l / p_l.  At step c
    - a row with R_l[c] = 0 is skipped and stays at level l;
    - any other row r != c becomes R_{c+1}[j] = (p_{c+1} R_l[j] - R_l[c] top[j])
      / p_l in the columns j > c, the numerators as one _matmul_rows product;
    - the pivot row top is first caught up to R_c = p_c R_l / p_l; its own step
      leaves it unchanged, so it is then at level c + 1.
    Row swaps carry the levels with the rows.

    Returns the terms of det (0 for a singular A).  With augmented columns [A | B] a
    nonsingular A leaves p_l (A^-1 B)[r] in B's columns of a row r at level
    l; for a unit det these are divided by p_l, which leaves A^-1 B there.
    """
    n, width = len(M), len(M[0])
    p, has_T = ring.p, ring.has_T
    pivots, level, negate = [ring.one().terms], [0] * n, False
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return _ZERO
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            level[c], level[piv] = level[piv], level[c]
            negate = not negate
        top = M[c]
        if (l := level[c]) < c and pivots[c] != pivots[l]:
            top[c:] = [
                _quotient(_product(pivots[c], e, p), pivots[l], p, has_T) if e else e
                for e in top[c:]
            ]
        level[c] = c + 1
        pivots.append(top[c])
        for r in range(n) if width > n else range(c + 1, n):
            row = M[r]
            if r == c or not row[c]:
                continue
            # pivot * row[j] - row[c] * top[j] for every j > c, then / p_l; a
            # column zero in both rows stays zero and is not divided
            left = [[top[c], _negated(row[c], p)]]
            (new,) = _matmul_rows(ring, left, [row[c + 1 :], top[c + 1 :]])
            prev = pivots[level[r]]
            row[c + 1 :] = [_quotient(e, prev, p, has_T) if e else e for e in new]
            level[r] = c + 1
    d = _negated(pivots[-1], p) if negate else pivots[-1]
    if width > n and _is_unit(d, has_T):
        for row, l in zip(M, level):
            row[n:] = [_quotient(e, pivots[l], p, has_T) for e in row[n:]]
    return d


def det(A: RingMatrix) -> LaurentPolynomial:
    """Exact determinant in polynomial time: mod-p or fraction-free elimination."""
    if not A.is_square():
        raise ShapeError("determinant of a non-square matrix")
    return _eliminate_rows(A.ring, _rows(A))


def _inverse_rows(ring: RingDescriptor, rows: list) -> list:
    """The rows of A^-1 from the n rows of a square A; NotAUnit unless det A is a unit."""
    n = len(rows)
    M = [a + b for a, b in zip(rows, _identity_rows(ring, n))]
    if not _eliminate_rows(ring, M).is_unit():
        raise NotAUnit("matrix is not invertible over the ring")
    return [row[n:] for row in M]


def inverse(A: RingMatrix) -> RingMatrix:
    """Inverse of a matrix whose determinant is a unit; NotAUnit otherwise."""
    if not A.is_square():
        raise ShapeError("inverse of a non-square matrix")
    return RingMatrix._unchecked(A.ring, _inverse_rows(A.ring, _rows(A)), A.rows)
