"""Seeded inputs for the benchmark, built without the package under test.

Every generator takes a `random.Random` and returns plain data: integer
matrices over F_p, or JSON documents in the wire format of
docs/formats.md.  The mod-p routines here are also the oracle the checks
compare the program's answers against, so nothing in this file imports
maslovkit.
"""

from __future__ import annotations

import json

# -- linear algebra mod p (the oracle) ---------------------------------------


def det_mod(M, p: int) -> int:
    """Determinant of a square integer matrix mod p, by elimination."""
    A = [[v % p for v in row] for row in M]
    n = len(A)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det = det * A[c][c] % p
        inv = pow(A[c][c], -1, p)
        for r in range(c + 1, n):
            f = A[r][c] * inv % p
            if f:
                A[r] = [(a - f * b) % p for a, b in zip(A[r], A[c])]
    return det % p


def inv_mod(M, p: int):
    """Inverse of an invertible integer matrix mod p, by Gauss-Jordan."""
    n = len(M)
    A = [[v % p for v in row] + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    for c in range(n):
        piv = next(r for r in range(c, n) if A[r][c])
        A[c], A[piv] = A[piv], A[c]
        inv = pow(A[c][c], -1, p)
        A[c] = [v * inv % p for v in A[c]]
        for r in range(n):
            if r != c and A[r][c]:
                f = A[r][c]
                A[r] = [(a - f * b) % p for a, b in zip(A[r], A[c])]
    return [row[n:] for row in A]


def witt_name(n: int, det: int, p: int) -> str:
    """Witt class name (docs/formats.md) of a nondegenerate n-dim form with this det."""
    signed = (-1) ** (n * (n - 1) // 2) * det % p
    disc = 0 if pow(signed, (p - 1) // 2, p) == 1 else 1
    rank = n % 2
    if p % 4 == 1:
        return {(0, 0): "0", (1, 0): "<1>", (1, 1): "<t>", (0, 1): "<1>+<t>"}[(rank, disc)]
    return str(2 * disc + rank)


def pair_witt(q0, q1, p: int) -> str:
    """The pair formula: Witt class of q1 + (-q0^-1), from determinants alone."""
    n = len(q0)
    det = det_mod(q1, p) * (-1) ** n * pow(det_mod(q0, p), -1, p) % p
    return witt_name(2 * n, det, p)


def rand_sym_nondeg(rng, p: int, n: int):
    """Uniformly random nondegenerate symmetric n x n matrix over F_p."""
    while True:
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                M[i][j] = M[j][i] = rng.randrange(p)
        if det_mod(M, p):
            return M


# -- Laurent polynomials as {exponent tuple: coefficient} --------------------


def pmul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def padd(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = (out.get(e, 0) + c) % p
    return {e: c for e, c in out.items() if c}


def matmul(A, B, p: int):
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc: dict = {}
            for t in range(k):
                if A[i][t] and B[t][j]:
                    acc = padd(acc, pmul(A[i][t], B[t][j], p), p)
            row.append(acc)
        out.append(row)
    return out


def dagger(A):
    """Transpose with every exponent negated (the involution x -> 1/x)."""
    return [
        [{tuple(-x for x in e): c for e, c in A[j][i].items()} for j in range(len(A))]
        for i in range(len(A[0]))
    ]


def eval_at_one(A, p: int):
    """Set every spatial variable to 1: each entry becomes its coefficient sum."""
    return [[sum(f.values()) % p for f in row] for row in A]


def _monomial(rng, p: int, d: int) -> dict:
    """c * x^e with c != 0 and every exponent in {-1, 0, 1}."""
    e = tuple(rng.randrange(-1, 2) for _ in range(d))
    return {e: rng.randrange(1, p)}


def rand_unit_matrix(rng, p: int, d: int, n: int):
    """Random invertible matrix: transvection, monomial diagonal, transvection.

    The shape of the word is fixed, so inputs of one size vary less in cost
    than with a word of random kinds.
    """
    zero = (0,) * d
    out = [[{zero: 1} if i == j else {} for j in range(n)] for i in range(n)]
    for kind in "TDT":
        if n > 1 and kind == "T":
            i, j = rng.sample(range(n), 2)
            step = [[{zero: 1} if r == s else {} for s in range(n)] for r in range(n)]
            step[i][j] = _monomial(rng, p, d)
        else:
            step = [[_monomial(rng, p, d) if r == s else {} for s in range(n)] for r in range(n)]
        out = matmul(out, step, p)
    return out


def rand_laurent_form(rng, p: int, d: int, n: int, unipotent: bool = False):
    """A nondegenerate +hermitian form over F_p[x1^+-..xd^+-].

    Either dagger(c) D c with c a random invertible matrix and D a diagonal of
    nonzero constants, or dagger(a) a with a unipotent and random monomials
    above the diagonal.
    """
    zero = (0,) * d
    if unipotent:
        c = [
            [{zero: 1} if i == j else (_monomial(rng, p, d) if j > i else {}) for j in range(n)]
            for i in range(n)
        ]
        return matmul(dagger(c), c, p)
    c = rand_unit_matrix(rng, p, d, n)
    D = [[{zero: rng.randrange(1, p)} if i == j else {} for j in range(n)] for i in range(n)]
    return matmul(matmul(dagger(c), D, p), c, p)


# -- JSON documents (docs/formats.md) ----------------------------------------


def poly_json(p: int, d: int, has_T: bool, terms: dict) -> dict:
    return {
        "p": p,
        "vars": [f"x{i + 1}" for i in range(d)],
        "T": has_T,
        "terms": [{"e": list(e), "c": terms[e]} for e in sorted(terms) if terms[e] % p],
    }


def form_json(p: int, d: int, M, has_T: bool = False) -> dict:
    """Form document from a matrix of term dicts (or of ints when d = 0)."""
    zero = (0,) * (d + has_T)
    grid = [[f if isinstance(f, dict) else {zero: f % p} for f in row] for row in M]
    return {
        "rows": len(grid),
        "cols": len(grid),
        "ring": {"p": p, "vars": [f"x{i + 1}" for i in range(d)], "T": has_T},
        "entries": [[poly_json(p, d, has_T, f) for f in row] for row in grid],
        "sign": 1,
    }


def loop_from_pair_json(q0, q1, p: int) -> dict:
    """Loop document over F_p[T] interpolating the graphs of q0 and q1.

    The Sturm sequence is ((1-T)q0 + Tq1, (T-1)q0^-1 - Tq1^-1 + 1, -1, 1, 0),
    the construction documented for `maslov pair`; each entry is written as
    {(0,): constant term, (1,): T coefficient}.
    """
    n = len(q0)
    i0, i1 = inv_mod(q0, p), inv_mod(q1, p)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]

    def lin(const, slope):
        return [[{(0,): const[i][j] % p, (1,): slope[i][j] % p} for j in range(n)] for i in range(n)]

    zero = [[0] * n for _ in range(n)]
    a = lin(q0, [[q1[i][j] - q0[i][j] for j in range(n)] for i in range(n)])
    b = lin(
        [[eye[i][j] - i0[i][j] for j in range(n)] for i in range(n)],
        [[i0[i][j] - i1[i][j] for j in range(n)] for i in range(n)],
    )
    neg = [[-v for v in row] for row in eye]
    forms = [form_json(p, 0, M, has_T=True) for M in (a, b, lin(neg, zero), lin(eye, zero), lin(zero, zero))]
    return {"N": n, "ring": {"p": p, "vars": [], "T": True}, "sturm": forms}


def maslov_compute_stdout(q0, q1, p: int) -> str:
    """Expected `maslov compute` output for loop_from_pair_json(q0, q1, p).

    The representative is S(1) + (-S(0)^-1) for the tridiagonal form S(T) of
    the first four Sturm entries: diagonal blocks (-1)^k q_k, identity blocks
    beside the diagonal.
    """
    n = len(q0)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    neg = [[-v for v in row] for row in eye]

    def tridiagonal(q, qinv):
        b = [[eye[i][j] - qinv[i][j] for j in range(n)] for i in range(n)]
        diag = [q, [[-v for v in row] for row in b], neg, neg]
        S = [[0] * (4 * n) for _ in range(4 * n)]
        for k, block in enumerate(diag):
            for i in range(n):
                for j in range(n):
                    S[k * n + i][k * n + j] = block[i][j] % p
                if k < 3:
                    S[k * n + i][(k + 1) * n + i] = S[(k + 1) * n + i][k * n + i] = 1
        return S

    s1 = tridiagonal(q1, inv_mod(q1, p))
    s0inv = inv_mod(tridiagonal(q0, inv_mod(q0, p)), p)
    m = 4 * n
    rep = [[0] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        for j in range(m):
            rep[i][j] = s1[i][j]
            rep[m + i][m + j] = -s0inv[i][j] % p
    det = det_mod(rep, p)
    payload = {
        "form": form_json(p, 0, rep),
        "witt": {"p": p, "class": witt_name(2 * m, det, p)},
        "rank_parity": 0,
        "determinant": poly_json(p, 0, False, {(): det}),
    }
    return json.dumps(payload, indent=2) + "\n"
