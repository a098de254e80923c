"""Shared random generators and the brute-force congruence oracle."""

from __future__ import annotations

import contextlib
import signal

import numpy as np

from maslovkit import (
    CliffordUnitary,
    HermitianForm,
    PauliModule,
    RingDescriptor,
    RingMatrix,
    elementary_unitary,
    hyperbolic_unitary,
)


def rand_poly(ring, rng, max_spread=2, terms=3):
    """Random sparse polynomial with spatial exponents in [-max_spread, max_spread]."""
    out = ring.zero()
    for _ in range(rng.randrange(terms + 1)):
        exps = []
        for _ in range(ring.spatial_vars):
            exps.append(rng.randrange(-max_spread, max_spread + 1))
        if ring.has_T:
            exps.append(rng.randrange(0, max_spread + 1))
        out = out + ring.monomial(exps, rng.randrange(ring.p))
    return out


def rand_matrix(ring, rng, rows, cols, max_spread=2, terms=2):
    return RingMatrix(
        ring,
        [[rand_poly(ring, rng, max_spread, terms) for _ in range(cols)] for _ in range(rows)],
    )


def rand_symmetric(p, n, rng):
    """Random symmetric matrix over F_p as a +hermitian form."""
    ring = RingDescriptor(p)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            c = rng.randrange(p)
            rows[i][j] = c
            rows[j][i] = c
    return HermitianForm(RingMatrix(ring, rows), 1)


def rand_symmetric_nondeg(p, n, rng):
    while True:
        form = rand_symmetric(p, n, rng)
        if form.is_nondegenerate():
            return form


def rand_hermitian(ring, n, rng, max_spread=1):
    """Random +hermitian matrix A + dagger(A) over any ring."""
    a = rand_matrix(ring, rng, n, n, max_spread)
    return HermitianForm(a + a.dagger(), 1)


def rand_unit_matrix(ring, rng, n, word_length=3, max_spread=1):
    """Random invertible matrix: product of transvections and monomial diagonals."""
    out = RingMatrix.identity(ring, n)
    for _ in range(word_length):
        kind = rng.randrange(2) if n > 1 else 1
        if kind == 0:
            i = rng.randrange(n)
            j = rng.randrange(n)
            while j == i:
                j = rng.randrange(n)
            c = rng.randrange(1, ring.p)
            exps = [0] * ring.nexponents
            if ring.spatial_vars:
                exps[0] = rng.randrange(-max_spread, max_spread + 1)
            grid = [
                [
                    ring.one()
                    if r == s
                    else (ring.monomial(exps, c) if (r, s) == (i, j) else ring.zero())
                    for s in range(n)
                ]
                for r in range(n)
            ]
            out = out @ RingMatrix(ring, grid)
        else:
            diag = []
            for _ in range(n):
                exps = [0] * ring.nexponents
                if ring.spatial_vars:
                    exps[0] = rng.randrange(-max_spread, max_spread + 1)
                diag.append(ring.monomial(exps, rng.randrange(1, ring.p)))
            grid = [
                [diag[r] if r == s else ring.zero() for s in range(n)]
                for r in range(n)
            ]
            out = out @ RingMatrix(ring, grid)
    return out


def unipotent(ring, n, entry):
    """The n x n matrix with ones on the diagonal and entry just above it."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = entry
    return RingMatrix(ring, rows)


def rand_clifford_word(ring, rng, n, length=3) -> CliffordUnitary:
    """Random product of elementary and hyperbolic lambda^- unitaries."""
    module = PauliModule(ring, n)
    out = CliffordUnitary(module, RingMatrix.identity(ring, 2 * n))
    for _ in range(length):
        choice = rng.randrange(3)
        if choice == 0:
            out = out @ elementary_unitary("E0", rand_hermitian(ring, n, rng))
        elif choice == 1:
            out = out @ elementary_unitary("E1", rand_hermitian(ring, n, rng))
        else:
            out = out @ hyperbolic_unitary(rand_unit_matrix(ring, rng, n))
    return out


def check_snf_contract(G):
    """Assert the full Smith-form contract on one matrix; returns the SNF."""
    from maslovkit import det, smith_normal_form
    from maslovkit.linalg import laurent_divmod

    snf = smith_normal_form(G)
    assert snf.U @ G @ snf.V == snf.D
    assert det(snf.U).is_unit()
    assert det(snf.V).is_unit()
    n = min(G.rows, G.cols)
    diag = [snf.D[k, k] for k in range(n)]
    for i in range(G.rows):
        for j in range(G.cols):
            if i != j:
                assert snf.D[i, j].is_zero()
    seen_zero = False
    for d in diag:
        if d.is_zero():
            seen_zero = True
            continue
        assert not seen_zero, "zero factors must come last"
        if d.ring.spatial_vars:
            exps = sorted(e[0] for e in d.terms)
            assert exps[0] == 0, "lowest exponent normalized to zero"
            assert d.terms[(exps[-1],)] == 1, "leading coefficient one"
        else:
            assert d == d.ring.one()
    for a, b in zip(diag, diag[1:]):
        if not a.is_zero() and not b.is_zero():
            _, r = laurent_divmod(b, a)
            assert r.is_zero(), "divisibility chain"
    return snf


class TimeLimitExceeded(Exception):
    """The block under time_limit ran past its limit."""


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeLimitExceeded inside the block once it has run for seconds.

    Uses SIGALRM, so it interrupts a pure-Python loop that would never end.
    """

    def expire(signum, frame):
        raise TimeLimitExceeded(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- brute-force congruence oracle over F_p ---------------------------------


def _batch_det(mats: np.ndarray, p: int) -> np.ndarray:
    n = mats.shape[1]
    if n == 1:
        return mats[:, 0, 0] % p
    if n == 2:
        return (mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]) % p
    if n == 3:
        a, b, c = mats[:, 0, 0], mats[:, 0, 1], mats[:, 0, 2]
        d, e, f = mats[:, 1, 0], mats[:, 1, 1], mats[:, 1, 2]
        g, h, i = mats[:, 2, 0], mats[:, 2, 1], mats[:, 2, 2]
        return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p
    raise ValueError("batch determinant implemented for n <= 3")


def _encode_keys(mats: np.ndarray, p: int, pairs) -> np.ndarray:
    keys = np.zeros(mats.shape[0], dtype=np.int64)
    weight = 1
    for i, j in pairs:
        keys += mats[:, i, j] * weight
        weight *= p
    return keys


def congruence_orbits(p: int, n: int):
    """Exhaustively label every nondegenerate symmetric matrix by congruence orbit.

    Orbits are connected components under F -> E^T F E for elementary E, which
    generate GL(n, p); this is an oracle independent of any form invariant.
    Returns (labels, all_matrices, nondegeneracy_mask); degenerate entries
    keep label -1.
    """
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    total = p ** len(pairs)
    keys = np.arange(total, dtype=np.int64)
    mats = np.zeros((total, n, n), dtype=np.int64)
    rem = keys.copy()
    for i, j in pairs:
        digit = rem % p
        mats[:, i, j] = digit
        mats[:, j, i] = digit
        rem //= p
    nondeg = _batch_det(mats, p) != 0

    gens = []
    for i in range(n):
        for j in range(n):
            if i != j:
                for c in (1, p - 1):
                    E = np.eye(n, dtype=np.int64)
                    E[i, j] = c
                    gens.append(E)
    for c in range(2, p):
        E = np.eye(n, dtype=np.int64)
        E[0, 0] = c
        gens.append(E)

    labels = np.full(total, -1, dtype=np.int64)
    orbit = 0
    for start in np.nonzero(nondeg)[0]:
        if labels[start] >= 0:
            continue
        labels[start] = orbit
        frontier = np.array([start], dtype=np.int64)
        while frontier.size:
            batch = mats[frontier]
            next_keys = []
            for E in gens:
                image = np.einsum("ab,kbc,cd->kad", E.T, batch, E) % p
                next_keys.append(_encode_keys(image, p, pairs))
            candidates = np.unique(np.concatenate(next_keys))
            fresh = candidates[labels[candidates] < 0]
            labels[fresh] = orbit
            frontier = fresh
        orbit += 1
    return labels, mats, nondeg


def matrix_key(form: HermitianForm, p: int, n: int) -> int:
    """Key of a d=0 form in the congruence-orbit labeling."""
    zero_exp = (0,) * form.ring.nexponents
    key = 0
    weight = 1
    for i in range(n):
        for j in range(i, n):
            key += form.matrix[i, j].terms.get(zero_exp, 0) * weight
            weight *= p
    return key
