"""Classical Maslov index via real Sturm chains."""

import itertools
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy

from maslovkit import (
    DegenerateInput,
    EndpointRoot,
    RealPolynomial,
    linearization_residual,
    paper_example_polynomial,
    real_maslov,
    residue_signature_form,
    sturm_residues,
)
from maslovkit.realmaslov import ResidueSequence

from helpers import time_limit


def poly_from_roots(roots, scale=1.0):
    coeffs = np.poly(roots)[::-1] * scale  # lowest first
    return RealPolynomial(coeffs)


def test_paper_example_is_degree_one():
    poly = paper_example_polynomial()
    assert real_maslov(poly) == 1


def test_paper_example_factorization_identity():
    poly = paper_example_polynomial()
    seq = sturm_residues(poly)
    assert linearization_residual(poly, seq, samples=20) < 1e-9


def test_quadratic_example_structure():
    poly = RealPolynomial([-1.0, -1.0, 1.0])  # T^2 - T - 1
    seq = sturm_residues(poly)
    assert seq.size == 2
    assert all(r.degree() <= 1 for r in seq.residues)
    assert seq.residues[-1].degree() == 0 and seq.terminal != 0
    assert linearization_residual(poly, seq) < 1e-9


def test_linear_polynomial():
    poly = RealPolynomial([-2.0, 1.0])  # T - 2
    seq = sturm_residues(poly)
    assert seq.size == 1
    assert seq.residues[-1].degree() == 0
    assert real_maslov(poly) == 0
    # leading coefficients at most REL_TOL times the largest are dropped
    assert RealPolynomial([-2.0, 1.0, 1e-12]).degree() == 1
    assert not poly.is_zero()
    assert RealPolynomial([0.0, 0.0]).is_zero() and RealPolynomial([]).is_zero()


def test_repeated_root_rejected():
    third = 1.0 / 3.0
    poly = poly_from_roots([third, third])
    with pytest.raises(DegenerateInput):
        sturm_residues(poly)


def test_endpoint_roots_rejected():
    with pytest.raises(EndpointRoot):
        sturm_residues(RealPolynomial([0.0, 1.0]))  # P(0) = 0
    with pytest.raises(EndpointRoot):
        sturm_residues(poly_from_roots([1.0, 3.0]))  # P(1) = 0
    with pytest.raises(DegenerateInput):
        sturm_residues(RealPolynomial([3.0]))  # constant


def test_signature_form_examples():
    seq = ResidueSequence(
        (RealPolynomial([1.0, 1.0]), RealPolynomial([0.5, -1.0]), RealPolynomial([2.0]))
    )
    S = np.array(residue_signature_form(seq, 0.5), dtype=float)
    assert S.shape == (2, 2)
    assert S[0, 0] == pytest.approx(1.5)
    assert S[1, 1] == pytest.approx(0.0)
    assert S[0, 1] == S[1, 0] == -1.0
    zero_seq = ResidueSequence(
        (RealPolynomial([0.0]), RealPolynomial([0.0]), RealPolynomial([1.0]))
    )
    eigs = np.linalg.eigvalsh(np.array(residue_signature_form(zero_seq, 0.0), dtype=float))
    assert eigs == pytest.approx([-1.0, 1.0])


def test_scale_invariance():
    rng = random.Random(4)
    poly = paper_example_polynomial()
    base = real_maslov(poly)

    def scaled(c):
        return RealPolynomial([a * Fraction(c) for a in poly.coefficients])

    for _ in range(10):
        c = 0.0
        while abs(c) < 0.1:
            c = rng.uniform(-5, 5)
        assert real_maslov(scaled(c)) == base
    assert real_maslov(scaled(-1.0)) == base
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (1e-12, 1e300, 1e308):
            assert real_maslov(scaled(c)) == base
            assert real_maslov(scaled(-c)) == base
        # T^2 - 3T + 1/2 has one root in (0, 1) at every scale
        for c in (1e-12, 1.0, 1e12):
            assert real_maslov(RealPolynomial([0.5 * c, -3 * c, c])) == 1
        # T^2 - T + 1 has no real roots; its float coefficients are the largest
        assert real_maslov(RealPolynomial([1e308, -1e308, 1e308])) == 0


def _separated_root_draws(rng, max_degree):
    """Endless (roots, P): roots 0.05 apart and 0.05 away from 0 and 1."""
    while True:
        m = rng.randrange(1, max_degree + 1)
        roots = sorted(rng.uniform(-2.0, 3.0) for _ in range(m))
        if any(abs(r) < 0.05 or abs(r - 1) < 0.05 for r in roots):
            continue
        if any(b - a < 0.05 for a, b in zip(roots, roots[1:])):
            continue
        yield roots, poly_from_roots(roots, scale=rng.choice([1.0, -2.0, 0.5]))


def test_signature_parity_and_windings():
    draws = _separated_root_draws(random.Random(12), 4)
    checked = 0
    while checked < 25:
        roots, poly = next(draws)
        try:
            index = real_maslov(poly)
        except DegenerateInput:
            continue
        # oracle: each simple root of P inside (0, 1) contributes one crossing
        # of the horizontal line, i.e. one unit of winding
        inside = sum(1 for r in roots if 0 < r < 1)
        assert index == inside
        seq = sturm_residues(poly)
        assert linearization_residual(poly, seq) < 1e-6
        checked += 1


def _half_signature(seq):
    """(1/2) sig(S(1) + (-S(0))) by floating-point eigenvalues."""
    m = seq.size
    big = np.zeros((2 * m, 2 * m))
    big[:m, :m] = np.array(residue_signature_form(seq, 1), dtype=float)
    big[m:, m:] = -np.array(residue_signature_form(seq, 0), dtype=float)
    eigs = np.linalg.eigvalsh(big)
    sig = int(np.sum(eigs > 0) - np.sum(eigs < 0))
    assert sig % 2 == 0
    return sig // 2


def test_exact_index_matches_root_count_and_signature():
    T = sympy.Symbol("T")
    for _, poly in itertools.islice(_separated_root_draws(random.Random(2024), 12), 300):
        index = real_maslov(poly)
        exact = sympy.Poly(poly.coefficients[::-1], T, domain=sympy.QQ)
        assert index == exact.count_roots(0, 1), poly
        seq = sturm_residues(poly)
        assert index == _half_signature(seq), poly
        assert linearization_residual(poly, seq) < 1e-9


def test_degree_100_runs_in_polynomial_time():
    # the reduced chain keeps coefficient length linear in the step; an
    # undivided pseudo-remainder chain doubles it every step and never ends
    rng = random.Random(100)
    coeffs = [rng.uniform(-1.0, 1.0) for _ in range(101)]
    with time_limit(10):
        index = real_maslov(RealPolynomial(coeffs))
    # its one real root in (0, 1) sits near 0.84, far from every other root
    roots = np.roots(coeffs[::-1])
    assert index == sum(1 for r in roots if abs(r.imag) < 1e-6 and 0 < r.real < 1)
