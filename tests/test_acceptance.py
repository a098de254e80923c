"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance and budget is pinned here:

  1. classification table exact for p in {3,5,7,11,13}, < 1 s per table
  2. classical Maslov preset == 1, factorization residual < 1e-6, < 0.1 s
  3. Witt classification vs brute-force congruence orbits, >= 500 forms, < 60 s
  4. loop Maslov == pair formula on 100 random pairs, exact
  5. homotopy witnesses exact (100 + 100 random instances)
  6. cluster fixture mapped exactly by the shipped circuit
  7. structural invariants: SNF contract, unitary preservation, Maslov
     stabilization and additivity, all exact
"""

import json
import random
import time

import numpy as np

from maslovkit import (
    HermitianForm,
    PauliModule,
    RingDescriptor,
    RingMatrix,
    apply,
    constant_loop,
    diag_identity_decomposition,
    hyperbolic_form,
    inverse,
    is_isotropic,
    lagrangian_report,
    lambda_flip_homotopy,
    linearization_residual,
    loop_from_pair,
    maslov_index,
    modules_equal,
    paper_example_polynomial,
    sturm_residues,
    trivmas_homotopy,
    witt_class,
)
from maslovkit.cli import main as cli_main
from maslovkit.fixtures import cluster_module, disentangling_circuit, product_state_module
from maslovkit.linalg import spread

from helpers import (
    check_snf_contract,
    congruence_orbits,
    matrix_key,
    rand_clifford_word,
    rand_matrix,
    rand_symmetric_nondeg,
    rand_unit_matrix,
)


def _report(num: int, message: str):
    print(f"ACCEPTANCE {num}: PASS - {message}")


def _run_cli(capsys, argv):
    code = cli_main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return out


def test_criterion_1_classification_table(capsys):
    expected = {
        5: {"name": "Z/2 + Z/2", "factors": [2, 2]},
        13: {"name": "Z/2 + Z/2", "factors": [2, 2]},
        3: {"name": "Z/4", "factors": [4]},
        7: {"name": "Z/4", "factors": [4]},
        11: {"name": "Z/4", "factors": [4]},
    }
    worst = 0.0
    for p, want in expected.items():
        start = time.perf_counter()
        out = _run_cli(capsys, ["lgroup", "table", "--p", str(p), "--format", "json"])
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        table = json.loads(out)
        loops = table["loop_classes"]
        for d in range(4):
            assert loops[d]["name"] == "0", (p, d)
            assert loops[d]["invariant_factors"] == []
        assert loops[4]["name"] == want["name"]
        assert loops[4]["invariant_factors"] == want["factors"]
        assert elapsed < 1.0, f"table for p={p} took {elapsed:.3f}s"
    _report(1, f"OmegaC(d,p) exact for 5 primes, slowest table {worst * 1e3:.0f} ms")


def test_criterion_2_real_maslov_preset(capsys):
    start = time.perf_counter()
    out = _run_cli(capsys, ["maslov", "real", "--preset", "paper-example"])
    elapsed = time.perf_counter() - start
    assert out == "1\n"
    assert elapsed < 0.1, f"preset run took {elapsed:.3f}s"
    poly = paper_example_polynomial()
    residual = linearization_residual(poly, sturm_residues(poly), samples=20)
    assert residual < 1e-6
    _report(
        2,
        f"preset index 1 in {elapsed * 1e3:.1f} ms, factorization residual {residual:.2e}",
    )


def test_criterion_3_witt_oracle_equivalence():
    rng = random.Random(1234)
    start = time.perf_counter()
    total_forms = 0
    comparisons = 0
    for p in (3, 5, 7):
        for n in (1, 2, 3):
            labels, _, nondeg = congruence_orbits(p, n)
            sample = [rand_symmetric_nondeg(p, n, rng) for _ in range(60)]
            total_forms += len(sample)
            keyed = []
            for form in sample:
                key = matrix_key(form, p, n)
                assert nondeg[key]
                keyed.append((labels[key], witt_class(form)))
            for i in range(len(keyed)):
                for j in range(i + 1, len(keyed)):
                    congruent = keyed[i][0] == keyed[j][0]
                    same_invariants = keyed[i][1] == keyed[j][1]
                    assert congruent == same_invariants, (p, n, i, j)
                    comparisons += 1
            # both orbits are realized and carry distinct classes
            by_orbit = {}
            for label, cls in keyed:
                by_orbit.setdefault(label, set()).add(cls)
            assert all(len(v) == 1 for v in by_orbit.values())
    elapsed = time.perf_counter() - start
    assert total_forms >= 500
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s"
    _report(
        3,
        f"{total_forms} forms, {comparisons} pairwise checks vs BFS orbits in {elapsed:.1f} s",
    )


def test_criterion_4_maslov_pair_consistency():
    rng = random.Random(4321)
    checked = 0
    for p in (5, 7):
        for _ in range(50):
            n = rng.randrange(1, 4)
            q0 = rand_symmetric_nondeg(p, n, rng)
            q1 = rand_symmetric_nondeg(p, n, rng)
            got = maslov_index(loop_from_pair(q0, q1)).witt
            want = witt_class(q1.direct_sum(HermitianForm(-inverse(q0.matrix), 1)))
            assert got == want, (p, n)
            checked += 1
    assert checked == 100
    _report(4, "loop Maslov equals the pair formula on 100 random pairs, exact")


def test_criterion_5_homotopy_witnesses():
    rng = random.Random(555)
    laurent = RingDescriptor(5, 1)

    # trivmas: 100 random nondegenerate forms, field and Laurent cases
    trivmas_checked = 0
    for _ in range(60):
        p = rng.choice((5, 7))
        n = rng.randrange(1, 4)
        q = rand_symmetric_nondeg(p, n, rng)
        e = trivmas_homotopy(q, 1)
        rep = q.direct_sum(HermitianForm(-inverse(q.matrix), 1))
        assert e.dagger() @ rep.matrix @ e == hyperbolic_form(n, 1, q.ring).matrix
        trivmas_checked += 1
    for _ in range(40):
        n = rng.randrange(1, 3)
        c = rand_unit_matrix(laurent, rng, n)
        d = RingMatrix(
            laurent,
            [
                [rng.randrange(1, 5) if i == j else 0 for j in range(n)]
                for i in range(n)
            ],
        )
        q = HermitianForm(c.dagger() @ d @ c, 1)
        e = trivmas_homotopy(q, 1)
        rep = q.direct_sum(HermitianForm(-inverse(q.matrix), 1))
        assert e.dagger() @ rep.matrix @ e == hyperbolic_form(n, 1, laurent).matrix
        trivmas_checked += 1
    assert trivmas_checked == 100

    # lambda flip at t = 1 over field and Laurent rings
    flip_checked = 0
    for ring in (RingDescriptor(5), RingDescriptor(7), laurent):
        for n in (1, 2, 3):
            e = lambda_flip_homotopy(1, n, ring)
            lam = hyperbolic_form(n, 1, ring).matrix
            assert e.dagger() @ lam @ e == -lam
            flip_checked += 1

    # diag(a, a^-1) decomposition for 100 random invertible a, spread <= 2
    diag_checked = 0
    while diag_checked < 100:
        n = rng.randrange(1, 3)
        a = rand_unit_matrix(laurent, rng, n, word_length=rng.randrange(1, 4))
        entries = [a[i, j] for i in range(n) for j in range(n)]
        if any(not e.is_zero() and spread(e) > 2 for e in entries):
            continue
        factors = diag_identity_decomposition(a)
        product = factors[0]
        for f in factors[1:]:
            product = product @ f
        assert product == RingMatrix.block_diag([a, inverse(a)])
        diag_checked += 1
    _report(
        5,
        f"trivmas x{trivmas_checked}, flip x{flip_checked}, diag identity x{diag_checked}, all exact",
    )


def test_criterion_6_cluster_fixture():
    state = product_state_module()
    for gate in disentangling_circuit():
        state = apply(gate, state)
    cluster = cluster_module()
    assert modules_equal(state, cluster)
    assert lagrangian_report(cluster)["lagrangian"]
    _report(6, "shipped circuit maps the product state onto the cluster Lagrangian")


def test_criterion_7_structural_invariants():
    # Smith-form contract on 100 random matrices over F_3[x, x^-1]
    rng = random.Random(777)
    ring3 = RingDescriptor(3, 1)
    for _ in range(100):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        check_snf_contract(rand_matrix(ring3, rng, rows, cols, max_spread=3))

    # unitary words preserve isotropy and the Lagrangian property
    words = 0
    for ring, n in ((RingDescriptor(5), 2), (RingDescriptor(5, 1), 2)):
        base = PauliModule(ring, n).standard_lagrangian()
        for _ in range(50):
            u = rand_clifford_word(ring, rng, n, length=3)
            image = apply(u, base)
            assert is_isotropic(image)
            assert lagrangian_report(image)["lagrangian"]
            words += 1
    assert words == 100

    # Maslov stabilization and additivity
    for p in (5, 7):
        ring = RingDescriptor(p)
        for _ in range(10):
            n = rng.randrange(1, 3)
            loop = loop_from_pair(
                rand_symmetric_nondeg(p, n, rng), rand_symmetric_nondeg(p, n, rng)
            )
            base_cls = maslov_index(loop).witt
            assert maslov_index(loop.padded(1)).witt == base_cls
            assert maslov_index(loop.direct_sum(constant_loop(ring, 1))).witt == base_cls
        for _ in range(10):
            l1 = loop_from_pair(
                rand_symmetric_nondeg(p, 1, rng), rand_symmetric_nondeg(p, 1, rng)
            )
            l2 = loop_from_pair(
                rand_symmetric_nondeg(p, 2, rng), rand_symmetric_nondeg(p, 2, rng)
            )
            assert (
                maslov_index(l1.direct_sum(l2)).witt
                == maslov_index(l1).witt + maslov_index(l2).witt
            )
    _report(
        7,
        "SNF contract x100, unitary preservation x100, Maslov stabilization/additivity, exact",
    )


def test_acceptance_summary():
    # numpy is used by the oracle; keep the dependency honest in this module
    assert np.__version__
    print("ACCEPTANCE: all criteria evaluated at their stated tolerances")
