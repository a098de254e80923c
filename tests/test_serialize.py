"""JSON round trips and validation of the wire formats."""

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maslovkit import (
    DomainError,
    FormError,
    HermitianForm,
    LaurentPolynomial,
    PauliModule,
    RingDescriptor,
    RingMatrix,
    ShapeError,
    WittClass,
    apply,
    hyperbolic_form,
    hyperbolic_unitary,
    modules_equal,
)
from maslovkit import serialize
from maslovkit.fixtures import (
    cluster_module,
    disentangling_circuit_json,
    product_state_module,
    sample_pair,
)
from maslovkit.sturm import loop_from_pair, maslov_index

from helpers import rand_hermitian, rand_matrix, rand_poly, rand_symmetric_nondeg, rand_unit_matrix


L5 = RingDescriptor(5, 1)
L5T = RingDescriptor(5, 1, True)


def test_poly_round_trip_exact():
    rng = random.Random(40)
    for ring in (RingDescriptor(5), L5, L5T, RingDescriptor(7, 2)):
        for _ in range(25):
            f = rand_poly(ring, rng, 2)
            blob = serialize.encode_poly(f)
            assert serialize.decode_poly(blob) == f
            # canonical encodings survive a JSON+decode+encode cycle byte for byte
            text = json.dumps(blob)
            again = serialize.encode_poly(serialize.decode_poly(json.loads(text)))
            assert json.dumps(again) == text


def test_poly_schema_shape():
    f = L5T.x(0) + 2 * L5T.T()
    blob = serialize.encode_poly(f)
    assert blob == {
        "p": 5,
        "vars": ["x1"],
        "T": True,
        "terms": [{"e": [0, 1], "c": 2}, {"e": [1, 0], "c": 1}],
    }


_RINGS = [RingDescriptor(5), RingDescriptor(3, 1), L5T, RingDescriptor(5, 2)]
_SPOILS = {
    "wide": lambda e, c, bad: (e + [0], c),
    "narrow": lambda e, c, bad: (e[1:], c),
    "exponent": lambda e, c, bad: ([bad] + e[1:], c),
    "coefficient": lambda e, c, bad: (e, bad),
}


@st.composite
def _term_lists(draw):
    """A ring and its terms; few exponent values make repeats, some cancelling
    mod p.  Half the lists get one term spoiled by a value no term may hold."""
    ring = draw(st.sampled_from(_RINGS))
    width = ring.nexponents
    exps = st.lists(st.integers(-1, 2), min_size=width, max_size=width)
    terms = draw(st.lists(st.tuples(exps, st.integers(-12, 12)), max_size=6))
    if terms and draw(st.booleans()):
        i = draw(st.integers(0, len(terms) - 1))
        spoil = _SPOILS[draw(st.sampled_from(sorted(_SPOILS)))]
        terms[i] = spoil(*terms[i], draw(st.sampled_from([True, False, 1.0, 0.5, "1"])))
    return ring, terms


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_term_lists())
@example((RingDescriptor(5), [([], 2), ([], 3)]))
@example((L5T, [([0, 1], 1), ([0, True], 1)]))
@example((L5T, [([0, True], 1), ([0, 1], 1)]))
@example((L5T, [([0, -1], 5)]))
def test_decode_poly_agrees_with_the_constructor(case):
    # the constructor adds repeated exponents, given the terms as pairs; the
    # sum of the one-term polynomials is the same polynomial, and each term
    # meets the constructor's checks before it is added
    ring, terms = case
    blob = {**serialize.encode_ring(ring), "terms": [{"e": e, "c": c} for e, c in terms]}
    outcomes = []
    for build in (
        lambda: serialize.decode_poly(blob),
        lambda: sum((LaurentPolynomial(ring, {tuple(e): c}) for e, c in terms), ring.zero()),
        lambda: LaurentPolynomial(ring, terms),
    ):
        try:
            outcomes.append(build())
        except DomainError:
            outcomes.append(None)
    decoded, built, paired = outcomes
    assert (decoded is None) == (built is None) == (paired is None)
    if decoded is not None:
        assert decoded.ring == ring and decoded.terms == built.terms == paired.terms


_FP_PRIMES = [3, 5, 10**9 + 7]
_BIG = [10**20, -(10**20), 10**21 + 3]
# entries that are not regular: each leaves the F_p fast path of decode_matrix
_IRREGULAR = {
    "coefficient": lambda p, term: {**term, "c": True},
    "float": lambda p, term: {**term, "c": 1.0},
    "string": lambda p, term: {**term, "c": "1"},
    "exponent": lambda p, term: {**term, "e": [0]},
    "no-e": lambda p, term: {"c": term["c"]},
    "term-int": lambda p, term: 5,
}
_ENTRY_SPOILS = {
    "p-float": lambda p, entry: {**entry, "p": float(p)},
    "p-bool": lambda p, entry: {**entry, "p": True},
    "T-int": lambda p, entry: {**entry, "T": 0},
    "T-missing": lambda p, entry: {k: v for k, v in entry.items() if k != "T"},
    "vars-str": lambda p, entry: {**entry, "vars": ""},
    "other-p": lambda p, entry: {**entry, "p": 7 if p != 7 else 5},
    "other-ring": lambda p, entry: {"p": p, "vars": ["x1"], "T": False, "terms": [{"e": [1], "c": 1}]},
    "terms-dict": lambda p, entry: {**entry, "terms": {}},
    "terms-str": lambda p, entry: {**entry, "terms": "ec"},
    "int": lambda p, entry: 5,
    "list": lambda p, entry: [entry],
    "none": lambda p, entry: None,
}


@st.composite
def _fp_matrix_documents(draw):
    """An F_p matrix document of regular entries, with repeated, cancelling,
    negative and huge coefficients; half the documents get one to three
    entries or terms spoiled."""
    p = draw(st.sampled_from(_FP_PRIMES))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    coefficient = st.integers(-12, 12) | st.sampled_from(_BIG)
    grid = [
        [
            {**serialize.encode_ring(RingDescriptor(p)),
             "terms": [{"e": [], "c": c} for c in draw(st.lists(coefficient, max_size=4))]}
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
            entry = grid[i][j]
            if isinstance(entry, dict) and entry.get("terms") and draw(st.booleans()):
                terms = list(entry["terms"])
                k = draw(st.integers(0, len(terms) - 1))
                terms[k] = _IRREGULAR[draw(st.sampled_from(sorted(_IRREGULAR)))](p, terms[k])
                grid[i][j] = {**entry, "terms": terms}
            else:
                grid[i][j] = _ENTRY_SPOILS[draw(st.sampled_from(sorted(_ENTRY_SPOILS)))](p, entry)
    return {"rows": rows, "cols": cols, "ring": serialize.encode_ring(RingDescriptor(p)), "entries": grid}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_fp_matrix_documents())
def test_decode_matrix_over_fp_agrees_with_decode_poly(blob):
    # over F_p, decode_matrix reads regular entries as residues; it must give
    # the matrix of the entries decode_poly builds one by one, or the
    # DomainError message that the first faulty entry gives decode_poly
    ring = serialize.decode_ring(blob["ring"])
    try:
        entries = [[serialize.decode_poly(e) for e in row] for row in blob["entries"]]
    except DomainError as exc:
        expected = str(exc)
    else:
        if any(f.ring != ring for row in entries for f in row):
            expected = "matrix: entry ring differs from matrix ring"
        else:
            expected = RingMatrix(ring, entries)
    try:
        decoded = serialize.decode_matrix(blob)
    except DomainError as exc:
        decoded = str(exc)
    assert decoded == expected


def test_matrix_and_form_round_trip():
    rng = random.Random(41)
    m = rand_matrix(L5, rng, 2, 3)
    assert serialize.decode_matrix(serialize.encode_matrix(m)) == m
    q = rand_hermitian(L5, 2, rng)
    decoded = serialize.decode_form(serialize.encode_form(q))
    assert decoded.matrix == q.matrix and decoded.sign == 1
    empty = RingMatrix(L5, [[] for _ in range(2)])
    assert serialize.decode_matrix(serialize.encode_matrix(empty)).cols == 0


def test_decode_matrix_keeps_the_declared_width():
    # a matrix with no rows keeps its cols; negative dimensions are malformed
    for shape in ((0, 0), (0, 3)):
        blob = serialize.encode_matrix(RingMatrix.zeros(L5, *shape))
        assert (blob["rows"], blob["cols"]) == shape
        decoded = serialize.decode_matrix(blob)
        assert decoded.shape == shape and decoded == RingMatrix.zeros(L5, *shape)
    ring_json = {"p": 5, "vars": [], "T": False}
    for rows, cols in ((0, -1), (-1, 0), (-1, 2)):
        blob = {"rows": rows, "cols": cols, "ring": ring_json, "entries": []}
        with pytest.raises(DomainError, match="non-negative"):
            serialize.decode_matrix(blob)


def test_witt_round_trip():
    for p in (5, 7):
        for rp in (0, 1):
            for dc in (0, 1):
                cls = WittClass(p, rp, dc)
                assert serialize.decode_witt(serialize.encode_witt(cls)) == cls


def test_witt_class_needs_an_odd_prime_modulus():
    # "0" names a class for p = 1 and 3 mod 4 alike, so only the modulus is wrong
    for p in (9, 15, 4, 2, -1):
        with pytest.raises(DomainError):
            WittClass(p, 1, 0)
        with pytest.raises(DomainError):
            serialize.decode_witt({"p": p, "class": "0"})


def test_module_unitary_circuit_round_trip():
    module = product_state_module()
    blob = serialize.encode_module(module)
    decoded = serialize.decode_module(blob)
    assert modules_equal(decoded, module)
    steps = serialize.decode_circuit(disentangling_circuit_json())
    state = decoded
    for u in steps:
        blob_u = serialize.encode_unitary(u)
        assert serialize.decode_unitary(blob_u).matrix == u.matrix
        state = apply(u, state)
    assert modules_equal(state, cluster_module())


def test_loop_round_trip():
    q0, q1 = sample_pair()
    loop = loop_from_pair(q0, q1)
    blob = serialize.encode_loop(loop)
    decoded = serialize.decode_loop(blob)
    assert maslov_index(decoded).witt == maslov_index(loop).witt


def test_maslov_result_encoding():
    q0, q1 = sample_pair()
    res = maslov_index(loop_from_pair(q0, q1))
    blob = serialize.encode_maslov_result(res)
    assert blob["witt"] == {"p": 5, "class": "<1>+<t>"}
    assert blob["rank_parity"] == 0
    assert blob["form"]["sign"] == 1


def test_malformed_inputs_raise_domain_error():
    F5_json = {"p": 5, "vars": [], "T": False}
    x_entry = {"p": 5, "vars": ["x1"], "T": False, "terms": [{"e": [1], "c": 1}]}
    bad_cases = [
        ({"p": 5, "vars": ["x1"]}, serialize.decode_ring),
        ({"p": "5", "vars": [], "T": False}, serialize.decode_ring),
        ({"p": 5, "vars": 1, "T": False}, serialize.decode_ring),
        ({"p": 5, "vars": "x1", "T": False}, serialize.decode_ring),
        ({"p": 5, "vars": [], "T": False, "terms": [{"e": [1], "c": 1}]}, serialize.decode_poly),
        ({"p": 5, "vars": [], "T": False, "terms": [{"c": 1}]}, serialize.decode_poly),
        ({"p": 5, "vars": [], "T": True, "terms": [{"e": [-1], "c": 1}]}, serialize.decode_poly),
        ({"p": 5, "vars": ["x1"], "T": True, "terms": [{"e": [2, -3], "c": 1}]}, serialize.decode_poly),
        ({"rows": 2, "cols": 1, "ring": F5_json, "entries": []}, serialize.decode_matrix),
        ({"rows": 0, "cols": 0, "ring": {"p": 4, "vars": [], "T": False}, "entries": []}, serialize.decode_matrix),
        ({"rows": 1, "cols": 1, "ring": F5_json, "entries": [[x_entry]]}, serialize.decode_matrix),
        ({"rows": 1, "cols": 1, "ring": F5_json, "entries": [[{**x_entry, "p": 7, "vars": []}]]},
         serialize.decode_matrix),
        # the ring fields of an entry keep their exact JSON types
        ({"rows": 1, "cols": 1, "ring": F5_json, "entries": [[{**x_entry, "p": 5.0, "vars": []}]]},
         serialize.decode_matrix),
        ({"rows": 1, "cols": 1, "ring": F5_json, "entries": [[{**x_entry, "T": 0, "vars": []}]]},
         serialize.decode_matrix),
        # an entry that is not a JSON object
        ({"rows": 1, "cols": 1, "ring": F5_json, "entries": [[5]]}, serialize.decode_matrix),
        ("nope", serialize.decode_circuit),
        ([{"kind": "E9", "payload": {}}], serialize.decode_circuit),
    ]
    for blob, decoder in bad_cases:
        with pytest.raises(DomainError):
            decoder(blob)
    # a matrix raises for a faulty entry what decode_poly raises for it
    for blob, decoder in bad_cases:
        if decoder is serialize.decode_matrix and len(blob["entries"]) == 1:
            (entry,) = blob["entries"][0]
            with pytest.raises(DomainError) as whole:
                serialize.decode_matrix(blob)
            try:
                serialize.decode_poly(entry)
            except DomainError as single:
                assert str(whole.value) == str(single)
            else:
                assert "entry ring differs" in str(whole.value)
    # a container that is not a JSON object is named with its type
    entry_message = "polynomial: expected a JSON object, got int"
    for blob, decoder, message in [
        ({"rows": 1, "cols": 1, "ring": F5_json, "entries": [[5]]}, serialize.decode_matrix, entry_message),
        (5, serialize.decode_poly, entry_message),
        ([5], serialize.decode_form, "form: expected a JSON object, got list"),
        (3, serialize.decode_loop, "loop: expected a JSON object, got int"),
    ]:
        with pytest.raises(DomainError, match=f"^{message}$"):
            decoder(blob)


def test_decode_poly_sums_duplicate_terms_mod_p():
    ring = {"p": 5, "vars": ["x1"], "T": True}
    cancel = [{"e": [1, 2], "c": 2}, {"e": [0, 0], "c": 4}, {"e": [1, 2], "c": 3}]
    f = serialize.decode_poly({**ring, "terms": cancel})
    assert f.terms == {(0, 0): 4} and f == 4 * L5T.one()
    assert serialize.decode_poly({**ring, "terms": cancel[::2]}).is_zero()
    big = {"p": 10**9 + 7, "vars": [], "T": False, "terms": [{"e": [], "c": -1}, {"e": [], "c": 10**9 + 8}]}
    assert serialize.decode_poly(big).is_zero()
    assert serialize.decode_poly({**big, "terms": big["terms"][:1]}).terms == {(): 10**9 + 6}


def test_decoded_entries_share_one_descriptor():
    rng = random.Random(42)
    for ring in (RingDescriptor(5), L5, L5T, RingDescriptor(7, 2)):
        blob = json.loads(json.dumps(serialize.encode_matrix(rand_matrix(ring, rng, 3, 2))))
        decoded = serialize.decode_matrix(blob)
        assert decoded.ring == ring
        assert all(e.ring is decoded.ring for row in decoded.entries for e in row)
        assert serialize.decode_ring(blob["ring"]) is decoded.ring


def test_booleans_are_not_integers():
    ring = {"p": 5, "vars": ["x1"], "T": True}
    term = {"e": [1, 0], "c": 2}
    assert serialize.decode_poly({**ring, "terms": [term]}) == L5.with_T().x(0, 1) * 2
    for bad in ({"e": [1, 0], "c": True}, {"e": [True, 0], "c": 2}, {"e": [1, False], "c": 2}):
        with pytest.raises(DomainError):
            serialize.decode_poly({**ring, "terms": [bad]})
    with pytest.raises(DomainError):
        serialize.decode_ring({"p": True, "vars": [], "T": False})
    blob = serialize.encode_form(HermitianForm(RingMatrix.identity(L5, 1), 1))
    for key in ("rows", "cols", "sign"):
        with pytest.raises(DomainError):
            serialize.decode_form({**blob, key: True})


def test_loop_decode_requires_T():
    blob = {"N": 1, "ring": {"p": 5, "vars": [], "T": False}, "sturm": []}
    with pytest.raises(DomainError):
        serialize.decode_loop(blob)


def test_module_decode_checks_shape():
    ring_json = {"p": 5, "vars": ["x1"], "T": False}
    gens = serialize.encode_matrix(RingMatrix.identity(L5, 3))
    blob = {"N": 1, "ring": ring_json, "generators": gens}
    with pytest.raises(ShapeError):
        serialize.decode_module(blob)


def test_decoders_keep_their_edge_checks():
    # docs/formats.md: decoding a unitary verifies dagger(M) lambda^- M = lambda^-
    not_unitary = RingMatrix(RingDescriptor(5), [[1, 1], [1, 1]])
    with pytest.raises(FormError):
        serialize.decode_unitary(
            {"N": 1, "matrix": serialize.encode_matrix(not_unitary)}
        )
    x = L5.x(0)
    not_hermitian = serialize.encode_form(HermitianForm(RingMatrix(L5, [[x]]), 1))
    with pytest.raises(FormError):
        serialize.decode_circuit([{"kind": "E0", "payload": not_hermitian}])
    hermitian = HermitianForm(RingMatrix(L5, [[x + L5.x(0, -1)]]), 1)
    payload = serialize.encode_form(hermitian)
    (u,) = serialize.decode_circuit([{"kind": "E0", "payload": payload}])
    assert serialize.decode_unitary(serialize.encode_unitary(u)) == u


def test_form_sign_validation():
    q = HermitianForm(RingMatrix.identity(RingDescriptor(5), 1), 1)
    blob = serialize.encode_form(q)
    blob["sign"] = 2
    with pytest.raises(DomainError):
        serialize.decode_form(blob)
    # HermitianForm holds the one sign rule, so every form it builds decodes
    # from its own encoding; a bool or a float is no sign
    for ring in (RingDescriptor(5), L5, L5T):
        for sign in (1, -1):
            form = hyperbolic_form(1, sign, ring)
            assert serialize.decode_form(json.loads(json.dumps(serialize.encode_form(form)))) == form
        for sign in (True, False, 1.0, -1.0, 2, 0):
            with pytest.raises(DomainError):
                HermitianForm(RingMatrix.identity(ring, 1), sign)


def test_circuit_hyperbolic_step_round_trip():
    a = RingMatrix(L5, [[L5.x(0), 1], [0, 2]])
    blob = serialize.encode_circuit([("H", a)])
    assert [step["kind"] for step in blob] == ["H"]
    (u,) = serialize.decode_circuit(json.loads(json.dumps(blob)))
    assert u.matrix == hyperbolic_unitary(a).matrix
    assert u.matrix.submatrix(range(2), range(2)) == a
    # unitary by construction, so the constructor does not check it: check here
    lam = PauliModule(L5, 2).lambda_minus()
    assert u.matrix.dagger() @ lam @ u.matrix == lam
    with pytest.raises(DomainError, match="unknown kind"):
        serialize.encode_circuit([("X", a)])


def _count_polynomials(monkeypatch) -> list:
    """The list to which every LaurentPolynomial built from now on, checked
    or not, appends its ring."""
    built = []
    unchecked, init = LaurentPolynomial._unchecked.__func__, LaurentPolynomial.__init__

    def counting_unchecked(cls, r, terms):
        built.append(r)
        return unchecked(cls, r, terms)

    def counting_init(self, r, terms):
        built.append(r)
        init(self, r, terms)

    monkeypatch.setattr(LaurentPolynomial, "_unchecked", classmethod(counting_unchecked))
    monkeypatch.setattr(LaurentPolynomial, "__init__", counting_init)
    return built


def test_field_pipeline_builds_no_polynomial_per_entry(monkeypatch):
    # over F_p a matrix is its residues from the JSON document to the JSON
    # result: decode_form, loop_from_pair, maslov_index and
    # encode_maslov_result build as many polynomials over the T-free ring at
    # N = 16 as at N = 4 (only the F_p[T] forms of the loop hold polynomials)
    p = 10**9 + 7
    ring = RingDescriptor(p)
    rng = random.Random(29)
    docs = {
        N: [json.loads(json.dumps(serialize.encode_form(rand_symmetric_nondeg(p, N, rng))))
            for _ in range(2)]
        for N in (4, 16)
    }
    built = _count_polynomials(monkeypatch)

    def count(N):
        built.clear()
        q0, q1 = map(serialize.decode_form, docs[N])
        out = serialize.encode_maslov_result(maslov_index(loop_from_pair(q0, q1)))
        assert out["form"]["rows"] == 8 * N
        return sum(r == ring for r in built)

    count(4)  # the shared constants of the ring are built on first use
    assert count(4) == count(16) < 16


@pytest.mark.parametrize("d", [1, 2])
def test_laurent_pipeline_builds_no_polynomial_per_entry(monkeypatch, d):
    # over F_p[x^+-] and F_p[x^+-, y^+-] a matrix is its term dicts from the
    # JSON document to the JSON result: decode_form, loop_from_pair,
    # maslov_index and encode_maslov_result build as many polynomials, over
    # any ring, at N = 6 as at N = 2, fewer than the 8 entries of two 2 x 2 forms
    ring = RingDescriptor(5, d)
    rng = random.Random(31)

    def doc(N):  # a^+ a for a random unimodular a: nondegenerate, hermitian
        a = rand_unit_matrix(ring, rng, N, word_length=2 * N)
        return json.loads(json.dumps(serialize.encode_form(HermitianForm(a.dagger() @ a, 1))))

    docs = {N: [doc(N), doc(N)] for N in (2, 6)}
    built = _count_polynomials(monkeypatch)

    def count(N):
        built.clear()
        q0, q1 = map(serialize.decode_form, docs[N])
        out = serialize.encode_maslov_result(maslov_index(loop_from_pair(q0, q1)))
        assert out["form"]["rows"] == 8 * N
        return len(built)

    count(2)  # the shared constants of the rings are built on first use
    assert count(2) == count(6) < 8
