"""JSON codecs for every on-disk object the CLI consumes or produces.

All encoders emit deterministic structures (terms sorted by exponent tuple,
fixed key order) so identical inputs produce byte-identical output.
Decoders raise DomainError on malformed data, which the CLI maps to a
structured error object and exit code 2.

A matrix document decodes to the rows a RingMatrix stores, int residues
over F_p and term dicts elsewhere, and a matrix encodes from them, each
entry as encode_poly writes it: no entry is built as a polynomial.  A
regular entry, one with the matrix's ring fields (over F_p also terms
{"e": [], "c": c} with c a JSON integer), is read with no ring of its own:
its terms go through the constructor's term check, or over F_p are summed
mod p.  Any other entry goes to decode_poly, which raises what it raises
for that entry alone.

Only the decoders of Pauli data and of loops need pauli and sturm, and they
import them when they run.
"""

from __future__ import annotations

from .errors import DomainError
from .forms import HermitianForm, WittClass
from .linalg import RingMatrix, _rows
from .ring import LaurentPolynomial, RingDescriptor, _checked, _interned


def _expect(obj, key, kind, what):
    if not isinstance(obj, dict):
        raise DomainError(f"{what}: expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise DomainError(f"{what}: missing key {key!r}")
    value = obj[key]
    # exact JSON types: bool subclasses int, but true and false are not integers
    if type(value) is not kind:
        raise DomainError(f"{what}: key {key!r} has the wrong type")
    return value


# -- rings and polynomials ---------------------------------------------------


def encode_ring(ring: RingDescriptor) -> dict:
    return {
        "p": ring.p,
        "vars": [f"x{i + 1}" for i in range(ring.spatial_vars)],
        "T": ring.has_T,
    }


def decode_ring(obj) -> RingDescriptor:
    """The interned descriptor: each ring is validated once and shared."""
    p = _expect(obj, "p", int, "ring")
    variables = _expect(obj, "vars", list, "ring")
    has_T = _expect(obj, "T", bool, "ring")
    return _interned(p, len(variables), has_T)


def encode_poly(f: LaurentPolynomial) -> dict:
    return _encode_terms(encode_ring(f.ring), f.terms)


def _encode_terms(ring_doc: dict, terms: dict) -> dict:
    """The document of the polynomial with these terms over the ring of
    ring_doc, with a vars list of its own."""
    terms = [{"e": list(exps), "c": terms[exps]} for exps in sorted(terms)]
    return {**ring_doc, "vars": [*ring_doc["vars"]], "terms": terms}


def decode_poly(obj) -> LaurentPolynomial:
    """The polynomial of obj's ring and terms; the constructor's check reads
    each term and adds repeated exponents."""
    if not isinstance(obj, dict):  # before decode_ring reads its ring fields
        raise DomainError(f"polynomial: expected a JSON object, got {type(obj).__name__}")
    ring = decode_ring(obj)
    return LaurentPolynomial._unchecked(ring, _decode_terms(obj, ring))


def _in_ring(obj, ring: RingDescriptor) -> bool:
    """True when the ring fields of obj are exactly those encode_ring gives ring.

    Exact JSON types: "p": 5.0 or "T": 0 do not match.
    """
    try:
        p, variables, has_T = obj["p"], obj["vars"], obj["T"]
    except (KeyError, TypeError):
        return False
    return (
        type(p) is int and p == ring.p and type(variables) is list
        and len(variables) == ring.spatial_vars and has_T is ring.has_T
    )


def _term(item) -> tuple:
    """The (exponents, coefficient) pair of a JSON term, its key types checked."""
    return _expect(item, "e", list, "polynomial term"), _expect(item, "c", int, "polynomial term")


def _decode_terms(obj, ring: RingDescriptor) -> dict:
    """The checked terms over ring of the terms of obj, as decode_poly reads them."""
    return _checked(ring, map(_term, _expect(obj, "terms", list, "polynomial")))


# -- matrices and forms ------------------------------------------------------


def encode_matrix(A: RingMatrix) -> dict:
    if A.ring.nexponents:
        ring_doc = encode_ring(A.ring)
        entries = [[_encode_terms(ring_doc, e) for e in row] for row in _rows(A)]
    else:  # from the residues, in encode_poly's key order
        p = A.ring.p
        entries = [
            [{"p": p, "vars": [], "T": False, "terms": [{"e": [], "c": v}] if v else []}
             for v in row]
            for row in _rows(A)
        ]
    return {"rows": A.rows, "cols": A.cols, "ring": encode_ring(A.ring), "entries": entries}


def decode_matrix(obj) -> RingMatrix:
    rows = _expect(obj, "rows", int, "matrix")
    cols = _expect(obj, "cols", int, "matrix")
    if rows < 0 or cols < 0:
        raise DomainError("matrix: rows and cols must be non-negative")
    ring = decode_ring(_expect(obj, "ring", dict, "matrix"))
    raw = _expect(obj, "entries", list, "matrix")
    if len(raw) != rows or any(
        not isinstance(r, list) or len(r) != cols for r in raw
    ):
        raise DomainError("matrix: entry grid does not match rows x cols")
    entry = _terms_entry if ring.nexponents else _residue_entry
    rows = [[entry(e, ring) for e in row] for row in raw]
    if any(None in row for row in rows):
        raise DomainError("matrix: entry ring differs from matrix ring")
    return RingMatrix._unchecked(ring, rows, cols)


def _terms_entry(e, ring: RingDescriptor) -> dict | None:
    """The terms of an entry of a matrix over a ring with variables, None for
    a polynomial over another ring; as _residue_entry reads one over F_p."""
    if _in_ring(e, ring):
        return _decode_terms(e, ring)
    decode_poly(e)
    return None


def _residue_entry(e, ring: RingDescriptor) -> int | None:
    """The residue of an entry of a matrix over F_p, None for a polynomial
    over another ring.  A regular entry (the ring fields of ring, and a list
    of terms {"e": [], "c": c} with c an int) is the sum of its c mod p; any
    other goes through decode_poly, the home of the term rule and its errors:
    an entry that it decodes is a polynomial over another ring."""
    try:
        p, terms = e["p"], e["terms"]
        if (type(p) is int and p == ring.p and e["vars"] == [] and e["T"] is False
                and type(terms) is list):
            c = 0
            for term in terms:
                if term["e"] != [] or type(term["c"]) is not int:
                    break
                c += term["c"]
            else:
                return c % p
    except (KeyError, TypeError):
        pass
    decode_poly(e)
    return None


def encode_form(F: HermitianForm) -> dict:
    out = encode_matrix(F.matrix)
    out["sign"] = F.sign
    return out


def decode_form(obj) -> HermitianForm:
    sign = _expect(obj, "sign", int, "form")  # HermitianForm checks its value
    return HermitianForm(decode_matrix(obj), sign)


def encode_witt(c: WittClass) -> dict:
    return {"p": c.p, "class": c.class_name}


def decode_witt(obj) -> WittClass:
    p = _expect(obj, "p", int, "witt class")
    name = _expect(obj, "class", str, "witt class")
    return WittClass.from_name(p, name)


# -- Pauli data --------------------------------------------------------------


def encode_module(S: StabilizerModule) -> dict:
    return {
        "N": S.ambient.N,
        "ring": encode_ring(S.ambient.ring),
        "generators": encode_matrix(S.generators),
    }


def decode_module(obj) -> StabilizerModule:
    from .pauli import PauliModule, StabilizerModule

    n = _expect(obj, "N", int, "stabilizer module")
    ring = decode_ring(_expect(obj, "ring", dict, "stabilizer module"))
    gens = decode_matrix(_expect(obj, "generators", dict, "stabilizer module"))
    if gens.ring != ring:
        raise DomainError("stabilizer module: generator ring mismatch")
    return StabilizerModule(PauliModule(ring, n), gens)


def encode_unitary(u: CliffordUnitary) -> dict:
    return {"N": u.ambient.N, "matrix": encode_matrix(u.matrix)}


def decode_unitary(obj) -> CliffordUnitary:
    from .pauli import CliffordUnitary, PauliModule

    n = _expect(obj, "N", int, "unitary")
    matrix = decode_matrix(_expect(obj, "matrix", dict, "unitary"))
    return CliffordUnitary(PauliModule(matrix.ring, n), matrix)


def decode_circuit(obj) -> list:
    """Ordered list of {"kind": "E0"|"E1"|"H", "payload": form|matrix}."""
    from .pauli import elementary_unitary, hyperbolic_unitary

    if not isinstance(obj, list):
        raise DomainError("circuit: expected a list of steps")
    steps = []
    for item in obj:
        kind = _expect(item, "kind", str, "circuit step")
        payload = _expect(item, "payload", dict, "circuit step")
        if kind in ("E0", "E1"):
            steps.append(elementary_unitary(kind, decode_form(payload)))
        elif kind == "H":
            steps.append(hyperbolic_unitary(decode_matrix(payload)))
        else:
            raise DomainError(f"circuit step: unknown kind {kind!r}")
    return steps


def encode_circuit(steps) -> list:
    out = []
    for kind, payload in steps:
        if kind in ("E0", "E1"):
            out.append({"kind": kind, "payload": encode_form(payload)})
        elif kind == "H":
            out.append({"kind": kind, "payload": encode_matrix(payload)})
        else:
            raise DomainError(f"circuit step: unknown kind {kind!r}")
    return out


# -- loops and results -------------------------------------------------------


def encode_loop(loop: LagrangianLoop) -> dict:
    return {
        "N": loop.N,
        "ring": encode_ring(loop.ring),
        "sturm": [encode_form(q) for q in loop.seq.forms],
    }


def decode_loop(obj) -> LagrangianLoop:
    from .sturm import SturmSequence, validate_loop

    n = _expect(obj, "N", int, "loop")
    ring = decode_ring(_expect(obj, "ring", dict, "loop"))
    raw = _expect(obj, "sturm", list, "loop")
    forms = tuple(decode_form(item) for item in raw)
    return validate_loop(SturmSequence(ring, n, forms))


def encode_maslov_result(result: MaslovResult) -> dict:
    return {
        "form": encode_form(result.form),
        "witt": encode_witt(result.witt) if result.witt is not None else None,
        "rank_parity": result.rank_parity,
        "determinant": encode_poly(result.determinant),
    }
