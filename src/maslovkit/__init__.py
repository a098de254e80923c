"""Exact computer algebra for Clifford QCA over prime qudits.

Laurent polynomial rings with the inversion involution, Pauli modules and
their Lagrangian stabilizer submodules, Sturm sequences and the generalized
Maslov index, Witt-group classification over F_p, the classical real Maslov
index, and the L-group recursion with the resulting loop classification.

`import maslovkit` imports none of the submodules.  _PUBLIC lists each
public name under its submodule; the first use of a name imports that
submodule and binds the name here, so every later lookup is a plain dict
hit.  A submodule name such as `maslovkit.sturm` imports that submodule.
"""

__version__ = "0.1.0"

# submodule -> the public names it defines
_PUBLIC = {
    "errors": (
        "DegenerateForm", "DegenerateInput", "DivisionByZero", "DomainError", "EndpointRoot",
        "FormError", "InternalInvariantViolation", "MaslovkitError", "NotALoop", "NotAUnit",
        "RingMismatch", "ShapeError", "UnsupportedRing",
    ),
    "ring": ("FieldElement", "LaurentPolynomial", "RingDescriptor", "is_square", "least_non_residue"),
    "linalg": (
        "RingMatrix", "SmithDecomposition", "det", "inverse", "kernel_basis", "smith_normal_form",
        "solve_in_span",
    ),
    "forms": (
        "FormTriple", "HermitianForm", "WittClass", "diagonalize", "hyperbolic_form",
        "in_fundamental_ideal", "triple_delta", "witt_class",
    ),
    "pauli": (
        "CliffordUnitary", "PauliModule", "StabilizerModule", "apply", "commutation_phase",
        "diag_identity_decomposition", "elementary_unitary", "hyperbolic_unitary", "is_isotropic",
        "is_transversal", "lagrangian_report", "modules_equal", "pairing",
    ),
    "sturm": (
        "LagrangianLoop", "MaslovResult", "SturmSequence", "constant_loop", "lambda_flip_homotopy",
        "loop_from_pair", "maslov_index", "stabilized_image", "sturm_tridiagonal", "sturm_unitary",
        "transversal_witness", "trivmas_homotopy", "validate_loop",
    ),
    "lgroups": (
        "FiniteAbelianGroup", "classify_loops", "fundamental_ideal_group", "lgroup",
        "witt_group_structure",
    ),
    "realmaslov": (
        "RealPolynomial", "ResidueSequence", "linearization_residual", "paper_example_polynomial",
        "real_maslov", "residue_signature_form", "sturm_residues",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

# the public names, which a star import binds
__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name, name)
    if module not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")  # the import binds the submodule here
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
