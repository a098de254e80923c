"""Exact computer algebra for Clifford QCA over prime qudits.

Laurent polynomial rings with the inversion involution, Pauli modules and
their Lagrangian stabilizer submodules, Sturm sequences and the generalized
Maslov index, Witt-group classification over F_p, the classical real Maslov
index, and the L-group recursion with the resulting loop classification.
"""

from .errors import (
    DegenerateForm,
    DegenerateInput,
    DivisionByZero,
    DomainError,
    EndpointRoot,
    FormError,
    InternalInvariantViolation,
    MaslovkitError,
    NotALoop,
    NotAUnit,
    RingMismatch,
    ShapeError,
    UnsupportedRing,
)
from .ring import (
    FieldElement,
    LaurentPolynomial,
    RingDescriptor,
    is_square,
    least_non_residue,
)
from .linalg import (
    RingMatrix,
    SmithDecomposition,
    det,
    inverse,
    kernel_basis,
    smith_normal_form,
    solve_in_span,
)
from .forms import (
    FormTriple,
    HermitianForm,
    WittClass,
    diagonalize,
    hyperbolic_form,
    in_fundamental_ideal,
    triple_delta,
    witt_class,
)
from .pauli import (
    CliffordUnitary,
    PauliModule,
    StabilizerModule,
    apply,
    commutation_phase,
    diag_identity_decomposition,
    elementary_unitary,
    hyperbolic_unitary,
    is_isotropic,
    is_transversal,
    lagrangian_report,
    modules_equal,
    pairing,
)
from .sturm import (
    LagrangianLoop,
    MaslovResult,
    SturmSequence,
    constant_loop,
    lambda_flip_homotopy,
    loop_from_pair,
    maslov_index,
    stabilized_image,
    sturm_tridiagonal,
    sturm_unitary,
    transversal_witness,
    trivmas_homotopy,
    validate_loop,
)
from .lgroups import (
    FiniteAbelianGroup,
    classify_loops,
    fundamental_ideal_group,
    lgroup,
    witt_group_structure,
)

__version__ = "0.1.0"

# the classical real Maslov index loads fractions, decimal and numbers, so its
# names come from realmaslov on first use, not with every import of the package
_REALMASLOV_NAMES = (
    "RealPolynomial", "ResidueSequence", "linearization_residual", "paper_example_polynomial",
    "real_maslov", "residue_signature_form", "sturm_residues",
)

# the public names, which a star import binds: the realmaslov ones through __getattr__
__all__ = [
    "DegenerateForm", "DegenerateInput", "DivisionByZero", "DomainError", "EndpointRoot",
    "FormError", "InternalInvariantViolation", "MaslovkitError", "NotALoop", "NotAUnit",
    "RingMismatch", "ShapeError", "UnsupportedRing",
    "FieldElement", "LaurentPolynomial", "RingDescriptor", "is_square", "least_non_residue",
    "RingMatrix", "SmithDecomposition", "det", "inverse", "kernel_basis", "smith_normal_form",
    "solve_in_span",
    "FormTriple", "HermitianForm", "WittClass", "diagonalize", "hyperbolic_form",
    "in_fundamental_ideal", "triple_delta", "witt_class",
    "CliffordUnitary", "PauliModule", "StabilizerModule", "apply", "commutation_phase",
    "diag_identity_decomposition", "elementary_unitary", "hyperbolic_unitary", "is_isotropic",
    "is_transversal", "lagrangian_report", "modules_equal", "pairing",
    "LagrangianLoop", "MaslovResult", "SturmSequence", "constant_loop", "lambda_flip_homotopy",
    "loop_from_pair", "maslov_index", "stabilized_image", "sturm_tridiagonal", "sturm_unitary",
    "transversal_witness", "trivmas_homotopy", "validate_loop",
    "FiniteAbelianGroup", "classify_loops", "fundamental_ideal_group", "lgroup",
    "witt_group_structure",
    *_REALMASLOV_NAMES,
]


def __getattr__(name: str):
    if name in _REALMASLOV_NAMES:
        from . import realmaslov

        return getattr(realmaslov, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
