"""The contract of the immutable value classes: equality, hashing, repr,
frozen fields, keyword construction, copy and pickle."""

import copy
import pickle
from fractions import Fraction

import pytest

import maslovkit
from maslovkit import (
    CliffordUnitary,
    DomainError,
    FieldElement,
    FiniteAbelianGroup,
    FormTriple,
    HermitianForm,
    LagrangianLoop,
    LaurentPolynomial,
    MaslovkitError,
    MaslovResult,
    PauliModule,
    RealPolynomial,
    ResidueSequence,
    RingDescriptor,
    RingMatrix,
    SmithDecomposition,
    StabilizerModule,
    SturmSequence,
    WittClass,
)

F5 = RingDescriptor(5)
F5T = RingDescriptor(5, 0, True)
L5 = RingDescriptor(5, 1)
M = RingMatrix(F5, [[1, 2], [2, 3]])
Q = HermitianForm(M)
QT = HermitianForm(RingMatrix(F5T, [[F5T.T() + 1]]))
# E0(T^2 - T) fixes L at T = 0 and T = 1: the one-form sequence is a loop
QL = HermitianForm(RingMatrix(F5T, [[F5T.T() * F5T.T() - F5T.T()]]))
ONE = RingMatrix.identity(L5, 1)
RESIDUES = (RealPolynomial([1, 2]), RealPolynomial([3]))
P5 = PauliModule(F5, 1)
P5_TEXT = "PauliModule(ring=RingDescriptor(p=5, spatial_vars=0, has_T=False), N=1)"

# class, constructor arguments, stored fields, repr; the reprs of the classes
# once generated by dataclasses are the ones they printed then
CASES = [
    (FieldElement, (8, 5), (3, 5), "FieldElement(3, p=5)"),
    (RealPolynomial, ([1, 2, 0],), ((Fraction(1), Fraction(2)),), "RealPolynomial([1, 2])"),
    (CliffordUnitary, (P5, RingMatrix.identity(F5, 2)), (P5, RingMatrix.identity(F5, 2)),
     f"CliffordUnitary(ambient={P5_TEXT}, matrix=RingMatrix[2x2: 1, 0; 0, 1])"),
    # the zero column of the generators is dropped
    (StabilizerModule, (P5, RingMatrix(F5, [[1, 0], [0, 0]])), (P5, RingMatrix(F5, [[1], [0]])),
     f"StabilizerModule(ambient={P5_TEXT}, generators=RingMatrix[2x1: 1; 0])"),
    (RingDescriptor, (5, 0, False), (5, 0, False),
     "RingDescriptor(p=5, spatial_vars=0, has_T=False)"),
    (HermitianForm, (M, 1), (M, 1),
     "HermitianForm(matrix=RingMatrix[2x2: 1, 2; 2, 3], sign=1)"),
    (WittClass, (5, 1, 0), (5, 1, 0),
     "WittClass(p=5, rank_parity=1, disc_class=0)"),
    (FormTriple, (Q, Q), (Q, Q),
     "FormTriple(q0=HermitianForm(matrix=RingMatrix[2x2: 1, 2; 2, 3], sign=1), "
     "q1=HermitianForm(matrix=RingMatrix[2x2: 1, 2; 2, 3], sign=1))"),
    (FiniteAbelianGroup, ((6, 4),), ((2, 12),),
     "FiniteAbelianGroup(Z/2 + Z/12)"),
    (SmithDecomposition, (ONE, RingMatrix(L5, [[L5.x(0) + 1]]), ONE),
     (ONE, RingMatrix(L5, [[L5.x(0) + 1]]), ONE),
     "SmithDecomposition(U=RingMatrix[1x1: 1], D=RingMatrix[1x1: 1 + x], V=RingMatrix[1x1: 1])"),
    (PauliModule, (F5, 1), (F5, 1), P5_TEXT),
    (ResidueSequence, (RESIDUES,), (RESIDUES,),
     "ResidueSequence(residues=(RealPolynomial([1, 2]), RealPolynomial([3])))"),
    (SturmSequence, (F5T, 1, (QT,), 1), (F5T, 1, (QT,), 1),
     "SturmSequence(ring=RingDescriptor(p=5, spatial_vars=0, has_T=True), N=1, "
     "forms=(HermitianForm(matrix=RingMatrix[1x1: 1 + T], sign=1),), start=1)"),
    (LagrangianLoop, (SturmSequence(F5T, 1, (QL,)),), (SturmSequence(F5T, 1, (QL,)),),
     "LagrangianLoop(seq=SturmSequence(ring=RingDescriptor(p=5, spatial_vars=0, has_T=True), "
     "N=1, forms=(HermitianForm(matrix=RingMatrix[1x1: 4*T + T^2], sign=1),), start=0))"),
    (MaslovResult, (Q, WittClass(5, 0, 1), 0, F5.constant(4)),
     (Q, WittClass(5, 0, 1), 0, F5.constant(4)),
     "MaslovResult(form=HermitianForm(matrix=RingMatrix[2x2: 1, 2; 2, 3], sign=1), "
     "witt=WittClass(p=5, rank_parity=0, disc_class=1), rank_parity=0, determinant=4)"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, args, fields, text", CASES, ids=IDS)
def test_equality_hash_and_repr(cls, args, fields, text):
    a, b = cls(*args), cls(*args)
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert hash(a) == hash(fields)
    assert tuple(getattr(a, name) for name in cls.__slots__) == fields
    assert a != fields
    # a residue equals the scalars of its class; any other value is unequal
    # to its bare first field
    assert (a == fields[0]) is (cls is FieldElement)
    assert all(a != other(*other_args) for other, other_args, _, _ in CASES if other is not cls)
    assert repr(a) == text


@pytest.mark.parametrize("cls, args, fields, text", CASES, ids=IDS)
def test_fields_are_frozen(cls, args, fields, text):
    a = cls(*args)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert not hasattr(a, "__dict__")
    assert repr(a) == text


@pytest.mark.parametrize("cls, args, fields, text", CASES, ids=IDS)
def test_keyword_construction(cls, args, fields, text):
    assert cls(**dict(zip(cls.__slots__, args))) == cls(*args)


@pytest.mark.parametrize("cls, args, fields, text", CASES, ids=IDS)
def test_copy_and_pickle(cls, args, fields, text):
    a = cls(*args)
    rebuilt = [copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))]
    assert copy.copy(a) == a
    for b in rebuilt:
        assert type(b) is cls and repr(b) == text
        assert b == a and hash(b) == hash(a)


# every public class of the package with a constructor call that has one
# field of the wrong type
WRONG_FIELDS = {
    FieldElement: lambda: FieldElement("1", 5),
    LaurentPolynomial: lambda: LaurentPolynomial("x", {}),
    RingDescriptor: lambda: RingDescriptor("5"),
    RingMatrix: lambda: RingMatrix("x", [[1]]),
    SmithDecomposition: lambda: SmithDecomposition(1, 2, 3),
    FormTriple: lambda: FormTriple(Q, M),
    HermitianForm: lambda: HermitianForm([[1]]),
    WittClass: lambda: WittClass(5, 1.0, 0),
    CliffordUnitary: lambda: CliffordUnitary(P5, [[1, 0], [0, 1]]),
    PauliModule: lambda: PauliModule(F5, "1"),
    StabilizerModule: lambda: StabilizerModule(P5, "generators"),
    SturmSequence: lambda: SturmSequence(F5, 1, (M,)),
    LagrangianLoop: lambda: LagrangianLoop(Q),
    MaslovResult: lambda: MaslovResult(1, 2, 3, 4),
    FiniteAbelianGroup: lambda: FiniteAbelianGroup(("2",)),
    RealPolynomial: lambda: RealPolynomial([1, None]),
    ResidueSequence: lambda: ResidueSequence((1, 2)),
}


def test_wrong_field_types_raise_library_errors():
    classes = {
        value for value in (getattr(maslovkit, name) for name in maslovkit.__all__)
        if isinstance(value, type) and not issubclass(value, Exception)
    }
    assert classes == set(WRONG_FIELDS), classes ^ set(WRONG_FIELDS)
    for build in WRONG_FIELDS.values():
        with pytest.raises(MaslovkitError):
            build()
    # the result classes also reject a wrong type in their other fields
    with pytest.raises(MaslovkitError):
        SmithDecomposition(ONE, ONE, RingMatrix.identity(F5, 1))
    with pytest.raises(MaslovkitError):
        MaslovResult(Q, None, True, F5.constant(4))
    with pytest.raises(MaslovkitError):
        MaslovResult(Q, 1, 0, F5.constant(4))
    with pytest.raises(MaslovkitError):
        ResidueSequence([RealPolynomial([1])])
    # text and non-iterables are no coefficient sequence
    for coefficients in ("12", b"12", 5):
        with pytest.raises(DomainError, match="iterable of reals"):
            RealPolynomial(coefficients)
    # a second operand of the wrong type
    for combine in (Q.direct_sum, Q.congruent_by, M.__add__, M.__sub__):
        with pytest.raises(DomainError):
            combine(5)


def test_defaults():
    assert RingDescriptor(p=5) == RingDescriptor(5, 0, False)
    assert HermitianForm(M).sign == 1 and HermitianForm(M) == HermitianForm(M, 1)
    assert SturmSequence(F5T, 1, (QT,)).start == 0
