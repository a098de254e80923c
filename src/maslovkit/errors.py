"""Exception hierarchy shared by all maslovkit modules.

Every error raised on a bad input derives from :class:`MaslovkitError`, so
callers (notably the CLI) can map failures to structured error objects.
It also holds _Value, the base of the library's immutable value classes.
"""

from operator import attrgetter


class MaslovkitError(Exception):
    """Base class for all library errors."""

    code = "error"


class RingMismatch(MaslovkitError):
    """Operands belong to different coefficient rings."""

    code = "ring-mismatch"


class ShapeError(MaslovkitError):
    """Matrix dimensions are inconsistent with the requested operation."""

    code = "shape-error"


class DivisionByZero(MaslovkitError):
    """Inversion or division by the zero element."""

    code = "division-by-zero"


class DomainError(MaslovkitError):
    """Input is outside the mathematical domain of the operation."""

    code = "domain-error"


class UnsupportedRing(MaslovkitError):
    """The operation is only implemented for a smaller class of rings."""

    code = "unsupported-ring"


class NotAUnit(MaslovkitError):
    """A matrix or ring element expected to be invertible is not."""

    code = "not-a-unit"


class FormError(MaslovkitError):
    """A matrix expected to be a (+/-)hermitian form is not one."""

    code = "form-error"


class DegenerateForm(MaslovkitError):
    """A hermitian form expected to be nondegenerate is singular."""

    code = "degenerate-form"


class NotALoop(MaslovkitError):
    """A path of Lagrangians does not close up at the base point."""

    code = "not-a-loop"


class DegenerateInput(MaslovkitError):
    """Numerically degenerate real input (repeated roots, tiny pivots)."""

    code = "degenerate-input"


class EndpointRoot(MaslovkitError):
    """A real polynomial vanishes at an endpoint of the loop parameter."""

    code = "endpoint-root"


class InternalInvariantViolation(MaslovkitError):
    """An internal consistency check failed; indicates invalid upstream data."""

    code = "internal-invariant-violation"


class _Value:
    """Base of the immutable value classes.

    The fields are the subclass's __slots__.  Its __init__ checks the
    arguments and stores the fields with one call to _set, in __slots__
    order; _unchecked builds a value the library made correct by
    construction, without running __init__.

    Two values are equal when they are of one class with equal fields, and
    they hash as the tuple of their fields; FieldElement keeps an __eq__ of
    its own, which also matches scalars.  Assigning or deleting a field
    raises AttributeError; copy and pickle rebuild through the constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        get = attrgetter(*cls.__slots__)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._fields = get if len(cls.__slots__) > 1 else staticmethod(lambda obj: (get(obj),))

    def _set(self, *fields):
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    @classmethod
    def _unchecked(cls, *fields):
        value = object.__new__(cls)
        value._set(*fields)
        return value

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        get = self._fields
        return get(self) == get(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields(self)
