"""Exception hierarchy shared across the package.

Three coarse families matter to the CLI exit-code mapping: bad input
(InputError -> exit 2), a resource cap tripping (ResourceError -> exit 3)
and everything else (internal invariant violations, which should never
fire on valid data -> exit 4).
"""


class IqError(Exception):
    """Base class for all package errors."""


class InputError(IqError):
    """Malformed or inconsistent user input."""


class ResourceError(IqError):
    """A configured cap or budget was exceeded."""


# -- scalars ---------------------------------------------------------------

class MismatchedField(InputError):
    pass


class DivisionByZero(InputError):
    pass


class UnderdeterminedFit(InputError):
    pass


class InconsistentSamples(InputError):
    pass


class FitFailure(InputError):
    pass


# -- linear algebra --------------------------------------------------------

class ShapeMismatch(InputError):
    pass


class AmbientMismatch(InputError):
    pass


# -- quivers ---------------------------------------------------------------

class CyclicQuiver(InputError):
    pass


class NotInvolution(InputError):
    pass


class ArrowNotRespected(InputError):
    pass


class UnsupportedType(InputError):
    pass


class NotDynkin(UnsupportedType):
    pass


# -- algebras and modules --------------------------------------------------

class NonTerminatingRewrite(ResourceError):
    pass


class AlgebraMismatch(InputError):
    pass


class CapExceeded(ResourceError):
    pass


class BudgetExceeded(ResourceError):
    pass


class PresentationFailure(IqError):
    pass


class NotFiniteDimensionHomological(InputError):
    pass


# -- Hall engine -----------------------------------------------------------

class AlignmentFailure(IqError):
    pass


# -- Dynkin machinery ------------------------------------------------------

class NonUniqueMinimizer(IqError):
    pass


class DimVectorMismatch(InputError):
    pass


class NoDistinguishedWordFound(IqError):
    pass
