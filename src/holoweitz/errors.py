"""Exception hierarchy shared by all holoweitz modules."""


class HoloweitzError(Exception):
    """Base class for all domain errors raised by this package."""


class UnsupportedType(HoloweitzError):
    """Requested root system family/rank pair is not supported."""


class DimensionMismatch(HoloweitzError):
    """Vectors do not live in the coordinate space of the root system."""


class TrivialHolonomyRep(HoloweitzError):
    """Casimir renormalization is undefined when the reference Casimir is zero."""


class MixedRootSystems(HoloweitzError):
    """Operands belong to different root systems."""


class InternalError(HoloweitzError, RuntimeError):
    """An internal result failed its check, such as a Weyl dimension that is not an
    integer, or a decomposition with a negative multiplicity, one not divisible by q in
    the Newton recursion for Lambda^q, or dimensions that do not add up; a bug, not a
    bad input."""


class DegreeOutOfRange(HoloweitzError):
    """Degree not an integer, or outside its range: [0, dim] for an exterior
    power, 1..n-1 for a form degree in the prover."""


class UnsupportedContext(HoloweitzError):
    """Unknown holonomy context identifier, a catalogue id on a context that is not
    that row's, or a Ricci-flat T that the Schur certificate does not certify."""


class UnsupportedFormClass(HoloweitzError):
    """Form class neither a ``FormClass`` nor the value of one."""


class MultiplicityViolation(HoloweitzError):
    """A tensor product summand occurs more than once; Schur-based reasoning unsound."""


class NotAFormComponent(HoloweitzError):
    """Bundle does not occur in the requested form space."""


class ContextNotSupported(HoloweitzError):
    """Prover rules require a Ricci-flat exceptional holonomy context."""
