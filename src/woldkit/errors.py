"""Exception hierarchy shared by all woldkit modules."""


class WoldkitError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(WoldkitError):
    """Operands live in incompatible ambient spaces."""


class ShapeError(WoldkitError):
    """A matrix or field has the wrong shape for its declared dimensions."""


class ParseError(WoldkitError):
    """A representation or shift-spec file could not be decoded."""


class NotPSD(WoldkitError):
    """A matrix required to be positive semidefinite has a genuinely negative eigenvalue."""


class BudgetExceeded(WoldkitError):
    """A tensor ampliation would exceed the configured size budget."""


class IdentityViolated(WoldkitError):
    """A postcondition identity failed beyond tolerance; indicates numerical breakdown."""


class NotRegular(WoldkitError):
    """Operation requires a regular representation."""


class NotContraction(WoldkitError):
    """Operator norm exceeds one beyond tolerance."""


class NotInvertible(WoldkitError):
    """A weight matrix required to be invertible is rank deficient."""


class ConditionIViolated(WoldkitError):
    """Bilateral weight table violates the sign/normalization pattern of condition (i)."""


class PreconditionFailed(WoldkitError):
    """A decomposition hypothesis does not hold; the message names the violated one."""


class InvalidParams(WoldkitError):
    """Generator received unusable parameters."""
