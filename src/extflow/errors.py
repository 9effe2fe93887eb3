"""Exception taxonomy shared by the extflow modules."""


class ExtflowError(Exception):
    """Base class for all extflow errors."""


class InvalidArgument(ExtflowError, ValueError):
    """An argument outside the domain a library function accepts; also a
    ValueError, so callers that catch ValueError keep working."""


# numerics
class NoConvergence(ExtflowError):
    """An iteration exhausted its budget: the panels of the adaptive
    quadrature, or the steps of the inward shooting mesh."""


class StepUnderflow(ExtflowError):
    """ODE step size collapsed below machine resolution."""


class NoSignChange(ExtflowError):
    """Root bracket endpoints do not straddle a sign change."""


# mobius
class DegenerateMap(ExtflowError):
    """Linear-fractional coefficients with vanishing determinant."""


class NotDiskMap(ExtflowError):
    """Map does not take the closed unit disk into itself."""


# models
class IllPosed(InvalidArgument):
    """Model parameters outside the range where the construction applies."""


class OutsideGroup(InvalidArgument):
    """Affine element not representable by the model's unitary family."""


# flow
class NearSingularDenominator(ExtflowError):
    """Flow denominator too ill-conditioned to invert reliably."""


class NumericalInconsistency(ExtflowError):
    """Fixed-point sets disagree across group samples beyond tolerance."""


class UnsupportedIndices(InvalidArgument):
    """Operation requires deficiency indices the model does not have."""


# spectra
class InvalidRho(InvalidArgument):
    """Interval boundary multiplier with modulus >= 1 where < 1 is required."""


class DynamicRangeExceeded(ExtflowError):
    """More magnitude range than a float holds: eigenvalues spanning too
    many decades, or a scaling element whose slope or inverse's overflows."""


class InsufficientData(ExtflowError):
    """Not enough data to determine a quantity: too few eigenvalues for a
    progression ratio, or a commutation phase whose left side vanishes."""


# cli
class ParseError(ExtflowError):
    """Configuration could not be parsed or is missing required fields."""


class IncompatibleModelGroup(ParseError):
    """Model is not invariant under the requested subgroup."""
