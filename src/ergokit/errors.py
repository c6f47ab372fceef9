"""Exception hierarchy shared by all ergokit modules."""


class ErgokitError(Exception):
    """Base class for all toolkit errors."""


class NonSquareError(ErgokitError):
    pass


class StateLabelError(ErgokitError, ValueError):
    """State labels are missing or repeated."""


class ArgumentRangeError(ErgokitError, ValueError):
    """A state index, trial count or threshold lies outside its range."""


class NegativeEntryError(ErgokitError):
    pass


class NonFiniteEntryError(ErgokitError):
    """A matrix or probability entry is NaN or infinite."""


class RowSumError(ErgokitError):
    """A row sum deviates from 1 beyond the ingestion tolerance."""


class SpaceMismatchError(ErgokitError):
    """Two values refer to different state spaces."""


class NotStationaryError(ErgokitError):
    """A distribution claimed stationary fails the residual check."""


class NotIrreducibleError(ErgokitError):
    pass


class NotErgodicError(ErgokitError):
    """Irreducibility or aperiodicity fails where both are required."""


class NotPositiveError(ErgokitError):
    """The matrix has a zero entry where strict positivity is required."""


class MonotonicityViolationError(ErgokitError):
    """Envelope sequences lost monotonicity; signals a numerical fault."""


class MaxIterExceededError(ErgokitError):
    pass


class NoConvergenceError(ErgokitError):
    pass


class TooLargeError(ErgokitError):
    """A state space, count or horizon exceeds the cap of a routine."""


class BalanceViolationError(ErgokitError):
    """Tree weights fail the flow-balance identity; internal inconsistency."""


class SingularSystemError(ErgokitError):
    pass


class RankDeficientError(ErgokitError):
    """Nullity of P - I exceeds 1; contradicts irreducibility numerically."""


class InvalidGeneratorParamsError(ErgokitError):
    pass


class ChainParseError(ErgokitError):
    """A chain file could not be parsed."""
