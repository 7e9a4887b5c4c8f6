"""Exception hierarchy shared by all looise modules."""


class LooiseError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(LooiseError):
    pass


class Asymmetric(LooiseError):
    pass


class NotPositiveDefinite(LooiseError):
    pass


class SingularBorder(LooiseError):
    pass


class DuplicatePoints(LooiseError):
    pass


class UnsupportedDimension(LooiseError):
    pass


class EmptyCandidates(LooiseError):
    pass


class TooManyPoints(LooiseError):
    pass


class KTooLarge(LooiseError):
    pass


class SinglePoint(LooiseError):
    pass


class NoRoot(LooiseError):
    pass


class DegenerateData(LooiseError):
    pass


class RankDeficient(LooiseError):
    pass


class FlatLimitSingular(LooiseError):
    """S_n could not be factorized; the assumed kernel is too close to its flat limit."""


class DegenerateConstraint(LooiseError):
    pass


class BundleMismatch(LooiseError):
    """A moment bundle was not built for the kernel it is used with."""


class WeightSimplexViolation(LooiseError):
    pass


class SingularGram(LooiseError):
    pass


class DomainViolation(LooiseError):
    pass


class ConfigError(LooiseError):
    pass


class UnknownExperiment(LooiseError):
    pass
