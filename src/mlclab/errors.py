"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A parameter or configuration value violates its contract."""


class DomainError(ValueError):
    """An input is outside the mathematical domain of an operation."""


class NormRangeError(DomainError):
    """A row of finite entries that must be scaled to unit norm has a squared
    norm that is not a finite normal float64 number: it is zero, overflows
    or underflows."""


class ZeroNormError(NormRangeError):
    """A row that must be scaled to unit norm is exactly zero: finite, but
    outside the domain of the cosine."""


class OracleError(RuntimeError):
    """A verification oracle hit a non-finite or otherwise unusable evaluation."""


class ParseError(ValueError):
    """A file could not be parsed; message carries line (and column) info."""


class TrainingDivergence(RuntimeError):
    """Training produced a non-finite loss; message names the offending step."""
