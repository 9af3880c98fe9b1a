"""Exception hierarchy shared by all modules.

Three broad families map onto the CLI exit codes: config/usage problems,
data/format problems, and numeric failures.
"""


class NftError(Exception):
    """Base class for all library errors."""


class ConfigError(NftError):
    """Invalid configuration or usage (CLI exit code 1)."""


class DataError(NftError):
    """Invalid data or file format (CLI exit code 2)."""


class NumericError(NftError):
    """Numeric failure such as a degenerate vector (CLI exit code 3)."""


# numerics
class ZeroNorm(NumericError):
    pass


class EmptyInput(DataError):
    pass


class InvalidConfig(ConfigError):
    pass


class NonPositiveTemperature(InvalidConfig):
    pass


class NonFiniteInput(DataError):
    pass


# feature model
class InvalidDim(ConfigError):
    pass


class DimMismatch(DataError):
    pass


class FormatError(DataError):
    pass


# objectives
class BadClassIndex(DataError):
    pass


class NoNegativeLabels(DataError):
    pass


class EmptyBatch(DataError):
    pass


class EmptyBank(DataError):
    pass


# trainer
class ShapeMismatch(DataError):
    pass


class EmptyTrainingSet(DataError):
    pass


# scoring
class NonPositiveInput(DataError):
    pass


# mining
class TooFewCandidates(DataError):
    pass


class QTooLarge(DataError):
    pass


# data io
class SchemaError(DataError):
    pass
