"""Exception types shared across the package."""


class DataError(Exception):
    """Invalid, inconsistent, or empty input data."""


class ParseError(DataError):
    """Malformed input line; message carries the line number."""


class ConfigError(DataError, ValueError):
    """A config value outside its declared bound."""


class NumericError(Exception):
    """Training diverged or produced non-finite values."""
