"""Exception types shared across the toolkit."""


class StreamLsError(Exception):
    """Base class for all streamls errors."""


class DomainError(StreamLsError):
    """An input refers to data outside an oracle's declared universe."""


class PreconditionError(StreamLsError):
    """A documented call precondition was violated."""


class ConfigError(StreamLsError):
    """A parameter or configuration value is out of its legal range."""


class CapacityError(StreamLsError):
    """An input exceeds a hard size cap (e.g. brute-force ground sets)."""


class ParseError(StreamLsError):
    """A stream or config file could not be parsed.

    Carries the 1-based line number when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)

    @classmethod
    def not_utf8(cls, path: str, exc: UnicodeDecodeError) -> "ParseError":
        return cls(f"{path}: byte 0x{exc.object[exc.start]:02x} is not UTF-8 text")
