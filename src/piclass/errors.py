class PiclassError(Exception):
    """Base class for all library errors."""


class DegreeMismatchError(PiclassError, ValueError):
    pass


class CapExceededError(PiclassError, RuntimeError):
    """A configured resource cap would be exceeded.

    Raised instead of silently truncating or returning a wrong answer.
    """

    def __init__(self, what: str, needed, cap):
        super().__init__(f"{what}: needs {needed}, cap is {cap}")
        self.what = what
        self.needed = needed
        self.cap = cap


class GroupFileError(PiclassError, ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotInGroupError(PiclassError, ValueError):
    pass


class PreconditionError(PiclassError, ValueError):
    """An operation's mathematical precondition is not established."""


class InvalidInputError(PiclassError, ValueError):
    """A prime set, suite name or config value given by the caller is invalid."""
