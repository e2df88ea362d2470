"""Run the ``piclass`` command line in this process, as its console script
does: ``sys.exit(main(argv))``, with stdout and stderr captured."""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

from piclass.cli import main


class Result(NamedTuple):
    exit_code: int
    stdout: str
    output: str  # stdout and stderr, in the order they were written
    exception: BaseException | None  # the SystemExit of a nonzero exit, or what main raised


class _Captured(io.StringIO):
    """One captured stream that also copies what it is given to ``both``."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


def invoke(args) -> Result:
    """Run ``piclass ARGS``.  An exception other than ``SystemExit`` is
    kept as the result's ``exception``, with exit code 1."""
    both = io.StringIO()
    stdout, stderr = _Captured(both), _Captured(both)
    exception = None
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            sys.exit(main(list(args)))
        except SystemExit as exc:
            code = exc.code
            exit_code = code if isinstance(code, int) else 0 if code is None else 1
            if exit_code:
                exception = exc
        except Exception as exc:  # handed back to the test, not swallowed
            exit_code, exception = 1, exc
    return Result(exit_code, stdout.getvalue(), both.getvalue(), exception)
