"""Collects acceptance-criterion result lines for the terminal summary, and
runs the qfilt command line in this process for the CLI tests."""

import io
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

import pytest

ACCEPTANCE_LINES: list[str] = []


def register_line(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None  # what ended the run, unless it exited 0

    @property
    def output(self) -> str:
        """Both streams; a qfilt run writes to one of them only."""
        return self.stdout + self.stderr


class Runner:
    @staticmethod
    def invoke(entry, args: list[str], catch_exceptions: bool = True) -> Result:
        """Run entry.main(args) with stdout and stderr captured.  An
        exception other than SystemExit is exit 1 with catch_exceptions, and
        propagates without."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                entry.main(args)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
                exception = e if code else None
            except Exception as e:  # noqa: BLE001 -- the caller asserts on it
                if not catch_exceptions:
                    raise
                code, exception = 1, e
        return Result(code, out.getvalue(), err.getvalue(), exception)


@pytest.fixture()
def runner():
    return Runner()
