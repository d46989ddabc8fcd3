"""Every executable line of src/qfilt runs in the tier-1 suite.

    python tests/line_trace.py [pytest arguments]

runs the suite in this process (about three times as slow as without the
trace) with a tracer on every frame whose code comes from src/qfilt, then
lists each executable line that never ran and is not in ALLOWED, and exits
1 if there is one or a test failed.  The executable lines of a module are
those its code objects map instructions to (`co_lines`, through every
nested code object).  pytest does not collect this file; test_orphans.py
checks that each ALLOWED entry still names an executable line of its file.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qfilt"

# (file under src/qfilt, the line's source text, why tier-1 does not run it)
ALLOWED = [
    ("schemes.py", "return Scheme(\"proj_chart_one\", field)",
     "only qbench/spans.py calls ProjChartOne, and qbench changes only with the benchmark"),
    ("cli.py", "main()",
     "the __main__ guard runs under `python -m qfilt.cli`, in a subprocess out of the trace"),
]


def executable_lines(path: Path) -> set[int]:
    """The lines that the code objects of a module map instructions to;
    line 0, where a module's code starts, is none of its source lines."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """Run pytest on `args` under the tracer: its exit status, and the
    lines run, by file."""
    prefix = str(SRC) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)  # the call event
        return local

    sys.path.insert(0, str(SRC.parent))
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return status, {Path(name): lines for name, lines in ran.items()}


def main(argv: list[str]) -> int:
    status, ran = run(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    allowed = {(file, text) for file, text, _ in ALLOWED}
    total = unrun = outside = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        source = path.read_text(encoding="utf-8").splitlines()
        total += len(lines)
        for number in sorted(lines - ran.get(path, set())):
            unrun += 1
            text = source[number - 1].strip()
            if (path.name, text) not in allowed:
                outside += 1
                print(f"never run: src/qfilt/{path.name}:{number}: {text}")
    print(f"{unrun} of {total} executable lines never ran, {outside} of them outside ALLOWED")
    return 1 if outside or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
