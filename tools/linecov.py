"""Line coverage of ``src/nuclibgen`` by a pytest run, with the stdlib alone.

    python tools/linecov.py [--diff REV] [--] [pytest arguments]

Runs pytest in this process (by default ``-q -p no:cacheprovider
--hypothesis-seed=0 tests``) under ``sys.settrace`` and ``threading.settrace``,
and prints, for each module of the package, its executable lines and the line
numbers that never ran. A line is executable when a code object compiled from
the module lists it in its line table. Tracing starts before pytest imports
the package, so module-level lines count too. Code run in a subprocess is not
seen. With ``--diff REV`` only the lines added since the git revision REV are
reported. The exit status is pytest's, or 1 when it passed but a reported line
never ran.

The default arguments fix the hypothesis seed, so every run draws the same
examples and gives the same report: a line that only some draws reach would
otherwise count as run in some runs and not in others.

Tracing slows the run several times over.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "nuclibgen"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that its compiled code objects run."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def added_lines(rev: str) -> dict[str, set[int]]:
    """The line numbers, by file path, that ``git diff rev`` adds under src."""
    diff = subprocess.run(["git", "diff", "-U0", rev, "--", "src"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout
    added: dict[str, set[int]] = {}
    current = None
    for line in diff.splitlines():
        if line.startswith("+++ "):
            current = str(ROOT / line[6:]) if line.startswith("+++ b/") else None
        elif line.startswith("@@") and current is not None:
            start, _, count = re.match(r"@@ -\S+ \+(\d+)(,(\d+))? @@", line).groups()
            first, n = int(start), 1 if count is None else int(count)
            added.setdefault(current, set()).update(range(first, first + n))
    # git diff does not list untracked files: each counts whole.
    untracked = subprocess.run(["git", "ls-files", "--others", "--exclude-standard", "src"],
                               cwd=ROOT, check=True, capture_output=True, text=True).stdout
    for name in untracked.split():
        path = ROOT / name
        added[str(path)] = set(range(1, len(path.read_text(encoding="utf-8").splitlines()) + 1))
    return added


def ranges(numbers: list[int]) -> str:
    """``1, 3-5`` for [1, 3, 4, 5]."""
    out: list[list[int]] = []
    for n in numbers:
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--diff", metavar="REV", help="report only lines added since REV")
    parser.add_argument("pytest_args", nargs="*")
    args = parser.parse_args()

    prefix = str(PACKAGE) + "/"
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    sys.path.insert(0, str(SRC))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args.pytest_args or ["-q", "-p", "no:cacheprovider",
                                                  "--hypothesis-seed=0", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    wanted = added_lines(args.diff) if args.diff else None
    missed_any = False
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        if wanted is not None:
            lines &= wanted.get(str(path), set())
            if not lines:
                continue
        missed = sorted(n for n in lines if (str(path), n) not in ran)
        missed_any |= bool(missed)
        print(f"{path.relative_to(ROOT)}: {len(lines)} executable, {len(lines) - len(missed)} run"
              + (f"; never run: {ranges(missed)}" if missed else ""))
    return int(status) or int(missed_any)


if __name__ == "__main__":
    sys.exit(main())
