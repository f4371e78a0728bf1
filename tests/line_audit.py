"""List the executable lines of ``src/residua`` that no tier-1 test runs.

Run from anywhere as ``python tests/line_audit.py``; extra arguments go to
pytest (say ``-x`` or ``-k ordinal``).  The script runs the tier-1 suite
in-process under ``sys.settrace`` and prints each executable line of
``src/residua/*.py`` that never ran, as ``module:line: text``, followed by a
count and pytest's exit status.  It exits 1 when it lists a line that is not
known to be unreachable, and 0 otherwise.  Known lines are the abstract
``raise NotImplementedError`` stubs, ``cli.py``'s ``sys.exit(main())`` and
any line whose comment starts ``# unreachable:`` and says why.  Pytest does
not collect this file.

Three things to keep in mind when reading its output:

- tests that run the CLI in a subprocess are not traced, so lines that only
  those tests reach (such as ``cli.py``'s ``sys.exit(main())``) are listed;
- the trace slows every line, so ``test_criterion_1_ordinal_laws`` fails its
  5 s bound under it (it passes untraced); the audit still counts the lines
  that test ran;
- a run takes 2 to 3 minutes on a shared 2-core VM (about 30 s untraced).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "residua"


def executable_lines(path):
    """Line numbers that carry bytecode in ``path``, by module-level code."""
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        body = {line for _, _, line in code.co_lines() if line is not None}
        if code.co_name != "<module>":
            # the function's entry point sits on its ``def`` line, which
            # runs when the enclosing body defines it
            body.discard(code.co_firstlineno)
        lines |= body
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def known_unreachable(module: str, text: str) -> bool:
    """Whether a line that no traced test runs is known to be unreachable."""
    return (text == "raise NotImplementedError" or "# unreachable:" in text
            or module == "cli" and text == "sys.exit(main())")


def main(argv):
    import pytest

    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename in ran:
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              "--rootdir", str(ROOT), str(ROOT / "tests"),
                              *argv])
    finally:
        sys.settrace(None)

    missed = unknown = 0
    for name, path in files.items():
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran[name]):
            code = text[line - 1].strip()
            print(f"{path.stem}:{line}: {code}")
            missed += 1
            unknown += not known_unreachable(path.stem, code)
    print(f"{missed} executable lines under src/residua ran in no test, {unknown} of them "
          f"not known to be unreachable (pytest exit status {int(status)})")
    return 1 if unknown else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
