"""Print each line of a src/sp4higgs function that no tier-1 test runs, and exit 1
if the traced tier-1 run fails or any line is printed: not collected by pytest
(about 75 s on a 2-core x86_64 host), tier-1 traced in process by sys.settrace
and threading.settrace: python tests/trace_lines.py"""
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ran = set()


def _trace(frame, event, arg):
    if "sp4higgs" in frame.f_code.co_filename:
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return _trace


class _Retrace:
    """Sets the tracer again after each test.  CPython drops a trace
    function that raises, and a call to it at the recursion limit raises
    RecursionError.  A garbage collection that runs Python code inside a
    test's deliberately deep recursion (the "nested too deeply" datum of
    test_cli) can make such a call: whether it does depends on when the
    collector runs, and with the collector paused for that test the
    tracer survives.  Without this every later test would go untraced."""

    def pytest_runtest_teardown(self, item):
        sys.settrace(_trace)


def _function_lines(code):
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            if const.co_flags & 1:  # CO_OPTIMIZED: a function, not a class body
                yield from (n for _, _, n in const.co_lines()
                            if n not in (None, const.co_firstlineno))
            yield from _function_lines(const)


if __name__ == "__main__":
    # pytest puts the absolute src/ first on sys.path; test subprocesses go untraced
    threading.settrace(_trace)
    sys.settrace(_trace)
    code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                        str(ROOT / "tests")], plugins=[_Retrace()])
    sys.settrace(None)
    missed = 0
    for path in sorted((ROOT / "src" / "sp4higgs").glob("*.py")):
        lines = path.read_text().splitlines()
        for n in sorted(set(_function_lines(compile(path.read_text(), str(path), "exec")))):
            if (str(path), n) not in ran:
                print("%s:%d: %s" % (path.relative_to(ROOT), n, lines[n - 1].strip()))
                missed += 1
    sys.exit(1 if code or missed else 0)
