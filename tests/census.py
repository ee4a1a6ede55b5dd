"""Function census: which functions of ``src/repro`` does a test run never call?

A pytest plugin, not a test module (tier-1 does not collect it).  Load it
explicitly::

    PYTHONPATH=src python -m pytest -q -p no:cacheprovider -p tests.census

It records every Python-level ``call`` event in every thread
(``sys.setprofile`` + ``threading.setprofile``) and, at the end of the run,
lists each ``def`` parsed from ``src/repro`` whose code never ran, largest
first.  Profiling every call roughly doubles the suite's runtime, so the
census stays out of CI.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

import repro

ROOT = os.path.dirname(os.path.abspath(repro.__file__))


def _definitions():
    """``(file, first line, qualified name, line count)`` of every def."""

    for directory, _, files in os.walk(ROOT):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            yield from _walk(tree, path, "")


def _walk(node, path, prefix):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _walk(child, path, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a decorated function's code object starts at its first decorator
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield path, first, prefix + child.name, child.end_lineno - first + 1
            yield from _walk(child, path, f"{prefix}{child.name}.")


class Census:
    """Records ``(file, first line)`` of every code object that is called."""

    def __init__(self) -> None:
        self.called = set()

    def _profile(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            self.called.add((code.co_filename, code.co_firstlineno))

    def start(self) -> None:
        sys.setprofile(self._profile)
        threading.setprofile(self._profile)

    def pytest_terminal_summary(self, terminalreporter):
        sys.setprofile(None)
        threading.setprofile(None)
        _report(terminalreporter, self.called)


def pytest_configure(config):
    census = Census()
    config.pluginmanager.register(census, "census-recorder")
    census.start()


def _report(terminalreporter, called):
    definitions = list(_definitions())
    missed = [d for d in definitions if (d[0], d[1]) not in called]
    missed.sort(key=lambda d: (-d[3], d[0], d[1]))
    write = terminalreporter.write_line
    terminalreporter.section("function census")
    write(
        f"{len(missed)} of {len(definitions)} functions "
        f"({sum(d[3] for d in missed)} lines) never called"
    )
    for path, line, name, size in missed:
        write(f"  {os.path.relpath(path, os.path.dirname(ROOT))}:{line} {name} ({size} lines)")
