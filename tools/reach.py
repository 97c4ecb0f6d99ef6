"""Print the function-body lines of the balm package that a command never
executes.

The command, a Python script or -m module with its arguments, runs in
this process under a sys.settrace line trace that follows only frames
whose code lives in the balm package's directory.  A function-body line
is a line on which the compiler starts an instruction of a function,
method, lambda or comprehension (dis.findlinestarts), the def line
itself excepted; docstrings hold no instruction.  Prints, per module, how
many such lines there are, how many the command left unexecuted, and
which, in ranges; then the totals.  The command's own output comes
first, and its exit status is this tool's:

    PYTHONPATH=src python tools/reach.py tools/identity_hashes.py
    PYTHONPATH=src python tools/reach.py -m pytest -q tests/test_prox.py

The package is the one `import balm` would load, found without importing
it, so import-time calls are traced too.  coverage is not needed: only
the standard library is used.
"""

from __future__ import annotations

import dis
import functools
import importlib.util
import inspect
import os
import runpy
import sys
import threading


def body_lines(code) -> set:
    """The lines of code and the code nested in it that start an
    instruction inside a function body: module and class bodies and each
    function's def line excluded."""
    lines = set()
    if code.co_flags & inspect.CO_OPTIMIZED:
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None and line != code.co_firstlineno)
    for const in code.co_consts:
        if inspect.iscode(const):
            lines |= body_lines(const)
    return lines


def ranges(lines) -> str:
    """Sorted line numbers as comma-separated runs: 3-5, 9."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def trace(root: str, run) -> tuple:
    """(exit status, executed): run() under a line trace of the frames
    whose file lies in root; executed maps each such file to its lines."""
    executed = {}
    inside = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.abspath(name).startswith(root + os.sep)
            if inside[name]:
                executed.setdefault(name, set())
        return local if inside[name] else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        run()
        status = 0
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, {os.path.abspath(name): lines for name, lines in executed.items()}


def report(root: str, executed: dict) -> list:
    """One line per module of root and a total line."""
    out, total, missed = [], 0, 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            path = os.path.join(root, name)
            with open(path) as fh:
                lines = body_lines(compile(fh.read(), path, "exec"))
            unexecuted = lines - executed.get(path, set())
            total, missed = total + len(lines), missed + len(unexecuted)
            where = f": {ranges(unexecuted)}" if unexecuted else ""
            out.append(f"{len(unexecuted):5d} of {len(lines):5d} unexecuted  {name}{where}")
    out.append(f"{missed:5d} of {total:5d} unexecuted  total")
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print("usage: python tools/reach.py SCRIPT [ARGS...] | -m MODULE [ARGS...]", file=sys.stderr)
        return 2
    spec = importlib.util.find_spec("balm")
    if spec is None or spec.origin is None:
        print("balm is not importable; put its src directory on PYTHONPATH", file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.abspath(spec.origin))
    if args[0] == "-m":
        sys.argv = args[1:]
        run = functools.partial(runpy.run_module, args[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = args
        sys.path.insert(0, os.path.dirname(os.path.abspath(args[0])))
        run = functools.partial(runpy.run_path, args[0], run_name="__main__")
    status, executed = trace(root, run)
    sys.stdout.flush()
    print(f"function-body lines of {root} not executed:")
    print("\n".join(report(root, executed)))
    return status


if __name__ == "__main__":
    sys.exit(main())
