#!/usr/bin/env python3
"""List the functions in src/reflected_stable that no workload reaches.

Run ``python3 scripts/traffic.py`` from a checkout's root (about a minute
on 2 cores). The workloads: the ``bench/workloads.py`` jobs at seed 1 via
``cli_report.run`` in a temporary directory, every demo via ``runpy``, and
``tests/test_acceptance.py`` via ``pytest.main``. A line tracer records
the lines they run in the package. Each function none of whose lines ran
is printed to stdout as ``module:line name``; the workloads print to stderr.
"""

import ast
import contextlib
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "reflected_stable"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

hit = set()     # (filename, line) pairs executed in the package


def _line(frame, event, arg):
    if event == "line":
        hit.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(str(PKG)) else None


def run_traffic():
    import pytest
    import workloads
    from reflected_stable import cli_report

    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for job_id, raw in workloads.jobs(name, 1, cli_report.default_config):
                raw = dict(raw, out_dir=str(Path(tmp, name, job_id)))
                cli_report.run(cli_report.parse_config(raw))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
    pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                 str(ROOT / "tests" / "test_acceptance.py")])


def functions(path):
    """(qualified name, def line, body lines) of every function in a module."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    body = {n.lineno for stmt in child.body for n in ast.walk(stmt)
                            if isinstance(n, ast.stmt)}
                    yield name, child.lineno, body
                yield from walk(child, name + ".")
    yield from walk(ast.parse(path.read_text()), "")


if __name__ == "__main__":
    threading.settrace(_call)
    sys.settrace(_call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            run_traffic()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(PKG.glob("*.py")):
        for name, line, body in functions(path):
            if not any((str(path), n) in hit for n in body):
                print("%s:%d %s" % (path.stem, line, name))
