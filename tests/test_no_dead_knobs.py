"""Every defaulted parameter of a function in ``src/`` is set by some call.

A keyword parameter that no caller sets is a knob with one value in use;
that value belongs in the body as a literal. Calls are matched to
definitions by name (a class name stands for its ``__init__``), over the
calls in ``src/``, ``tests/`` and ``demos/``. A call sets a parameter by
keyword, by position, or through ``*args``/``**kwargs``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _defaulted_parameters(tree):
    """(call name, positional index or None, parameter name, where) of each default."""
    out = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                skip = 1 if in_class and positional else 0   # self or cls
                name = in_class if child.name == "__init__" and in_class else child.name
                first = len(positional) - len(args.defaults)
                for k in range(first, len(positional)):
                    out.append((name, k - skip, positional[k].arg, child.lineno))
                for a, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((name, None, a.arg, child.lineno))
                visit(child, None)
            elif isinstance(child, ast.ClassDef):
                visit(child, child.name)
            else:
                visit(child, in_class)

    visit(tree, None)
    return out


def _call_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _sets(call, index, name):
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if index is not None and index < len(call.args):
        return True
    return any(kw.arg is None or kw.arg == name for kw in call.keywords)


def test_every_default_is_set_by_some_call():
    calls = {}
    for _, tree in _trees("src", "tests", "demos"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_call_name(node), []).append(node)
    dead = []
    for path, tree in _trees("src"):
        for fname, index, pname, line in _defaulted_parameters(tree):
            if not any(_sets(c, index, pname) for c in calls.get(fname, ())):
                dead.append("%s:%d %s(%s)" % (path.relative_to(ROOT), line, fname, pname))
    assert not dead, "defaulted parameters no call sets:\n" + "\n".join(dead)
