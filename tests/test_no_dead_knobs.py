"""Every defaulted parameter of a function in ``src/`` is set by some call.

A keyword parameter that no caller sets is a knob with one value in use;
that value belongs in the body as a literal. Calls are matched to
definitions by name (a class name stands for its ``__init__``), over the
calls in ``src/``, ``tests/`` and ``demos/``. A call sets a parameter by
keyword, by position, or through ``*args``/``**kwargs``. The defaults that
no call in ``src/`` itself sets are listed by name, each with its reason,
so an option that only a test sets shows up in review.
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


def _unset(*call_dirs):
    """``(where, "function.parameter")`` of each default in ``src/`` that no
    call in ``call_dirs`` sets."""
    calls = {}
    for _, tree in _trees(*call_dirs):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_call_name(node), []).append(node)
    out = []
    for path, tree in _trees("src"):
        for fname, index, pname, line in _defaulted_parameters(tree):
            if not any(_sets(c, index, pname) for c in calls.get(fname, ())):
                out.append(("%s:%d" % (path.relative_to(ROOT), line), "%s.%s" % (fname, pname)))
    return out


def test_every_default_is_set_by_some_call():
    dead = _unset("src", "tests", "demos")
    assert not dead, "defaulted parameters no call sets:\n" + "\n".join(
        "%s %s" % d for d in dead)


def test_defaults_only_tests_set_are_the_known_ones():
    # An option that no library call sets is one only tests, demos or users
    # set; each of these has a reason to stay an option.
    known = {
        "main.argv",                       # the CLI entry point reads sys.argv by default
        "simulate_ensemble_blocks.block",  # criterion 10 draws its paths as one block
        "AtomMeasure.weights",             # weighted atoms; equal weights by default
    }
    unset = _unset("src")
    assert {name for _, name in unset} == known, "\n".join("%s %s" % u for u in unset)
