"""Every defaulted parameter in the package is passed somewhere.

A stdlib-`ast` check: each parameter with a default value of a function
under `src/artgallery` must be passed, by keyword or at its position, by
some call in `src/artgallery` or in a benchmark script `perfbench/*.py`. A
default that no caller overrides is a constant, and reads as one. Calls
are matched by name: a call through an attribute counts for every function
of that name, and a call to a class counts for its `__init__`. A call that
spreads `*args` or `**kwargs` counts as passing every parameter it may
reach.

Exempt: `param.py`, the parametrization-lemma checker whose callers are the
tests, and `cli.main(argv)`, whose default is the process's own arguments.
"""

import ast
from collections import defaultdict
from pathlib import Path

import artgallery

PACKAGE = Path(artgallery.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"
EXEMPT_MODULES = {"param.py"}
EXEMPT = {("cli.py", "main", "argv")}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defaulted(fn):
    """(index or None, name) of each defaulted parameter; the index is the
    position a call fills it at (None for keyword-only)."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    for i, p in enumerate(positional[first:], first):
        yield i, p.arg
    for p, d in zip(a.kwonlyargs, a.kw_defaults):
        if d is not None:
            yield None, p.arg


def _is_static(fn):
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)


def _definitions(module, tree):
    """(call name, module, qualified name, function, receiver offset) for
    every def; a class's `__init__` is called by the class's name."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node.name, module, node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if not isinstance(fn, FUNCTIONS):
                    continue
                offset = 0 if _is_static(fn) else 1
                name = node.name if fn.name == "__init__" else fn.name
                yield name, module, f"{node.name}.{fn.name}", fn, offset


def _calls(trees):
    """call name -> [(positional count, keyword names)] for every call in
    the trees; either is None when the call spreads `*args` or `**kwargs`."""
    out = defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name is None:
                continue
            spread = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            out[name].append((None if spread else len(node.args), None if None in keywords else keywords))
    return out


def _passes(call, index, name, offset):
    """The call passes the parameter `name`, which a positional argument
    fills at `index` (counting the receiver, which the call does not pass)."""
    positional, keywords = call
    if keywords is None or name in keywords:
        return True
    return index is not None and (positional is None or index - offset < positional)


def unpassed_defaults(package: Path, scripts):
    trees = {}
    for path in sorted(package.rglob("*.py")):
        trees[str(path.relative_to(package))] = ast.parse(path.read_text(encoding="utf-8"))
    script_trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(scripts)]
    calls = _calls(list(trees.values()) + script_trees)
    for module, tree in trees.items():
        if Path(module).name in EXEMPT_MODULES:
            continue
        for call_name, mod, qualname, fn, offset in _definitions(module, tree):
            for index, name in _defaulted(fn):
                if (Path(mod).name, qualname, name) in EXEMPT:
                    continue
                if not any(_passes(c, index, name, offset) for c in calls.get(call_name, ())):
                    yield f"{module}:{fn.lineno}: {qualname}({name})"


def test_every_default_is_passed():
    found = list(unpassed_defaults(PACKAGE, PERFBENCH.glob("*.py")))
    assert not found, "defaults no call overrides (make them constants):\n" + "\n".join(found)
