"""Every function parameter in the package is read.

A stdlib-`ast` check: each parameter of a function or lambda under
`src/artgallery` must be read somewhere in that function's body (nested
functions and lambdas count, since they read it as a closure). The
receiver of a method (`self`, `cls`) is exempt: the call convention
passes it whether or not the body needs it.
"""

import ast
from pathlib import Path

import artgallery

PACKAGE = Path(artgallery.__file__).parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _params(fn):
    a = fn.args
    params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
    return [p.arg for p in params]


def _methods(tree):
    return {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, FUNCTIONS)
    }


def unused_params(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    methods = _methods(tree)
    for fn in ast.walk(tree):
        if not isinstance(fn, FUNCTIONS):
            continue
        params = _params(fn)
        if id(fn) in methods and params and params[0] in ("self", "cls"):
            params = params[1:]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(fn, "name", "<lambda>")
        for p in params:
            if p not in read:
                yield f"{name}.{p}", fn.lineno


def test_no_unused_parameters():
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name, line in unused_params(path)
    ]
    assert not found, "unused parameters:\n" + "\n".join(found)
