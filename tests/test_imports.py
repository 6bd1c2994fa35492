"""Every module-level import in the package is used, and an import sits in a
function only to break an import cycle.

Stdlib-`ast` checks:

* a name bound by a top-level `import` or `from ... import` must be read
  somewhere in its module. Package `__init__.py` files are skipped, because
  their imports are the re-exported API;
* an import inside a function must name a package module that imports the
  importing module back at top level, directly or through other package
  modules. Anything else belongs at the top of the module.
"""

import ast
from pathlib import Path

import artgallery

PACKAGE = Path(artgallery.__file__).parent


def _top_level_import_nodes(tree):
    """Import statements in the module body, also under try/if."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Try, ast.If)):
            stack.extend(node.body + node.orelse)
            stack.extend(s for h in getattr(node, "handlers", ()) for s in h.body)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node


def _top_level_imports(tree):
    """(bound name, line) for imports in the module body, also under try/if."""
    for node in _top_level_import_nodes(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(path): path for path in PACKAGE.rglob("*.py")}


def _imported_modules(node):
    """The package modules an import statement names: for `from m import n`,
    the submodule m.n when there is one, else m."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        names = [f"{node.module}.{a.name}" if f"{node.module}.{a.name}" in MODULES else node.module
                 for a in node.names]
    return [name for name in names if name in MODULES]


def _function_imports(tree):
    """Import statements inside a function body, anywhere in the module."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield node


def _reaches(graph, start, goal) -> bool:
    seen, stack = set(), [start]
    while stack:
        mod = stack.pop()
        if mod == goal:
            return True
        if mod not in seen:
            seen.add(mod)
            stack.extend(graph[mod])
    return False


def uncyclic_function_imports():
    """(module, line, imported) for every function-level import that no
    top-level import cycle explains."""
    trees = {name: ast.parse(path.read_text(encoding="utf-8")) for name, path in MODULES.items()}
    graph = {
        name: {m for node in _top_level_import_nodes(tree) for m in _imported_modules(node)}
        for name, tree in trees.items()
    }
    found = set()
    for name, tree in trees.items():
        for node in _function_imports(tree):
            targets = _imported_modules(node) or [ast.unparse(node)]
            for target in targets:
                if target not in MODULES or not _reaches(graph, target, name):
                    found.add((name, node.lineno, target))
    return sorted(found)


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(name, line) for name, line in _top_level_imports(tree) if name not in used]


def test_no_unused_module_level_imports():
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py"
        for name, line in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_function_level_imports_only_break_cycles():
    found = [f"{name}:{line}: {target}" for name, line, target in uncyclic_function_imports()]
    assert not found, "function-level imports with no import cycle:\n" + "\n".join(found)
