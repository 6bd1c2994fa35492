"""Every module-level import in the package is used.

A stdlib-`ast` check: a name bound by a top-level `import` or `from ...
import` must be read somewhere in its module. Package `__init__.py` files are
skipped, because their imports are the re-exported API.
"""

import ast
from pathlib import Path

import artgallery

PACKAGE = Path(artgallery.__file__).parent


def _top_level_imports(tree):
    """(bound name, line) for imports in the module body, also under try/if."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Try, ast.If)):
            stack.extend(node.body + node.orelse)
            stack.extend(s for h in getattr(node, "handlers", ()) for s in h.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


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
