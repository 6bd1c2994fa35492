"""Every top-level function, class and constant, and every method, in the
package is reached.

A stdlib-`ast` check: a top-level definition in `src/artgallery` counts as
reached when its name is read (as a name, an attribute or an identifier
string) outside its own body, in another definition that is itself reached,
in module-level code, or in a benchmark script `perfbench/*.py`. A constant
is a name bound by a top-level assignment; its body is the assigned value,
so a constant that only unreached definitions read is unreached. A method (a
function defined in a class body) counts as reached the same way, except that
only reads as an attribute count: a bare name or a string of the same
spelling is something else (a local variable, a unit label). Definitions
that only unreached definitions name are dropped in turn, until nothing
changes. Package `__init__.py` files neither define nor reach anything: their
imports are the re-exported API.

Exempt: `param.py`, the parametrization-lemma checker whose callers are the
tests; `visibility.sees`, the exact visibility predicate the tests use as the
reference for the visibility computations; and dunder methods, which Python
calls implicitly (their bodies count as their class's body).
"""

import ast
from pathlib import Path

import artgallery

PACKAGE = Path(artgallery.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"
EXEMPT_MODULES = {"param.py"}
EXEMPT = {("visibility.py", "sees")}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
ASSIGNS = (ast.Assign, ast.AnnAssign)


def _reads(nodes):
    """(names, attributes): identifiers the nodes read as names or identifier
    strings, and those they read as attributes."""
    names, attrs = set(), set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
                names.add(n.value)
    return names, attrs


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _assigned_names(node):
    """Names a top-level assignment binds, unpacking tuple targets."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def _definitions(module, tree):
    """(key, reads) for each top-level def, class or constant and each
    non-dunder method; the key of a method is (module, "Class.method")."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield (module, node.name), _reads([node])
        elif isinstance(node, ASSIGNS):
            for name in _assigned_names(node):
                yield (module, name), _reads([node.value] if node.value else [])
        elif isinstance(node, ast.ClassDef):
            methods = [s for s in node.body if isinstance(s, FUNCTIONS) and not _is_dunder(s.name)]
            own = [s for s in node.body if s not in methods]
            yield (module, node.name), _reads(node.bases + node.keywords + node.decorator_list + own)
            for fn in methods:
                yield (module, f"{node.name}.{fn.name}"), _reads([fn])


def _is_read(key, reads):
    """The definition `key` is named by code that read `reads`."""
    names, attrs = reads
    owner, _, name = key[1].rpartition(".")
    return name in attrs or (not owner and name in names)


def unreached_definitions(package: Path, scripts):
    """Sorted "module:name" for each unreached definition."""
    defs = {}  # (module, name) -> reads of its body
    always = []  # reads of module-level code, exempt defs and scripts
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = str(path.relative_to(package))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for key, reads in _definitions(module, tree):
            if module in EXEMPT_MODULES or key in EXEMPT:
                always.append(reads)
            else:
                defs[key] = reads
        always.append(_reads(n for n in tree.body if not isinstance(n, FUNCTIONS + ASSIGNS + (ast.ClassDef,))))
    for path in scripts:
        always.append(_reads([ast.parse(path.read_text(encoding="utf-8"))]))

    live = set(defs)
    while True:
        dead = {
            key for key in live
            if not any(_is_read(key, reads) for reads in always)
            and not any(_is_read(key, defs[other]) for other in live if other != key)
        }
        if not dead:
            return sorted(f"{module}:{name}" for module, name in set(defs) - live)
        live -= dead


def test_every_definition_is_reached():
    found = unreached_definitions(PACKAGE, sorted(PERFBENCH.glob("*.py")))
    assert not found, "unreached definitions:\n" + "\n".join(found)
