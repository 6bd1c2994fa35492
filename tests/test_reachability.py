"""Every top-level function and class in the package is reached.

A stdlib-`ast` check: a definition in `src/artgallery` counts as reached
when its name is read (as a name, an attribute or an identifier string)
outside its own body, in another definition that is itself reached, in
module-level code, or in a benchmark script `perfbench/*.py`. Definitions
that only unreached definitions name are dropped in turn, until nothing
changes. Package `__init__.py` files neither define nor reach anything: their
imports are the re-exported API.

Exempt: `param.py`, the parametrization-lemma checker whose callers are the
tests, and `visibility.sees`, the exact visibility predicate the tests use as
the reference for the visibility computations.
"""

import ast
from pathlib import Path

import artgallery

PACKAGE = Path(artgallery.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"
EXEMPT_MODULES = {"param.py"}
EXEMPT = {("visibility.py", "sees")}


def _names(node):
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
    return out


def unreached_definitions(package: Path, scripts):
    """Sorted "module:name" for each unreached top-level def or class."""
    defs = {}  # (module, name) -> names read in its body
    always = set()  # names read by module-level code, exempt defs and scripts
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = str(path.relative_to(package))
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                key = (module, node.name)
                if module in EXEMPT_MODULES or key in EXEMPT:
                    always |= _names(node)
                else:
                    defs[key] = _names(node)
            else:
                always |= _names(node)
    for path in scripts:
        always |= _names(ast.parse(path.read_text(encoding="utf-8")))

    live = set(defs)
    while True:
        dead = {
            key for key in live
            if key[1] not in always
            and not any(key[1] in defs[other] for other in live if other != key)
        }
        if not dead:
            return sorted(f"{module}:{name}" for module, name in set(defs) - live)
        live -= dead


def test_every_definition_is_reached():
    found = unreached_definitions(PACKAGE, sorted(PERFBENCH.glob("*.py")))
    assert not found, "unreached definitions:\n" + "\n".join(found)
