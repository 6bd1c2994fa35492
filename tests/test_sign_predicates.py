"""No sign test in the package goes through a rational cross product.

A stdlib-`ast` check: a call to a function named `cross` may not be compared
with 0 anywhere in `src/artgallery`. Signs come from `orient`, or from
`det3` on homogeneous points, which decide them on integers without building
rationals or taking a gcd.
"""

import ast
from pathlib import Path

import artgallery

PACKAGE = Path(artgallery.__file__).parent


def _is_cross_call(node):
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "cross") or (
        isinstance(f, ast.Attribute) and f.attr == "cross"
    )


def _is_zero(node):
    return isinstance(node, ast.Constant) and not isinstance(node.value, bool) and node.value == 0


def cross_sign_tests(source: str):
    """Lines where a `cross(...)` call is compared with 0."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_is_cross_call, operands)) and any(map(_is_zero, operands)):
                found.append(node.lineno)
    return found


def test_the_check_sees_a_cross_sign_test():
    assert cross_sign_tests("if cross(a, b, c) > 0:\n    pass\n") == [1]
    assert cross_sign_tests("ok = 0 != geom.cross(a, b, c)\n") == [1]
    assert cross_sign_tests("ok = orient(a, b, c) > 0\nd = cross(a, b, c) * 2\n") == []


def test_no_cross_sign_test_in_the_package():
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in cross_sign_tests(path.read_text(encoding="utf-8"))
    ]
    assert not found, "sign of a rational cross product; use orient:\n" + "\n".join(found)
