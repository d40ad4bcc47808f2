"""Every public top-level function and class of the package has a caller.

A name counts as used when it appears as a whole word, other than on its
own def or class line, in a package module other than __init__.py, in the
benchmark, or in the acceptance tests. Unit tests do not count: a name only
they reach is test-only and belongs in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "halfwave"


def callers():
    """(path, lines) of every file whose mentions count as uses."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "bench").glob("*.py"))
    paths.append(ROOT / "tests" / "test_acceptance.py")
    return [(p, p.read_text().splitlines()) for p in paths]


def public_definitions():
    """(name, path, line number) of every public top-level def and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            defines = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if defines and not node.name.startswith("_"):
                yield node.name, path, node.lineno


def test_every_public_name_has_a_caller():
    sources = callers()
    unused = []
    for name, home, lineno in public_definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(
            word.search(line)
            for path, lines in sources
            for number, line in enumerate(lines, start=1)
            if not (path == home and number == lineno)
        ):
            unused.append(f"{home.name}:{lineno} {name}")
    assert not unused, f"public names without a caller: {unused}"
