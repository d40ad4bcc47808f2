"""Every top-level function and class of the package has a caller, and the
transforms stay in the modules that own them.

A name counts as used when it appears as a whole word, other than on its
own def or class line, in a package module other than __init__.py; a public
name may also be used in the benchmark or in the acceptance tests. Unit
tests do not count: a name only they reach is test-only and belongs in the
tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "halfwave"


def callers(public):
    """(path, lines) of every file whose mentions count as uses."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    if public:
        paths += sorted((ROOT / "bench").glob("*.py"))
        paths.append(ROOT / "tests" / "test_acceptance.py")
    return [(p, p.read_text().splitlines()) for p in paths]


def definitions(public):
    """(name, path, line number) of every public or private top-level def and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            defines = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if defines and node.name.startswith("_") != public:
                yield node.name, path, node.lineno


def uncalled(public):
    """The definitions of definitions(public) that no file of callers(public) names."""
    sources = callers(public)
    unused = []
    for name, home, lineno in definitions(public):
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(
            word.search(line)
            for path, lines in sources
            for number, line in enumerate(lines, start=1)
            if not (path == home and number == lineno)
        ):
            unused.append(f"{home.name}:{lineno} {name}")
    return unused


def test_every_public_name_has_a_caller():
    unused = uncalled(public=True)
    assert not unused, f"public names without a caller: {unused}"


def test_every_private_name_has_a_caller_in_the_package():
    unused = uncalled(public=False)
    assert not unused, f"private names without a caller in src/: {unused}"


# the modules that run transforms: a counter of them needs hooks here only
TRANSFORMING = {"grid.py", "system.py", "harness.py", "variation.py"}


def fft_uses(tree):
    """Line numbers of np.fft / numpy.fft references and imports in a module's AST."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = {alias.name for alias in node.names}
            if node.module.startswith("numpy.fft") or (node.module == "numpy" and "fft" in names):
                yield node.lineno
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("numpy.fft") for alias in node.names):
                yield node.lineno


def test_only_the_transforming_modules_call_np_fft():
    stray = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in TRANSFORMING
        for line in fft_uses(ast.parse(path.read_text()))
    ]
    assert not stray, f"np.fft outside {sorted(TRANSFORMING)}: {stray}"
