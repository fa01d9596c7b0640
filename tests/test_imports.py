"""Import checks over the package's modules, by ``ast``.

Every name a module imports is used in that module.  No linter runs on this
tree, so this check catches the imports a deletion leaves behind.
``__init__.py`` is skipped, since it imports only to re-export, and so is
any import line marked ``# noqa``.

Every name ``__init__.py`` exports has a caller: a module of the package,
a demo or a benchmark script reads it, or the README names it.

``epr`` turns no block's stream into outcomes itself: it imports none of
the sampler internals that do, and starts no second word source of a
stream, so the draw order of every block kernel lives in ``sampler`` alone.

No module names numpy's ``Generator`` or ``default_rng``: every draw is a
Philox word, and the package alone turns words into doubles and coins.
"""

import ast
import glob
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "qmachine")
MODULES = sorted(
    path for path in glob.glob(os.path.join(PACKAGE, "*.py"))
    if os.path.basename(path) != "__init__.py"
)
CALLERS = MODULES + sorted(
    glob.glob(os.path.join(ROOT, "demos", "*.py")) + glob.glob(os.path.join(ROOT, "bench", "*.py"))
)


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that nothing else in it reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            # ``import a.b`` binds ``a``
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    )


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_import_is_used(path):
    assert unused_imports(read(path)) == []


def test_check_sees_unused_and_marked_imports():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(source) == ["os (line 1)", "tau (line 3)"]


def names_read(source: str) -> set[str]:
    """The names ``source`` reads, the attributes it reads and the names it imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def uncalled_exports(init: str, callers: list[str], readme: str) -> list[str]:
    """The names ``init`` imports that no caller source reads and that
    ``readme`` neither opens a backtick span with nor calls as ``name(``."""
    exported = [
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init)) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    read_somewhere = set().union(*map(names_read, callers))
    return sorted(
        name for name in exported
        if name not in read_somewhere and not re.search(rf"`{name}\b|\b{name}\(", readme)
    )


def test_every_export_has_a_caller():
    init = read(os.path.join(PACKAGE, "__init__.py"))
    readme = read(os.path.join(ROOT, "README.md"))
    assert uncalled_exports(init, [read(path) for path in CALLERS], readme) == []


def test_check_sees_uncalled_exports():
    init = "from .a import named, attr, imported, quoted, called, gone, gone_too\n"
    callers = ["named + 1\n", "x.attr\n", "from qmachine import imported\n"]
    readme = "`quoted` and called(x); `gone_too_far` and gone_too (x)\n"
    assert uncalled_exports(init, callers, readme) == ["gone", "gone_too"]


# the sampler internals that build or read a block's draws: only
# ``sampler``'s block kernels use them
DRAW_INTERNALS = {
    "_resolve_cut", "_settle", "_doubles", "_coins", "_below", "_NO_DRAWS", "_philox"
}


def draw_internals_used(source: str) -> list[str]:
    """The draw internals ``source`` imports or reads as attributes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [
                f"import {alias.name} (line {node.lineno})"
                for alias in node.names if alias.name.split(".")[-1] in DRAW_INTERNALS
            ]
        elif isinstance(node, ast.Attribute) and node.attr in DRAW_INTERNALS:
            found.append(f"read {node.attr} (line {node.lineno})")
    return sorted(found)


def test_epr_leaves_block_draws_to_sampler():
    assert draw_internals_used(read(os.path.join(PACKAGE, "epr.py"))) == []


def test_check_sees_draw_internals():
    source = (
        "from .sampler import _cut, _resolve_cut as rc\n"
        "import qmachine.sampler\n"
        "up = qmachine.sampler._below(x, 0.5)\n"
        "rs.words(2)\n"
    )
    assert draw_internals_used(source) == [
        "import _resolve_cut (line 1)",
        "read _below (line 3)",
    ]


NUMPY_GENERATOR = re.compile(r"\b(?:Generator|default_rng)\b")


def generator_names(source: str) -> list[str]:
    """Where ``source`` names numpy's ``Generator`` or ``default_rng``."""
    return [
        f"{match.group()} (line {number})"
        for number, line in enumerate(source.splitlines(), 1)
        for match in NUMPY_GENERATOR.finditer(line)
    ]


def test_package_names_no_numpy_generator():
    named = {
        os.path.basename(path): generator_names(read(path))
        for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    }
    assert {module: found for module, found in named.items() if found} == {}


def test_check_sees_generator_names():
    source = (
        "gen = np.random.Generator(np.random.Philox(7))\n"
        "from numpy.random import default_rng\n"
        "bits: np.random.BitGenerator = np.random.Philox(7)\n"
        "MyGenerator = default_rngs = None\n"
    )
    assert generator_names(source) == ["Generator (line 1)", "default_rng (line 2)"]
