"""Every name a module imports is read in that module: an unused-import
lint on the standard library's ast, so it needs no third-party linter.

It covers src/timwidth (except the __init__.py files, whose imports are
re-exports) and tests/. A name counts as read when the module's tree holds
it as a Name node anywhere, annotations included.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module, name) -> why the module imports a name it never reads
KEPT = {
    ("src/timwidth/tim_engine.py", "compute_tim_decomposition"):
        "perfbench/tracing.py patches it in tim_engine's namespace (ROADMAP item 2)",
}


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name for name in imported_names(tree) if name not in read}


def linted_modules():
    src = (ROOT / "src" / "timwidth").rglob("*.py")
    return sorted(p for p in src if p.name != "__init__.py") + sorted((ROOT / "tests").rglob("*.py"))


def test_every_import_is_read():
    found = {
        (path.relative_to(ROOT).as_posix(), name)
        for path in linted_modules()
        for name in unused_imports(path)
    }
    # a kept name that is read now, or no longer imported, fails too
    assert found == KEPT.keys(), {
        "unused": sorted(found - KEPT.keys()),
        "stale exceptions": sorted(KEPT.keys() - found),
    }

