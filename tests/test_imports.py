"""Import hygiene: every module of the package, its tests and its scripts
reads each name it imports. No linter runs here, so this catches an import
left behind."""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_MODULES = sorted([*(_ROOT / "src" / "svcforge").glob("*.py"), *(_ROOT / "tests").glob("*.py"),
                   *(_ROOT / "scripts").glob("*.py")])


def _unused_imports(source: str) -> list:
    """Names bound by an import in `source` that no expression reads."""
    tree = ast.parse(source)
    bound = {(alias.asname or alias.name).partition(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_check_finds_an_unused_import():
    assert _unused_imports("import os.path\nimport sys as s\nfrom a import b, c\ns, c") == \
        ["b", "os"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text()) == []
