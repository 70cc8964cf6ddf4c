"""The package surface: what ``import pdmorse`` exports, and module privacy."""

import ast
import re
from pathlib import Path

import pdmorse

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pdmorse"


def readme_public_api() -> list[str]:
    """Backticked names in README's "Public API" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"`([A-Za-z_]\w*)`", section)


def test_all_is_readme_public_api():
    names = readme_public_api()
    assert len(names) == len(set(names)) == 48
    assert sorted(pdmorse.__all__) == sorted(names)
    for name in names:
        assert getattr(pdmorse, name) is not None, name


def private_reaches(path: Path) -> list[str]:
    """``from .mod import _name`` and ``mod._name`` uses of sibling modules."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    siblings = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno} from .{node.module} import {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and node.attr.startswith("_")
        ):
            found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    return found


def test_no_module_reaches_into_another_private_name():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 8
    assert [hit for path in paths for hit in private_reaches(path)] == []
