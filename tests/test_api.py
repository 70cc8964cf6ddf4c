"""The package surface: what ``import pdmorse`` exports, and module privacy."""

import ast
import re
import subprocess
import sys
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


def unused_imports(source: str, filename: str = "<module>") -> list[str]:
    """Names that ``source`` imports but never reads.

    ``import a.b`` binds ``a``; a name counts as read where it appears as an
    expression name, which covers attribute bases such as ``a.b.f()``.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{filename}:{line} {name}" for name, line in bound.items() if name not in read]


def test_unused_imports_finds_a_dead_name():
    source = "import scipy.linalg\nfrom .spectrum import mismatch, psi_mn\nscipy.linalg.eigh\npsi_mn()\n"
    assert unused_imports(source) == ["<module>:2 mismatch"]


def test_every_module_uses_what_it_imports():
    # __init__.py imports to re-export: its names are read through __all__.
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert len(paths) >= 8
    assert [hit for path in paths for hit in unused_imports(path.read_text(encoding="utf-8"), path.name)] == []


def overflow_raisers(path: Path) -> list[str]:
    """Calls that construct ``EvaluationOverflow``, bare or as a module attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "EvaluationOverflow" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_finite_field_is_the_only_overflow_raiser():
    # One rule reports a non-finite field value: errors.finite_field, nowhere else.
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in overflow_raisers(path)]
    assert len(hits) == 1 and hits[0].startswith("errors.py:"), hits


def test_import_loads_neither_the_front_end_nor_the_checks():
    # `import pdmorse` is the library: the CLI and its check table load only when asked for.
    cp = subprocess.run(
        [sys.executable, "-c", "import sys, pdmorse; print(sorted(m for m in sys.modules if m.startswith('pdmorse')))"],
        capture_output=True,
        text=True,
    )
    assert cp.returncode == 0, cp.stderr
    loaded = ast.literal_eval(cp.stdout)
    assert "pdmorse.effective" in loaded
    assert "pdmorse.cli" not in loaded and "pdmorse.checks" not in loaded


def imports_of_cli(path: Path) -> list[str]:
    """Imports in ``path`` that bind the ``cli`` module or a name from it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if module[-1] == "cli" or any(alias.name == "cli" for alias in node.names):
                found.append(f"{path.name}:{node.lineno}")
        elif isinstance(node, ast.Import) and any(alias.name.split(".")[-1] == "cli" for alias in node.names):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_library_module_imports_the_cli():
    # The front end depends on the library, never the reverse; __main__ is the front end's entry.
    assert imports_of_cli(SRC / "__main__.py") != []
    library = [path for path in sorted(SRC.glob("*.py")) if path.name not in ("cli.py", "__main__.py")]
    assert len(library) >= 8
    assert [hit for path in library for hit in imports_of_cli(path)] == []
