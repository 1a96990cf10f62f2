"""The package exports exactly the documented surface and imports nothing unused."""

import ast
import re
from pathlib import Path

import dehn

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_every_export_resolves_and_is_documented():
    text = README.read_text(encoding="utf-8")
    assert len(dehn.__all__) == len(set(dehn.__all__))
    for name in dehn.__all__:
        assert hasattr(dehn, name), name
        # named in backticks: `name`, `name(args)` or `name(...).attribute`
        assert re.search(rf"`{re.escape(name)}\b", text), f"{name} is not in README.md"


def test_every_imported_name_is_used():
    # __init__.py imports in order to re-export, so it is not checked
    unused = []
    for path in sorted((ROOT / "src" / "dehn").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, unused
