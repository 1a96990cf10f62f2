"""The package exports exactly the documented surface and imports nothing unused."""

import ast
import importlib.util
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


def test_benchmark_bindings_resolve():
    # bench/run.py wraps these at start-up; a missing one would only fail there
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    bindings = [entry[:2] for entry in tracer.LAYERS + tracer.COUNTED]
    assert bindings
    for module, attr in bindings:
        owner = importlib.import_module(f"dehn.{module}")
        if "." in attr:  # a method, replaced on its class
            cls_name, method = attr.split(".")
            assert method in vars(getattr(owner, cls_name)), f"{module}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module}.{attr}"
