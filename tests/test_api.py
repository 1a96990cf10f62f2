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


def test_no_public_name_only_the_tests_use():
    # every public module-level function, class or constant of src/dehn is
    # used elsewhere in the package, bound by the bench, exported, or the
    # console script; a name only the tests call is dead weight
    sources = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "src" / "dehn").glob("*.py"))}
    used = set()
    for tree in sources.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    bench = "\n".join(p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py")))
    script = re.search(r'^dehn = "dehn\.\w+:(\w+)"$',
                       (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M).group(1)
    unused = []
    for path, tree in sources.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{path.name}: {name}" for name in names
                       if not name.startswith("_") and name not in used
                       and name not in dehn.__all__ and name != script
                       and not re.search(rf"\b{name}\b", bench)]
    assert not unused, unused
