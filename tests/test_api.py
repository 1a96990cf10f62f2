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


def _object_calls(tree, scope):
    """(scope, attribute) of each ``object.__setattr__`` and ``object.__new__`` in ``tree``.

    The scope is the module name and the names of the classes and
    functions around the call, dotted.
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _object_calls(node, f"{scope}.{node.name}")
            continue
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "object" and node.attr in ("__setattr__", "__new__")):
            yield scope, node.attr
        yield from _object_calls(node, scope)


def test_record_fields_are_set_only_by_record():
    # one home for a record's fields: surface.Record sets them, and only
    # Twist._trusted, which runs once per letter of a rewrite output, fills
    # its slots through their own descriptors
    found = [hit for path in sorted((ROOT / "src" / "dehn").glob("*.py"))
             for hit in _object_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    assert ("surface.Record.__init__", "__setattr__") in found
    outside = [(scope, attr) for scope, attr in found
               if scope.split(".")[:2] != ["surface", "Record"]
               and (scope, attr) != ("surface.Twist._trusted", "__new__")]
    assert outside == []


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


def _surface_and_word_takers(trees):
    """Signatures and dataclasses of ``trees`` annotated with both a surface and a word.

    A parameter (return values aside) or a dataclass field counts when its
    annotation names ``SurfaceSig`` or ``TwistWord``, bare or quoted.  The
    package's records (``surface.Record``) are plain classes whose fields
    are slots, so a record is seen through the signature of its annotated
    ``__init__``.
    """
    def names(annotation):
        found = set()
        for node in ast.walk(annotation):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.update(re.findall(r"\w+", node.value))
        return found

    def takes_both(annotations):
        seen = set().union(*(names(a) for a in annotations if a is not None))
        return {"SurfaceSig", "TwistWord"} <= seen

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a is not None]
                if takes_both(a.annotation for a in params):
                    yield prefix + node.name
            elif isinstance(node, ast.ClassDef):
                dataclass = any("dataclass" in ast.unparse(d) for d in node.decorator_list)
                fields = [n.annotation for n in node.body if isinstance(n, ast.AnnAssign)]
                if dataclass and takes_both(fields):
                    yield prefix + node.name
                yield from walk(node.body, prefix + node.name + ".")

    for module, tree in trees.items():
        yield from walk(tree.body, module + ".")


def test_no_signature_takes_a_surface_beside_a_word():
    # a word carries its surface; a second copy beside it could disagree
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "dehn").glob("*.py"))}
    assert list(_surface_and_word_takers(trees)) == []


def test_the_surface_and_word_scan_finds_both_kinds():
    tree = ast.parse(
        "@dataclass(frozen=True)\n"
        "class F:\n"
        "    fiber: SurfaceSig\n"
        "    word: TwistWord\n"
        "    @classmethod\n"
        "    def make(cls, fiber: 'SurfaceSig', word: 'TwistWord') -> 'F': ...\n"
        "class R(Record):\n"
        "    __slots__ = ('fiber', 'word')\n"
        "    def __init__(self, fiber: SurfaceSig, word: TwistWord): ...\n"
        "def read(sig: SurfaceSig, letters) -> TwistWord: ...\n"
        "def cover(page: SurfaceSig, *, word: Optional[TwistWord] = None): ...\n")
    assert list(_surface_and_word_takers({"m": tree})) == [
        "m.F", "m.F.make", "m.R.__init__", "m.cover"]


def _readme_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_run():
    blocks = _readme_blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_example_matches_the_cli():
    from io import StringIO

    from dehn.cli import run

    example = next(b for b in _readme_blocks("sh") if "| dehn verify" in b)
    request, report = re.fullmatch(r"\$ echo '(.*?)' \| dehn verify\n(.*)", example,
                                   re.S).groups()
    stdout = StringIO()
    assert run(["verify"], stdin=StringIO(request), stdout=stdout) == 0
    assert stdout.getvalue() == report
