import ast
import importlib
import pkgutil
import re
from pathlib import Path

import probestream


def test_docstring_names_every_module_and_only_modules():
    named = set(re.findall(r"`(\w+)`", probestream.__doc__))
    for name in sorted(named):
        importlib.import_module(f"probestream.{name}")
    assert named == {m.name for m in pkgutil.iter_modules(probestream.__path__)}


def _assigned_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _module_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
    yield from _assigned_names(tree)


def _package_trees():
    return {path.name: ast.parse(path.read_text()) for path in Path(probestream.__file__).parent.glob("*.py")}


def _reads(trees):
    """Names read in `trees`: loaded names and attribute names."""
    nodes = [node for tree in trees for node in ast.walk(tree)]
    reads = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return reads | {n.attr for n in nodes if isinstance(n, ast.Attribute)}


def test_every_private_module_name_is_used():
    # a module-level _name that no code of the package reads is left over
    trees = _package_trees()
    reads = _reads(trees.values())
    private = {
        (module, name)
        for module, tree in trees.items()
        for name in _module_level_names(tree)
        if name.startswith("_") and not name.endswith("__")
    }
    assert private  # the walk finds the package's private names
    assert sorted(p for p in private if p[1] not in reads) == []


def test_every_import_is_used():
    # an import that its module neither reads nor exports is left over
    unused = []
    for module, tree in _package_trees().items():
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exported |= set(ast.literal_eval(node.value))
        unused += [(module, name) for name in imported - _reads([tree]) - exported]
    assert sorted(unused) == []


def test_every_constant_is_read():
    # a module-level UPPER_CASE constant that no code of the package reads is left over
    trees = _package_trees()
    reads = _reads(trees.values())
    constants = {
        (module, name)
        for module, tree in trees.items()
        for name in _module_level_names(tree)
        if name.isupper() and not name.startswith("__")
    }
    assert constants  # the walk finds the package's constants
    assert sorted(c for c in constants if c[1] not in reads) == []


def test_no_constant_is_assigned_in_two_modules():
    # a module-level UPPER_CASE constant is held in one module; another
    # module that needs it imports it, so the two cannot drift apart
    modules = {}
    for module, tree in _package_trees().items():
        for name in _assigned_names(tree):
            if name.isupper() and not name.startswith("__"):
                modules.setdefault(name, set()).add(module)
    assert "BLOCK_SIDE" in modules  # the walk finds the constants
    assert sorted((name, sorted(where)) for name, where in modules.items() if len(where) > 1) == []


def test_every_public_module_name_is_read():
    # a public name that neither the package nor its caller, the benchmark
    # harness, reads is left over; a re-export from the package counts
    bench = Path(__file__).resolve().parents[1] / "streambench"
    harness = [ast.parse(path.read_text()) for path in bench.glob("*.py")]
    assert harness  # the harness is found
    trees = _package_trees()
    reads = _reads([*trees.values(), *harness]) | set(probestream.__all__)
    public = {
        (module, name)
        for module, tree in trees.items()
        for name in _module_level_names(tree)
        if not name.startswith("_")
    }
    assert sorted(p for p in public if p[1] not in reads) == []


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reads_another_modules_private_name():
    # a module that imports or reads another module's _name restates what
    # that module may change on its own
    trees = _package_trees()
    crossings = []
    for module, tree in trees.items():
        bound = {}  # local name -> the package module it names
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = ".".join(filter(None, ["probestream" if node.level else None, node.module]))
                if not source.startswith("probestream"):
                    continue
                for alias in node.names:
                    target = f"{source}.{alias.name}"
                    if f"{target.removeprefix('probestream.')}.py" in trees:
                        bound[alias.asname or alias.name] = target
                    elif _private(alias.name):
                        crossings.append((module, target))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("probestream"):
                        local = alias.asname or alias.name.split(".")[0]
                        bound[local] = alias.name if alias.asname else local
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _private(node.attr):
                path, value = [], node.value
                while isinstance(value, ast.Attribute):
                    path.insert(0, value.attr)
                    value = value.value
                if isinstance(value, ast.Name) and value.id in bound:
                    crossings.append((module, ".".join([bound[value.id], *path, node.attr])))
    assert sorted(crossings) == []
