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


def _module_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_private_module_name_is_used():
    # a module-level _name that no code of the package reads is left over
    trees = {path.name: ast.parse(path.read_text()) for path in Path(probestream.__file__).parent.glob("*.py")}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    reads = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    reads |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    private = {
        (module, name)
        for module, tree in trees.items()
        for name in _module_level_names(tree)
        if name.startswith("_") and not name.endswith("__")
    }
    assert private  # the walk finds the package's private names
    assert sorted(p for p in private if p[1] not in reads) == []
