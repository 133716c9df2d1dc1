import importlib
import pkgutil
import re

import probestream


def test_docstring_names_every_module_and_only_modules():
    named = set(re.findall(r"`(\w+)`", probestream.__doc__))
    for name in sorted(named):
        importlib.import_module(f"probestream.{name}")
    assert named == {m.name for m in pkgutil.iter_modules(probestream.__path__)}
