"""Every fdpctl name that the demos, the benchmark and the README use resolves.

The names are read with ``ast``: each ``from fdpctl... import name``, and
each ``module.attr`` read through an fdpctl module bound that way, in
``demos/*.py``, ``perfbench/*.py`` and the README's python blocks.  A
deletion from the package that breaks one of them fails here, in the
tier-1 run, instead of in a later demo or benchmark run.
"""

import ast
import importlib
import re
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def sources():
    """(label, source text) for every file and README block that is read."""
    for path in sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]):
        yield path.relative_to(ROOT).as_posix(), path.read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        yield f"README.md python block {i + 1}", block


def resolve(module: str, name: str):
    """The object ``from module import name`` binds, or None."""
    parent = importlib.import_module(module)
    if not hasattr(parent, name):
        try:
            importlib.import_module(f"{module}.{name}")
        except ImportError:
            return None
    return getattr(parent, name, None)


def missing_names(text: str) -> list:
    """Names used in ``text`` that fdpctl does not provide."""
    tree = ast.parse(text)
    missing, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] == "fdpctl":
            for alias in node.names:
                obj = resolve(node.module, alias.name)
                if obj is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(obj, types.ModuleType):
                    modules[alias.asname or alias.name] = obj
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules \
                and not hasattr(modules[node.value.id], node.attr):
            missing.append(f"{modules[node.value.id].__name__}.{node.attr}")
    return missing


def test_every_used_fdpctl_name_resolves():
    texts = list(sources())
    # the scan must see every kind of source, or it checks nothing there
    assert {label.split("/")[0].split(" ")[0] for label, _ in texts} == \
        {"demos", "perfbench", "README.md"}
    assert [f"{label}: {name}" for label, text in texts
            for name in missing_names(text)] == []


def test_a_deleted_name_is_reported():
    text = ("from fdpctl import Gamma, no_such_name\n"
            "from fdpctl import simlab as sl\n"
            "sl.run_cell, sl.no_such_route\n")
    assert missing_names(text) == ["fdpctl.no_such_name",
                                   "fdpctl.simlab.no_such_route"]
