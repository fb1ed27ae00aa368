"""Every fdpctl name and keyword that demos, benchmark and README use exists.

The names are read with ``ast``: each ``from fdpctl... import name``, and
each ``module.attr`` read through an fdpctl module bound that way, in
``demos/*.py``, ``perfbench/*.py`` and the README's python blocks.  Each
keyword those files pass to an fdpctl callable must be a parameter of its
signature.  A deletion from the package that breaks one of them fails
here, in the tier-1 run, instead of in a later demo or benchmark run.
"""

import ast
import importlib
import inspect
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


def imports(tree) -> tuple:
    """(names that do not resolve, {local name: object}) of the fdpctl imports."""
    missing, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] == "fdpctl":
            for alias in node.names:
                obj = resolve(node.module, alias.name)
                if obj is None:
                    missing.append(f"{node.module}.{alias.name}")
                else:
                    bound[alias.asname or alias.name] = obj
    return missing, bound


def missing_names(text: str) -> list:
    """Names used in ``text`` that fdpctl does not provide."""
    tree = ast.parse(text)
    missing, bound = imports(tree)
    modules = {name: obj for name, obj in bound.items()
               if isinstance(obj, types.ModuleType)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules \
                and not hasattr(modules[node.value.id], node.attr):
            missing.append(f"{modules[node.value.id].__name__}.{node.attr}")
    return missing


def unknown_keywords(text: str) -> list:
    """Keywords passed in ``text`` that the called fdpctl callable lacks.

    The callee is a name bound by an fdpctl import or an attribute of one
    (``simlab.run_grid``, ``Gamma.parse``).  A ``**mapping`` argument, and
    every call to a signature that takes ``**kwargs``, are skipped.
    """
    tree = ast.parse(text)
    _, bound = imports(tree)
    unknown = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            obj = bound.get(func.id)
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and func.value.id in bound:
            obj = getattr(bound[func.value.id], func.attr, None)
        else:
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        unknown += [f"{obj.__module__}.{obj.__qualname__}({kw.arg}=)"
                    for kw in node.keywords
                    if kw.arg is not None and (
                        kw.arg not in params
                        or params[kw.arg].kind is inspect.Parameter.POSITIONAL_ONLY)]
    return unknown


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


def test_every_keyword_is_a_parameter():
    assert [f"{label}: {call}" for label, text in sources()
            for call in unknown_keywords(text)] == []


def test_an_unknown_keyword_is_reported():
    text = ("from fdpctl.simlab import run_grid\n"
            "from fdpctl import Gamma, simlab\n"
            "run_grid(base, procs, rhos=[0.1], ks=[1])\n"
            "simlab.run_grid(base, procs, threads=2, gammas=[g], **extra)\n"
            "Gamma.parse(value='1/10')\n"
            "simlab.build_procedure('lr-su', k=2, template='bh')\n")
    assert unknown_keywords(text) == ["fdpctl.simlab.run_grid(ks=)",
                                      "fdpctl.simlab.run_grid(gammas=)"]
