"""Each module's ``__all__`` is the one declaration of its public names.

Every ``from collapse_lab... import name`` in the package source (relative
imports resolved), the tests, the benchmark harness and the README's
Python blocks must name a submodule of a package or an entry of the
imported module's ``__all__``; names with a leading underscore and modules
without ``__all__`` (``errors``) are exempt. Every ``__all__`` entry must
resolve, and the packages themselves re-export nothing.
"""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import collapse_lab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _sources():
    for sub in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / sub).rglob("*.py")):
            yield path, path.read_text()
    readme = ROOT / "README.md"
    for block in re.findall(r"```python\n(.*?)```", readme.read_text(), re.S):
        yield readme, block


def _package_imports() -> list[tuple[str, str, str]]:
    """(file, module, name) for every name imported from the package."""
    found = []
    for path, text in _sources():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                # src/collapse_lab/net/train.py: level 1 is collapse_lab.net, level 2 collapse_lab
                parts = path.relative_to(SRC).parent.parts
                parts = parts[: len(parts) - node.level + 1] + ((node.module,) if node.module else ())
                module = ".".join(parts)
            else:
                module = node.module
            if module == "collapse_lab" or module.startswith("collapse_lab."):
                found.extend((path.relative_to(ROOT).as_posix(), module, a.name) for a in node.names)
    return found


def _is_package(module) -> bool:
    return hasattr(module, "__path__")


MODULES = {
    name: importlib.import_module(name)
    for name in ["collapse_lab", *(i.name for i in pkgutil.walk_packages(collapse_lab.__path__, "collapse_lab."))]
}


def test_every_imported_name_is_declared():
    imports = _package_imports()
    # the scan reaches relative imports, the tests and the README
    assert ("src/collapse_lab/net/train.py", "collapse_lab.net.model", "MLP") in imports
    assert ("tests/test_mc.py", "collapse_lab.mc", "VerifyCell") in imports
    assert ("README.md", "collapse_lab", "mc") in imports
    undeclared = []
    for where, module_name, name in imports:
        if name.startswith("_"):
            continue
        module = importlib.import_module(module_name)
        if _is_package(module):
            ok = importlib.util.find_spec(f"{module_name}.{name}") is not None
        else:
            ok = not hasattr(module, "__all__") or name in module.__all__
        if not ok:
            undeclared.append(f"{where}: {module_name}.{name}")
    assert not undeclared, undeclared


@pytest.mark.parametrize("module_name", [n for n, m in MODULES.items() if hasattr(m, "__all__")])
def test_all_entries_resolve(module_name):
    module = MODULES[module_name]
    assert len(module.__all__) == len(set(module.__all__)), "duplicate __all__ entry"
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module_name", [n for n, m in MODULES.items() if _is_package(m)])
def test_packages_re_export_nothing(module_name):
    module = MODULES[module_name]
    assert not hasattr(module, "__all__")
    public = [n for n, v in vars(module).items() if not n.startswith("_") and not inspect.ismodule(v)]
    assert public == []
