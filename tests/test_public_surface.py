"""Each module's ``__all__`` is the one declaration of its public names.

Every ``from collapse_lab... import name`` in the package source (relative
imports resolved), the tests, the benchmark harness and the README's
Python blocks must name a submodule of a package or an entry of the
imported module's ``__all__``; names with a leading underscore and modules
without ``__all__`` (``errors``) are exempt. Every ``__all__`` entry must
resolve, and the packages themselves re-export nothing.

Every defaulted parameter of a function or method in src/, and every
defaulted init field of a dataclass there, must be passed by some call in
src/, except the few listed with their reasons: one that only the tests set
is a constant in disguise.
"""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path
from unittest import mock

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


def _from_module(path: Path, node: ast.ImportFrom) -> str:
    """The module a ``from ... import`` in ``path`` reads, relative imports resolved."""
    if not node.level:
        return node.module
    # src/collapse_lab/net/train.py: level 1 is collapse_lab.net, level 2 collapse_lab
    parts = path.relative_to(SRC).parent.parts
    parts = parts[: len(parts) - node.level + 1] + ((node.module,) if node.module else ())
    return ".".join(parts)


def _package_imports() -> list[tuple[str, str, str]]:
    """(file, module, name) for every name imported from the package."""
    found = []
    for path, text in _sources():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = _from_module(path, node)
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
    assert ("tests/test_mc.py", "collapse_lab.mc", "EnsembleSpec") in imports
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


# A defaulted parameter that no call in src/ passes is a setting only the tests vary, and so a constant in
# disguise. These stay parameters, each for its reason.
UNSET_DEFAULTS_KEPT = {
    ("collapse_lab.cli.main", "argv"): "the console-script entry point calls main() bare; the tests pass argv",
    ("collapse_lab.mc.sgd_trajectory", "stride"): "the multi-step route, which no command runs yet",
}


def _src_trees() -> dict[str, tuple[Path, ast.Module]]:
    """{module name: (path, syntax tree)} for every module under src/."""
    trees = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        trees[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = (path, ast.parse(path.read_text()))
    return trees


def _signatures(trees):
    """Per function and method, "module.qualname" -> (the parameters a call binds by position, the defaulted
    parameters); the qualified names of the classes; and per module, each def's bare name -> its qualified names."""
    signatures, classes, local = {}, set(), {}

    def visit(module, body, prefix, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                classes.add(prefix + node.name)
                visit(module, node.body, f"{prefix}{node.name}.", True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                defaulted = positional[len(positional) - len(a.defaults) :]
                defaulted += [k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
                # self or cls is bound by the call's receiver
                signatures[prefix + node.name] = (positional[1:] if in_class and not static else positional, defaulted)
                local.setdefault(module, {}).setdefault(node.name, []).append(prefix + node.name)
                visit(module, node.body, f"{prefix}{node.name}.", False)

    for module, (_, tree) in trees.items():
        visit(module, tree.body, module + ".", False)
    return signatures, classes, local


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether the class is decorated with @dataclass or @dataclass(...)."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def _dataclass_inits(trees) -> dict[str, tuple[list[str], list[str]]]:
    """Per dataclass, "module.qualname.__init__" -> (its init fields in order, the defaulted ones), as
    ``_signatures`` gives a function's: a field(init=False) is no parameter, a field(default=...) or
    field(default_factory=...) is a defaulted one."""
    inits = {}
    for module, (_, tree) in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            fields, defaulted = [], []
            for stmt in node.body:
                if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                    continue
                default = stmt.value
                if isinstance(default, ast.Call) and isinstance(default.func, ast.Name) and default.func.id == "field":
                    options = {k.arg: k.value for k in default.keywords}
                    if "init" in options and ast.literal_eval(options["init"]) is False:
                        continue
                    default = options.get("default", options.get("default_factory"))
                fields.append(stmt.target.id)
                if default is not None:
                    defaulted.append(stmt.target.id)
            inits[f"{module}.{node.name}.__init__"] = (fields, defaulted)
    return inits


def _double_star_fields() -> dict[tuple[str, str], tuple[str, set[str]]]:
    """(the def around it, name) -> (dataclass, the fields it sets) for each ``**name`` that src/ passes to a
    dataclass or to dataclasses.replace. Any other such ``**`` fails the guard: it sets no field here.

    ``cli._train_arms`` passes ``replace(cfg, **overrides)``: overrides holds the TrainConfig fields that the
    train flags name through _OPTIONS["train"] and _TRAIN_FIELD_FOR, found by running it with every flag given.
    """
    from collapse_lab import cli

    fields = set()
    params = {flag: object() for flag, *_ in cli._OPTIONS["train"]} | {"preset": None}
    with mock.patch.object(cli, "replace", lambda cfg, **kw: fields.update(kw)):
        cli._train_arms(params)
    return {("collapse_lab.cli._train_arms", "overrides"): ("collapse_lab.net.train.TrainConfig.__init__", fields)}


def _scoped_calls(module: str, tree: ast.Module):
    """(the qualified name of the def or class around it, or the module's, call) for every call in the tree."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield scope, child
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            yield from walk(child, f"{scope}.{child.name}" if inner else scope)

    yield from walk(tree, module)


def _passed_parameters(trees, signatures, classes, local, inits):
    """(function, parameter) -> the defs whose calls pass it, for each defaulted parameter some call in src/ passes,
    by keyword or by position; and the ``**`` arguments into a dataclass that ``_double_star_fields`` does not resolve.

    A call by a name or through a module is resolved through the module's imports, aliases included; a call of
    a method on an object counts for every method of that name. A dataclass's defaulted fields are the defaulted
    parameters of its __init__ (``inits``); dataclasses.replace(obj, name=...) sets the field ``name`` of every
    dataclass that has it.
    """
    methods = {}
    for name in signatures.keys() - inits.keys():  # no call on an object reaches a dataclass's generated __init__
        owner, _, short = name.rpartition(".")
        if owner in classes:
            methods.setdefault(short, []).append(name)
    double_stars = _double_star_fields()
    passed, unresolved = {}, []

    def record(target, given, scope):
        for p in set(given).intersection(signatures[target][1]):
            passed.setdefault((target, p), set()).add(scope)

    def pass_fields(targets, scope, call, given):
        """Record the fields of the dataclasses ``targets`` that a call sets: ``given``, its keywords and a ``**``."""
        given = given | {k.arg for k in call.keywords if k.arg is not None}
        for k in call.keywords:
            key = (scope, k.value.id) if k.arg is None and isinstance(k.value, ast.Name) else None
            if key in double_stars:
                record(*double_stars[key], scope)
            elif k.arg is None and any(inits[t][1] for t in targets):
                unresolved.append(f"{scope}: {ast.unparse(call)}")
        for target in targets:
            record(target, given, scope)

    for module, (path, tree) in trees.items():
        names = {n.name: f"{module}.{n.name}" for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        replace_names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                replace_names.update(a.asname or a.name for a in node.names if a.name == "replace")
            elif isinstance(node, ast.ImportFrom) and _from_module(path, node).startswith("collapse_lab"):
                names.update((a.asname or a.name, f"{_from_module(path, node)}.{a.name}") for a in node.names)
        for scope, call in _scoped_calls(module, tree):
            func = call.func
            if isinstance(func, ast.Name) and func.id in replace_names:
                pass_fields(list(inits), scope, call, set())
                continue
            if isinstance(func, ast.Name):
                targets = [names[func.id]] if func.id in names else local.get(module, {}).get(func.id, [])
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in names:
                targets = [f"{names[func.value.id]}.{func.attr}"]  # module.function or Class.method
            elif isinstance(func, ast.Attribute):
                targets = methods.get(func.attr, [])
            else:
                continue
            for target in targets:
                target = target + ".__init__" if target in classes else target
                if target not in signatures:
                    continue
                positional, defaulted = signatures[target]
                # *args may pass any parameter a positional argument can reach
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                given = set(positional if starred else positional[: len(call.args)])
                if target in inits:
                    pass_fields([target], scope, call, given)
                elif any(k.arg is None for k in call.keywords):
                    record(target, defaulted, scope)  # **kwargs into a function may pass any of them
                else:
                    record(target, given | {k.arg for k in call.keywords}, scope)
    return passed, unresolved


def test_every_default_is_a_setting_src_varies():
    trees = _src_trees()
    signatures, classes, local = _signatures(trees)
    inits = _dataclass_inits(trees)
    signatures |= inits
    passed, unresolved = _passed_parameters(trees, signatures, classes, local, inits)
    # the scan follows an aliased import (mc calls analytic._ndtr as ndtr) and a method call on an object
    assert ("collapse_lab.analytic._ndtr", "out") in passed
    assert ("collapse_lab.net.layers.Dense.backward", "input_grad") in passed
    # a dataclass field is set by a keyword to its class, and by the train flags' replace(cfg, **overrides)
    assert "collapse_lab.cli.cmd_decay" in passed.get(("collapse_lab.mc.UpdateConfig.__init__", "weight_decay"), ())
    assert "collapse_lab.cli._train_arms" in passed.get(
        ("collapse_lab.net.train.TrainConfig.__init__", "hidden_width"), ())
    assert "noise_dist" not in inits["collapse_lab.mc.UpdateConfig.__init__"][0]  # field(init=False)
    assert unresolved == [], "a ** into a dataclass or replace that _double_star_fields does not resolve"
    unset = {(name, p) for name, (_, defaulted) in signatures.items() for p in defaulted} - passed.keys()
    only_tests = sorted(f"{name}({p})" for name, p in unset - UNSET_DEFAULTS_KEPT.keys())
    assert only_tests == [], "no call in src/ passes these: make each a constant"
    stale = sorted(f"{name}({p})" for name, p in UNSET_DEFAULTS_KEPT.keys() - unset)
    assert stale == [], "src/ now passes these: take them off UNSET_DEFAULTS_KEPT"
