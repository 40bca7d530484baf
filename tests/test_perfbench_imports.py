"""The benchmark runs gpbound through its public surface only; every name it
imports must stay exported, and every call it makes to one must still bind to
that name's signature, or the benchmark breaks at import or at run time."""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

import gpbound

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = ["workloads.py", "gate.py"]


def gpbound_imports(tree: ast.AST) -> list[tuple[str, str, str]]:
    """(module, name, local name) of every ``from gpbound... import name``."""
    return [(node.module, alias.name, alias.asname or alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "gpbound"
            for alias in node.names]


def _aliases(value: ast.AST) -> list[str] | None:
    """The names a ``name`` or ``a if c else b`` expression can evaluate to."""
    if isinstance(value, ast.Name):
        return [value.id]
    if isinstance(value, ast.IfExp):
        body, orelse = _aliases(value.body), _aliases(value.orelse)
        if body is not None and orelse is not None:
            return body + orelse
    return None


def gpbound_calls(tree: ast.AST, bound: dict[str, object]):
    """(line, callee, positional count, keywords) of every call to an imported gpbound
    name, to an attribute of one (``KEquipartition.for_graph``), or to a local name
    assigned from such names (``f = a if c else b``)."""
    local = dict(bound)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            names = _aliases(node.value)
            if names and all(n in bound for n in names):
                local[node.targets[0].id] = [bound[n] for n in names]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in local:
            targets = local[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in bound):
            targets = getattr(bound[func.value.id], func.attr)
        else:
            continue
        npos = sum(not isinstance(a, ast.Starred) for a in node.args)
        keywords = [k.arg for k in node.keywords if k.arg is not None]
        for target in targets if isinstance(targets, list) else [targets]:
            yield node.lineno, target, npos, keywords


@pytest.mark.parametrize("script", SCRIPTS)
def test_benchmark_imports_are_public(script):
    imports = gpbound_imports(ast.parse((PERFBENCH / script).read_text()))
    assert any(module == "gpbound" for module, _, _ in imports)
    for module, name, _ in imports:
        if module == "gpbound":
            assert name in gpbound.__all__, f"{script} imports {name}, not in gpbound.__all__"
        else:
            assert hasattr(importlib.import_module(module), name), f"{script}: {module}.{name}"


@pytest.mark.parametrize("script", SCRIPTS)
def test_benchmark_calls_bind_to_current_signatures(script):
    tree = ast.parse((PERFBENCH / script).read_text())
    bound = {local: getattr(importlib.import_module(module), name)
             for module, name, local in gpbound_imports(tree)}
    calls = list(gpbound_calls(tree, bound))
    assert calls
    for line, target, npos, keywords in calls:
        sig = inspect.signature(target)
        try:
            sig.bind_partial(*range(npos), **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"{script}:{line}: {target.__qualname__}{sig}: {exc}")
