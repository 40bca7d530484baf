"""The benchmark runs gpbound through its public surface only; every name it
imports must stay exported, or the benchmark breaks at import time."""
import ast
import importlib
from pathlib import Path

import pytest

import gpbound

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def gpbound_imports(path: Path) -> list[tuple[str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "gpbound"
            for alias in node.names]


@pytest.mark.parametrize("script", ["workloads.py", "gate.py"])
def test_benchmark_imports_are_public(script):
    imports = gpbound_imports(PERFBENCH / script)
    assert any(module == "gpbound" for module, _ in imports)
    for module, name in imports:
        if module == "gpbound":
            assert name in gpbound.__all__, f"{script} imports {name}, not in gpbound.__all__"
        else:
            assert hasattr(importlib.import_module(module), name), f"{script}: {module}.{name}"
