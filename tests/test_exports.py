"""Every exported name resolves, so a deleted function cannot linger in
an ``__all__`` list or in the package's re-exports."""

import ast
import importlib
import inspect

import pytest

import afrelay

LAYERS = ("linalg", "channel", "mse", "design", "validate", "sim")


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_all_names_resolve(layer):
    module = importlib.import_module(f"afrelay.{layer}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_reexports_resolve():
    tree = ast.parse(inspect.getsource(afrelay))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} == set(LAYERS)
    for node in imports:
        module = importlib.import_module(f"afrelay.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(afrelay, alias.asname or alias.name) is getattr(module, alias.name)
