"""Every exported name resolves, so a deleted function cannot linger in
an ``__all__`` list or in the package's re-exports."""

import ast
import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import afrelay

LAYERS = ("linalg", "channel", "mse", "design", "validate", "sim")
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


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


def test_scipy_is_loaded_only_by_the_brute_force():
    # A fresh interpreter: the package, the CLI and a Monte-Carlo estimate
    # load no scipy module; the first brute-force call loads scipy.optimize.
    child = textwrap.dedent("""
        import json, sys
        import afrelay, afrelay.cli
        from afrelay import SystemConfig, brute_force_design, design, empirical_weighted_mse
        from afrelay import sample_scenario

        def loaded():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        cfg = SystemConfig(n_s=1, m_r=1, n_r=1, m_d=1, n_streams=1, p_s=1.0, p_r=1.0,
                           sigma1_sq=0.1, sigma2_sq=0.1, weight=[[1.0]])
        know, _ = sample_scenario(cfg, 10.0, 0.3, 0)
        empirical_weighted_mse(cfg, know, design(cfg, know).tx, 200, 1)
        before = loaded()
        brute_force_design(cfg, know, restarts=1, max_iters=5)
        print(json.dumps([before, loaded()]))
    """)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", child], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    before, after = json.loads(out.stdout)
    assert before == []
    assert "scipy.optimize" in after


# Exported functions, and public methods of exported classes, that nothing
# in the package or perfbench calls, each kept for the reason its
# docstring states.
KEPT_WITHOUT_CALLER = {
    "OrderedSVD.reconstruct",
    "OrderedHermitianEig.reconstruct",
    "TildeMaps.to_tilde",
    "error_stats_first_hop",
    "error_stats_second_hop",
    "optimal_equalizer",
    "waterfill",
    "waterfill_kkt_residual",
    "gradient_check_scalar_objective",
    "projected_gradient_norm",
}


def _public_functions(module):
    """(name, function) of the module's exported functions and of the public
    methods (classmethods and staticmethods too) of its exported classes."""
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, value in vars(obj).items():
                func = getattr(value, "__func__", value)
                if not attr.startswith("_") and inspect.isfunction(func):
                    yield f"{name}.{attr}", func


def test_every_exported_function_has_a_caller_or_a_stated_reason():
    root = SRC.parent
    referenced = set()
    for path in [*sorted((SRC / "afrelay").glob("*.py")), *sorted((root / "perfbench").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    orphans = {}
    for layer in LAYERS:
        for name, func in _public_functions(importlib.import_module(f"afrelay.{layer}")):
            if name.rpartition(".")[2] not in referenced:
                orphans[name] = func
    assert set(orphans) == KEPT_WITHOUT_CALLER
    for name, func in orphans.items():
        assert "Kept without a package caller: " in inspect.getdoc(func), name
