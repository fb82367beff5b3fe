"""The documentation runs against the library as shipped."""

import ast
import importlib.util
import os
import re
import shlex
import subprocess
import sys
from functools import cached_property
from pathlib import Path
from types import FunctionType

import pytest

import spraylab

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)
# the CLI lines of the sh blocks, without their trailing comments
CLI_LINES = [line.split(" #")[0].strip()
             for block in re.findall(r"```sh\n(.*?)```", README, re.S)
             for line in block.splitlines()
             if line.startswith(("spraylab ", "python -m spraylab "))]


def test_readme_has_python_examples():
    assert README_BLOCKS


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_python_block_runs(index):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", README_BLOCKS[index]], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_has_cli_lines():
    assert CLI_LINES


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_runs(line):
    args = shlex.split(line.removeprefix("python -m ").removeprefix("spraylab "))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "spraylab", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from spraylab import *", namespace)
    assert [name for name in spraylab.__all__ if name not in namespace] == []


def _names_used_in_the_library() -> set[str]:
    """Names and attribute names the library's modules read, outside ``__init__``."""
    # a class named only as the type argument of isinstance has no caller
    used = set()
    for path in (ROOT / "src" / "spraylab").glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        type_args = {id(arg) for call in ast.walk(tree)
                     if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                     and call.func.id == "isinstance" and len(call.args) == 2
                     for arg in ast.walk(call.args[1])}
        for node in ast.walk(tree):
            if id(node) in type_args:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_caller_in_the_library():
    exempt = {"__version__"}
    used = _names_used_in_the_library()
    assert [name for name in spraylab.__all__ if name not in used | exempt] == []


def _library_classes() -> list[type]:
    """The public classes the library's modules define, exported or not."""
    modules = [importlib.import_module(f"spraylab.{path.stem}")
               for path in sorted((ROOT / "src" / "spraylab").glob("*.py"))]
    return [obj for module in modules for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and not name.startswith("_")]


def test_every_public_member_of_an_exported_class_has_a_caller_in_the_library():
    # every public class of every module, exported or not (Jet, PolyRing,
    # IdentityCheck, ...); methods, properties and cached properties count,
    # fields and dunders are not members here
    kinds = (FunctionType, property, cached_property, classmethod, staticmethod)
    used = _names_used_in_the_library()
    classes = _library_classes()
    assert {"Jet", "PolyRing", "IdentityCheck"} <= {cls.__name__ for cls in classes}
    uncalled = [f"{cls.__name__}.{attr}" for cls in classes
                for attr, member in vars(cls).items()
                if not attr.startswith("_") and isinstance(member, kinds) and attr not in used]
    assert uncalled == []


def test_the_benchmark_tracer_names_exactly_the_attributes_that_are_gone():
    # perfbench patches attributes by name and skips those that are gone; a
    # rename that takes a span away from the benchmark must be listed here
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.Tracer(spans=False).missing == [
        "Jet.deriv",
        "MetricFrame.ginv",
        "spraylab.geometry.jet_matrix_inverse",
        "SprayStack.N_values",
        "SprayStack.Gamma_values",
        "SprayStack.B",
        "SprayStack.Rik_values",
        "SprayStack.R4",
        "SprayStack.T_values",
        "SprayStack.hcov_scalar_values",
        "MeasureStack.S_hderiv",
        "MeasureStack.chi_jets",
        "MeasureStack.chi_values",
        "ProjectiveStack.Rhat",
        "ProjectiveStack.W",
        "ProjectiveStack.weyl_values",
    ]
