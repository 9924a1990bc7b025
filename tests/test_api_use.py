"""Every top-level function, class and constant of a gravswap module is used
by the program: some line of src/ loads it.  API that no experiment, CLI path
or module needs is deleted rather than kept for its tests alone."""

import ast
import importlib.util
from pathlib import Path

import gravswap

SRC = Path(gravswap.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# names no line of src/ loads, each one the benchmark tracer wraps by name
UNUSED_ALLOWED = {
    "lab_means_from_grid": "the benchmark tracer wraps it by name",
}


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _loaded_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_top_level_name_is_loaded_by_the_program():
    trees = _trees()
    loaded = {name for tree in trees.values() for name in _loaded_names(tree)}
    defined = {
        (module, name)
        for module, tree in trees.items()
        if module != "__init__.py"
        for name in _top_level_names(tree)
    }
    unused = sorted(f"{module}: {name}" for module, name in defined if name not in loaded | UNUSED_ALLOWED.keys())
    assert not unused, "defined but never loaded by src/: " + ", ".join(unused)
    # an allowance outlives its reason once the name is gone or used
    names = {name for _, name in defined}
    for name in UNUSED_ALLOWED:
        assert name in names and name not in loaded, name


def test_every_allowance_names_a_traced_attribute():
    # an allowance outlives its reason once the tracer stops wrapping the name
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {attribute for _, attribute, _ in tracer.SPANS + tracer.COUNTERS}
    assert not UNUSED_ALLOWED.keys() - traced
