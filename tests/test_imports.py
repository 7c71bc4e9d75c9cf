"""Static check: every module-level import in the package sources is read."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "markovdim"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports of ``source`` that it never reads.

    A name counts as read wherever it appears as an expression, annotations
    and the head of an attribute chain (``np`` in ``np.zeros``) included.
    ``from __future__`` imports bind nothing and are skipped.
    """
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_checker_finds_unused_import():
    src = "import os\nimport sys\nfrom math import pi as p, tau\n\nsys.exit(p)\n"
    assert unused_imports(src) == ["os", "tau"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(tree: ast.Module) -> set[str]:
    """Private names a module defines: module-level functions, classes and
    constants, and the methods of its module-level classes (dunders aside)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            names.update(f.name for f in node.body if isinstance(f, ast.FunctionDef))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def unreferenced_private_names(sources: list[str]) -> list[str]:
    """Private names defined in ``sources`` that none of them reads: as a
    name, as an attribute, or in a ``from ... import``."""
    trees = [ast.parse(src) for src in sources]
    defined = set().union(*(private_definitions(t) for t in trees))
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(a.name for a in n.names)
    return sorted(defined - read)


def test_checker_finds_unreferenced_private_name():
    src = ("_USED = 1\n_LEFT = 2\n\ndef _step():\n    return _USED\n\n"
           "class A:\n    def _locate(self):\n        pass\n\n    def __repr__(self):\n"
           "        return ''\n")
    assert unreferenced_private_names([src, "from m import _step\n"]) == ["_LEFT", "_locate"]


def test_no_unreferenced_private_names():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unreferenced_private_names(sources) == []


#: every name ``from markovdim import *`` binds; a new public name is an edit here
PUBLIC_NAMES = {
    # errors
    "BoundaryError", "ConfigError", "ConvergenceError", "DegenerateError", "DomainError",
    "InsufficientSampleError", "MarkovDimError", "MixingError", "UnboundedError",
    "WorkLimitError",
    # models
    "BranchSpec", "MarkovMapModel", "TruncatedSubsystem", "build_custom_map", "build_sv_map",
    "is_primitive", "load_map_config", "make_branch", "truncate", "validate_custom_branches",
    # potentials
    "TablePotential", "builtin_log_derivative", "builtin_tail_potential", "combine",
    "constant_potential", "potential_from_config",
    # pressure
    "PressureResult", "closed_form_pressure_sv", "gurevich_pressure", "orbit_sum_pressure",
    "perron_pressure", "sv_critical_exponent",
    # spectra
    "SpectrumCurve", "SpectrumPoint", "alpha_bounds", "bowen_dimension", "curve_to_csv",
    "full_birkhoff_spectrum_sv", "inf_pressure_over_q",
    "lyapunov_closed_form", "lyapunov_spectrum_curve", "sv_alpha_bounds", "sv_alpha_of_t",
    "sv_hyperbolic_dimension", "variational_dimension",
    # orbit statistics
    "BoxCountResult", "EscapeStats", "OrbitRecord", "box_count_level_set",
    "escape_statistics", "orbit_rng", "simulate_batch", "simulate_orbit",
    # the submodules the package imports
    "empirics", "errors", "markov", "potentials", "pressure", "spectrum",
}


def test_public_surface_pinned():
    import markovdim

    assert len(markovdim.__all__) == len(set(markovdim.__all__))
    assert set(markovdim.__all__) == PUBLIC_NAMES
    assert all(hasattr(markovdim, name) for name in PUBLIC_NAMES)
