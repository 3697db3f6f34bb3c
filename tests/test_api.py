"""The package's public surface: every name the benchmark imports exists,
the test references live in tests/reference.py alone, no module in src/ or
tests/ imports a name it does not use, no module reads another object's
private tables, and every table is read-only.

The scripts are read with ast, not run, so this takes milliseconds.
"""

import ast
import importlib
import pathlib
import pkgutil

import numpy as np
import pytest

import adjoint_quadrics
import reference
from adjoint_quadrics.root_system import SquareIndex

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Test references that the package does not define, as module attributes
# or as methods of its classes.
REFERENCE_NAMES = (
    "pi2_form",
    "pi2_form_for_square",
    "two_pi3_form",
    "pi_form",
    "_put",
    "_finish",
    "config_at",
    "draw_config",
    "sample_case_config",
    "_ledger_target",
    "_prepare_case",
    "ledger_rows",
    "verify_case_identity",
    "verify_commutator_reduction",
    "_poly_residuals",
    "_class_pattern_ok",
    "VerificationFailure",
    "pair_sets",
    "conjugate_pair",
    "sign_column",
    "modified_square",
    "extend_a3_to_d4",
    "PairSets",
    "SignColumn",
    "NotAnA3TripleError",
    "_unordered",
    "zero_weight_combo",
    "inverse_word",
    "doubled_inner_vec",
    "index_of",
)


def _imports(path: pathlib.Path):
    """(module, name) of every `from module import name` in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    ]


def _submodules():
    # __main__ runs the command line when imported.
    names = [m.name for m in pkgutil.iter_modules(adjoint_quadrics.__path__)]
    return [importlib.import_module(f"adjoint_quadrics.{n}") for n in names if n != "__main__"]


def test_benchmark_imports_exist():
    for script in ("session.py", "selftest.py"):
        names = [n for m, n in _imports(ROOT / "perfbench" / script) if m == "adjoint_quadrics"]
        assert names, script
        assert [n for n in names if not hasattr(adjoint_quadrics, n)] == [], script


def test_references_live_only_in_the_tests():
    for module in [adjoint_quadrics, *_submodules()]:
        classes = [c for c in vars(module).values() if isinstance(c, type)]
        for owner in (module, *classes):
            assert [n for n in REFERENCE_NAMES if hasattr(owner, n)] == [], owner.__name__
    assert all(hasattr(reference, n) for n in REFERENCE_NAMES)
    for path in sorted((ROOT / "src" / "adjoint_quadrics").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = [m for m, _ in _imports(path)] + [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        ]
        assert not [m for m in imported if m.split(".")[0] in ("reference", "tests")], path.name


def _unused_imports(path: pathlib.Path):
    """The names a file imports and never reads.  An import binds its alias,
    or the first part of a dotted module; `from __future__` binds nothing."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


def test_no_unused_imports():
    # A package's __init__ imports in order to re-export.
    unused = {
        str(path.relative_to(ROOT)): _unused_imports(path)
        for folder in (ROOT / "src", ROOT / "tests")
        for path in sorted(folder.rglob("*.py"))
        if path.name != "__init__.py"
    }
    assert len(unused) > 20
    assert {path: names for path, names in unused.items() if names} == {}


def test_no_module_reads_another_objects_private_tables(system):
    # The tables of a RootSystem and a SignTable have public names; an
    # underscore attribute of either is read only through self.
    rs, signs = system("D5")
    private = {name for name in vars(rs) | vars(signs) if name.startswith("_")}
    reads = [
        f"{path.name}:{node.lineno} {node.attr}"
        for path in sorted((ROOT / "src" / "adjoint_quadrics").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr in private
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    assert reads == []


def _arrays(name, x):
    """(name, array) for every numpy array in x: x itself, or the items of a
    tuple such as a table bundle, by field name where it has them."""
    if isinstance(x, np.ndarray):
        return [(name, x)]
    if not isinstance(x, tuple):
        return []
    fields = getattr(x, "_fields", range(len(x)))
    return [a for f, y in zip(fields, x) for a in _arrays(f"{name}.{f}", y)]


# The arrays each object must hold, by attribute name.
HELD = {
    "RootSystem": {"cartan", "coeffs", "gram", "pairings", "key", "neg", "sums", "lex"}
    | {f"square_index.{f}" for f in SquareIndex._fields},
    "SignTable": {"table"},
    "EquationSet": {"_kinds", "_names", "_order", "_sorted"},
    "_Compiled": {"ia", "ib", "c", "offsets", "_by_a", "_a_start", "pairings"},
}


@pytest.mark.parametrize("owner", sorted(HELD))
def test_every_table_is_read_only(system, eqset_for, owner):
    rs, signs = system("D5")
    eqset = eqset_for("D5")
    obj = dict(zip(HELD, (rs, signs, eqset, eqset.compiled())))[owner]
    arrays = [a for name, x in vars(obj).items() for a in _arrays(name, x)]
    assert HELD[owner] <= {name for name, _ in arrays}
    for name, a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            np.copyto(a, a.copy())
