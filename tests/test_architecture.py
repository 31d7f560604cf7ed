import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import latcensus

PACKAGE = Path(latcensus.__file__).parent


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("latcensus"):
                continue
            offenders += [
                f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert offenders == []


def _imported_names(module_file):
    """Every module a package file imports, and each ``module.name`` it
    imports from one."""
    imported = []
    for node in ast.walk(ast.parse((PACKAGE / module_file).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported += [module] + [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    return imported


def test_structure_classifies_without_canonical_forms():
    """``classify`` reads shapes off the glued blocks' element and cover
    counts, so ``structure`` imports nothing from ``canon``."""
    imported = _imported_names("structure.py")
    assert not [name for name in imported if "canon" in name.split(".")], imported


def _size_limit_raises(node):
    return [
        sub for sub in ast.walk(node)
        if isinstance(sub, ast.Raise) and sub.exc is not None
        and "SizeLimit" in {n.id for n in ast.walk(sub.exc) if isinstance(n, ast.Name)}
    ]


def test_size_limits_live_in_one_table_with_one_refusal():
    """Only core.py assigns a module-level ``*_LIMIT`` name, and the only
    ``raise SizeLimit`` in the package is the one in ``core.check_size``."""
    limits, raises = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                limits += [
                    f"{path.name}: {t.id}" for t in targets
                    if isinstance(t, ast.Name) and t.id.endswith("_LIMIT")
                ]
            raises += [
                f"{path.name}: {getattr(node, 'name', '<module>')}"
                for _ in _size_limit_raises(node)
            ]
    assert limits and all(entry.startswith("core.py: ") for entry in limits), limits
    assert raises == ["core.py: check_size"]


LATBENCH = Path(__file__).resolve().parent.parent / "latbench"


def _latcensus_chains(tree):
    """Dotted ``latcensus.a.b`` chains in a module, each marked True when it
    is called."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    chains = {}
    for node in ast.walk(tree):
        parts, inner = [], node
        while isinstance(inner, ast.Attribute):
            parts.append(inner.attr)
            inner = inner.value
        if parts and isinstance(inner, ast.Name) and inner.id == "latcensus":
            chain = ".".join(reversed(parts))
            chains[chain] = chains.get(chain, False) or id(node) in called
    return chains


def test_benchmark_hooks_resolve_in_the_package(monkeypatch):
    """latbench traces layers by (module, attribute) and calls the package
    by name; a name that no longer resolves would blind a metric or break a
    run, so it fails here first."""
    monkeypatch.syspath_prepend(str(LATBENCH))
    tracer = importlib.import_module("tracer")
    for span, (module, attr) in tracer.TARGETS.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), span
    for script in ("selftest.py", "worker.py"):
        chains = _latcensus_chains(ast.parse((LATBENCH / script).read_text(encoding="utf-8")))
        assert chains, script
        for chain, is_called in chains.items():
            obj = latcensus
            for attr in chain.split("."):
                assert hasattr(obj, attr), f"{script}: latcensus.{chain}"
                obj = getattr(obj, attr)
            assert callable(obj) or not is_called, f"{script}: latcensus.{chain}"


# The lookup ``Tracer.install`` makes once the worker's set-up is done: a
# module absent from ``sys.modules`` then, or one first imported inside a
# command, would leave its targets untraced.
_TRACER_PROBE = """
import json, sys
import latcensus.cli
latcensus.cli.build_parser()
import tracer
print(json.dumps([
    span for span, (module, attr) in tracer.TARGETS.items()
    if sys.modules.get(module) is None or not callable(getattr(sys.modules[module], attr, None))
]))
"""


def test_tracer_targets_are_in_sys_modules_after_set_up():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), str(LATBENCH), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _TRACER_PROBE], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# ``latcensus.__all__``, pinned so that loading a module lazily drops no public name
PUBLIC_NAMES = [
    "BadIndexOrder", "CHAIN", "CensusRecord", "Classification", "ExpressionError",
    "GLUED_B4", "GLUED_N5", "GluedDecomposition", "IndexOutOfRange", "Lattice",
    "LatticeError", "NotALattice", "OTHER", "SizeLimit", "SizeTooSmall", "SpectrumReport",
    "UnknownName", "Verdict", "bit_indices", "build_expression", "canon",
    "canonical_form", "canonical_lattice", "census", "census_jsonl", "census_records",
    "chain", "classify", "congruence", "core", "count_congruences", "count_congruences_naive",
    "count_subuniverses", "count_subuniverses_naive", "decompose_glued_sum", "direct_product",
    "doubly_irreducibles", "enumerate_lattices", "enumerate_subuniverses", "find_antichain",
    "from_covers", "glued_cuts", "glued_sum", "is_chain", "is_subuniverse",
    "isolated_edges", "isolated_elements", "join_irreducible_congruences", "mask_of", "named",
    "principal_congruence", "run_checks", "spectrum", "structure", "sublattice",
    "subuniverse", "verify", "verify_antichain_bound", "verify_congruence_spectrum",
    "verify_gap", "verify_top_three",
]


def test_package_exports_are_pinned_and_resolve():
    assert sorted(latcensus.__all__) == PUBLIC_NAMES
    namespace = {}
    exec("from latcensus import *", namespace)
    listed = set(dir(latcensus))
    for name in PUBLIC_NAMES:
        value = getattr(latcensus, name)
        assert namespace[name] is value, name
        assert name in listed, name
    # a lazy re-export is the defining module's current attribute
    assert latcensus.census_records is latcensus.census.census_records
    assert latcensus.canonical_form is latcensus.canon.canonical_form
    assert not hasattr(latcensus, "no_such_name")


def _uses_outside_own_definition(tree):
    """Every identifier a module reads, imports or looks up as an attribute,
    or spells as a whole string constant (as the tracer's targets do),
    outside the top-level statement that defines that identifier."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined = {stmt.name}
        else:
            defined = {
                node.id for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            }
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name not in defined:
                yield name


def test_every_export_is_used_outside_tests():
    """Each function, class and constant in ``latcensus.__all__`` is used by
    a package module other than ``__init__.py``, outside its own
    definition, or by the benchmark; a name only the tests use belongs in
    ``tests/oracles.py``."""
    files = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    files += LATBENCH.glob("*.py")
    used = {
        name for path in files
        for name in _uses_outside_own_definition(ast.parse(path.read_text(encoding="utf-8")))
    }
    exported = [
        name for name in latcensus.__all__
        if not isinstance(getattr(latcensus, name), types.ModuleType)
    ]
    assert len(exported) > 50
    assert [name for name in exported if name not in used] == []


def test_congruence_counts_have_one_source():
    """Only census.py builds a ``CensusRecord`` or rebuilds one with
    ``replace`` or ``._replace``, so every ``con_count`` comes from the
    census's own analysis; congruence.py imports nothing from ``census`` or
    ``verify``."""
    builders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute) and (
                func.attr in ("CensusRecord", "_replace")
                or isinstance(func.value, ast.Name) and func.value.id == "dataclasses"
            ):
                name = func.attr
            else:
                continue  # str.replace and other methods
            if name in ("CensusRecord", "replace", "_replace"):
                builders.append(f"{path.name}: {name}")
    assert builders and all(entry.startswith("census.py: ") for entry in builders), builders
    imported = _imported_names("congruence.py")
    assert not [
        name for name in imported if {"census", "verify"} & set(name.split("."))
    ], imported


def test_enumeration_is_the_only_scan_over_subuniverses():
    """``enumerate_subuniverses`` visits each subuniverse by its nested
    ``rec``, the only recursion in subuniverse.py; no ``_scan`` remains,
    neither ``count_subuniverses``, its truth-table and frontier paths, nor
    ``core.truth_tables`` reach either, and no function in the package takes
    a callback on a mask."""
    funcs = [
        node for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    ]
    assert "_scan" not in {func.name for func in funcs}
    tree = ast.parse((PACKAGE / "subuniverse.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    calls = {name: {node.func.id for node in ast.walk(func) if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)} for name, func in defs.items()}
    assert [name for name in defs if name in calls[name]] == ["rec"]
    assert any(node is defs["rec"] for node in ast.walk(defs["enumerate_subuniverses"]))
    assert not {"_scan", "enumerate_subuniverses", "rec"} & calls["count_subuniverses"]
    assert {"_count_by_tables", "_count_by_frontier"} <= calls["count_subuniverses"]
    for name in ("_count_by_tables", "_count_by_frontier"):
        assert not {"_scan", "enumerate_subuniverses", "rec"} & calls[name], name
    core = ast.parse((PACKAGE / "core.py").read_text(encoding="utf-8"))
    (tables,) = [node for node in ast.walk(core)
                 if isinstance(node, ast.FunctionDef) and node.name == "truth_tables"]
    assert not {"_scan", "enumerate_subuniverses", "rec"} & {
        node.func.id for node in ast.walk(tables)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    callbacks = [
        f"{func.name}({arg.arg})" for func in funcs for arg in func.args.args + func.args.kwonlyargs
        if arg.annotation and ast.unparse(arg.annotation).strip("'\"").startswith("Callable[[int]")
    ]
    assert callbacks == []


def test_structure_imports_from_core_only():
    """``structure`` reads orders, covers and glued cuts; it imports no
    other sibling, in particular no subuniverse scan."""
    siblings = {path.stem for path in PACKAGE.glob("*.py")} | {"latcensus"}
    imported = {name.lstrip(".").split(".")[0] for name in _imported_names("structure.py")}
    assert imported & siblings == {"core"}


def _identifiers(tree):
    """Every name a module imports, binds, reads or looks up as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.rsplit(".", 1)[-1]


def test_lattices_hold_their_six_rows_and_cache_nothing():
    """No module imports ``cached_property`` or names ``lower_covers`` or
    ``upper_covers``, and no built ``Lattice`` has a ``__dict__``."""
    offenders = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _identifiers(ast.parse(path.read_text(encoding="utf-8")))
        if name in ("cached_property", "lower_covers", "upper_covers")
    ]
    assert offenders == []
    core = latcensus.core
    built = [
        core.named("B8"), core.chain(3), core.build_expression("(C2xC3)+N5"),
        core.sublattice(core.named("B4"), 0b1011), latcensus.canonical_lattice(b"\x02\x00\x01"),
    ]
    for lat in built:
        assert not hasattr(lat, "__dict__"), lat
        assert len(lat) == len(core.Lattice._fields) == 6


def _cover_derivations(func):
    """Statements in a loop over a ``covers`` list that fill per-element
    slots: an augmented assignment to a subscript, an assignment of a shift
    to one, or an ``append`` on one."""
    found = []
    for loop in ast.walk(func):
        if not isinstance(loop, ast.For) or not any(
            isinstance(node, ast.Name) and node.id == "covers"
            or isinstance(node, ast.Attribute) and node.attr == "covers"
            for node in ast.walk(loop.iter)
        ):
            continue
        for node in ast.walk(loop):
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript):
                found.append(ast.unparse(node))
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Subscript) for target in node.targets
            ) and any(
                isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.LShift)
                for sub in ast.walk(node.value)
            ):
                found.append(ast.unparse(node))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
                node.func.attr == "append" and isinstance(node.func.value, ast.Subscript)
            ):
                found.append(ast.unparse(node))
    return found


def _functions(module_file):
    tree = ast.parse((PACKAGE / module_file).read_text(encoding="utf-8"))
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_per_element_covers_come_from_cover_masks_only():
    """``core.cover_masks`` is the one routine that turns cover pairs into
    per-element covers: ``canon``, ``census``, ``structure`` and
    ``core.direct_product`` call it and derive none of their own."""
    core = _functions("core.py")
    assert _cover_derivations(core["cover_masks"])  # the scan sees the one routine
    scanned = {"core.py: direct_product": core["direct_product"]}
    for module_file in ("canon.py", "census.py", "structure.py"):
        scanned.update(
            (f"{module_file}: {name}", func) for name, func in _functions(module_file).items()
        )
    offenders = {name: found for name, func in scanned.items() if (found := _cover_derivations(func))}
    assert offenders == {}
    for name in (
        "canon.py: canonical_form", "census.py: _augmentations",
        "structure.py: doubly_irreducibles", "core.py: direct_product",
    ):
        calls = {
            node.func.id for node in ast.walk(scanned[name])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert "cover_masks" in calls, name
