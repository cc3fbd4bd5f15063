"""One test per acceptance criterion, at the stated tolerance (exact) and
runtime limit.  Each prints a single pass/fail line; run with -s to see them.
"""

import ast
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import zsl
from zsl import certify

CRITERIA = {name: (fn, limit) for name, fn, limit in certify.CRITERIA}


def _run(name):
    fn, limit = CRITERIA[name]
    start = time.monotonic()
    try:
        details = fn()
    except Exception:
        print(f"FAIL {name}")
        raise
    elapsed = time.monotonic() - start
    line = f"PASS {name} ({elapsed:.2f}s, limit {limit:.0f}s)"
    print(line)
    assert elapsed <= limit, f"{name} exceeded its runtime limit: {elapsed:.1f}s"
    return details


def test_criterion_01_rank2_hypercube():
    details = _run("01-rank2-hypercube")
    assert details["davenport"] == 3
    assert details["elementary_davenport"] == 3
    assert details["max_catenary"] == 3
    assert details["max_tame"] == 3


def test_criterion_02_rank3_hypercube():
    details = _run("02-rank3-hypercube")
    assert details["davenport"] == 5
    assert details["length5_atoms"] == 8
    assert details["catenary_witness"] == 5
    assert details["u2"] == [2, 3, 4, 5]
    assert details["rho4"] == 10
    assert details["rho5"] == 11


def test_criterion_03_fibonacci_witnesses():
    details = _run("03-fibonacci-witnesses")
    assert details["atom_lengths"] == {1: 2, 2: 3, 3: 5, 4: 8, 5: 13, 6: 21}


def test_criterion_04_davenport_equals_elementary():
    details = _run("04-davenport-equals-elementary")
    assert details["values"] == {2: 3, 3: 5}


def test_criterion_05_upper_bounds_and_decomposition():
    details = _run("05-upper-bounds-and-decomposition")
    assert details["samples_per_rank"] == 100
    assert details["bounds"][3]["hadamard"] == 27


def test_criterion_06_atom_multiplicity_gap():
    details = _run("06-atom-multiplicity-gap")
    assert details["atoms_checked"][2] == 2
    assert details["atoms_checked"][3] == 34


def test_criterion_07_finitely_primary_rank1():
    details = _run("07-finitely-primary-rank1")
    groups = details["groups"]
    assert groups["trivial"]["factorial"]
    for name in ("Z/2", "Z/3", "Z/2+Z/2"):
        assert not groups[name]["factorial"]
        assert groups[name]["catenary"] == 2
        assert groups[name]["tame"] == 2


def test_criterion_08_unit_pinned_product():
    details = _run("08-unit-pinned-product")
    assert details["theta_splits"] > 50
    assert details["catenary_elements"] >= 50


def test_criterion_09_almost_constant_monoid():
    details = _run("09-almost-constant-monoid")
    assert details["atoms"] == 12
    assert details["tame"] == 5
    assert details["one_tower_group"] == "Z/2"


def test_criterion_10_tower_data_monoids():
    details = _run("10-tower-data-monoids")
    assert details["two_towers_tame"] == 5
    assert details["dedekind_factorial"]


def test_criterion_11_oracle_equivalence():
    details = _run("11-oracle-equivalence")
    assert details["ground_sets"] == 30
    assert details["omega_atoms_checked"] >= 20


def test_certify_suite_all_green():
    results = certify.run_suite()
    assert len(results) == 11
    for res in results:
        assert res.passed, f"{res.name}: {res.error}"


# criterion 01 with davenport patched to report 999; prints PASS or FAIL
PATCHED_CRITERION_01 = """
import dataclasses
from zsl import certify
real = certify.davenport
certify.davenport = lambda *a, **kw: dataclasses.replace(real(*a, **kw), value=999)
(result,) = certify.run_suite(["01"])
print("PASS" if result.passed else "FAIL", result.error)
"""


def test_failed_check_still_fails_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(zsl.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", PATCHED_CRITERION_01], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.startswith("FAIL AssertionError")


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no check may rest on one
    for path in sorted(Path(zsl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert statements at lines {lines}"


def test_no_unused_imports_in_the_package():
    # a deletion must not leave its imports behind; the package __init__
    # imports only to re-export, so it is exempt
    for path in sorted(Path(zsl.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = {name: line for name, line in imported.items() if name not in used}
        assert not unused, f"{path.name}: unused imports {unused}"


# public names that nothing else in the package needs, each kept on purpose
UNREFERENCED_ON_PURPOSE = {
    "is_elementary_by_search": "the direct-search oracle the tests check is_elementary against",
    "distance": "the catenary definition the tests compare the spanning-tree route with",
    "tau": "perfbench wraps and calls it",
}


def test_every_public_name_is_used_in_the_package():
    # a public top-level function or class that no other code in the package
    # names is reached by the tests alone; the package __init__ only
    # re-exports, so its imports count for nothing
    defined = {}
    referenced = set()
    for path in sorted(Path(zsl.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                own = top.name
                defined[own] = path.name
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names = {node.id}
                elif isinstance(node, ast.Attribute):
                    names = {node.attr}
                elif isinstance(node, ast.ImportFrom):
                    names = {alias.name for alias in node.names}
                else:
                    continue
                referenced |= names - {own}  # a recursive call is no use elsewhere
    unreferenced = {name: module for name, module in defined.items()
                    if name not in referenced and name not in UNREFERENCED_ON_PURPOSE}
    assert not unreferenced, f"public names only the tests reach: {unreferenced}"
    assert set(UNREFERENCED_ON_PURPOSE) <= set(defined)
