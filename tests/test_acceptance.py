"""One test per acceptance criterion, at the stated tolerance (exact) and
runtime limit.  Each prints a single pass/fail line; run with -s to see them.
"""

import ast
import os
import subprocess
import symtable
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


def test_criterion_09_builds_and_searches_each_model_once(monkeypatch):
    # acm_report's model and the one-tower model; one minimal-cover search
    # per atom of the first, and none repeated for the extremal atom
    from zsl import invariants, models

    built, searched = [], []
    build, search = models.AcmModel.__init__, invariants._covers

    def counted_build(model, spec):
        built.append(spec)
        build(model, spec)

    def counted_search(monoid, atom_index):
        searched.append(atom_index)
        return search(monoid, atom_index)

    monkeypatch.setattr(models.AcmModel, "__init__", counted_build)
    monkeypatch.setattr(invariants, "_covers", counted_search)
    certify.check_almost_constant_monoid()
    assert built == [certify.ACM_SPEC, certify.ACM_SPEC_N1]
    assert sorted(searched) == list(range(12))


def test_criterion_10_tower_data_monoids():
    details = _run("10-tower-data-monoids")
    assert details["two_towers_tame"] == 5
    assert details["dedekind_factorial"]


def test_criterion_11_oracle_equivalence():
    details = _run("11-oracle-equivalence")
    assert details["ground_sets"] == 30
    assert details["omega_atoms_checked"] >= 20


def _one_atom_short(real):
    return lambda ground, max_length: real(ground, max_length)[:-1]


def _omega_oracle_one_less(real):
    def skewed(monoid, atom_index, mode="minimal-cover"):
        value = real(monoid, atom_index, mode)
        return value - 1 if mode == "definition-budget" else value
    return skewed


@pytest.mark.parametrize("name, skew", [("brute_force_atoms", _one_atom_short),
                                        ("omega", _omega_oracle_one_less)])
def test_oracle_gate_fails_on_a_skewed_oracle(monkeypatch, name, skew):
    monkeypatch.setattr(certify, name, skew(getattr(certify, name)))
    (result,) = certify.run_suite(["11"])
    assert not result.passed
    assert result.error.startswith("AssertionError")


def test_check_results_compare_but_do_not_hash():
    result = certify.CheckResult("01", True, 0.5, {}, None)
    assert result == certify.CheckResult("01", True, 0.5, {}, None)
    with pytest.raises(TypeError, match="unhashable"):
        hash(result)


def test_certify_suite_all_green():
    results = certify.run_suite()
    assert len(results) == 11
    for res in results:
        assert res.passed, f"{res.name}: {res.error}"


# criterion 01 with davenport patched to report 999; prints PASS or FAIL
PATCHED_CRITERION_01 = """
from zsl import certify
from zsl.atoms import DavenportResult
real = certify.davenport

def patched(*a, **kw):
    r = real(*a, **kw)
    return DavenportResult(999, r.exact, r.witnesses)

certify.davenport = patched
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
    # a deletion must not leave its imports behind
    for path in sorted(Path(zsl.__file__).parent.glob("*.py")):
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


def _names_nothing_uses(sources: dict[str, str]) -> dict[str, str]:
    """The public top-level functions and classes, and the public methods
    and properties of the top-level classes, that nothing else in the given
    modules (name -> source) uses, each mapped to its module.

    A top-level name counts as used by a load that resolves to the module
    global (by symtable, so a local or a parameter of the same name does
    not count), either where it is defined or where a sibling module binds
    it with ``from .module import name``, at the top or inside a function;
    a load inside its own definition (a recursive call) does not count.  A method counts as used by an
    attribute load of its name outside its own body: without types, any
    receiver may be its class.
    """
    defined: dict[str, str] = {}
    methods: list[tuple[str, str, ast.FunctionDef]] = []
    attribute_loads: list[tuple[str, set[int]]] = []  # (attr, ids of enclosing defs)
    origin: dict[tuple[str, str], tuple[str, str]] = {}  # import binding -> definition
    loads: set[tuple[str, str]] = set()  # (module, global name) loaded outside its own def

    def visit(node, enclosing):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attribute_loads.append((node.attr, enclosing))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {id(node)}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    def global_loads(module, table, owner):
        for symbol in table.get_symbols():
            bound = table.get_type() == "module" or symbol.is_global() or symbol.is_imported()
            if symbol.is_referenced() and bound and symbol.get_name() != owner:
                loads.add((module, symbol.get_name()))
        for child in table.get_children():
            global_loads(module, child, child.get_name() if owner is None else owner)

    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    origin[module, alias.asname or alias.name] = (node.module or "__init__",
                                                                  alias.name)
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not top.name.startswith("_"):
                defined[top.name] = module
            if isinstance(top, ast.ClassDef):
                methods += [(module, f"{top.name}.{item.name}", item) for item in top.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
        visit(tree, set())
        global_loads(module, symtable.symtable(source, module, "exec"), None)

    used = set()
    for binding in loads:
        while binding in origin:
            binding = origin[binding]
        used.add(binding)
    unused = {name: module for name, module in defined.items() if (module, name) not in used}
    for module, label, node in methods:
        if not any(attr == node.name and id(node) not in enclosing
                   for attr, enclosing in attribute_loads):
            unused[label] = module
    return unused


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(Path(zsl.__file__).parent.glob("*.py"))}


# public names that nothing else in the package needs, each kept on purpose
UNREFERENCED_ON_PURPOSE = {
    "is_elementary_by_search": "the direct-search oracle the tests check is_elementary against",
    "distance": "the catenary definition the tests compare the threshold-growth route with",
    "tau": "perfbench wraps and calls it",
    "exists_length": "perfbench wraps it and checks every query's set of lengths with it",
    "circuit_length": "perfbench wraps it",
    "PresentedMonoid.divides": "perfbench counts its calls; the tests' literal replays divide with it",
}


def test_every_public_name_is_used_in_the_package():
    # a public function, class, method or property that no other code in the
    # package uses is reached by the tests alone
    unused = _names_nothing_uses(_package_sources())
    assert set(unused) >= set(UNREFERENCED_ON_PURPOSE)
    unexpected = {name: module for name, module in unused.items()
                  if name not in UNREFERENCED_ON_PURPOSE}
    assert not unexpected, f"public names only the tests reach: {unexpected}"


PLANTED_FUNCTION = """

def planted_function():
    return planted_function()


def _shadows_the_planted_function(planted_function):
    return [planted_function for planted_function in planted_function]
"""
PLANTED_METHOD = """    def planted_method(self):
        return self.planted_method()
"""
LATE_IMPORT = """

def _imports_the_planted_function_late():
    from .{module} import planted_function
    return planted_function()
"""


@pytest.mark.parametrize("module", sorted(_package_sources()))
def test_used_name_check_reports_planted_names(module):
    # a method planted in a class of the module (in a new class where the
    # module has none) and a function that only it and same-named locals
    # mention are reported, even though their names occur elsewhere
    sources = _package_sources()
    lines = sources[module].splitlines(keepends=True)
    classes = [top for top in ast.parse(sources[module]).body if isinstance(top, ast.ClassDef)]
    if classes:
        cls = classes[0].name
        lines.insert(classes[0].end_lineno, PLANTED_METHOD)
    else:
        cls = "Planted"
        lines.append(f"\n\nclass Planted:\n{PLANTED_METHOD}")
    sources[module] = "".join(lines) + PLANTED_FUNCTION
    unused = _names_nothing_uses(sources)
    assert unused.get(f"{cls}.planted_method") == module
    assert unused.get("planted_function") == module
    # a sibling that imports and calls it inside a function uses it
    other = "cli" if module != "cli" else "certify"
    sources[other] += LATE_IMPORT.format(module="" if module == "__init__" else module)
    assert "planted_function" not in _names_nothing_uses(sources)
