"""Named desk-scale certification checks, shared by the CLI and the tests.

Each check recomputes one bundle of closed-form values from scratch and
raises on the first discrepancy; the runner turns raised errors into FAIL
lines.  Seeds are fixed so every run replays the same samples.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .atoms import (
    brute_force_atoms,
    davenport,
    davenport_upper_bounds,
    elementary_davenport,
    ell_bound,
    enumerate_atoms,
    rational_elementary_decomposition,
)
from .constructions import fibonacci_witness, hypercube_pm, r3_extremal_atoms
from .ground import GroundSet, RationalSequence, Sequence, _require
from .invariants import (
    block_monoid,
    catenary_element,
    elements_up_to,
    factorizations,
    omega,
    set_of_lengths,
    tame_degree,
    union_of_lengths,
)
from .models import (
    AcmModel,
    AcmSpec,
    FiniteAbelianGroup,
    MonextModel,
    TowerData,
    acm_class_group,
    acm_report,
    fp_rank1_invariants,
    hnp_report,
    monext_catenary,
    monext_invariants,
    monext_theta_check,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    seconds: float
    details: dict
    error: str | None = None


def check_rank2_hypercube() -> dict:
    """Complete atoms, Davenport constant, catenary and tame degree at rank 2."""
    ground = hypercube_pm(2)
    atom_set = enumerate_atoms(ground)
    _require(atom_set.complete)
    dav = davenport(atom_set)
    _require(dav.value == 3 and dav.exact)
    _require(elementary_davenport(ground, "both") == 3)
    monoid = block_monoid(atom_set)
    max_c = max(catenary_element(monoid, x) for x in sorted(elements_up_to(monoid, 4)))
    _require(max_c == 3)
    max_t = max(tame_degree(monoid, i) for i in range(monoid.atom_count))
    _require(max_t == 3)
    return {"davenport": 3, "elementary_davenport": 3, "max_catenary": max_c,
            "max_tame": max_t, "certifies": "catenary-tame-davenport-agree-rank2"}


def check_rank3_hypercube() -> dict:
    """Davenport constant 5, the eight longest atoms, and the length unions."""
    ground = hypercube_pm(3)
    atom_set = enumerate_atoms(ground)
    _require(atom_set.complete)
    _require(davenport(atom_set).value == 5)
    listed = set()
    for v in r3_extremal_atoms():
        listed.add(v.mult)
        listed.add(v.negated().mult)
    length5 = {a.mult for a in atom_set.atoms if a.length == 5}
    _require(listed == length5 and len(listed) == 8)
    monoid = block_monoid(atom_set)
    v1 = r3_extremal_atoms()[0]
    x = (v1 * v1.negated()).mult
    _require(set_of_lengths(monoid, x) == (2, 5))
    _require(catenary_element(monoid, x) == 5)
    u2 = union_of_lengths(monoid, 2, "exhaustive")
    _require(sorted(u2.values) == [2, 3, 4, 5])
    _require(u2.rho == 5)
    u4 = union_of_lengths(monoid, 4, "extremes")
    _require(u4.rho == 10)
    u5 = union_of_lengths(monoid, 5, "extremes")
    _require(u5.rho == 11)
    return {"davenport": 5, "length5_atoms": 8, "catenary_witness": 5,
            "u2": sorted(u2.values), "rho4": 10, "rho5": 11,
            "certifies": "rank3-davenport-and-length-unions"}


def check_fibonacci_witnesses() -> dict:
    """Verified diagonal-stack witnesses for ranks 1 through 6."""
    lengths = {}
    for r in range(1, 7):
        w = fibonacci_witness(r)
        _require(w.verified)
        _require(w.stack.length == w.fib[r + 1])
        _require(w.stack.sum_vector() == (w.fib[r],) * r)
        _require(w.atom.length == w.fib[r + 2])
        _require(w.atom.is_zero_sum())
        lengths[r] = w.atom.length
    _require(lengths == {1: 2, 2: 3, 3: 5, 4: 8, 5: 13, 6: 21})
    return {"atom_lengths": lengths, "certifies": "fibonacci-davenport-lower-bounds"}


def check_davenport_equals_elementary() -> dict:
    """Davenport constant equals its elementary variant at ranks 2 and 3."""
    out = {}
    for r in (2, 3):
        ground = hypercube_pm(r)
        d = davenport(enumerate_atoms(ground)).value
        delm = elementary_davenport(ground, "both")
        _require(d == delm)
        out[r] = d
    return {"values": out, "certifies": "elementary-davenport-exhausts-davenport"}


def _random_rational_zero_sum(ground, atom_list, rng) -> RationalSequence:
    total = Sequence.empty(ground).rational()
    for _ in range(rng.randint(1, 3)):
        atom = atom_list[rng.randrange(len(atom_list))]
        alpha = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        total = total * atom.rational().scaled(alpha)
    for i in ground.plus_indices:
        j = ground.neg_index[i]
        if j is not None and rng.random() < 0.25:
            m = Fraction(rng.randint(1, 3), rng.randint(1, 3))
            mult = list(total.mult)
            mult[i] += m
            mult[j] += m
            total = RationalSequence(ground, tuple(mult))
    return total


def check_upper_bounds_and_decomposition() -> dict:
    """Every certified upper bound dominates the exact value; the greedy
    elementary decomposition reconstructs 100 random rational zero-sums per
    rank within its part bound."""
    out = {}
    for r in (2, 3):
        ground = hypercube_pm(r)
        atom_set = enumerate_atoms(ground)
        d = davenport(atom_set).value
        report = davenport_upper_bounds(ground, atom_set)
        for key in ("snf_G0", "snf_G1", "hadamard", "dgs", "elm_product"):
            _require(report[key] is not None and report[key] >= d, (key, report[key], d))
        rng = random.Random(1000 + r)
        for _ in range(100):
            s = _random_rational_zero_sum(ground, atom_set.atoms, rng)
            _require(s.is_zero_sum())
            dec = rational_elementary_decomposition(s)
            _require(dec.reassemble() == s)
            _require(dec.ell <= ell_bound(s))
        out[r] = {k: report[k] for k in ("snf_G0", "snf_G1", "hadamard", "dgs",
                                         "elm_product")}
    return {"bounds": out, "samples_per_rank": 100,
            "certifies": "davenport-upper-bounds-and-elementary-decomposition"}


def check_atom_multiplicity_gap() -> dict:
    """No atom of length >= 3 over a signed hypercube repeats one vertex for
    half its length (exhaustive at ranks 2 and 3)."""
    counts = {}
    for r in (2, 3):
        atom_set = enumerate_atoms(hypercube_pm(r))
        _require(atom_set.complete)
        checked = 0
        for a in atom_set.atoms:
            if a.length < 3:
                continue
            _require(2 * max(a.mult) < a.length)
            checked += 1
        counts[r] = checked
    return {"atoms_checked": counts, "certifies": "vertex-multiplicity-below-half-length"}


def check_finitely_primary_rank1() -> dict:
    """Half-factorial with catenary = tame = 2 for nontrivial class groups."""
    results = {}
    for name, factors in (("trivial", []), ("Z/2", [2]), ("Z/3", [3]),
                          ("Z/2+Z/2", [2, 2])):
        group = FiniteAbelianGroup.from_factors(factors)
        report = fp_rank1_invariants(group, budget=6)
        _require(report["half_factorial"])
        _require(report["factorial"] == group.is_trivial)
        if not group.is_trivial:
            _require(report["catenary"] == 2 and report["tame"] == 2)
        results[name] = {"factorial": report["factorial"],
                         "catenary": report["catenary"], "tame": report["tame"]}
    return {"groups": results, "certifies": "rank1-primary-catenary-tame-two"}


def check_unit_pinned_product() -> dict:
    """Transfer projection, atom invariants and catenary classification for
    the signed rank-2 hypercube monoid extended by an order-2 class group."""
    h0 = block_monoid(enumerate_atoms(hypercube_pm(2)))
    group = FiniteAbelianGroup.from_factors([2])
    model = MonextModel(h0, group=group)
    theta = monext_theta_check(model, samples=200, seed=42)
    _require(theta["passed"])
    for i in range(h0.atom_count):
        for d in group.elements():
            inv = monext_invariants(model, i, d)
            _require(inv["formula"] == inv["oracle"])
    classified = 0
    for x in sorted(elements_up_to(h0, 3)):
        zs = factorizations(h0, x)
        if not zs or max(map(sum, zs)) < 2:
            continue
        for d in group.elements():
            out = monext_catenary(model, x, d, zs)
            _require(out["observed"] == out["predicted"])
            classified += 1
        if classified >= 50:
            break
    _require(classified >= 50)
    return {"theta_splits": theta["splits"], "atoms_checked": 2 * h0.atom_count,
            "catenary_elements": classified,
            "certifies": "class-coordinate-product-transfer-and-invariants"}


ACM_SPEC = AcmSpec(5, (Fraction(1), Fraction(1), Fraction(1),
                       Fraction(3, 2), Fraction(3, 2)), ((1, 2), (3, 4)))
ACM_SPEC_N1 = AcmSpec(3, (Fraction(1), Fraction(1), Fraction(1)), ((1, 2),))


def check_almost_constant_monoid() -> dict:
    """Atom count, half-factoriality, tame degree and class group of the
    two-tower spec with weight sums 2 and 3, plus the one-tower class group."""
    report = acm_report(ACM_SPEC, level_budget=4)
    _require(report["atom_count"] == 12)
    _require(report["half_factorial"])
    _require(report["max_catenary_observed"] <= 2)
    _require(report["tame"] == 5 and report["omega"] == 5)
    cg = report["class_group"]
    _require(cg["free_rank"] == 1 and cg["invariant_factors"] == [])
    images = {tuple(c["image"]): c["prime_divisors"]
              for c in cg["classes_with_prime_divisors"]}
    _require(images == {(3,): 2, (-2,): 2})
    model = AcmModel(ACM_SPEC)
    idx = model.atoms.index((1, 2, 0, 3, 0))
    _require(omega(model.presented(), idx, "minimal-cover") == 5)
    n1 = acm_class_group(AcmModel(ACM_SPEC_N1))
    _require(n1["group"] == "Z/2")
    (cls,) = n1["classes_with_prime_divisors"]
    _require(cls["prime_divisors"] == 2)
    return {"atoms": 12, "tame": 5, "class_group_rank": 1,
            "one_tower_group": "Z/2",
            "certifies": "tower-constrained-monoid-arithmetic"}


def check_tower_data_monoids() -> dict:
    """Composed model: two cycle towers give tame degree 5; the towerless
    trivial-class-group case is factorial."""
    td = TowerData.from_json({
        "udim": 1,
        "cycle_towers": [{"ranks": [1, 1]}, {"ranks": [2, 1]}],
        "faithful_towers": [],
        "class_group": [],
    })
    report = hnp_report(td)
    _require(report["tame"] == report["omega"] == 5)
    _require(report["half_factorial"] and not report["factorial"])
    dedekind = TowerData.from_json({
        "udim": 1, "cycle_towers": [], "faithful_towers": [], "class_group": [],
    })
    report2 = hnp_report(dedekind)
    _require(report2["factorial"])
    return {"two_towers_tame": report["tame"], "dedekind_factorial": True,
            "certifies": "stable-class-monoid-tame-degree"}


def check_oracle_equivalence() -> dict:
    """Atom enumeration against the exhaustive oracle on thirty random ground
    sets, and both omega modes against each other wherever both complete."""
    rng = random.Random(31415)
    grounds = 0
    while grounds < 30:
        r = rng.randint(1, 3)
        n = rng.randint(2, min(8, 7 ** r - 1))
        elems: set[tuple[int, ...]] = set()
        while len(elems) < n:
            elems.add(tuple(rng.randint(-3, 3) for _ in range(r)))
        ground = GroundSet.from_elements(r, sorted(elems))
        fast = [a.mult for a in enumerate_atoms(ground, budget=7).atoms
                if a.length <= 7]
        slow = [a.mult for a in brute_force_atoms(ground, 7)]
        _require(fast == slow, ground.elements)
        grounds += 1
    monoids = [block_monoid(enumerate_atoms(hypercube_pm(2))),
               AcmModel(ACM_SPEC).presented()]
    rng2 = random.Random(14142)
    built = 0
    while built < 4:
        n = rng2.randint(2, 6)
        elems = set()
        while len(elems) < n:
            elems.add((rng2.randint(-3, 3), rng2.randint(-3, 3)))
        ground = GroundSet.from_elements(2, sorted(elems))
        atom_set = enumerate_atoms(ground, budget=6)
        if not atom_set.complete or not atom_set.atoms:
            continue
        monoids.append(block_monoid(atom_set))
        built += 1
    atoms_checked = 0
    for monoid in monoids:
        for i in range(monoid.atom_count):
            _require(omega(monoid, i, "minimal-cover")
                     == omega(monoid, i, "definition-budget"))
            atoms_checked += 1
    return {"ground_sets": grounds, "omega_atoms_checked": atoms_checked,
            "certifies": "enumeration-and-omega-oracle-equivalence"}


CRITERIA: list[tuple[str, object, float]] = [
    ("01-rank2-hypercube", check_rank2_hypercube, 1.0),
    ("02-rank3-hypercube", check_rank3_hypercube, 300.0),
    ("03-fibonacci-witnesses", check_fibonacci_witnesses, 30.0),
    ("04-davenport-equals-elementary", check_davenport_equals_elementary, 300.0),
    ("05-upper-bounds-and-decomposition", check_upper_bounds_and_decomposition, 60.0),
    ("06-atom-multiplicity-gap", check_atom_multiplicity_gap, 60.0),
    ("07-finitely-primary-rank1", check_finitely_primary_rank1, 60.0),
    ("08-unit-pinned-product", check_unit_pinned_product, 120.0),
    ("09-almost-constant-monoid", check_almost_constant_monoid, 30.0),
    ("10-tower-data-monoids", check_tower_data_monoids, 60.0),
    ("11-oracle-equivalence", check_oracle_equivalence, 300.0),
]


def _select(names: list[str] | None) -> list[tuple[str, object, float]]:
    """The criteria named in ``names`` by full name or number, in suite
    order; all of them for None.  A ValueError names every entry of
    ``names`` that matches no criterion."""
    if not names:
        return CRITERIA
    known = {key for name, _, _ in CRITERIA for key in (name, name.split("-")[0])}
    unmatched = [x for x in names if x not in known]
    if unmatched:
        raise ValueError(f"no criteria match {', '.join(map(repr, unmatched))}")
    return [c for c in CRITERIA if c[0] in names or c[0].split("-")[0] in names]


def run_suite(names: list[str] | None = None) -> list[CheckResult]:
    results = []
    for name, fn, limit in _select(names):
        start = time.monotonic()
        try:
            details = fn()
            elapsed = time.monotonic() - start
            passed = elapsed <= limit
            error = None if passed else f"runtime {elapsed:.1f}s exceeded {limit:.0f}s"
            results.append(CheckResult(name, passed, elapsed, details, error))
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            elapsed = time.monotonic() - start
            results.append(CheckResult(name, False, elapsed, {}, f"{type(exc).__name__}: {exc}"))
    return results
