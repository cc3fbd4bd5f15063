from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from zsl.atoms import enumerate_atoms
from zsl.constructions import hypercube_pm
from zsl.ground import GroundSet, Sequence
from zsl.invariants import (
    block_monoid,
    catenary_element,
    elements_up_to,
    factorizations,
    free_monoid,
    omega,
    set_of_lengths,
)
from zsl.models import (
    AcmModel,
    AcmSpec,
    FiniteAbelianGroup,
    MonextModel,
    TowerData,
    acm_class_group,
    acm_report,
    fp_rank1_invariants,
    hnp_monoid,
    hnp_report,
    monext_catenary,
    monext_invariants,
    monext_theta_check,
)

Z1 = FiniteAbelianGroup.from_factors([])
Z2 = FiniteAbelianGroup.from_factors([2])
Z3 = FiniteAbelianGroup.from_factors([3])
Z4 = FiniteAbelianGroup.from_factors([4])
Z22 = FiniteAbelianGroup.from_factors([2, 2])


def test_group_canonicalization():
    assert FiniteAbelianGroup.from_factors([2, 3]).factors == (6,)
    assert FiniteAbelianGroup.from_factors([2, 2]).factors == (2, 2)
    assert FiniteAbelianGroup.from_factors([1, 1]).is_trivial
    assert Z22.order() == 4
    assert Z2.add((1,), (1,)) == (0,)
    assert Z3.neg((1,)) == (2,)
    assert Z3.add(Z3.add((1,), (1,)), (1,)) == Z3.zero()  # (1,) has order 3


# ---------------------------------------------------------------------------
# finitely primary rank 1 / unit-pinned products
# ---------------------------------------------------------------------------


def test_fp_trivial_group_is_factorial():
    report = fp_rank1_invariants(Z1, budget=5)
    assert report["factorial"]
    assert report["half_factorial"]
    assert report["catenary"] == 0 and report["tame"] == 0


def test_fp_z2_half_factorial_c2_t2():
    report = fp_rank1_invariants(Z2, budget=6)
    assert report["half_factorial"] and not report["factorial"]
    assert report["catenary"] == 2 and report["tame"] == 2


def test_fp_z3_and_z22():
    for group in (Z3, Z22):
        report = fp_rank1_invariants(group, budget=5)
        assert report["half_factorial"] and not report["factorial"]
        assert report["catenary"] == 2 and report["tame"] == 2


def test_fp_budget_too_small():
    with pytest.raises(ValueError):
        fp_rank1_invariants(Z2, budget=2)


def test_monext_units_and_membership():
    model = MonextModel(free_monoid(1), group=Z2)
    assert model.is_member((0,), (0,))
    assert not model.is_member((0,), (1,))
    assert model.is_member((3,), (1,))


def test_monext_not_saturated_witness():
    # (1, d0) lies in the quotient and the ambient product, but not in H
    model = MonextModel(free_monoid(1), group=Z2)
    a, d0 = (1,), (1,)
    assert model.is_member(a, d0)
    assert model.is_member((2,), (1,))
    # (0, d0) = (a, d0) - (a, 0) elementwise: ambient member, not in H
    assert not model.is_member((0,), d0)


def test_monext_theta_trivial_d():
    model = MonextModel(block_monoid(enumerate_atoms(hypercube_pm(2))), group=Z1)
    out = monext_theta_check(model, samples=50, seed=3)
    assert out["passed"]


def test_monext_theta_block_monoid_z2():
    model = MonextModel(block_monoid(enumerate_atoms(hypercube_pm(2))), group=Z2)
    out = monext_theta_check(model, samples=200, seed=7)
    assert out["passed"] and out["splits"] > 50


def test_monext_theta_fp_model():
    model = MonextModel(free_monoid(1), group=Z2)
    assert monext_theta_check(model, samples=60, seed=1)["passed"]


def test_monext_prime_atom_invariants():
    model = MonextModel(free_monoid(1), group=Z2)
    for d in Z2.elements():
        inv = monext_invariants(model, 0, d)
        assert inv["prime_in_h0"]
        assert inv["formula"] == {"omega": 2, "tau": 1, "tame": 2}


def test_monext_nonprime_atom_keeps_h0_values():
    h0 = block_monoid(enumerate_atoms(hypercube_pm(2)))
    model = MonextModel(h0, group=Z2)
    from zsl.invariants import omega as h0_omega

    for i in range(h0.atom_count):
        for d in Z2.elements():
            inv = monext_invariants(model, i, d)
            assert not inv["prime_in_h0"]
            assert inv["formula"]["omega"] == h0_omega(h0, i, "minimal-cover")
            assert inv["formula"] == inv["oracle"]


def literal_minimal_atom_covers(model, u_idx, du, cap):
    """Reference for ``minimal_atom_covers``: every H-atom multiset of 1 ..
    ``cap`` atoms, on tuples, kept when its product is divisible by
    (atom u, du) and that of no single removal is.  (u, du) divides (v, d)
    when u <= v and the quotient is not (1, d') with d' != 1."""
    group, atoms = model.group, model.h_atoms()
    u, du = model.h0.atoms[u_idx], tuple(du)

    def covers(multiset):
        v, d = (0,) * len(u), group.zero()
        for k in multiset:
            i, dv = atoms[k]
            v = tuple(x + y for x, y in zip(v, model.h0.atoms[i]))
            d = group.add(d, dv)
        return all(x <= y for x, y in zip(u, v)) and (v != u or d == du)

    out = []
    for size in range(1, cap + 1):
        for combo in combinations_with_replacement(range(len(atoms)), size):
            if covers(combo) and not any(covers(combo[:p] + combo[p + 1:])
                                         for p in range(size)):
                out.append(tuple((atoms[k], combo.count(k)) for k in sorted(set(combo))))
    return sorted(out)


H0_2CUBE = block_monoid(enumerate_atoms(hypercube_pm(2)))


@pytest.mark.parametrize("group", [Z2, Z3, Z4, Z22], ids=["Z2", "Z3", "Z4", "Z2+Z2"])
@pytest.mark.parametrize("h0, caps", [(H0_2CUBE, (1, 2, 3)), (free_monoid(1), (1, 2, 3, 4))],
                         ids=["2-cube", "N0"])
def test_minimal_atom_covers_match_literal_reference(group, h0, caps):
    model = MonextModel(h0, group=group)
    for u in range(h0.atom_count):
        for du in group.elements():
            for cap in caps:
                assert model.minimal_atom_covers(u, du, cap) == \
                    literal_minimal_atom_covers(model, u, du, cap)


def test_cover_oracles_never_call_the_cover_search(monkeypatch):
    # omega's definition replay and the product-monoid cover oracle stay apart
    # from the minimal-cover search they are checked against
    from zsl import invariants

    model = MonextModel(H0_2CUBE, group=Z22)
    expected = [model.minimal_atom_covers(u, du, 3)
                for u in range(H0_2CUBE.atom_count) for du in Z22.elements()]
    omegas = [omega(H0_2CUBE, u, "minimal-cover") for u in range(H0_2CUBE.atom_count)]

    def forbidden(*args, **kwargs):
        raise AssertionError("an oracle called the minimal-cover search")

    monkeypatch.setattr(invariants, "_minimal_solutions", forbidden)
    monkeypatch.setattr(invariants, "minimal_covers", forbidden)
    assert [model.minimal_atom_covers(u, du, 3) for u in range(H0_2CUBE.atom_count)
            for du in Z22.elements()] == expected
    assert [omega(H0_2CUBE, u, "definition-budget")
            for u in range(H0_2CUBE.atom_count)] == omegas


def test_monext_free_d_unbounded():
    model = MonextModel(free_monoid(1), free_rank=1)
    inv = monext_invariants(model, 0, (3,))
    assert inv["omega_monoid_infinite"]
    assert inv["omega_lower"] >= 3
    assert inv["omega_upper"] >= inv["omega_lower"]


def test_monext_free_d_preserves_lengths():
    h0 = free_monoid(2)
    model = MonextModel(h0, free_rank=1)
    for vec in ((1, 0), (2, 1), (3, 0)):
        for d in ((0,), (1,), (2,)):
            assert model.lengths(vec, d) == set_of_lengths(h0, vec)
    # identity base element admits only the identity class coordinate
    assert model.lengths((0, 0), (1,)) == ()
    assert model.lengths((0, 0), (0,)) == (0,)


def test_monext_catenary_group_of_order_two():
    h0 = free_monoid(2)
    model = MonextModel(h0, group=Z2)
    # a = u^2 with unique factorization, d the involution: zero catenary
    out = monext_catenary(model, (2, 0), (1,), factorizations(h0, (2, 0)))
    assert out["predicted"] == 0
    # a = uv with two distinct atom types: catenary 2 despite unique z in H0
    out = monext_catenary(model, (1, 1), (1,), factorizations(h0, (1, 1)))
    assert out["predicted"] == 2
    # d trivial but |D| = 2: still 2 (a nontrivial unit exists)
    out = monext_catenary(model, (1, 1), (0,), factorizations(h0, (1, 1)))
    assert out["predicted"] == 2


def test_monext_catenary_reduced_free_d():
    h0 = free_monoid(2)
    model = MonextModel(h0, free_rank=1)

    def predicted(vec, d):
        return monext_catenary(model, vec, d, factorizations(h0, vec))["predicted"]

    # d identity, unique factorization in H0: zero
    assert predicted((2, 1), (0,)) == 0
    # d an atom of D, prime power base: zero
    assert predicted((3, 0), (1,)) == 0
    # d an atom, two distinct base atoms: two factorizations appear
    assert predicted((1, 1), (1,)) == 2
    # d composite: two factorizations appear
    assert predicted((2, 0), (2,)) == 2


def test_monext_catenary_block_base():
    h0 = block_monoid(enumerate_atoms(hypercube_pm(2)))
    model = MonextModel(h0, group=Z2)
    checked = 0
    for x in sorted(elements_up_to(h0, 2)):
        zs = factorizations(h0, x)
        if zs and max(map(sum, zs)) >= 2:
            for d in Z2.elements():
                out = monext_catenary(model, x, d, zs)
                assert out["observed"] == out["predicted"]
                checked += 1
    assert checked >= 10


def test_monext_associativity_with_product_group():
    # (H0 |x D) |x E and H0 |x (D x E) have the same membership rule
    h0 = free_monoid(1)
    d = FiniteAbelianGroup.from_factors([2])
    e = FiniteAbelianGroup.from_factors([3])
    de = FiniteAbelianGroup.from_factors([6])
    inner = MonextModel(h0, group=d)
    combined = MonextModel(h0, group=de)
    iso = {}
    for n in range(0, 4):
        for dv in d.elements():
            for ev in e.elements():
                member_nested = inner.is_member((n,), dv) and ((n,) != (0,) or ev == (0,))
                # crt pairing (dv, ev) -> element of Z/6
                img = ((dv[0] * 3 + ev[0] * 4) % 6,)
                member_flat = combined.is_member((n,), img)
                assert member_nested == member_flat
                iso[(n, dv, ev)] = img
    assert len(set(iso.values())) == 6


# ---------------------------------------------------------------------------
# almost-constant vector monoids
# ---------------------------------------------------------------------------

SPEC_2_3 = AcmSpec(5, (Fraction(1), Fraction(1), Fraction(1),
                       Fraction(3, 2), Fraction(3, 2)), ((1, 2), (3, 4)))


def test_acm_spec_validation():
    with pytest.raises(ValueError):
        AcmSpec(3, (Fraction(1), Fraction(1), Fraction(1)), ((1,),))
    with pytest.raises(ValueError):
        AcmSpec(3, (Fraction(2), Fraction(1), Fraction(1)), ((1, 2),))
    with pytest.raises(ValueError):
        AcmSpec(3, (Fraction(1), Fraction(1, 2), Fraction(1)), ((1, 2),))


def test_acm_spec_json_round_trip():
    data = {"omega": 5, "c": ["1", "1", "1", "3/2", "1/2"], "lambda": [[1, 2], [3, 4]]}
    spec = AcmSpec.from_json(data)
    assert spec.tower_sums() == (2, 2)
    assert AcmSpec.from_json(spec.to_json()) == spec


def test_acm_case1_is_n0():
    spec = AcmSpec(1, (Fraction(1),), ())
    report = acm_report(spec)
    assert report["factorial"] and report["tame"] == 0


def test_acm_membership_and_level():
    # x is in the monoid exactly when its level-dropped image factors into
    # x[0] atoms: the level coordinate counts the atoms of every factorization
    spec = AcmSpec(3, (Fraction(1),) * 3, ((1, 2),))
    monoid = AcmModel(spec).presented()
    for x in ((0, 0, 0), (1, 1, 1), (1, 2, 0), (2, 3, 1)):  # tower sum 2 = C * level
        assert set_of_lengths(monoid, x[1:]) == (x[0],)
    assert set_of_lengths(monoid, (1, 0)) == ()  # (1, 1, 0): tower sum 1
    assert set_of_lengths(monoid, (1, 1)) == (1,)  # so (0, 1, 1) is not a member


def test_acm_atom_criterion_level_one():
    m = AcmModel(SPEC_2_3)
    monoid = m.presented()
    for atom in m.atoms:
        assert atom[0] == 1
        assert set_of_lengths(monoid, atom[1:]) == (1,)
    assert len(m.atoms) == 12  # compositions: 3 of weight 2 times 4 of weight 3


def test_acm_factorial_case_primes():
    # a single tower of weight sum 1 gives a factorial monoid whose primes
    # are exactly e0 + e_i
    spec = AcmSpec(3, (Fraction(1), Fraction(1, 2), Fraction(1, 2)), ((1, 2),))
    report = acm_report(spec)
    assert report["factorial"] and report["tame"] == 0
    assert report["atom_count"] == 2
    model = AcmModel(spec)
    assert model.atoms == [(1, 0, 1), (1, 1, 0)]


def test_acm_tower_longer_than_the_recursion_limit():
    # a single tower of weight sum 1 over 1,100 coordinates: its atoms are the
    # 1,100 vectors e0 + e_i, generated without one stack frame per coordinate
    n = 1100
    spec = AcmSpec(n + 1, (Fraction(1),) + (Fraction(1, n),) * n, (tuple(range(1, n + 1)),))
    atoms = AcmModel(spec).atoms
    assert atoms == sorted(tuple(int(j in (0, i)) for j in range(n + 1))
                           for i in range(1, n + 1))


def test_acm_split_transfer():
    # a member of level 3 is a sum of exactly 3 atoms, in every factorization
    monoid = AcmModel(SPEC_2_3).presented()
    x = (4, 2, 6, 3)  # (3, 4, 2, 6, 3) with the level dropped
    zs = factorizations(monoid, x)
    assert zs and all(sum(z) == 3 and monoid.element(z) == x for z in zs)


def test_acm_lengths_equal_level():
    m = AcmModel(SPEC_2_3)
    monoid = m.presented()
    for x in sorted(elements_up_to(monoid, 3)):
        level = set_of_lengths(monoid, x)
        assert len(level) == 1


def test_acm_class_group_n2():
    report = acm_class_group(AcmModel(SPEC_2_3))
    assert report["free_rank"] == 1 and report["invariant_factors"] == []
    assert report["a_coefficients"] == [3]
    assert report["b_coefficients"] == [2]
    images = {tuple(c["image"]): c["prime_divisors"]
              for c in report["classes_with_prime_divisors"]}
    assert images == {(3,): 2, (-2,): 2}


def test_acm_class_group_n1():
    spec = AcmSpec(3, (Fraction(1),) * 3, ((1, 2),))
    report = acm_class_group(AcmModel(spec))
    assert report["group"] == "Z/2"
    (cls,) = report["classes_with_prime_divisors"]
    assert cls["prime_divisors"] == 2


def test_acm_tame_2_3():
    report = acm_report(SPEC_2_3)
    assert report["tame"] == 5 and report["omega"] == 5
    # the atom concentrating each tower on one coordinate attains omega 5
    model = AcmModel(SPEC_2_3)
    extremal = model.atoms.index((1, 2, 0, 3, 0))
    assert omega(model.presented(), extremal, "both") == 5


def test_acm_half_factorial_omega_tau_relation():
    # in a half-factorial monoid the omega invariant of an atom exceeds its
    # tau invariant by exactly one
    from zsl.invariants import omega as _omega, tau as _tau

    monoid = AcmModel(SPEC_2_3).presented()
    for i in range(monoid.atom_count):
        assert _omega(monoid, i, "minimal-cover") == _tau(monoid, i) + 1


def test_acm_prime_divisor_classes_realize_single_atom_monoid():
    # the n = 2 class images {3 e1, -2 e1} span a zero-sum monoid with the
    # single atom (3)^2 (-2)^3 of length 5
    report = acm_class_group(AcmModel(SPEC_2_3))
    images = sorted(tuple(c["image"]) for c in report["classes_with_prime_divisors"])
    assert images == [(-2,), (3,)]
    atom = single_atom(GroundSet.from_elements(1, images))
    assert atom.length == 5 and atom.mult == (3, 2)  # (-2)^3 (3)^2


def test_acm_report_2_3():
    report = acm_report(SPEC_2_3)
    assert report["atom_count"] == 12
    assert report["half_factorial"]
    assert report["max_catenary_observed"] <= 2
    assert report["tame"] == 5


def test_acm_case3_free_part():
    spec = AcmSpec(4, (Fraction(1),) * 4, ((1, 2),))
    report = acm_report(spec)
    assert report["case"] == 3
    assert report["free_coordinates"] == 1
    assert report["tame"] == "infinite"
    assert report["catenary"] == 2
    with pytest.raises(ValueError, match="infinitely many atoms"):
        AcmModel(spec)


# ---------------------------------------------------------------------------
# tower data
# ---------------------------------------------------------------------------


def tower_json(udim, cycles, faithfuls, group):
    return TowerData.from_json({
        "udim": udim,
        "cycle_towers": [{"ranks": list(t)} for t in cycles],
        "faithful_towers": [{"ranks": list(t)} for t in faithfuls],
        "class_group": group,
    })


def test_hnp_dedekind_case_factorial():
    td = tower_json(1, [], [], [])
    report = hnp_report(td)
    assert report["factorial"]
    assert report["tame"] == 0


def test_hnp_two_cycle_towers_tame_five():
    td = tower_json(1, [(1, 1), (2, 1)], [], [])
    spec, group = hnp_monoid(td)
    assert spec.tower_sums() == (2, 3)
    assert group.is_trivial
    report = hnp_report(td)
    assert not report["factorial"]
    assert report["half_factorial"]
    assert report["tame"] == report["omega"] == 5
    assert report["tame_formula"] == 5


def test_hnp_single_unit_cycle_tower_factorial():
    td = tower_json(2, [(1, 1)], [], [])
    report = hnp_report(td)
    assert report["factorial"]
    assert report["tame"] == 0


def test_hnp_faithful_tower_infinite_tame():
    td = tower_json(1, [(1, 1)], [(1,)], [])
    report = hnp_report(td)
    assert report["tame"] == "infinite"
    assert report["half_factorial"]


def test_hnp_nontrivial_class_group():
    td = tower_json(1, [(1, 1)], [], [2])
    report = hnp_report(td)
    assert not report["factorial"]
    assert report["tame"] == report["tame_formula"] == 2
    assert "tame_formula_note" not in report


def test_hnp_degenerate_corner_notes_discrepancy():
    # unique unit cycle tower but nontrivial class group: formula gives 1,
    # the product structure forces 2
    td = tower_json(1, [(1,)], [], [2])
    report = hnp_report(td)
    assert not report["factorial"]
    assert report["tame"] == 2
    assert report["tame_formula"] == 0
    assert "tame_formula_note" in report


def test_tower_validation():
    with pytest.raises(ValueError):
        tower_json(2, [(1, 2)], [], [])  # rank sum 3 not divisible by udim 2


# ---------------------------------------------------------------------------
# single-atom ground sets
# ---------------------------------------------------------------------------


def single_atom(ground):
    """The one atom of a ground set whose complete enumeration finds one."""
    atom_set = enumerate_atoms(ground)
    assert atom_set.complete
    (atom,) = atom_set.atoms
    return atom


def test_weighted_axes_atom_2_3():
    # {A e1, -B e1} with gcd(A, B) = 1: the one atom is (A)^B (-B)^A
    atom = single_atom(GroundSet.from_elements(1, [(2,), (-3,)]))
    assert atom.length == 5
    assert atom.mult == (3, 2)


def test_weighted_axes_atom_unit_units():
    # {e1, e2, -(e1 + e2)}: the one atom takes each generator once
    atom = single_atom(GroundSet.from_elements(2, [(1, 0), (0, 1), (-1, -1)]))
    assert atom.length == 3
    assert atom.mult == (1, 1, 1)
