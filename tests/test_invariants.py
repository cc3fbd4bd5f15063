import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zsl.atoms import enumerate_atoms
from zsl import invariants
from zsl.ground import GroundSet, Sequence, _Lanes
from zsl.intlinalg import kernel_basis
from zsl.invariants import (
    PresentedMonoid,
    atom_invariants,
    block_monoid,
    catenary_element,
    catenary_from_factorizations,
    distance,
    elements_up_to,
    exists_length,
    factorizations,
    free_monoid,
    minimal_covers,
    omega,
    set_of_lengths,
    tame_degree,
    tau,
    union_of_lengths,
)

PM2 = GroundSet.from_elements(2, [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)])
PM2_ATOMS = enumerate_atoms(PM2)
B2 = block_monoid(PM2_ATOMS)


def vec(pairs):
    return Sequence.from_terms(PM2, pairs).mult


def atom_index(monoid, target):
    return monoid.atoms.index(tuple(target))


TRIPLE = vec([((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)])
TRIPLE_NEG = vec([((-1, 0), 1), ((0, -1), 1), ((1, 1), 1)])


def test_monoid_validation():
    with pytest.raises(ValueError):
        PresentedMonoid(2, [(0, 0)])
    with pytest.raises(ValueError):
        PresentedMonoid(2, [(1, 0), (1, 1)])  # comparable atoms
    with pytest.raises(ValueError):
        PresentedMonoid(2, [(1,)])
    with pytest.raises(ValueError, match=r"\[1, 0\] is repeated"):
        PresentedMonoid(2, [(1, 0), (1, 0), (0, 1)])
    # comparable pairs whose supports differ, listed in either order
    for atoms in ([(1, 0, 2), (0, 1, 1), (1, 1, 2)], [(2, 1, 0), (1, 1, 0)],
                  [(0, 0, 1), (3, 1, 0), (1, 0, 1)]):
        with pytest.raises(ValueError, match="incomparable"):
            PresentedMonoid(3, atoms)
    # a support inside another's, or a shorter atom, is not enough
    assert PresentedMonoid(2, [(3, 0), (1, 1)]).atom_count == 2
    assert PresentedMonoid(2, [(2, 0), (1, 1), (0, 2)]).atom_count == 3


def test_free_monoid_of_600_atoms_builds():
    f = free_monoid(600)
    assert f.atom_count == 600
    assert f.atoms[599][599] == 1


def test_single_atom_unique_factorization():
    z = factorizations(B2, TRIPLE)
    assert len(z) == 1 and sum(z[0]) == 1


def test_factorizations_of_identity():
    z = factorizations(B2, (0,) * 6)
    assert len(z) == 1 and sum(z[0]) == 0


def test_factorizations_empty_outside_monoid():
    assert factorizations(B2, vec([((1, 0), 1)])) == []


def test_lengths_of_atom_times_negation():
    x = tuple(a + b for a, b in zip(TRIPLE, TRIPLE_NEG))
    assert set_of_lengths(B2, x) == (2, 3)


def test_distance_identical_zero():
    z = factorizations(B2, TRIPLE)[0]
    assert distance(z, z) == 0


def test_distance_disjoint():
    a = (2, 0, 0)
    b = (0, 1, 4)
    assert distance(a, b) == 5


def test_distance_one_atom_swap():
    a = (1, 1, 0)
    b = (1, 0, 1)
    assert distance(a, b) == 1


def test_catenary_unique_factorization_zero():
    assert catenary_element(B2, TRIPLE) == 0


def test_catenary_pair_product():
    x = tuple(a + b for a, b in zip(TRIPLE, TRIPLE_NEG))
    # two factorizations of lengths 2 and 3 sharing nothing: distance 3
    assert catenary_element(B2, x) == 3


def test_catenary_outside_monoid_raises():
    with pytest.raises(ValueError):
        catenary_element(B2, vec([((1, 1), 1)]))


def test_catenary_from_zero_one_and_two_factorizations():
    assert catenary_from_factorizations([]) == 0
    assert catenary_from_factorizations([(2, 1)]) == 0
    a = (2, 0, 0)
    b = (0, 1, 4)
    assert catenary_from_factorizations([a, b]) == 5
    assert catenary_from_factorizations([b, a]) == 5
    c = (1, 1, 0)
    d = (1, 0, 1)
    assert catenary_from_factorizations([c, d]) == 1


@pytest.mark.parametrize("zs, problem", [
    ([(1,), (0, 1)], "ragged"),
    ([(0, 1), (1,)], "ragged"),
    ([(1, -1), (0, 0)], "nonnegative"),
    ([(-1,)], "nonnegative"),
    ([(True, 0), (0, 1)], "integers"),
    ([(1.0, 0), (0, 1)], "integers"),
    ([(0, "1")], "integers"),
], ids=["ragged", "ragged-longer-later", "negative", "negative-single",
        "bool", "float", "string"])
def test_catenary_from_factorizations_refuses_malformed_vectors(zs, problem):
    # packed, such vectors would give arbitrary numbers; they are refused
    with pytest.raises(ValueError, match=problem):
        catenary_from_factorizations(zs)


def test_union_k1_trivial():
    u = union_of_lengths(B2, 1)
    assert u.values == frozenset({1}) and u.rho == u.lam == 1


def test_union_k2_interval():
    u = union_of_lengths(B2, 2)
    assert u.exhaustive
    assert sorted(u.values) == [2, 3]


def test_union_rho4_r2():
    u = union_of_lengths(B2, 4)
    assert u.rho == 6
    assert u.lam == 3


def walk_union_values(monoid, k):
    """U_k by the definition: the union of the sets of lengths of every sum
    of k atoms.  A reference for the membership test behind
    ``union_of_lengths``."""
    values = set()
    sums = {monoid.element([picks.count(i) for i in range(monoid.atom_count)])
            for picks in combinations_with_replacement(range(monoid.atom_count), k)}
    for x in sums:
        values.update(set_of_lengths(monoid, x))
    return values


def test_union_extremes_matches_exhaustive():
    for k in (2, 3, 4):
        walk = walk_union_values(B2, k)
        full = union_of_lengths(B2, k, "exhaustive")
        ext = union_of_lengths(B2, k, "extremes")
        assert full.values == walk
        assert (ext.rho, ext.lam) == (max(walk), min(walk))


def test_union_strategy_auto_is_gone():
    with pytest.raises(ValueError, match="unknown strategy"):
        union_of_lengths(B2, 2, "auto")


def test_exists_length_banding():
    x = tuple(a + b for a, b in zip(TRIPLE, TRIPLE_NEG))
    assert exists_length(B2, x, 2)
    assert exists_length(B2, x, 3)
    assert not exists_length(B2, x, 4)
    # a target below 0 or above |x| is answered without building its mask
    assert not exists_length(B2, x, -1)
    assert not exists_length(B2, x, 10 ** 12)


def test_min_max_length():
    x = tuple(a + b for a, b in zip(TRIPLE, TRIPLE_NEG))
    assert min(set_of_lengths(B2, x)) == 2
    assert max(set_of_lengths(B2, x)) == 3
    assert set_of_lengths(B2, vec([((1, 0), 1)])) == ()


def test_free_monoid_atoms_prime():
    f = free_monoid(3)
    for i in range(3):
        assert omega(f, i, "both") == 1
        assert tame_degree(f, i) == 0


def test_omega_triple_atom():
    i = atom_index(B2, TRIPLE)
    assert omega(B2, i, "minimal-cover") == 3
    assert omega(B2, i, "both") == 3


def test_factorization_search_depth_not_bounded_by_recursion_limit():
    # the search goes one level deeper per atom; on a free monoid of 150
    # atoms, the all-ones element must factor even under a recursion limit
    # of 100
    f = free_monoid(150)
    ones = (1,) * 150
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        zs = factorizations(f, ones)
        hit = exists_length(f, ones, 150)
        miss = exists_length(f, ones, 149)
    finally:
        sys.setrecursionlimit(limit)
    assert zs == [ones]
    assert hit and not miss


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, B2.atom_count - 1), max_size=6), st.integers(0, 20))
def test_exists_length_agrees_with_set_of_lengths(picks, target):
    counts = [0] * B2.atom_count
    for i in picks:
        counts[i] += 1
    x = B2.element(counts)
    assert exists_length(B2, x, target) == (target in set_of_lengths(B2, x))


def test_omega_pair_atom():
    pair = vec([((1, 0), 1), ((-1, 0), 1)])
    i = atom_index(B2, pair)
    assert omega(B2, i, "both") == 2


def test_minimal_covers_contain_self():
    i = atom_index(B2, TRIPLE)
    covers = minimal_covers(B2, i)
    self_cover = tuple(int(j == i) for j in range(B2.atom_count))
    assert self_cover in covers
    assert max(sum(z) for z in covers) == 3


def predicate_minimal_covers(n, is_cover, cap):
    """Componentwise-minimal count vectors over n generators that satisfy the
    upward-closed predicate ``is_cover``, among those of size at most cap:
    breadth-first over multisets in nondecreasing index order, each recorded
    once it covers and kept when no single removal still covers.  A reference
    for the completion search behind ``minimal_covers``."""
    covers = []
    frontier = [(0,) * n]
    for _ in range(cap):
        nxt = set()
        for z in frontier:
            start = max((i for i in range(n) if z[i]), default=0)
            for j in range(start, n):
                z2 = z[:j] + (z[j] + 1,) + z[j + 1:]
                if z2 in nxt:
                    continue
                if is_cover(z2):
                    if not any(z2[i] and is_cover(z2[:i] + (z2[i] - 1,) + z2[i + 1:])
                               for i in range(n)) and z2 not in covers:
                        covers.append(z2)
                else:
                    nxt.add(z2)
        frontier = sorted(nxt)
    return sorted(covers)


def divides_predicate_covers(monoid, i):
    u = monoid.atoms[i]
    return predicate_minimal_covers(
        monoid.atom_count, lambda z: monoid.divides(u, monoid.element(z)), sum(u))


def test_minimal_covers_match_divides_predicate():
    from zsl.certify import ACM_SPEC
    from zsl.models import AcmModel
    for monoid in (B2, AcmModel(ACM_SPEC).presented()):
        for i in range(monoid.atom_count):
            assert minimal_covers(monoid, i) == divides_predicate_covers(monoid, i)


@st.composite
def small_block_monoids(draw):
    # a few vectors of [-2, 2]^r with their negatives: a symmetric ground
    rank = draw(st.integers(2, 3))
    base = draw(st.sets(st.tuples(*[st.integers(-2, 2)] * rank).filter(any),
                        min_size=3, max_size=4))
    elements = sorted(base | {tuple(-x for x in v) for v in base})
    atom_set = enumerate_atoms(GroundSet.from_elements(rank, elements), budget=6)
    assume(atom_set.complete and len(atom_set.atoms) <= 24)
    return block_monoid(atom_set)


@settings(max_examples=200, deadline=None)
@given(small_block_monoids())
def test_minimal_covers_match_predicate_search_on_random_monoids(monoid):
    for i in range(monoid.atom_count):
        covers = divides_predicate_covers(monoid, i)
        assert minimal_covers(monoid, i) == covers
        u = monoid.atoms[i]
        w = max(sum(z) for z in covers)
        t = max(least_length(monoid, [x - y for x, y in zip(monoid.element(z), u)])
                for z in covers)
        assert atom_invariants(monoid, i) == {
            "omega": w, "tau": t, "tame": 0 if w <= 1 else max(w, t + 1)}


def least_length(monoid, x):
    """The least factorization length of x, None outside the monoid: the
    first hit of an ascending ``exists_length`` scan of its length band,
    apart from the one-per-length search that tau reads it from."""
    lo, hi = length_band(monoid, x)
    return next((k for k in range(lo, hi + 1) if exists_length(monoid, x, k)), None)


def tau_from_covers(monoid, atom_index):
    """tau by its definition over ``minimal_covers``: the largest least
    length of a cover quotient."""
    u = monoid.atoms[atom_index]
    return max(least_length(monoid, [x - y for x, y in zip(monoid.element(z), u)])
               for z in minimal_covers(monoid, atom_index))


@st.composite
def block_monoids(draw):
    # vectors of [-2, 2]^r and their negatives, with up to 30 atoms of
    # length at most 7: more and longer covers than small_block_monoids, so
    # that many cover quotients have several lengths (longer atoms make the
    # reference take seconds)
    rank = draw(st.integers(2, 3))
    base = draw(st.sets(st.tuples(*[st.integers(-2, 2)] * rank).filter(any),
                        min_size=3, max_size=5))
    elements = sorted(base | {tuple(-x for x in v) for v in base})
    atom_set = enumerate_atoms(GroundSet.from_elements(rank, elements), budget=7)
    assume(atom_set.complete and len(atom_set.atoms) <= 30)
    return block_monoid(atom_set)


@settings(max_examples=100, deadline=None)
@given(block_monoids())
def test_tau_matches_cover_quotient_lengths_on_random_monoids(monoid):
    for i in range(monoid.atom_count):
        assert atom_invariants(monoid, i)["tau"] == tau_from_covers(monoid, i)


# omega and tau of the 41 atoms of the signed 3-cube monoid, by atom index
RANK3_OMEGA = (2, 2, 3, 2, 3, 2, 3, 3, 4, 3, 4, 4, 5, 2, 3, 3, 4, 4, 5, 4, 5,
               2, 3, 3, 4, 4, 5, 4, 5, 4, 5, 5, 2, 3, 3, 3, 4, 4, 4, 4, 5)
RANK3_TAU = (4, 4, 4, 4, 4, 4, 4, 4, 7, 4, 5, 5, 6, 4, 4, 4, 5, 5, 6, 5, 6,
             4, 4, 4, 5, 5, 6, 5, 6, 5, 6, 6, 4, 4, 4, 4, 7, 5, 5, 5, 6)


@cache
def rank3_monoid():
    from zsl.constructions import hypercube_pm
    return block_monoid(enumerate_atoms(hypercube_pm(3)))


def test_rank3_atom_invariants_per_atom():
    # the per-atom values behind the maxima of the CI step "Rank-3 tame
    # degree": tau 4, 5, 6 and 7 on 19, 12, 8 and 2 atoms; the reference
    # agrees on all 41 and is checked here on one atom of each
    # (omega, tau) pair
    m3 = rank3_monoid()
    rows = [atom_invariants(m3, i) for i in range(m3.atom_count)]
    assert [row["omega"] for row in rows] == list(RANK3_OMEGA)
    assert [row["tau"] for row in rows] == list(RANK3_TAU)
    assert all(row["tame"] == max(row["omega"], row["tau"] + 1) for row in rows)
    assert Counter(row["tau"] for row in rows) == {4: 19, 5: 12, 6: 8, 7: 2}
    assert Counter(row["tame"] for row in rows) == {5: 19, 6: 12, 7: 8, 8: 2}
    assert m3.atoms[10] == (0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0)
    assert rows[10] == {"omega": 4, "tau": 5, "tame": 6}
    pairs = {(w, t): i for i, (w, t) in enumerate(zip(RANK3_OMEGA, RANK3_TAU))}
    assert len(pairs) == 5
    for i in pairs.values():
        assert tau_from_covers(m3, i) == RANK3_TAU[i]


def test_tau_does_not_depend_on_the_atom_order():
    # the search branches in atom order; with the rank-3 atoms reversed, a
    # cover quotient of atom 39 (now 1) yields a length above tau 5 first,
    # so tau is the least length yielded, not the first
    m3 = rank3_monoid()
    reversed_m3 = PresentedMonoid(m3.ambient_dim, m3.atoms[::-1])
    u = reversed_m3.atoms[1]
    firsts = [next(invariants._factorization_counts(
        reversed_m3, [x - y for x, y in zip(reversed_m3.element(z), u)], -1))
        for z in minimal_covers(reversed_m3, 1)]
    assert max(firsts) > 5
    assert atom_invariants(reversed_m3, 1) == atom_invariants(m3, 39) == {
        "omega": 4, "tau": 5, "tame": 6}


def test_tau_does_not_depend_on_the_cover_order(monkeypatch):
    # two covers of rank-3 atom 10 (tau 5) leave quotients of lengths 5 and
    # 6; searched first, while t is still 0, each raises t to its least
    # length 5, not to its largest
    m3 = rank3_monoid()
    kept, covers = invariants._covers(m3, 10)

    def lengths(z):
        counts = [0] * m3.atom_count
        for i, c in zip(kept, z):
            counts[i] = c
        return set_of_lengths(m3, [x - y for x, y in zip(m3.element(counts), m3.atoms[10])])

    first = sorted(covers, key=lambda z: -max(lengths(z)))
    assert lengths(first[0]) == lengths(first[1]) == (5, 6)
    monkeypatch.setattr(invariants, "_covers", lambda monoid, atom_index: (kept, first))
    assert atom_invariants(m3, 10) == {"omega": 4, "tau": 5, "tame": 6}


@pytest.mark.parametrize("atoms, atom_index, cover", [
    # u = (2, 2): the cover (0, 3) + (3, 0) leaves (1, 1), of total length
    # 2, below the shortest atom length 3
    ([(0, 3), (2, 2), (3, 0)], 1, (1, 0, 1)),
    # u = (2, 1): the cover 2 * (1, 2) leaves (0, 3), as long as the
    # shortest atom but not an atom
    ([(1, 2), (2, 1), (3, 0)], 1, (2, 0, 0)),
])
def test_cover_quotient_outside_the_monoid_raises(atoms, atom_index, cover):
    # two-coordinate atom sets do not present saturated monoids: the
    # quotient of the given cover has no factorization, so the search
    # yields no length for it
    monoid = PresentedMonoid(2, atoms)
    assert cover in minimal_covers(monoid, atom_index)
    u = monoid.atoms[atom_index]
    quotient = [x - y for x, y in zip(monoid.element(cover), u)]
    assert least_length(monoid, quotient) is None
    with pytest.raises(AssertionError, match="cover quotient left the monoid"):
        atom_invariants(monoid, atom_index)


def test_atom_invariants_runs_no_length_existence_search(monkeypatch):
    # tau asks each cover quotient first for a length of 0 .. t, t the
    # running maximum, with the mask (2 << t) - 1, and only when it has none
    # for its least length above t, with the complement -2 << t: never a
    # scan of one-length searches, also when a quotient leaves the monoid
    want = [tau_from_covers(B2, i) for i in range(B2.atom_count)]
    kernel = invariants._packed_factorization_counts
    masks = []

    def recorded(monoid, lanes, residual, total, wanted=None):
        masks.append(wanted)
        return kernel(monoid, lanes, residual, total, wanted)

    def check_masks():
        for before, mask in zip([None] + masks, masks):
            if mask > 0:
                assert mask & mask + 1 == 0, mask  # the lengths 0 .. t
            else:
                assert mask == ~before, (before, mask)  # then those above t

    monkeypatch.setattr(invariants, "_packed_factorization_counts", recorded)
    assert [atom_invariants(B2, i)["tau"] for i in range(B2.atom_count)] == want
    check_masks()
    assert sum(mask > 0 for mask in masks) == sum(
        len(minimal_covers(B2, i)) for i in range(B2.atom_count))
    assert any(mask < 0 for mask in masks)
    masks.clear()
    monoid = PresentedMonoid(2, [(0, 3), (2, 2), (3, 0)])
    with pytest.raises(AssertionError, match="cover quotient left the monoid"):
        atom_invariants(monoid, 1)
    check_masks()
    assert masks[-1] < 0


@settings(max_examples=200, deadline=None)
@given(small_block_monoids(), st.integers(1, 4))
def test_unions_match_walk_on_random_monoids(monoid, k):
    walk = walk_union_values(monoid, k)
    full = union_of_lengths(monoid, k, "exhaustive")
    ext = union_of_lengths(monoid, k, "extremes")
    assert full.values == walk and full.exhaustive
    assert (full.rho, full.lam) == (ext.rho, ext.lam) == (max(walk), min(walk))
    assert ext.values == {ext.lam, k, ext.rho} and not ext.exhaustive


def tuple_factorization_counts(monoid, x, target=None):
    """A factorization search over the atoms in decreasing length order,
    each taking every count that fits, with each residual held as a tuple
    and every node test done coordinate by coordinate.  Without a target it
    yields every factorization once and is an independent reference for the
    set that ``_factorization_counts`` yields by another branching; with a
    target it is the reference for ``exists_length``: it yields the
    factorizations of exactly ``target`` atoms, pruning only a residual
    whose length does not sit between k * (shortest atom) and
    k * (longest atom) for the k picks left."""
    atoms = monoid.atoms
    order, masks = search_order_and_masks(monoid)
    n = len(order)
    if target is not None and n:
        lengths = monoid.atom_lengths()
        lmin, lmax = min(lengths), max(lengths)
    path = []
    stack = [(0, tuple(x), target, 0)]
    while stack:
        pos, residual, left, c = stack.pop()
        if pos:
            del path[pos - 1:]
            path.append(c)
        if not any(residual):
            if not left:
                counts = [0] * n
                for p, k in enumerate(path):
                    counts[order[p]] = k
                yield tuple(counts)
            continue
        if pos == n or left == 0:
            continue
        if left is not None:
            total = sum(residual)
            if total < left * lmin or total > left * lmax:
                continue
        if any(r and not m for r, m in zip(residual, masks[pos])):
            continue
        atom = atoms[order[pos]]
        cap = min(r // a for r, a in zip(residual, atom) if a)
        if left is not None:
            cap = min(cap, left)
        for c in range(cap + 1):
            stack.append((pos + 1, tuple(r - c * a for r, a in zip(residual, atom)),
                          None if left is None else left - c, c))


def search_order_and_masks(monoid):
    """The atom indices by nonincreasing length (ties by vector) and, per
    search position, the coordinates that some atom from there on touches."""
    atoms = monoid.atoms
    order = sorted(range(len(atoms)), key=lambda i: (-sum(atoms[i]), atoms[i]))
    masks = []
    seen = [False] * monoid.ambient_dim
    for pos in range(len(order) - 1, -1, -1):
        for i, v in enumerate(atoms[order[pos]]):
            if v:
                seen[i] = True
        masks.append(tuple(seen))
    masks.reverse()
    return order, masks


def tuple_lowest_coordinate_counts(monoid, x):
    """The search of ``_factorization_counts`` with each residual held as a
    tuple, each fit tested coordinate by coordinate and each node carrying
    its count vector: branch on the atoms whose lowest support coordinate
    is the residual's lowest nonzero one, by atom index, from the parent's
    pick on while that coordinate stays lowest and from the first atom once
    it moves up.  Same nodes, children and yield order as the kernel."""
    atoms = monoid.atoms
    lowest = [next(i for i, v in enumerate(a) if v) for a in atoms]
    buckets = [[k for k in range(len(atoms)) if lowest[k] == i]
               for i in range(monoid.ambient_dim)]
    stack = [((0,) * len(atoms), tuple(x), None, 0)]
    while stack:
        counts, residual, low, place = stack.pop()
        if not any(residual):
            yield counts
            continue
        i = next(i for i, v in enumerate(residual) if v)
        bucket = buckets[i]
        for p in range(place if i == low else 0, len(bucket)):
            k = bucket[p]
            if all(a <= r for a, r in zip(atoms[k], residual)):
                child = counts[:k] + (counts[k] + 1,) + counts[k + 1:]
                stack.append((child, tuple(r - a for r, a in zip(residual, atoms[k])), i, p))


def length_band(monoid, x):
    """The lengths a factorization of x can have by its total length alone,
    ceil(|x| / lmax) .. |x| // lmin: (0, 0) for x = 0, and the empty
    (1, 0) in a monoid without atoms."""
    total = sum(x)
    if not total:
        return 0, 0
    lengths = monoid.atom_lengths()
    if not lengths:
        return 1, 0
    return -(-total // max(lengths)), total // min(lengths)


def search_counts(monoid, x):
    """The count vectors the full search yields for x, in its order."""
    packed = list(invariants._factorization_counts(monoid, x))
    return invariants._count_lanes(monoid, sum(x)).unpack_all(packed)


def assert_packed_search_matches_reference(monoid, x):
    """The full search yields the count vectors of the decreasing-length
    tuple search, each once, in the order of its own tuple twin, and the
    search with every length wanted yields each of their lengths once; and
    at every target of the length band and one beyond each end of it,
    ``exists_length`` gives the same answer as the bounded tuple
    reference, and the search with only the target wanted yields it at
    most once and nothing else."""
    x = tuple(x)
    got = search_counts(monoid, x)
    assert sorted(got) == sorted(tuple_factorization_counts(monoid, x)), x
    assert len(set(got)) == len(got), x
    assert got == list(tuple_lowest_coordinate_counts(monoid, x)), x
    lengths = list(invariants._factorization_counts(monoid, x, -1))
    assert sorted(lengths) == sorted(set(map(sum, got))), x
    lo, hi = length_band(monoid, x)
    for target in range(lo - 1, hi + 2):
        want = next(tuple_factorization_counts(monoid, x, target), None) is not None
        assert exists_length(monoid, x, target) == want, (x, target)
        if target >= 0:
            only = list(invariants._factorization_counts(monoid, x, 1 << target))
            assert only == [target] * want, (x, target)


@st.composite
def monoid_elements(draw):
    """A small symmetric block monoid with elements of every kind the packed
    residual has to handle: sums of atoms, arbitrary vectors (mostly
    non-members), the zero element, and vectors with a coordinate at a field
    edge, 2^k - 1 or 2^k, up to above every atom coordinate."""
    monoid = draw(small_block_monoids())
    dim, n = monoid.ambient_dim, monoid.atom_count
    elements = [(0,) * dim]
    for _ in range(3):
        counts = [0] * n
        for i in draw(st.lists(st.integers(0, n - 1), max_size=5)):
            counts[i] += 1
        elements.append(monoid.element(counts))
    elements.append(tuple(draw(st.lists(st.integers(0, 4), min_size=dim, max_size=dim))))
    top = max(map(max, monoid.atoms)).bit_length() + 2
    base = elements[draw(st.integers(0, len(elements) - 1))]
    k = draw(st.integers(1, top))
    edge = (1 << k) - draw(st.integers(0, 1))
    i = draw(st.integers(0, dim - 1))
    elements.append(base[:i] + (edge,) + base[i + 1:])
    return monoid, elements


@settings(max_examples=200, deadline=None)
@given(monoid_elements())
def test_packed_search_matches_tuple_reference_on_random_monoids(case):
    monoid, elements = case
    for x in elements:
        assert_packed_search_matches_reference(monoid, x)


def test_packed_search_matches_tuple_reference_on_free_monoid_600():
    # 600 buckets of one atom each; the last element sets the field width
    # with its top coordinate at a field edge
    f = free_monoid(600)
    for x in (tuple(i % 3 for i in range(600)), (0,) * 599 + (3,), (1,) + (0,) * 598 + (4,)):
        assert_packed_search_matches_reference(f, x)
        assert factorizations(f, x) == [x]


def test_empty_bucket_coordinate_is_covered_by_lower_buckets():
    # no atom has coordinate 1 as its lowest support coordinate, so a
    # residual whose lowest nonzero coordinate is 1 is a dead end, while
    # the bucket-0 atoms (2, 1, 0) and (1, 2, 0) fill coordinate 1 before
    # the search leaves coordinate 0
    m = PresentedMonoid(3, [(2, 1, 0), (1, 2, 0), (1, 0, 1), (0, 0, 3)])
    assert factorizations(m, (3, 3, 0)) == [(1, 1, 0, 0)]
    assert factorizations(m, (5, 4, 3)) == [(0, 2, 3, 0), (2, 1, 0, 1)]
    assert set_of_lengths(m, (5, 4, 3)) == (4, 5)
    for x in ((0, 3, 0), (0, 1, 3), (1, 1, 0)):
        assert factorizations(m, x) == []
    for x in product(range(6), repeat=3):
        assert_packed_search_matches_reference(m, x)
    for k in range(1, 6):  # coordinate 1 at a field edge
        for v in ((1 << k) - 1, 1 << k):
            for x in ((v, v, 0), (2 * v, v, 0), (v, 2 * v, v)):
                assert_packed_search_matches_reference(m, x)


def test_zero_element_and_a_monoid_without_atoms():
    # the zero element has exactly the empty factorization in every monoid,
    # and in a monoid without atoms no other element has one
    empty = PresentedMonoid(2, [])
    for m in (B2, free_monoid(3), empty):
        zero = (0,) * m.ambient_dim
        assert factorizations(m, zero) == [(0,) * m.atom_count]
        assert set_of_lengths(m, zero) == (0,)
        assert_packed_search_matches_reference(m, zero)
    for x in ((1, 0), (0, 1), (3, 4)):
        assert factorizations(empty, x) == []
        assert set_of_lengths(empty, x) == ()
        assert_packed_search_matches_reference(empty, x)


def test_rank3_element_of_every_ground_element_twice():
    # the element of the CI step "Rank-3 factorization search": the
    # decreasing-length tuple search counts 9,519 factorizations of lengths
    # 6 to 14, and the kernel finds the same ones
    from zsl.constructions import hypercube_pm

    monoid = block_monoid(enumerate_atoms(hypercube_pm(3)))
    x = (2,) * monoid.ambient_dim
    want = sorted(tuple_factorization_counts(monoid, x))
    assert len(want) == 9519
    assert sorted({sum(z) for z in want}) == list(range(6, 15))
    assert factorizations(monoid, x) == want
    assert set_of_lengths(monoid, x) == tuple(range(6, 15))


@settings(max_examples=200, deadline=None)
@given(monoid_elements())
def test_factorizations_are_the_sorted_count_vectors(case):
    # the packed ints sort as their count vectors do, so the output order
    # is that of the sorted tuples
    monoid, elements = case
    for x in elements:
        assert factorizations(monoid, x) == sorted(tuple_factorization_counts(monoid, x)), x


@st.composite
def uniform_length_monoids(draw):
    """Atoms of N0^3 all of length 3: any set of them is pairwise
    incomparable, and every length window holds one length."""
    vectors = [v for v in product(range(4), repeat=3) if sum(v) == 3]
    atoms = draw(st.sets(st.sampled_from(vectors), min_size=2, max_size=6))
    return PresentedMonoid(3, sorted(atoms))


@cache
def acm_monoid():
    from zsl.certify import ACM_SPEC
    from zsl.models import AcmModel
    return AcmModel(ACM_SPEC).presented()


@st.composite
def length_cases(draw):
    """A small block monoid, a monoid of one atom length or the acm monoid,
    with a few sums of atoms and one arbitrary vector."""
    kind = draw(st.sampled_from(["block", "uniform", "acm"]))
    if kind == "block":
        monoid = draw(small_block_monoids())
    elif kind == "uniform":
        monoid = draw(uniform_length_monoids())
    else:
        monoid = acm_monoid()
    n = monoid.atom_count
    elements = []
    for _ in range(2):
        counts = [0] * n
        for i in draw(st.lists(st.integers(0, n - 1), max_size=6)):
            counts[i] += 1
        elements.append(monoid.element(counts))
    elements.append(tuple(draw(st.lists(st.integers(0, 4), min_size=monoid.ambient_dim,
                                        max_size=monoid.ambient_dim))))
    return monoid, elements


@settings(max_examples=200, deadline=None)
@given(length_cases())
def test_exists_length_matches_reference_and_set_of_lengths(case):
    monoid, elements = case
    for x in elements:
        lengths = set_of_lengths(monoid, x)
        lo, hi = length_band(monoid, x)
        for target in range(lo - 1, hi + 2):
            want = next(tuple_factorization_counts(monoid, x, target), None) is not None
            assert exists_length(monoid, x, target) == want == (target in lengths), (x, target)


@settings(max_examples=200, deadline=None)
@given(length_cases())
def test_one_per_length_search_matches_full_enumeration(case):
    # the window cut keeps one factorization of every wanted length and
    # yields each such length once, for sums of atoms, mostly non-members
    # and the zero element alike: with every length wanted, with the even
    # lengths, and with every length but the least and the largest
    monoid, elements = case
    for x in elements + [(0,) * monoid.ambient_dim]:
        got = list(invariants._factorization_counts(monoid, x, -1))
        want = sorted({sum(z) for z in tuple_factorization_counts(monoid, x)})
        assert sorted(got) == want, x
        assert set_of_lengths(monoid, x) == tuple(want), x
        evens = sum(1 << l for l in range(0, sum(x) + 1, 2))
        got = list(invariants._factorization_counts(monoid, x, evens))
        assert sorted(got) == [l for l in want if l % 2 == 0], x
        if want:
            inner = ~(1 << want[0] | 1 << want[-1])
            got = list(invariants._factorization_counts(monoid, x, inner))
            assert sorted(got) == want[1:-1], x


def unpacked_k_fold_sums(monoid, k, min_total=0):
    """The sums of ``invariants._k_fold_sums`` as vectors, in its order; each
    packed sum must carry its own total length."""
    found = list(invariants._k_fold_sums(monoid, k, min_total))
    sums = invariants._sum_lanes(monoid, k).unpack_all([packed for packed, _ in found])
    for s, (_, total) in zip(sums, found):
        assert sum(s) == total, s
    return sums


def test_rank3_union_top_misses_at_slack_zero():
    # l = 12 in U_5 at rank 3 needs a five-atom sum of total length at least
    # 12 * lmin = 24, and 5 * lmax = 25: each search at l = 12 starts with
    # slack 0 or 1 (its total less 24), 12 at the top of its length window,
    # so the window cut drops every child that takes an atom longer than
    # lmin + slack; none hits, while l = 11 does
    from zsl.constructions import hypercube_pm

    m3 = block_monoid(enumerate_atoms(hypercube_pm(3)))
    assert (m3._lmin, m3._lmax) == (2, 5)
    sums = unpacked_k_fold_sums(m3, 5, 24)
    assert {sum(s) for s in sums} == {24, 25}
    assert not any(exists_length(m3, s, 12) for s in sums)
    assert any(exists_length(m3, s, 11) for s in unpacked_k_fold_sums(m3, 5, 22))
    for s in sums[::97]:
        assert next(tuple_factorization_counts(m3, s, 12), None) is None, s
    ext = union_of_lengths(m3, 5, "extremes")
    assert (ext.rho, ext.lam) == (11, 2)


@st.composite
def field_edge_monoids(draw):
    """A monoid of N0^dim whose largest atom coordinate is 2^j - 1, a full
    field below the guard bit of a single atom: random vectors with entries
    up to it, kept greedily while they are nonzero, new and incomparable to
    those kept, the first holding 2^j - 1."""
    dim = draw(st.integers(1, 3))
    top = (1 << draw(st.integers(1, 5))) - 1
    entry = st.one_of(st.sampled_from((0, 1, top - 1, top)), st.integers(0, top))
    first = list(draw(st.lists(entry, min_size=dim, max_size=dim)))
    first[draw(st.integers(0, dim - 1))] = top
    vectors = [tuple(first)] + draw(st.lists(
        st.tuples(*[entry] * dim), max_size=6))
    atoms = []
    for v in vectors:
        if any(v) and all(v != a and not invariants._leq(a, v) and not invariants._leq(v, a)
                          for a in atoms):
            atoms.append(v)
    return PresentedMonoid(dim, atoms)


@settings(max_examples=200, deadline=None)
@given(field_edge_monoids(), st.integers(1, 4), st.integers(0, 30))
@example(PresentedMonoid(2, [(7, 0), (6, 1), (1, 6), (0, 7)]), 2, 0)
def test_packed_k_fold_sums_match_combinations_reference(monoid, k, min_total):
    # every distinct sum of k atoms of total length at least min_total, each
    # once, and every distinct sum of at most k atoms from elements_up_to;
    # in the example (7, 0) + (0, 7) = (6, 1) + (1, 6) = (7, 7), two fields
    # filled up to the guard bit
    def sums(j):
        return {tuple(map(sum, zip(*picked)))
                for picked in combinations_with_replacement(monoid.atoms, j)}

    got = unpacked_k_fold_sums(monoid, k, min_total)
    assert len(got) == len(set(got))
    assert set(got) == {s for s in sums(k) if sum(s) >= min_total}
    assert elements_up_to(monoid, k) == set().union(*map(sums, range(1, k + 1)))


def recorded_length_searches(monoid, k, strategy, answer=None):
    """(target, sum) for each length search that ``union_of_lengths(monoid,
    k, strategy)`` runs, in call order: each factorization search whose
    ``wanted`` mask has one bit, the target's, records its sum, unpacked,
    and yields the target exactly when ``answer(target, sum)``, or runs as
    it is."""
    kernel = invariants._packed_factorization_counts
    calls = []

    def recorded(m, lanes, residual, total, wanted=None):
        if wanted is None or wanted <= 0 or wanted & wanted - 1:
            return kernel(m, lanes, residual, total, wanted)
        target = wanted.bit_length() - 1
        [s] = lanes.unpack_all([residual])
        assert sum(s) == total
        calls.append((target, s))
        if answer is None:
            return kernel(m, lanes, residual, total, wanted)
        return iter([target] if answer(target, s) else [])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invariants, "_packed_factorization_counts", recorded)
        union_of_lengths(monoid, k, strategy)
    return calls


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_block_monoids(), field_edge_monoids()), st.integers(1, 4))
@example(B2, 3)
def test_lattice_prune_skips_only_sums_without_the_length(monoid, k):
    # with every length search answering no, member(l) walks all its
    # candidate sums, and the ones it does not search are the ones the
    # lattice prune skipped: none of them has a factorization of max(k, l)
    # atoms
    tested = set(recorded_length_searches(monoid, k, "exhaustive", lambda *_: False))
    lengths = monoid.atom_lengths()
    lmin, lmax = min(lengths), max(lengths)
    for l in range(max(1, -(-k * lmin // lmax)), k * lmax // lmin + 1):
        small, big = min(k, l), max(k, l)
        if l != k:
            for s in unpacked_k_fold_sums(monoid, small, big * lmin):
                assert (big, s) in tested or not exists_length(monoid, s, big), (l, s)


def assert_cut_is_the_slope_bound(monoid, k):
    """For every l != k of the band, the walk with the cut yields, in the
    plain walk's order, exactly the plain sums s with g(s) <= e * g(b) / d
    for every g of G and some longer atom b, d = |b| - lmin and e = |s| -
    max(k, l) * lmin, or g(s) <= 0 without a longer atom; G is F and -F, F
    the kernel basis of the shortest atoms."""
    lengths = monoid.atom_lengths()
    lmin, lmax = min(lengths), max(lengths)
    f = kernel_basis(list(zip(*(a for a in monoid.atoms if sum(a) == lmin))))
    longer = [b for b in monoid.atoms if sum(b) > lmin]

    def dot(g, v):
        return sum(x * y for x, y in zip(g, v))

    def within(s, e):
        return all(dot(g, s) <= max((Fraction(e * dot(g, b), sum(b) - lmin) for b in longer),
                                    default=0)
                   for g in f + [[-x for x in g] for g in f])

    for l in range(max(1, -(-k * lmin // lmax)), k * lmax // lmin + 1):
        if l == k:
            continue
        small, floor = min(k, l), max(k, l) * lmin
        cut = [packed for packed, _ in invariants._k_fold_sums(monoid, small, floor, True)]
        assert invariants._sum_lanes(monoid, small).unpack_all(cut) == [
            s for s in unpacked_k_fold_sums(monoid, small, floor) if within(s, sum(s) - floor)], l


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_block_monoids(), field_edge_monoids()), st.integers(1, 4))
@example(B2, 3)
def test_k_fold_cut_yields_the_plain_sums_within_the_slope_bound(monoid, k):
    assert_cut_is_the_slope_bound(monoid, k)


def test_k_fold_cut_counts_on_rank3():
    # the cut leaves of the 5,412 five-atom sums at l = 12 none, of the
    # 45,084 at l = 11 the 1,768 within the slope bound, and at k = 15 none
    # of the 1,798,464 fifteen-atom sums at l = 37 (rho_15 = 36).  Its
    # longer atoms have three excesses, so N_g is the largest of three
    # slopes.  The exhaustive U_10 walks ten-atom sums, whose slack needs
    # lanes for ten atoms: with lanes for fewer the cut drops members
    m3 = rank3_monoid()
    assert_cut_is_the_slope_bound(m3, 2)

    def count(k, l, cut):
        return sum(1 for _ in invariants._k_fold_sums(m3, k, l * m3._lmin, cut))

    assert [count(5, 12, True), count(5, 11, True), count(15, 37, True)] == [0, 1768, 0]
    assert [count(5, 12, False), count(5, 11, False)] == [5412, 45084]
    assert union_of_lengths(m3, 10).values == set(range(4, 26))


def test_lattice_prune_at_the_top_of_rank3_u5():
    # rho_5 = 11 at rank 3: the lattice prune skips all 5,412 five-atom sums
    # of total length at least 12 * lmin = 24, and none of them has a
    # factorization of 12 atoms.  The extremes then run two length
    # searches, the first candidate of l = 11 and of lambda's l = 2, and both
    # hit; without the prune they ran 5,614, all 5,412 at l = 12 among them
    from zsl.constructions import hypercube_pm

    m3 = block_monoid(enumerate_atoms(hypercube_pm(3)))
    calls = recorded_length_searches(m3, 5, "extremes")
    assert [target for target, _ in calls] == [11, 5]
    candidates = unpacked_k_fold_sums(m3, 5, 24)
    assert len(candidates) == 5412
    assert not any(exists_length(m3, s, 12) for s in candidates)


def kruskal_catenary(zs):
    """Every pairwise ``distance`` sorted, then joined by union-find until
    the graph is connected: a reference for the threshold growth of
    ``catenary_from_factorizations``."""
    k = len(zs)
    if k <= 1:
        return 0
    edges = sorted((distance(zs[i], zs[j]), i, j)
                   for i in range(k) for j in range(i + 1, k))
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    remaining = k - 1
    for d, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            remaining -= 1
            if not remaining:
                return d
    raise AssertionError("distance graph must be connected")


@st.composite
def factorization_lists(draw):
    """The factorizations of an element S or S(-S) of a small symmetric block
    monoid, in search order and shuffled.  S is a sum of atoms, of length
    at least 3 where there are any, so that S(-S) has several
    factorizations.  The ground is sorted and closed under negation, so -S
    is S reversed."""
    monoid = draw(small_block_monoids())
    long = [i for i, a in enumerate(monoid.atoms) if sum(a) >= 3]
    counts = [0] * monoid.atom_count
    for i in draw(st.lists(st.sampled_from(long or range(monoid.atom_count)),
                           min_size=1, max_size=4)):
        counts[i] += 1
    x = monoid.element(counts)
    if draw(st.booleans()):
        x = tuple(a + b for a, b in zip(x, reversed(x)))
    zs = factorizations(monoid, x)
    return zs, draw(st.permutations(zs))


@settings(max_examples=200, deadline=None)
@given(factorization_lists())
def test_catenary_matches_kruskal_reference_on_random_monoids(case):
    zs, shuffled = case
    c = kruskal_catenary(zs)
    assert catenary_from_factorizations(zs) == c
    assert catenary_from_factorizations(shuffled) == c


@st.composite
def count_vector_lists(draw):
    """Arbitrary count vectors, not only the factorizations of one element,
    with duplicates (distance 0) and neighbours z + e_i or z - e_i + e_j
    (distance 1) of some of them, shuffled."""
    dim = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(0, 4)] * dim)
    zs = draw(st.lists(vector, max_size=10))
    for z in list(zs):
        kind = draw(st.sampled_from(["none", "duplicate", "plus", "move"]))
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        if kind == "duplicate":
            zs.append(z)
        elif kind == "plus":
            zs.append(z[:i] + (z[i] + 1,) + z[i + 1:])
        elif kind == "move" and z[i] and i != j:
            w = list(z)
            w[i] -= 1
            w[j] += 1
            zs.append(tuple(w))
    return draw(st.permutations(zs))


@settings(max_examples=300, deadline=None)
@given(count_vector_lists())
def test_catenary_matches_kruskal_reference_on_arbitrary_vectors(zs):
    assert catenary_from_factorizations(zs) == kruskal_catenary(zs)


@st.composite
def packed_count_lists(draw):
    """The entry count and a list of count vectors, possibly empty or of
    one vector, shuffled; often with one vector of a single count
    2^k - 1 or 2^k, k >= 4, above every other length, so that a count
    sits at the lanes' largest value."""
    dim = draw(st.integers(1, 4))
    zs = draw(st.lists(st.tuples(*[st.integers(0, 3)] * dim), max_size=8))
    if draw(st.booleans()):
        edge = (1 << draw(st.integers(4, 7))) - draw(st.integers(0, 1))
        i = draw(st.integers(0, dim - 1))
        zs.append((0,) * i + (edge,) + (0,) * (dim - 1 - i))
    return dim, draw(st.permutations(zs))


@settings(max_examples=300, deadline=None)
@example((2, []))
@example((1, [(15,)]))
@example((3, [(16, 0, 0), (0, 0, 1), (0, 1, 0)]))
@given(packed_count_lists())
def test_packed_catenary_matches_kruskal_reference(case):
    # the kernel on count vectors packed in the lex lanes of their largest
    # length, sorted as catenary_element feeds it and in any other order
    dim, zs = case
    lanes = _Lanes(dim, max(map(sum, zs), default=0), lex=True)
    packed = list(map(lanes.pack, zs))
    assert lanes.unpack_all(packed) == zs
    assert invariants._packed_lengths(lanes, packed) == [sum(z) for z in zs]
    want = kruskal_catenary(zs)
    assert invariants._packed_catenary(lanes, sorted(packed)) == want
    assert invariants._packed_catenary(lanes, packed) == want


def test_catenary_bound_rises_along_a_chain():
    # the chain (t, 0), t = 0, 1, 3, 6, 10 has gaps 1, 2, 3, 4, and no other
    # vector is nearer to a chain prefix than the next gap, so the tree from
    # (0, 0) is stuck at each gap and the bound rises to 1, 2, 3 and 4 in
    # turn; each prefix ends at its own largest gap.  The path (10 - s, s),
    # s = 1 .. 10, of steps 1 then joins within 4, and (0, 20), 10 from its
    # end and farther from the rest, raises the bound once more, to 10
    chain = [(0, 0), (1, 0), (3, 0), (6, 0), (10, 0)]
    path = [(10 - s, s) for s in range(1, 11)] + [(0, 20)]
    for end, c in ((2, 1), (3, 2), (4, 3), (5, 4)):
        assert catenary_from_factorizations(chain[:end]) == c == kruskal_catenary(chain[:end])
    zs = chain + path
    assert kruskal_catenary(zs) == 10
    for order in (zs, zs[::-1], zs[1::2] + zs[::2]):
        assert catenary_from_factorizations(order) == 10


def test_field_edge_coordinates_factor_exactly():
    # a coordinate of 2^k - 1 or 2^k, above every atom coordinate, sets the
    # field width; both sides of each power of two must factor exactly
    m = PresentedMonoid(2, [(3, 0), (1, 1), (0, 2)])
    for k in range(1, 9):
        for v in ((1 << k) - 1, 1 << k):
            x = (v, 2)
            assert_packed_search_matches_reference(m, x)
            want = sorted((a, b, c) for b, c in ((0, 1), (2, 0)) for a in range(v + 1)
                          if 3 * a + b == v)
            assert factorizations(m, x) == want


def test_negative_coordinates_never_reach_the_search(monkeypatch):
    # no factorization has a negative coordinate: exists_length says so,
    # factorizations and set_of_lengths reject the input, and the search
    # kernel does not run
    def unreachable(*args):
        raise AssertionError("the search was given a negative coordinate")

    monkeypatch.setattr(invariants, "_packed_factorization_counts", unreachable)
    x = (-1, 2, 0, 0, 1, 0)
    for target in range(0, 4):
        assert exists_length(B2, x, target) is False
    # coordinates summing to 0 give no length band, but still no length 0
    assert exists_length(B2, (-1, 1, 0, 0, 0, 0), 0) is False
    with pytest.raises(ValueError, match="nonnegative"):
        factorizations(B2, x)
    with pytest.raises(ValueError, match="nonnegative"):
        set_of_lengths(B2, x)


def test_element_dimension_mismatch_raises():
    for short in ((1, 1), (0,) * 7):
        with pytest.raises(ValueError, match="dimension"):
            factorizations(B2, short)
        with pytest.raises(ValueError, match="dimension"):
            exists_length(B2, short, 1)
        with pytest.raises(ValueError, match="dimension"):
            set_of_lengths(B2, short)


def test_tau_and_tame_r2():
    # every atom of the rank-2 signed hypercube monoid is non-prime and the
    # largest tame degree equals the largest atom length
    tvals = []
    for i in range(B2.atom_count):
        w = omega(B2, i, "minimal-cover")
        t = tau(B2, i)
        assert w > 1
        tvals.append(tame_degree(B2, i))
        assert tvals[-1] == max(w, t + 1)
    assert max(tvals) == 3


def test_tame_degree_of_prime_is_zero():
    f = free_monoid(2)
    assert tame_degree(f, 0) == 0


def test_half_factorial_free_monoid():
    f = free_monoid(3)
    for x in elements_up_to(f, 4):
        assert set_of_lengths(f, x) == (sum(x),)


def test_half_factorial_fails_for_block_monoid():
    lengths = {set_of_lengths(B2, x) for x in elements_up_to(B2, 2)}
    assert (2, 3) in lengths


def test_catenary_bounded_by_davenport_on_samples():
    # every sampled element: distances, catenary and length sets behave
    d = 3
    for x in sorted(elements_up_to(B2, 3)):
        zs = factorizations(B2, x)
        assert zs
        c = catenary_element(B2, x)
        assert c <= d
        if c == 0:
            assert len(zs) == 1
        lengths = set_of_lengths(B2, x)
        gaps = [b - a for a, b in zip(lengths, lengths[1:])]
        if gaps:
            assert 2 + max(gaps) <= c


def test_omega_modes_agree_on_all_r2_atoms():
    for i in range(B2.atom_count):
        assert omega(B2, i, "minimal-cover") == omega(B2, i, "definition-budget")


def omega_definition_replay(monoid, atom_index, budget):
    """omega over the atom multisets of size <= budget, read off the
    definition: for every multiset z whose product the atom divides, the
    least size of a sub-multiset of z that it still divides, found by trying
    them all."""
    u = monoid.atoms[atom_index]
    worst = 0
    for size in range(1, budget + 1):
        for combo in combinations_with_replacement(range(monoid.atom_count), size):
            z = [combo.count(i) for i in range(monoid.atom_count)]
            if monoid.divides(u, monoid.element(z)):
                worst = max(worst, min(sum(y) for y in product(*(range(c + 1) for c in z))
                                       if monoid.divides(u, monoid.element(y))))
    return worst


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2))
                .filter(lambda v: v > (0, 0)), min_size=2, max_size=3, unique=True))
def test_omega_oracle_matches_literal_replay(vectors):
    # lexicographically positive vectors with their negatives: a symmetric
    # ground, whose atoms reach length 6
    elements = sorted(set(vectors) | {(-x, -y) for x, y in vectors})
    atom_set = enumerate_atoms(GroundSet.from_elements(2, elements), budget=6)
    assume(atom_set.complete)
    monoid = block_monoid(atom_set)
    for i in range(monoid.atom_count):
        assert omega(monoid, i, "definition-budget") == \
            omega_definition_replay(monoid, i, sum(monoid.atoms[i]))


@st.composite
def monoids_with_outside_atoms(draw):
    """A monoid in N0^(m+1): the componentwise-minimal ones among a few
    vectors of [0, 2]^m (an antichain), each with last coordinate 0, and
    (0, ..., 0, k), which misses the support of every other atom; zero
    entries make more atoms miss some supports."""
    m = draw(st.integers(1, 3))
    vectors = draw(st.lists(st.tuples(*[st.integers(0, 2)] * m).filter(any),
                            min_size=1, max_size=5, unique=True))
    kept = [v for v in vectors
            if not any(w != v and all(x <= y for x, y in zip(w, v)) for w in vectors)]
    k = draw(st.integers(1, 2))
    return PresentedMonoid(m + 1, tuple(v + (0,) for v in kept) + ((0,) * m + (k,),))


@settings(max_examples=80, deadline=None)
@given(monoids_with_outside_atoms())
def test_omega_oracle_matches_literal_replay_with_outside_atoms(monoid):
    # atoms with no entry on supp(u) are dropped before the growth, and each
    # covering multiset (u alone among them) is not grown: the literal
    # replay, which keeps every atom and grows every multiset, agrees
    for i, u in enumerate(monoid.atoms):
        assert any(not any(a[k] for k in range(len(u)) if u[k]) for a in monoid.atoms)
        assert omega(monoid, i, "definition-budget") == \
            omega_definition_replay(monoid, i, sum(u)) == omega(monoid, i, "minimal-cover")


def test_omega_oracle_never_calls_minimal_covers(monkeypatch):
    from zsl import invariants
    from zsl.certify import ACM_SPEC
    from zsl.models import AcmModel

    monoid = AcmModel(ACM_SPEC).presented()
    expected = [omega(monoid, i, "minimal-cover") for i in range(monoid.atom_count)]

    def forbidden(*args, **kwargs):
        raise AssertionError("the omega oracle called the minimal-cover search")

    monkeypatch.setattr(invariants, "_minimal_solutions", forbidden)
    monkeypatch.setattr(invariants, "minimal_covers", forbidden)
    assert [omega(monoid, i, "definition-budget")
            for i in range(monoid.atom_count)] == expected
    assert max(expected) == 5


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("m_offset", [-1, 0])
def test_omega_oracle_at_the_field_edges(k, m_offset):
    # (m, 0) is covered by m copies of (1, 1) and by no fewer of them: with
    # m = 2^k - 1 that count fills every bit of its m.bit_length()-bit field,
    # with m = 2^k the field is one bit wider and the count sets only its top
    m = (1 << k) + m_offset
    monoid = PresentedMonoid(2, ((m, 0), (1, 1), (0, 3)))
    got = [omega(monoid, i, "definition-budget") for i in range(monoid.atom_count)]
    assert got == [omega_definition_replay(monoid, i, sum(a))
                   for i, a in enumerate(monoid.atoms)]
    assert got == [m, 2, 3]


@pytest.mark.parametrize("monoid, expected", [
    # (1, 0, 0) alone reaches the first coordinate, so it is prime
    (PresentedMonoid(3, ((1, 0, 0), (0, 1, 1), (0, 2, 0), (0, 0, 2))), [1, 2, 2, 2]),
    (free_monoid(3), [1, 1, 1]),
    # a one-atom monoid: its atom is prime
    (PresentedMonoid(2, ((2, 3),)), [1]),
])
def test_omega_oracle_on_prime_atoms(monoid, expected):
    got = [omega(monoid, i, "definition-budget") for i in range(monoid.atom_count)]
    assert got == expected == [omega_definition_replay(monoid, i, sum(a))
                               for i, a in enumerate(monoid.atoms)]


def test_omega_modes_agree_on_rank3_atoms():
    from zsl.constructions import hypercube_pm

    m3 = block_monoid(enumerate_atoms(hypercube_pm(3)))
    lengths = [sum(a) for a in m3.atoms]
    picked = [i for i, n in enumerate(lengths) if n <= 3] + [lengths.index(4),
                                                             lengths.index(5)]
    assert len(picked) == 21
    for i in picked:
        assert omega(m3, i, "definition-budget") == omega(m3, i, "minimal-cover") \
            == lengths[i]


def tau_definition_replay(monoid, atom_index, budget):
    """Independent oracle for tau: scan every atom multiset up to the budget,
    keep those that the atom divides but no single removal of which it still
    divides, and take the largest minimal factorization length of the
    quotient, from its set of lengths."""
    u = monoid.atoms[atom_index]
    best = 0
    for size in range(1, budget + 1):
        for combo in combinations_with_replacement(range(monoid.atom_count), size):
            z = [0] * monoid.atom_count
            for i in combo:
                z[i] += 1
            b = monoid.element(z)
            if not monoid.divides(u, b):
                continue
            qualifying = True
            for i in set(combo):
                z2 = list(z)
                z2[i] -= 1
                if monoid.divides(u, monoid.element(z2)):
                    qualifying = False
                    break
            if not qualifying:
                continue
            quotient = tuple(x - y for x, y in zip(b, u))
            best = max(best, min(set_of_lengths(monoid, quotient)))
    return best


def test_tau_matches_definition_replay():
    # the minimal-bundle reduction inside tau() is exact; replaying the raw
    # definition over all bounded bundles must give the same value
    for i in range(B2.atom_count):
        budget = sum(B2.atoms[i])
        assert tau(B2, i) == tau_definition_replay(B2, i, budget)
    f = free_monoid(2)
    for i in range(2):
        assert tau(f, i) == tau_definition_replay(f, i, 2) == 0


def test_rho5_rank3_independent_route():
    # the top of the union through 5 at rank 3: scan a deterministic slice of
    # the five-atom sums big enough to carry a 12-length factorization and
    # confirm the maximum length is 11 from the full sets of lengths (an
    # independent route from the exists-length search used by the extremes
    # strategy, which sweeps all candidates)
    from zsl.atoms import enumerate_atoms as enum
    from zsl.constructions import hypercube_pm
    m3 = block_monoid(enum(hypercube_pm(3)))
    candidates = sorted(unpacked_k_fold_sums(m3, 5, 24))
    assert len(candidates) > 5000
    sample = candidates[::17]
    worst = max(max(set_of_lengths(m3, s)) for s in sample)
    assert worst == 11


def test_union_k4_interval_rank3_from_witnesses():
    # the union through 4 at rank 3 is the full interval [2, 10]: the top half
    # comes from concatenating two 2-atom witnesses, the bottom from explicit
    # elements with both a 4-length and a short factorization
    from zsl.atoms import enumerate_atoms as enum
    from zsl.constructions import hypercube_pm

    m3 = __import__("zsl.invariants", fromlist=["block_monoid"]).block_monoid(
        enum(hypercube_pm(3)))
    ext = union_of_lengths(m3, 4, "extremes")
    assert ext.rho == 10 and ext.lam == 2
    # witnesses: for each atom length 2..5 find a two-atom product whose
    # lengths contain both 2 and that length ((-U)U does the job)
    samples = {}
    for i in range(m3.atom_count):
        u = m3.atoms[i]
        length = sum(u)
        if length in samples:
            continue
        # find the negated atom by matching the reversed support pattern
        for j in range(m3.atom_count):
            x = tuple(a + b for a, b in zip(u, m3.atoms[j]))
            lengths = set_of_lengths(m3, x)
            if 2 in lengths and length in lengths:
                samples[length] = x
                break
    assert set(samples) == {2, 3, 4, 5}
    found = set()
    for x in (2, 3, 4, 5):
        for y in (2, 3, 4, 5):
            ab = tuple(p + q for p, q in zip(samples[x], samples[y]))
            lengths = set_of_lengths(m3, ab)
            assert 4 in lengths and x + y in lengths
            found.add(x + y)
    assert found == set(range(4, 11))
    # 2 and 3 complete the interval: lambda_4 = 2 covers 2, and a triple atom
    # times a 5-atom pair element carries lengths {3, 4}
    triple = next(i for i in range(m3.atom_count) if sum(m3.atoms[i]) == 3)
    x = tuple(p + q for p, q in zip(samples[3], m3.atoms[triple]))
    lengths = set_of_lengths(m3, x)
    assert 3 in lengths and 4 in lengths
