import sys
from functools import cache
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zsl.atoms import enumerate_atoms
from zsl import invariants
from zsl.ground import GroundSet, Sequence
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
    min_length,
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


def test_min_max_length():
    x = tuple(a + b for a, b in zip(TRIPLE, TRIPLE_NEG))
    assert min_length(B2, x) == 2 == min(set_of_lengths(B2, x))
    assert max(set_of_lengths(B2, x)) == 3
    assert min_length(B2, vec([((1, 0), 1)])) is None


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
        t = max(min(set_of_lengths(monoid, [x - y for x, y in zip(monoid.element(z), u)]))
                for z in covers)
        assert atom_invariants(monoid, i) == {
            "omega": w, "tau": t, "tame": 0 if w <= 1 else max(w, t + 1)}


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
    """The factorization search with each residual held as a tuple and
    every node test done coordinate by coordinate: a reference for the
    packed residuals of ``_factorization_counts`` (no target, with the same
    search order, child order and pruning), and, with a target, for
    ``exists_length``: it yields the factorizations of exactly ``target``
    atoms, pruning only a residual whose length does not sit between
    k * (shortest atom) and k * (longest atom) for the k picks left."""
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


def tuple_length_search(monoid, x, target):
    """The length-budget search of ``invariants._has_length`` over tuple
    residuals: whether x has a factorization of ``target`` atoms, and the
    search positions of the nodes it expanded, in order.  The slack jump
    walks forward atom by atom instead of reading a table."""
    atoms = monoid.atoms
    order, masks = search_order_and_masks(monoid)
    n = len(order)
    lengths = [sum(atoms[i]) for i in order]
    expanded = []
    stack = [(0, tuple(x), target)]
    while stack:
        pos, residual, left = stack.pop()
        if not any(residual):
            if left == 0:
                return True, expanded
            continue
        total = sum(residual)
        slack = total - left * lengths[-1] if n else -1
        if slack < 0:
            continue
        while pos < n and lengths[pos] > lengths[-1] + slack:
            pos += 1
        if pos == n or total > left * lengths[pos]:
            continue
        if any(r and not m for r, m in zip(residual, masks[pos])):
            continue
        expanded.append(pos)
        atom = atoms[order[pos]]
        cap = min(left, min(r // a for r, a in zip(residual, atom) if a))
        for c in range(cap + 1):
            stack.append((pos + 1, tuple(r - c * a for r, a in zip(residual, atom)), left - c))
    return False, expanded


def packed_length_search(monoid, x, target):
    """``invariants._has_length`` on x, with the search positions of the
    nodes it expanded: the kernel reads the packed atom of a node exactly
    when it expands it, so a recording tuple in the monoid's packing cache
    sees each.  The cache entry is restored afterwards."""
    width = invariants._field_width(monoid, x)
    packing = monoid._packed(width)
    expanded = []

    class Recording(tuple):
        def __getitem__(self, pos):
            expanded.append(pos)
            return tuple.__getitem__(self, pos)

    monoid._packings[width] = (Recording(packing[0]),) + packing[1:]
    try:
        hit = invariants._has_length(monoid, x, target)
    finally:
        monoid._packings[width] = packing
    return hit, expanded


def assert_packed_search_matches_reference(monoid, x):
    """Same count vectors, in the same order, from the full search; and at
    every target of the length band and one beyond each end of it, the
    same answer as the bounded tuple reference from the length-budget
    search, which expands the same nodes as its tuple twin."""
    x = tuple(x)
    assert list(invariants._factorization_counts(monoid, x)) == \
        list(tuple_factorization_counts(monoid, x)), x
    band = invariants._length_band(monoid, x)
    lo, hi = band if band is not None else (0, 0)
    for target in range(lo - 1, hi + 2):
        want = next(tuple_factorization_counts(monoid, x, target), None) is not None
        got = packed_length_search(monoid, x, target)
        assert got == tuple_length_search(monoid, x, target), (x, target)
        assert got[0] == want, (x, target)


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
    f = free_monoid(600)
    assert_packed_search_matches_reference(f, tuple(i % 3 for i in range(600)))


@st.composite
def uniform_length_monoids(draw):
    """Atoms of N0^3 all of length 3: any set of them is pairwise
    incomparable, and the slack table has one entry."""
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
        assert monoid._slack_start == (0,)
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
        band = invariants._length_band(monoid, x)
        lo, hi = band if band is not None else (0, 0)
        for target in range(lo - 1, hi + 2):
            want = next(tuple_factorization_counts(monoid, x, target), None) is not None
            assert exists_length(monoid, x, target) == want == (target in lengths), (x, target)


def test_rank3_union_top_misses_at_slack_zero():
    # l = 12 in U_5 at rank 3 needs a five-atom sum of total length at least
    # 12 * lmin = 24, and 5 * lmax = 25: each search at l = 12 starts with
    # slack 0 or 1, so it jumps past the length-5 (and, at slack 0, the
    # length-3 and length-4) atoms; none hits, while l = 11 does
    from zsl.constructions import hypercube_pm
    from zsl.invariants import _k_fold_sums

    m3 = block_monoid(enumerate_atoms(hypercube_pm(3)))
    assert m3._slack_start[0] == sorted(m3.atom_lengths(), reverse=True).index(2)
    sums = list(_k_fold_sums(m3, 5, 24))
    assert {sum(s) for s in sums} == {24, 25}
    assert not any(exists_length(m3, s, 12) for s in sums)
    assert any(exists_length(m3, s, 11) for s in _k_fold_sums(m3, 5, 22))
    for s in sums[::97]:
        hit, expanded = packed_length_search(m3, s, 12)
        assert not hit and (hit, expanded) == tuple_length_search(m3, s, 12)
        if sum(s) == 24:
            assert not expanded or expanded[0] >= m3._slack_start[0]
    ext = union_of_lengths(m3, 5, "extremes")
    assert (ext.rho, ext.lam) == (11, 2)


def kruskal_catenary(zs):
    """Every pairwise ``distance`` sorted, then joined by union-find until
    the graph is connected: a reference for the Prim tree of
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
    # min_length finds no length, factorizations and set_of_lengths reject
    # the input, and neither search kernel runs
    def unreachable(*args):
        raise AssertionError("the search was given a negative coordinate")

    monkeypatch.setattr(invariants, "_factorization_counts", unreachable)
    monkeypatch.setattr(invariants, "_has_length", unreachable)
    x = (-1, 2, 0, 0, 1, 0)
    for target in range(0, 4):
        assert exists_length(B2, x, target) is False
    assert min_length(B2, x) is None
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
    quotient."""
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
            best = max(best, min_length(monoid, quotient))
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
    from zsl.invariants import _k_fold_sums, block_monoid

    m3 = block_monoid(enum(hypercube_pm(3)))
    candidates = sorted(_k_fold_sums(m3, 5, 24))
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
