import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsl.atoms import (
    AtomSet,
    _augmented_columns,
    _is_circuit,
    _max_last_divisor,
    _minimal_solutions,
    brute_force_atoms,
    circuit_length,
    davenport,
    davenport_upper_bounds,
    ell_bound,
    elementary_davenport,
    enumerate_atoms,
    has_elementary_atom,
    hypercube_davenport_ceiling,
    is_elementary,
    is_elementary_by_search,
    longest_circuit,
    rational_elementary_decomposition,
)
from zsl.constructions import hypercube_pm
from zsl.ground import GroundSet, Sequence, negate
from zsl.intlinalg import primitive_kernel_vector, rank_over_q, smith_normal_form


def pm_ground(r):
    plus = [tuple((mask >> i) & 1 for i in range(r)) for mask in range(1, 1 << r)]
    elems = sorted(plus + [tuple(-x for x in v) for v in plus])
    return GroundSet.from_elements(r, elems)


PM1 = pm_ground(1)
PM2 = pm_ground(2)
PM3 = pm_ground(3)


def test_enumerate_single_cancellation():
    atoms = enumerate_atoms(PM1)
    assert atoms.complete
    assert [a.mult for a in atoms.atoms] == [(1, 1)]
    assert davenport(atoms).value == 2


def test_enumerate_two_three():
    g = GroundSet.from_elements(1, [(2,), (-3,)])
    atoms = enumerate_atoms(g)
    assert atoms.complete
    # brute force over x in N0^2 with 2 x1 = 3 x2, componentwise minimal
    oracle = brute_force_atoms(g, 8)
    assert [a.mult for a in atoms.atoms] == [a.mult for a in oracle] == [(3, 2)]
    assert atoms.atoms[0].length == 5


def test_enumerate_detects_zero_element_atom():
    g = GroundSet.from_elements(1, [(0,), (1,), (-1,)])
    atoms = enumerate_atoms(g)
    assert atoms.complete
    mults = {a.mult for a in atoms.atoms}
    assert (1, 0, 0) in mults  # the zero vector alone is an atom
    assert (0, 1, 1) in mults


def test_no_atoms_davenport_zero():
    g = GroundSet.from_elements(1, [(1,)])
    res = davenport(enumerate_atoms(g))
    assert res.value == 0 and res.exact and res.witnesses == ()


def test_r2_davenport_three():
    atoms = enumerate_atoms(PM2)
    assert atoms.complete
    assert davenport(atoms).value == 3
    assert len(atoms.atoms) == 5  # 3 cancelling pairs + 2 triples


def test_r3_davenport_five_and_length5_count():
    atoms = enumerate_atoms(PM3)
    assert atoms.complete
    assert davenport(atoms).value == 5
    assert sum(1 for a in atoms.atoms if a.length == 5) == 8


def test_atoms_pairwise_incomparable():
    atoms = enumerate_atoms(PM3)
    for a, b in combinations(atoms.atoms, 2):
        assert not a.divides(b)
        assert not b.divides(a)


def random_ground(rng, r):
    n = rng.randint(2, min(8, 7 ** r - 1))
    elems = set()
    while len(elems) < n:
        elems.add(tuple(rng.randint(-3, 3) for _ in range(r)))
    return GroundSet.from_elements(r, sorted(elems))


def test_enumeration_matches_brute_force_oracle():
    rng = random.Random(2024)
    for _ in range(12):
        r = rng.randint(1, 3)
        g = random_ground(rng, r)
        fast = [a.mult for a in enumerate_atoms(g, budget=7).atoms]
        slow = [a.mult for a in brute_force_atoms(g, 7)]
        assert [m for m in fast if sum(m) <= 7] == slow


def test_enumeration_matches_brute_force_on_signed_hypercube_r3():
    fast = [a.mult for a in enumerate_atoms(PM3).atoms]
    slow = [a.mult for a in brute_force_atoms(PM3, 5)]
    assert fast == slow
    assert len(fast) == 41


def linear_scan_atoms(ground, budget):
    """The completion enumerator with its dominance test as a plain scan of
    every atom found so far, for every frontier tuple and every child: a
    reference for the indexed test of ``enumerate_atoms``."""
    n = len(ground)
    vectors = ground.elements
    zero_sigma = (0,) * ground.rank
    atoms = []

    def dominates_atom(t):
        return any(all(a <= b for a, b in zip(atom, t)) for atom in atoms)

    frontier = {tuple(int(i == j) for i in range(n)): v for j, v in enumerate(vectors)}
    length = 1
    while frontier and length <= budget:
        extendable = []
        for t, sigma in frontier.items():
            if sigma == zero_sigma:
                if not dominates_atom(t):
                    atoms.append(t)
            else:
                extendable.append((t, sigma))
        next_frontier = {}
        for t, sigma in extendable:
            if dominates_atom(t):
                continue
            for j, v in enumerate(vectors):
                if sum(s * x for s, x in zip(sigma, v)) >= 0:
                    continue
                t2 = t[:j] + (t[j] + 1,) + t[j + 1:]
                if t2 in next_frontier or dominates_atom(t2):
                    continue
                next_frontier[t2] = tuple(s + x for s, x in zip(sigma, v))
        frontier = next_frontier
        length += 1
    return sorted(atoms), not frontier


@st.composite
def small_grounds(draw):
    rank = draw(st.integers(2, 3))
    elems = draw(st.sets(st.tuples(*[st.integers(-3, 3)] * rank), min_size=3, max_size=7))
    return GroundSet.from_elements(rank, sorted(elems))


@settings(max_examples=400, deadline=None)
@given(small_grounds(), st.integers(1, 7))
def test_indexed_enumerator_matches_linear_scan_and_brute_force(ground, budget):
    got = enumerate_atoms(ground, budget)
    mults = [a.mult for a in got.atoms]
    assert (mults, got.complete) == linear_scan_atoms(ground, budget)
    assert [m for m in mults if sum(m) <= budget] == \
        [a.mult for a in brute_force_atoms(ground, budget)]


def tuple_minimal_solutions(vectors, frontier, size, budget, clip):
    """The completion kernel with each count tuple held as a tuple and
    dominance tested coordinate by coordinate: a reference for the packed
    ints of ``_minimal_solutions``."""
    zero = (0,) * len(vectors[0]) if vectors else ()
    solutions = []
    by_coordinate = {}
    length = size
    while frontier and length <= budget:
        for t, (state, mask) in frontier.items():
            if state == zero:
                solutions.append(t)
                for j, c in enumerate(t):
                    if c:
                        by_coordinate.setdefault((j, c), []).append((mask, t))
        next_frontier = {}
        for t, (state, mask) in frontier.items():
            if state == zero:
                continue
            for j, v in enumerate(vectors):
                if sum(s * x for s, x in zip(state, v)) >= 0:
                    continue
                t2 = list(t)
                t2[j] += 1
                t2 = tuple(t2)
                if t2 in next_frontier:
                    continue
                mask2 = mask | (1 << j)
                if any(not found_mask & ~mask2 and all(a <= b for a, b in zip(found, t2))
                       for found_mask, found in by_coordinate.get((j, t2[j]), ())):
                    continue
                if clip:
                    state2 = tuple(max(s + x, 0) for s, x in zip(state, v))
                else:
                    state2 = tuple(s + x for s, x in zip(state, v))
                next_frontier[t2] = (state2, mask2)
        frontier = next_frontier
        length += 1
    return solutions, not frontier


@st.composite
def kernel_inputs(draw):
    """Vectors in [-3, 3]^r, r <= 3, with the unit-tuple frontier of
    ``enumerate_atoms`` (clip off) or the zero tuple with a nonnegative
    state, as ``minimal_covers`` starts (clip on)."""
    rank = draw(st.integers(1, 3))
    vectors = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * rank), min_size=1, max_size=7))
    clip = draw(st.booleans())
    n = len(vectors)
    if clip:
        need = draw(st.tuples(*[st.integers(0, 4)] * rank))
        frontier, size = {(0,) * n: (need, 0)}, 0
    else:
        frontier = {tuple(int(i == j) for i in range(n)): (v, 1 << j)
                    for j, v in enumerate(vectors)}
        size = 1
    return vectors, frontier, size, draw(st.integers(1, 8)), clip


@settings(max_examples=400, deadline=None)
@given(kernel_inputs())
def test_packed_kernel_matches_tuple_reference(inputs):
    vectors, frontier, size, budget, clip = inputs
    assert _minimal_solutions(vectors, dict(frontier), size, budget, clip) == \
        tuple_minimal_solutions(vectors, dict(frontier), size, budget, clip)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("m_offset", [-1, 0])
@pytest.mark.parametrize("budget_offset", [-1, 0, 1])
def test_long_single_atom_at_the_field_edges(k, m_offset, budget_offset):
    # the one atom of {(m,), (-1,)} is (1, m), of length m + 1: with m = 2^k - 1
    # it carries the count 2^k - 1, and the budgets straddle its length
    m = (1 << k) + m_offset
    ground = GroundSet.from_elements(1, [(m,), (-1,)])
    budget = m + budget_offset
    got = enumerate_atoms(ground, budget)
    assert [a.mult for a in got.atoms] == [a.mult for a in brute_force_atoms(ground, budget)]
    assert got.complete == (budget >= m + 1)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("budget_offset", [-1, 0, 1])
def test_count_at_the_top_of_a_field(k, budget_offset):
    # from the zero tuple, each copy of (-1,) lowers the clipped state (m,)
    # by one, so the one solution is (m,); at budget m - 1 = 2^k - 2 the last
    # child holds the count m = 2^k - 1, the largest below its guard bit
    m = (1 << k) - 1
    budget = m + budget_offset
    args = ([(-1,)], {(0,): ((m,), 0)}, 0, budget, True)
    got = _minimal_solutions(*args)
    assert got == tuple_minimal_solutions(*args)
    assert got == (([(m,)], True) if budget >= m else ([], False))


def test_square_ground_hilbert_basis():
    # the 24 nonzero points of [-2, 2]^2
    g = GroundSet.from_elements(2, [(x, y) for x in range(-2, 3) for y in range(-2, 3)
                                    if (x, y) != (0, 0)])
    atoms = enumerate_atoms(g)
    assert atoms.complete
    assert len(atoms.atoms) == 4088
    assert davenport(atoms).value == 13


def test_rank4_hypercube_at_budget5():
    atoms = enumerate_atoms(hypercube_pm(4), budget=5)
    assert not atoms.complete
    assert len(atoms.atoms) == 641
    assert atoms.max_length() == 5


def test_is_elementary_requires_zero_sum():
    with pytest.raises(ValueError):
        is_elementary(Sequence.from_terms(PM2, [((1, 0), 1)]))


def test_balanced_product_not_elementary():
    s = Sequence.from_terms(PM2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
    assert not is_elementary(s)
    assert not is_elementary_by_search(s, enumerate_atoms(PM2))


def test_two_three_atom_elementary():
    g = GroundSet.from_elements(1, [(2,), (-3,)])
    u = Sequence(g, (3, 2))
    assert is_elementary(u)
    assert is_elementary_by_search(u, enumerate_atoms(g))


def test_elementary_agrees_with_search_oracle_r2_r3():
    for ground in (PM2, PM3):
        atom_set = enumerate_atoms(ground)
        for a in atom_set.atoms:
            assert is_elementary(a) == is_elementary_by_search(a, atom_set)


def test_elementary_agrees_with_search_oracle_random_grounds():
    rng = random.Random(555)
    checked = 0
    while checked < 60:
        g = random_ground(rng, rng.randint(1, 2))
        atom_set = enumerate_atoms(g, budget=10)
        if not atom_set.complete:
            continue
        for a in atom_set.atoms:
            assert is_elementary(a) == is_elementary_by_search(a, atom_set)
            checked += 1


def test_elementary_atom_support_bound():
    # an elementary atom whose support misses its negation has small support
    for ground in (PM2, PM3):
        for a in enumerate_atoms(ground).atoms:
            if a.length >= 3 and is_elementary(a):
                assert len(a.support()) <= ground.rank + 1


def test_elementary_atoms_unique_per_signed_support():
    for ground in (PM2, PM3):
        seen = {}
        for a in enumerate_atoms(ground).atoms:
            if not is_elementary(a):
                continue
            key = a.signed_support()
            seen.setdefault(key, []).append(a)
        for group in seen.values():
            mults = {a.mult for a in group}
            assert len(mults) <= 2
            if len(mults) == 2:
                a, b = group[0], group[1]
                assert a.negated() == b


def carriers(atom_set, signed_set):
    """The atoms whose signed support is ``signed_set``, as multiplicity
    vectors: by the uniqueness theorem, the elementary atom of that support
    and its negative, or nothing."""
    assert atom_set.complete
    return {a.mult for a in atom_set.atoms if a.signed_support() == frozenset(signed_set)}


def test_elementary_powers_characterization():
    # every power of an elementary atom is elementary, and its signed support
    # carries that atom and its negative and no other atom
    atom_set = enumerate_atoms(PM2)
    elems = [a for a in atom_set.atoms if a.length >= 3 and is_elementary(a)]
    assert elems
    for a in elems:
        for k in (1, 2, 3):
            s = Sequence(PM2, tuple(k * m for m in a.mult))
            assert is_elementary(s)
            assert carriers(atom_set, s.signed_support()) == {a.mult, a.negated().mult}


def test_circuit_length_rank1():
    assert circuit_length([(2,), (-3,)]) == 5


def test_circuit_length_rank_deficient_tuple():
    assert circuit_length([(1, 0), (2, 0), (-1, 0)]) == 0


def test_circuit_length_simplex():
    assert circuit_length([(1, 0), (0, 1), (-1, -1)]) == 3


def test_circuit_length_dimension_mismatch():
    with pytest.raises(ValueError):
        circuit_length([(1, 0), (0, 1)])


def test_elementary_davenport_r2_both_methods():
    assert elementary_davenport(PM2, "both") == 3


def test_elementary_davenport_r3_both_methods():
    assert elementary_davenport(PM3, "both") == 5


def test_elementary_davenport_no_elementary_atom():
    assert elementary_davenport(PM1, "enumerate") == 0
    assert not has_elementary_atom(PM1)
    assert davenport(enumerate_atoms(PM1)).value < 3


def test_elementary_davenport_formula_needs_full_rank():
    g = GroundSet.from_elements(2, [(1, 0), (-1, 0), (2, 0)])
    with pytest.raises(ValueError):
        elementary_davenport(g, "formula")


def test_formula_agrees_on_random_symmetric_sets():
    rng = random.Random(77)
    done = 0
    while done < 8:
        r = rng.randint(1, 2)
        half = set()
        for _ in range(rng.randint(2, 4)):
            v = tuple(rng.randint(-2, 2) for _ in range(r))
            if any(v):
                half.add(v)
        elems = sorted(half | {tuple(-x for x in v) for v in half})
        g = GroundSet.from_elements(r, elems)
        cols = [[v[i] for v in elems] for i in range(r)]
        if rank_over_q(cols) < r:
            continue
        assert elementary_davenport(g, "enumerate") == elementary_davenport(g, "formula")
        done += 1


def test_d3_existence_matches_elementary_existence():
    rng = random.Random(13)
    for _ in range(10):
        g = random_ground(rng, rng.randint(1, 2))
        atoms = enumerate_atoms(g)
        if not atoms.complete:
            continue
        d3 = davenport(atoms).value >= 3
        assert d3 == any(is_elementary(a) for a in atoms.atoms)
        assert d3 == (elementary_davenport(g, "enumerate") >= 3)


def test_hypercube_ceiling_values():
    assert hypercube_davenport_ceiling(2) == 4
    assert hypercube_davenport_ceiling(3) == 27
    # (26/32) * 7^(7/2) = 737.33..., floored without floating point
    assert hypercube_davenport_ceiling(5) == 737


def test_circuit_length_equals_kernel_vector_one_norm():
    # for r+1 vectors of full rank the determinant-sum index is the 1-norm of
    # the primitive kernel relation; two independent code paths must agree
    rng = random.Random(4242)
    checked = 0
    while checked < 60:
        r = rng.randint(1, 3)
        vecs = [tuple(rng.randint(-4, 4) for _ in range(r)) for _ in range(r + 1)]
        cols = [[v[i] for v in vecs] for i in range(r)]
        if rank_over_q(cols) != r:
            assert circuit_length(vecs) == 0
            continue
        kernel = primitive_kernel_vector([list(v) for v in vecs])
        assert kernel is not None
        assert circuit_length(vecs) == sum(abs(c) for c in kernel)
        checked += 1


def fraction_kernel_vector(vectors):
    """Reference relation kernel: Gauss-Jordan over the rationals, pivots
    scaled to 1, the free coordinate set to 1 and the denominators cleared."""
    if not vectors:
        return None
    r, k = len(vectors[0]), len(vectors)
    a = [[Fraction(vectors[j][i]) for j in range(k)] for i in range(r)]
    pivots = []
    for col in range(k):
        row = len(pivots)
        pivot_row = next((i for i in range(row, r) if a[i][col]), None)
        if pivot_row is None:
            continue
        a[row], a[pivot_row] = a[pivot_row], a[row]
        a[row] = [x / a[row][col] for x in a[row]]
        for i in range(r):
            if i != row and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
        pivots.append(col)
    free = [j for j in range(k) if j not in pivots]
    if len(free) != 1:
        return None
    sol = [Fraction(0)] * k
    sol[free[0]] = Fraction(1)
    for i, col in enumerate(pivots):
        sol[col] = -a[i][free[0]]
    denom = 1
    for x in sol:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in sol]
    content = 0
    for x in ints:
        content = gcd(content, x)
    return [x // content for x in ints]


def rank_circuit(vectors):
    """Reference circuit test: rank k - 1, also after dropping any one vector."""
    k = len(vectors)
    if k == 0 or rank_over_q(vectors) != k - 1:
        return False
    return all(rank_over_q([v for i, v in enumerate(vectors) if i != drop]) == k - 1
               for drop in range(k))


@st.composite
def vector_lists(draw):
    """1-6 vectors of rank 1-4 with entries in [-3, 3], among them negations
    and repeats of earlier vectors and zero vectors."""
    r = draw(st.integers(1, 4))
    vecs = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("fresh", "fresh", "negated", "repeated", "zero")))
        if kind == "zero":
            vecs.append((0,) * r)
        elif kind == "fresh" or not vecs:
            vecs.append(tuple(draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))))
        else:
            v = draw(st.sampled_from(vecs))
            vecs.append(negate(v) if kind == "negated" else v)
    return vecs


@settings(max_examples=500, deadline=None)
@given(vector_lists())
def test_primitive_kernel_vector_matches_rational_reference(vecs):
    assert primitive_kernel_vector(vecs) == fraction_kernel_vector(vecs)


@settings(max_examples=500, deadline=None)
@given(vector_lists())
def test_is_circuit_matches_rank_reference(vecs):
    assert _is_circuit(vecs) == rank_circuit(vecs)


def test_formula_passes_over_a_longest_tuple_without_an_atom():
    # (3), (5) has the largest circuit length, 8, but no zero-sum of its own;
    # (5), (-1) carries the atom 5 (-1)^5 of length 6
    pool = [(3,), (5,), (-1,)]
    assert longest_circuit(1, pool) == (8, ((3,), (5,)))
    assert longest_circuit(1, pool, side_condition=True) == (6, ((5,), (-1,)))
    g = GroundSet.from_elements(1, pool)
    assert not g.is_symmetric()
    assert elementary_davenport(g, "both") == 6


def test_upper_bounds_r2():
    report = davenport_upper_bounds(PM2, enumerate_atoms(PM2))
    d = 3
    for key in ("snf_G0", "snf_G1", "hadamard", "dgs", "elm_product"):
        assert report[key] is not None and report[key] >= d
    assert not report["elm_product_conditional"]


def test_upper_bounds_r3_hadamard_27():
    report = davenport_upper_bounds(PM3, enumerate_atoms(PM3))
    assert report["hadamard"] == 27
    for key in ("snf_G0", "snf_G1", "hadamard", "dgs", "elm_product"):
        assert report[key] >= 5


@pytest.mark.parametrize("r, g0, g1", [(2, 6, 3), (3, 10, 5)])
def test_upper_bounds_snf_values_on_signed_hypercube(r, g0, g1):
    ground = hypercube_pm(r)
    report = davenport_upper_bounds(ground, enumerate_atoms(ground))
    assert (report["snf_G0"], report["snf_G1"]) == (g0, g1)


def all_choices_last_divisor(columns):
    """A Smith form for every square choice of the columns, signs, zero and
    repeated columns included: a reference for ``_max_last_divisor``."""
    dim = len(columns[0])
    best = 0
    for combo in combinations(columns, dim):
        matrix = [[combo[j][i] for j in range(dim)] for i in range(dim)]
        diag = smith_normal_form(matrix)
        if diag[-1]:
            best = max(best, diag[-1])
    return best


@st.composite
def divisor_grounds(draw):
    """2 to 7 distinct vectors of [-3, 3]^r, r = 1..3, often holding the
    zero vector or a vector together with its negative."""
    rank = draw(st.integers(1, 3))
    zero = (0,) * rank
    nonzero = st.tuples(*[st.integers(-3, 3)] * rank).filter(any)
    elems = draw(st.sets(nonzero, min_size=2, max_size=6 if rank == 1 else 7))
    for v in draw(st.lists(st.sampled_from(sorted(elems)), max_size=2)):
        elems.add(negate(v))
    if draw(st.booleans()):
        elems.add(zero)
    return GroundSet.from_elements(rank, draw(st.permutations(sorted(elems)))[:7])


@settings(max_examples=300, deadline=None)
@given(divisor_grounds(), st.booleans())
def test_max_last_divisor_matches_all_choices(ground, both_signs):
    columns = _augmented_columns(ground, both_signs)
    assert _max_last_divisor(columns) == all_choices_last_divisor(columns)


def test_upper_bounds_skip_without_long_atom():
    report = davenport_upper_bounds(PM1, enumerate_atoms(PM1))
    assert report["snf_G0"] is None
    assert "below 3" in report["skipped"]


def test_upper_bounds_non_hypercube_ground():
    g = GroundSet.from_elements(1, [(2,), (-3,)])
    atom_set = enumerate_atoms(g)
    report = davenport_upper_bounds(g, atom_set)
    d = davenport(atom_set).value
    assert d == 5
    assert report["hadamard"] is None  # closed form applies to 0/1 vertices only
    for key in ("snf_G0", "snf_G1", "dgs", "elm_product"):
        assert report[key] >= d
    assert report["elm_product"] == 5  # min(eta, |G0+| - r) = 1 times delm = 5


def test_decomposition_of_atom_is_itself():
    g = GroundSet.from_elements(1, [(2,), (-3,)])
    u = Sequence(g, (3, 2))
    dec = rational_elementary_decomposition(u)
    assert dec.balanced.is_trivial()
    assert dec.parts == ((u, Fraction(1)),)
    assert dec.reassemble() == u.rational()


def test_decomposition_of_rational_power():
    g = GroundSet.from_elements(1, [(2,), (-3,)])
    u = Sequence(g, (3, 2))
    s = u.rational().scaled(Fraction(3, 2))
    dec = rational_elementary_decomposition(s)
    assert dec.parts == ((u, Fraction(3, 2)),)
    assert dec.reassemble() == s


def test_decomposition_product_of_long_atoms():
    atoms5 = [a for a in enumerate_atoms(PM3).atoms if a.length == 5]
    s = atoms5[0] * atoms5[1]
    dec = rational_elementary_decomposition(s)
    assert dec.reassemble() == s.rational()
    assert dec.ell <= ell_bound(s)
    # each peeled atom keeps a coordinate no later part touches
    remaining = s.rational()
    for atom, alpha in dec.parts:
        remaining = remaining.remove(atom.rational().scaled(alpha))
        assert not atom.signed_support() <= remaining.signed_support()


def test_decomposition_random_rational_zero_sums():
    rng = random.Random(99)
    atom_list = enumerate_atoms(PM2).atoms
    for _ in range(30):
        total = Sequence.empty(PM2).rational()
        for _ in range(rng.randint(1, 3)):
            atom = rng.choice(atom_list)
            alpha = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            total = total * atom.rational().scaled(alpha)
        dec = rational_elementary_decomposition(total)
        assert dec.reassemble() == total
        assert dec.ell <= ell_bound(total)


def test_unique_elementary_atom_cancelling_pair_is_none():
    # the one atom over {1, -1} cancels to an empty signed support
    atom_set = enumerate_atoms(PM1)
    assert carriers(atom_set, {(1,), (-1,)}) == set()
    (pair,) = atom_set.atoms
    assert not pair.signed_support() and not is_elementary(pair)


def test_unique_elementary_atom_recovers_triple():
    atom_set = enumerate_atoms(PM2)
    triple = next(a for a in atom_set.atoms if a.length == 3)
    assert carriers(atom_set, triple.signed_support()) == {triple.mult,
                                                           triple.negated().mult}


def test_unique_elementary_atom_rejects_independent_set():
    assert carriers(enumerate_atoms(PM2), {(1, 0), (-1, 0), (0, 1), (0, -1)}) == set()


def test_unique_elementary_atom_rejects_dependent_proper_subset():
    # the relation (1, 0)^2 (-2, 0) misses (0, 1): a kernel of dimension one
    # without full support, so no circuit
    g = GroundSet.from_elements(2, [(1, 0), (-2, 0), (0, 1), (0, -1)])
    x = {(1, 0), (-1, 0), (2, 0), (-2, 0), (0, 1), (0, -1)}
    assert carriers(enumerate_atoms(g), x) == set()


def test_unique_elementary_atom_sign_infeasible_circuit():
    # {2, 3} in Z^1: the pair is a circuit, but the kernel relation needs one
    # negative coefficient and neither negation is a ground element, so no
    # zero-sum sequence carries the candidate signed support
    x = {(2,), (-2,), (3,), (-3,)}
    g = GroundSet.from_elements(1, [(2,), (3,)])
    assert carriers(enumerate_atoms(g), x) == set()
    # adding -3 makes the relation 3*(2) + 2*(-3) realizable, and its atom
    # (2)^3 (-3)^2 is the only one
    g2 = GroundSet.from_elements(1, [(2,), (3,), (-3,)])
    assert carriers(enumerate_atoms(g2), x) == {(3, 0, 2)}


def random_symmetric_ground(rng, r):
    half = set()
    for _ in range(rng.randint(2, 4)):
        v = tuple(rng.randint(-2, 2) for _ in range(r))
        if any(v):
            half.add(v)
    elems = sorted(half | {tuple(-x for x in v) for v in half})
    return GroundSet.from_elements(r, elems) if elems else None


def test_kernel_dimension_identity():
    # positive part size = rank + dimension spanned by the net-multiplicity
    # images of the atoms.  For symmetric ground sets the zero-sum cone spans
    # the whole kernel of the column matrix, so the identity is testable from
    # a complete atom enumeration.
    from zsl.intlinalg import rank_over_q

    rng = random.Random(4)
    grounds = [PM1, PM2, PM3]
    while len(grounds) < 9:
        g = random_symmetric_ground(rng, rng.randint(1, 2))
        if g is not None:
            grounds.append(g)
    for g in grounds:
        atom_set = enumerate_atoms(g)
        if not atom_set.complete:
            continue
        cols = [[v[i] for v in g.elements] for i in range(g.rank)]
        span = [list(a.net_multiplicities()) for a in atom_set.atoms]
        lhs = len(g.plus_indices)
        rhs = rank_over_q(cols) + (rank_over_q(span) if span else 0)
        assert lhs == rhs
