from operator import le

import pytest

from zsl.atoms import enumerate_atoms
from zsl.constructions import (
    _proper_partial_sums_hit_diagonal,
    fibonacci,
    fibonacci_witness,
    flip,
    hypercube_plus,
    hypercube_pm,
    r3_extremal_atoms,
)
from zsl.ground import Sequence


def test_fibonacci_table():
    fib = [fibonacci(i) for i in range(10)]
    assert fib[:3] == [0, 1, 1]
    for i in range(2, 10):
        assert fib[i] == fib[i - 1] + fib[i - 2]


def test_hypercube_sizes():
    assert len(hypercube_plus(1)) == 1
    assert len(hypercube_pm(1)) == 2
    assert len(hypercube_plus(2)) == 3
    assert len(hypercube_pm(2)) == 6
    assert len(hypercube_plus(3)) == 7
    assert len(hypercube_pm(3)) == 14


def test_hypercube_rank_zero_rejected():
    with pytest.raises(ValueError):
        hypercube_plus(0)


def test_hypercube_plus_is_subset_sums_of_basis():
    g = hypercube_plus(3)
    expected = set()
    for mask in range(1, 8):
        expected.add(tuple((mask >> i) & 1 for i in range(3)))
    assert set(g.elements) == expected


def test_flip_maps_vertices_to_vertices():
    g = hypercube_plus(3)
    ones = (1, 1, 1)
    for v in g.elements:
        if v != ones:
            assert flip(v) in g.index


def test_witness_rank1():
    w = fibonacci_witness(1)
    assert w.stack.length == 1
    assert w.atom.length == 2
    assert w.verified


def test_witness_rank3_matches_exact_davenport():
    w = fibonacci_witness(3)
    assert w.atom.length == 5
    assert w.verified
    atoms = enumerate_atoms(hypercube_pm(3))
    assert max(a.length for a in atoms.atoms) == 5
    assert w.atom.mult in {a.mult for a in atoms.atoms}


def test_witness_invariants_ranks_1_to_6():
    for r in range(1, 7):
        w = fibonacci_witness(r)
        assert w.verified
        assert w.stack.length == w.fib[r + 1]
        assert w.stack.sum_vector() == (w.fib[r],) * r
        assert len(w.stack.support()) == r
        assert w.atom.length == w.fib[r + 2]
        assert w.atom.is_zero_sum()


def test_witness_rank5_atom_verified_without_enumeration():
    w = fibonacci_witness(5)
    assert w.atom.length == 13
    assert w.verified


def test_witness_beyond_limit_unverified():
    w = fibonacci_witness(4, verify_limit=3)
    assert not w.verified
    assert w.atom.length == fibonacci(6)


def test_partial_sums_hitting_the_diagonal_are_found():
    # (1,0) + (0,1) and (1,1) alone are proper partial sums on the diagonal
    plus = hypercube_plus(2)
    seq = Sequence.from_terms(plus, [((1, 0), 1), ((0, 1), 1), ((1, 1), 1)])
    assert _proper_partial_sums_hit_diagonal(seq)
    # the whole sequence and the empty one do not count
    assert not _proper_partial_sums_hit_diagonal(
        Sequence.from_terms(plus, [((1, 1), 1)]))
    assert not _proper_partial_sums_hit_diagonal(
        Sequence.from_terms(plus, [((1, 0), 1), ((0, 1), 1)]))


def test_witness_atom_not_divisible_by_budgeted_atoms():
    w = fibonacci_witness(4)
    budgeted = enumerate_atoms(hypercube_pm(4), budget=4)
    for a in budgeted.atoms:
        assert not all(map(le, a.mult, w.atom.mult)) or a == w.atom


def test_r3_extremal_atoms_are_the_length5_atoms():
    vs = r3_extremal_atoms()
    assert all(v.is_zero_sum() and v.length == 5 for v in vs)
    atoms = enumerate_atoms(hypercube_pm(3))
    length5 = {a.mult for a in atoms.atoms if a.length == 5}
    produced = set()
    for v in vs:
        produced.add(v.mult)
        produced.add(v.negated().mult)
    assert produced == length5
    assert len(produced) == 8
