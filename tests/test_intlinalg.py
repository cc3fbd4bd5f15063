import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsl.intlinalg import (
    det_bareiss,
    lattice_quotient,
    matrix_dims,
    primitive_kernel_vector,
    rank_over_q,
    smith_normal_form,
)


def det_cofactor(m):
    """Independent oracle: Laplace expansion along the first row."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def minor_gcd(m, size):
    """gcd of all size x size minors, the classical SNF invariant."""
    rows, cols = matrix_dims(m)
    g = 0
    for rsel in combinations(range(rows), size):
        for csel in combinations(range(cols), size):
            sub = [[m[i][j] for j in csel] for i in rsel]
            g = gcd(g, abs(det_cofactor(sub)))
    return g


def test_det_identity():
    assert det_bareiss([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


def test_det_2x2():
    assert det_bareiss([[1, 2], [3, 4]]) == -2


def test_det_duplicate_rows_singular():
    assert det_bareiss([[2, 5, 1], [2, 5, 1], [0, 3, 4]]) == 0


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det_bareiss([[1, 2, 3], [4, 5, 6]])


def test_det_matches_cofactor_expansion():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_bareiss(m) == det_cofactor(m)


def test_rank_zero_matrix():
    assert rank_over_q([[0, 0], [0, 0], [0, 0]]) == 0


def test_rank_identity():
    for r in range(1, 5):
        eye = [[int(i == j) for j in range(r)] for i in range(r)]
        assert rank_over_q(eye) == r


def test_rank_dependent_columns():
    # columns e1, e2, e1+e2 in Z^2
    assert rank_over_q([[1, 0, 1], [0, 1, 1]]) == 2


def test_snf_diag_2_3():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]


def test_snf_identity():
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(21)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        diag = smith_normal_form(m)
        # divisibility chain
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 if a else b == 0
        # partial products equal gcds of j x j minors
        prod = 1
        for j, d in enumerate(diag, start=1):
            prod *= d
            assert prod == minor_gcd(m, j)
        # rank agreement
        assert sum(1 for d in diag if d) == rank_over_q(m)


def test_snf_square_full_rank_product_is_abs_det():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        d = det_bareiss(m)
        if d == 0:
            continue
        diag = smith_normal_form(m)
        prod = 1
        for x in diag:
            prod *= x
        assert prod == abs(d)


def test_lattice_quotient_single_even_generator():
    q = lattice_quotient([[2]], 1)
    assert q.invariant_factors == (2,)
    assert q.free_rank == 0


def test_lattice_quotient_no_generators():
    q = lattice_quotient([], 2)
    assert q.invariant_factors == ()
    assert q.free_rank == 2


def test_lattice_quotient_det_six_matches_snf():
    # full-rank lattice with determinant -6 and coprime entries
    gens = [[1, 2], [-2, 2]]
    assert abs(det_bareiss(gens)) == 6
    q = lattice_quotient(gens, 2)
    assert q.free_rank == 0
    assert q.invariant_factors == tuple(d for d in smith_normal_form(gens) if d > 1)
    assert q.invariant_factors == (6,)  # the quotient has order |det| = 6


def test_primitive_kernel_vector_circuit():
    # columns e1, e2, e1+e2: kernel spanned by (1, 1, -1)
    v = primitive_kernel_vector([(1, 0), (0, 1), (1, 1)])
    assert v is not None
    if v[0] < 0:
        v = [-x for x in v]
    assert v == [1, 1, -1]


def test_primitive_kernel_vector_none_when_independent():
    assert primitive_kernel_vector([(1, 0), (0, 1)]) is None


def test_primitive_kernel_vector_none_when_nullity_two():
    assert primitive_kernel_vector([(1, 0), (1, 0), (1, 0)]) is None


def square_matrices(max_n=4, bound=7):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
            min_size=n, max_size=n))


@settings(max_examples=80, deadline=None)
@given(square_matrices())
def test_det_property_matches_cofactor(m):
    assert det_bareiss(m) == det_cofactor(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(st.lists(st.integers(-5, 5), min_size=c, max_size=c),
                           min_size=r, max_size=r))))
def test_snf_property_chain_and_minor_gcds(m):
    diag = smith_normal_form(m)
    prod = 1
    for j, d in enumerate(diag, start=1):
        if diag[j - 2] == 0 and j >= 2:
            assert d == 0
        prod *= d
        assert prod == minor_gcd(m, j)
    assert sum(1 for d in diag if d) == rank_over_q(m)
