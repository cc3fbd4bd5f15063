import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsl.ground import GroundSet, RationalSequence, Sequence, negate

PM2 = GroundSet.from_elements(2, [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)])


def seq(ground, pairs):
    return Sequence.from_terms(ground, pairs)


def test_partition_pairs_split_and_maximal():
    for i, v in enumerate(PM2.elements):
        j = PM2.neg_index[i]
        assert j is not None
        assert PM2.plus[i] != PM2.plus[j]
    # -G0^- is contained in G0^+
    for i, p in enumerate(PM2.plus):
        if not p and any(PM2.elements[i]):
            assert PM2.plus[PM2.neg_index[i]]


def test_partition_forced_for_lonely_elements():
    g = GroundSet.from_elements(1, [(-2,), (3,)])
    # neither negative is present, so both are positive despite the sign
    assert g.plus == (True, True)


def test_zero_vector_flagged_neither():
    g = GroundSet.from_elements(2, [(0, 0), (1, 0)])
    assert g.plus == (False, True)
    assert g.zero_index == 0


def test_duplicate_elements_rejected():
    with pytest.raises(ValueError):
        GroundSet.from_elements(1, [(1,), (1,)])


def test_non_integer_coordinates_rejected():
    with pytest.raises(ValueError):
        GroundSet.from_elements(1, [(1.5,)])
    with pytest.raises(ValueError):
        GroundSet.from_elements(1, [(True,)])
    with pytest.raises(ValueError):
        PM2.position((1.0, 0.0))


def test_sum_vector_empty():
    assert Sequence.empty(PM2).sum_vector() == (0, 0)


def test_sum_vector_cancels():
    s = seq(PM2, [((1, 0), 1), ((-1, 0), 1)])
    assert s.sum_vector() == (0, 0)
    assert s.is_zero_sum()


def test_single_element_not_zero_sum():
    assert not seq(PM2, [((1, 0), 1)]).is_zero_sum()


def test_signed_support_cancelling_pair_is_empty():
    s = seq(PM2, [((1, 0), 1), ((-1, 0), 1)])
    assert s.signed_support() == frozenset()


def test_signed_support_unbalanced_pair():
    s = seq(PM2, [((1, 0), 2), ((-1, 0), 1)])
    assert s.signed_support() == frozenset({(1, 0), (-1, 0)})


def test_signed_support_of_zeros_is_empty():
    g = GroundSet.from_elements(1, [(0,), (1,)])
    s = Sequence.from_terms(g, [((0,), 3)])
    assert s.signed_support() == frozenset()


def test_split_balanced_pair_plus_rest():
    s = seq(PM2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1)])
    bal, core = s.split_balanced()
    assert bal == seq(PM2, [((1, 0), 1), ((-1, 0), 1)])
    assert core == seq(PM2, [((0, 1), 1)])
    assert bal * core == s


def test_split_balanced_disjoint_support_is_identity():
    s = seq(PM2, [((1, 0), 2), ((0, 1), 1)])
    bal, core = s.split_balanced()
    assert bal.is_trivial()
    assert core == s


def test_split_balanced_pure_zeros():
    g = GroundSet.from_elements(1, [(0,), (1,), (-1,)])
    s = Sequence.from_terms(g, [((0,), 3)])
    bal, core = s.split_balanced()
    assert bal == s
    assert core.is_trivial()


def test_net_multiplicities_of_balanced_part_vanish():
    s = seq(PM2, [((1, 0), 3), ((-1, 0), 1), ((1, 1), 2)])
    bal, core = s.split_balanced()
    assert not any(bal.net_multiplicities())
    assert core.signed_support() == s.signed_support()
    assert set(core.support()) & {core.ground.neg_index[i] for i in core.support()} == set()


def test_net_multiplicities_square():
    g = GroundSet.from_elements(1, [(2,)])
    s = Sequence.from_terms(g, [((2,), 2)])
    assert s.net_multiplicities() == (2,)


def test_net_multiplicities_integer_for_integer_sequences():
    s = seq(PM2, [((1, 1), 4), ((-1, -1), 1)])
    assert all(isinstance(x, int) for x in s.net_multiplicities())


def test_subsequence_and_removal():
    s = seq(PM2, [((1, 0), 2), ((0, 1), 1)])
    t = seq(PM2, [((1, 0), 1)])
    assert t.divides(s)
    assert not s.divides(t)
    assert s.remove(t) == seq(PM2, [((1, 0), 1), ((0, 1), 1)])


def test_ground_mismatch_raises():
    other = GroundSet.from_elements(2, [(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        seq(PM2, []).divides(Sequence.empty(other))


def test_json_round_trip():
    g2 = GroundSet.from_json(PM2.to_json())
    assert g2 == PM2
    s = seq(PM2, [((1, 1), 2)])
    assert Sequence.from_json(PM2, s.to_json()) == s
    r = RationalSequence(PM2, tuple(Fraction(m, 2) for m in s.mult))
    assert RationalSequence.from_json(PM2, r.to_json()) == r


def test_json_canonicalize_sorts_elements():
    data = {"rank": 1, "elements": [[3], [-1], [2]]}
    g = GroundSet.from_json(data, canonicalize=True)
    assert g.elements == ((-1,), (2,), (3,))


def test_rational_power_scaling():
    s = seq(PM2, [((1, 1), 2)]).rational()
    assert s.scaled(Fraction(3, 2)).mult[PM2.position((1, 1))] == 3


mult_vectors = st.lists(st.integers(min_value=0, max_value=4), min_size=6, max_size=6)


@settings(max_examples=60, deadline=None)
@given(mult_vectors, mult_vectors)
def test_net_multiplicities_additive(a, b):
    s = Sequence(PM2, tuple(a))
    t = Sequence(PM2, tuple(b))
    lhs = (s * t).net_multiplicities()
    rhs = tuple(x + y for x, y in zip(s.net_multiplicities(), t.net_multiplicities()))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(mult_vectors)
def test_split_balanced_preserves_signed_support(a):
    s = Sequence(PM2, tuple(a))
    bal, core = s.split_balanced()
    assert bal * core == s
    assert core.signed_support() == s.signed_support()
    assert not any(bal.net_multiplicities())


def test_zero_sum_divisibility_is_componentwise():
    # removing a zero-sum subsequence from a zero-sum sequence stays zero-sum
    rng = random.Random(5)
    elems = list(PM2.elements)
    for _ in range(100):
        s = Sequence(PM2, tuple(rng.randint(0, 3) for _ in elems))
        if not s.is_zero_sum():
            continue
        for i in PM2.plus_indices:
            t = Sequence.from_terms(PM2, [(PM2.elements[i], 1),
                                          (negate(PM2.elements[i]), 1)])
            if t.divides(s):
                assert s.remove(t).is_zero_sum()
