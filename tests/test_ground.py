import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsl import intlinalg
from zsl.ground import GroundSet, RationalSequence, Sequence, _Lanes, negate
from zsl.invariants import PresentedMonoid
from zsl.models import AcmSpec, FiniteAbelianGroup

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


def is_trivial(s):
    return not any(s.mult)


def divides(s, t):
    """Componentwise v_g(s) <= v_g(t): s is a subsequence of t."""
    return all(a <= b for a, b in zip(s.mult, t.mult))


def test_split_balanced_pair_plus_rest():
    s = seq(PM2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1)])
    bal, core = s.split_balanced()
    assert bal == seq(PM2, [((1, 0), 1), ((-1, 0), 1)])
    assert core == seq(PM2, [((0, 1), 1)])
    assert bal * core == s


def test_split_balanced_disjoint_support_is_identity():
    s = seq(PM2, [((1, 0), 2), ((0, 1), 1)])
    bal, core = s.split_balanced()
    assert is_trivial(bal)
    assert core == s


def test_split_balanced_pure_zeros():
    g = GroundSet.from_elements(1, [(0,), (1,), (-1,)])
    s = Sequence.from_terms(g, [((0,), 3)])
    bal, core = s.split_balanced()
    assert bal == s
    assert is_trivial(core)


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
    assert divides(t, s)
    assert not divides(s, t)
    assert t * seq(PM2, [((1, 0), 1), ((0, 1), 1)]) == s


def test_ground_mismatch_raises():
    other = GroundSet.from_elements(2, [(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        seq(PM2, []) * Sequence.empty(other)


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


@pytest.mark.parametrize("entry", [0.1, 1.0, True, False])
def test_rational_sequence_rejects_floats_and_bools(entry):
    # Fraction(0.1) would store 3602879701896397/36028797018963968
    with pytest.raises(ValueError, match=repr(entry)):
        RationalSequence(PM2, (entry,) + (0,) * 5)


@pytest.mark.parametrize("entry", [1.0, True, False])
def test_integer_sequence_rejects_floats_and_bools(entry):
    with pytest.raises(ValueError, match=repr(entry)):
        Sequence(PM2, (0,) * 5 + (entry,))


def test_scaling_rejects_a_float_factor():
    s = seq(PM2, [((1, 1), 2)]).rational()
    with pytest.raises(ValueError, match="0.5"):
        s.scaled(0.5)


def test_rational_entries_become_fractions():
    r = RationalSequence(PM2, (0, 2, Fraction(1, 3), 0, 0, 0))
    assert all(type(m) is Fraction for m in r.mult)
    assert r == seq(PM2, [(PM2.elements[1], 2)]) * RationalSequence(
        PM2, (0, 0, Fraction(1, 3), 0, 0, 0))


def test_integer_form_and_sum_clear_the_denominators_once():
    r = RationalSequence(PM2, (Fraction(1, 2), 0, Fraction(1, 3), 0, Fraction(5, 6), 0))
    assert r.integer_form() == ((3, 0, 2, 0, 5, 0), 6)
    # (-1/2, -1/2) + (0, -1/3) + (5/6, 0)
    assert r.sum_vector() == (Fraction(1, 3), Fraction(-5, 6))
    assert seq(PM2, [((1, 1), 2)]).integer_form() == ((0, 0, 0, 0, 0, 2), 1)


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
            if divides(t, s):
                rest = Sequence(PM2, tuple(a - b for a, b in zip(s.mult, t.mult)))
                assert rest.is_zero_sum()


# the value records: GroundSet and the sequences here, and the reports and
# specs of the other modules, all on the one record base
def test_records_reject_assignment_and_deletion():
    s = seq(PM2, [((1, 0), 1)])
    for record, name in ((PM2, "rank"), (s, "mult"), (s, "extra"),
                         (FiniteAbelianGroup((2,)), "factors")):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(record, name)
    assert s.mult == (0, 0, 0, 0, 1, 0)


def test_records_equal_by_type_and_fields():
    copy = GroundSet.from_elements(2, PM2.elements)
    assert copy is not PM2 and copy == PM2 and hash(copy) == hash(PM2)
    ones = Sequence(PM2, (1,) * 6)
    assert ones == Sequence(copy, (1,) * 6) and hash(ones) == hash(Sequence(PM2, (1,) * 6))
    assert ones != Sequence(PM2, (2,) + (1,) * 5)
    assert FiniteAbelianGroup((2, 4)) == FiniteAbelianGroup((2, 4))
    assert hash(FiniteAbelianGroup((2, 4))) == hash(FiniteAbelianGroup((2, 4)))
    # same fields, different types
    rational = RationalSequence(PM2, (1,) * 6)
    assert ones != rational and ones.rational() == rational
    assert ones.__eq__(PM2) is NotImplemented and ones.__eq__((PM2, ones.mult)) is NotImplemented


def test_record_repr_names_every_field():
    g = GroundSet.from_elements(1, [(-2,), (3,)])
    assert repr(g) == "GroundSet(rank=1, elements=((-2,), (3,)), plus=(True, True))"
    assert repr(Sequence(g, (0, 2))) == f"Sequence(ground={g!r}, mult=(0, 2))"
    assert repr(FiniteAbelianGroup((2, 4))) == "FiniteAbelianGroup(factors=(2, 4))"


def test_record_wrong_field_count_raises():
    with pytest.raises(TypeError, match=r"Sequence takes the fields \('ground', 'mult'\)"):
        Sequence(PM2)
    with pytest.raises(TypeError, match="GroundSet"):
        GroundSet(1, ((1,),), (True,), None)


def test_ground_cached_properties_computed_once_per_instance(monkeypatch):
    calls = []
    rank_over_q = intlinalg.rank_over_q

    def counted(rows):
        calls.append(rows)
        return rank_over_q(rows)

    monkeypatch.setattr(intlinalg, "rank_over_q", counted)
    g = GroundSet.from_elements(2, PM2.elements)
    assert g.span_rank == g.span_rank == 2 and len(calls) == 1
    assert g.neg_index is g.neg_index and g.plus_indices is g.plus_indices
    copy = GroundSet.from_elements(2, PM2.elements)
    assert copy.span_rank == 2 and len(calls) == 2
    assert copy.neg_index == g.neg_index and copy.neg_index is not g.neg_index


def test_post_init_still_validates():
    with pytest.raises(ValueError, match="does not match ground set"):
        Sequence(PM2, (1,))
    with pytest.raises(ValueError, match="multiplicities in N0"):
        Sequence(PM2, (-1, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="zero vector"):
        PresentedMonoid(2, [(0, 0)])
    with pytest.raises(ValueError, match="level coordinate"):
        AcmSpec(0, (), ())
    with pytest.raises(ValueError, match="two coordinates"):
        AcmSpec(2, (1, 2), ((1,),))
    # and still normalizes the fields it is given
    assert AcmSpec(3, (1, 2, 2), ((2, 1),)).towers == ((1, 2),)


@st.composite
def lane_cases(draw):
    """A lane count, a largest value 2^k - 1 or 2^k (the last value of one
    width and the first of the next), and two vectors of values at most
    that largest, the second often below the first."""
    count = draw(st.integers(0, 8))
    largest = (1 << draw(st.integers(0, 12))) - draw(st.integers(0, 1))
    a = draw(st.lists(st.integers(0, largest), min_size=count, max_size=count))
    below = draw(st.booleans())
    b = [draw(st.integers(0, x if below else largest)) for x in a]
    return count, largest, a, b


@settings(max_examples=300, deadline=None)
@given(lane_cases())
def test_lanes_round_trip_fit_test_and_guards(case):
    count, largest, a, b = case
    lanes = _Lanes(count, largest)
    A, B, G = lanes.pack(a), lanes.pack(b), lanes.guards
    assert lanes.unpack_all([A]) == [tuple(a)] and lanes.unpack_all([B]) == [tuple(b)]
    # the guard test says exactly whether b fits in a, and then subtracts
    fits = all(y <= x for x, y in zip(a, b))
    assert (((A | G) - B) & G == G) == fits
    if fits:
        assert ((A | G) - B) ^ G == lanes.pack([x - y for x, y in zip(a, b)])
    # no value up to largest touches a guard bit; one guard per field
    assert A & G == B & G == lanes.pack([largest] * count) & G == 0
    assert bin(G).count("1") == count
    # signed values: field i of G + pack(x) holds x_i + 2^(w - 1)
    x = [p - q for p, q in zip(b, a)]
    full, top = (1 << lanes.width) - 1, 1 << (lanes.width - 1)
    signed = G + lanes.pack(x)
    assert [(signed >> s) & full for s in lanes.shifts] == [v + top for v in x]


@settings(max_examples=300, deadline=None)
@given(lane_cases(), st.booleans())
def test_lex_lanes_order_and_column_unpack(case, lex):
    # lex lanes put value i in field count - 1 - i, so the packed ints
    # compare as the tuples do; unpack_all reads a whole list back, column
    # by column, in either layout
    count, largest, a, b = case
    lanes = _Lanes(count, largest, lex=lex)
    A, B = lanes.pack(a), lanes.pack(b)
    assert lanes.unpack_all([A, B, A]) == [tuple(a), tuple(b), tuple(a)]
    assert lanes.unpack_all([]) == []
    assert lanes.guards == _Lanes(count, largest).guards
    if lex:
        assert (A < B) == (a < b) and (A == B) == (a == b)
        assert lanes.shifts[0] == (count - 1) * lanes.width if count else not lanes.shifts
