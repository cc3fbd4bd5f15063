"""Ground sets in Z^r and multiplicity-vector sequences over them.

A ground set is a finite list of distinct integer vectors together with a
fixed sign partition of its nonzero members: every element whose negative is
absent from the set sits on the positive side, and of each pair {g, -g} the
lexicographically positive member is positive.  The partition is maximal by
construction and fully deterministic, so repeated runs agree coordinate by
coordinate.

Sequences are stored as dense multiplicity vectors indexed parallel to the
ground elements; rational sequences carry exact ``Fraction`` multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

Vector = tuple[int, ...]


def lex_positive(v: Vector) -> bool:
    """True when the first nonzero coordinate is positive."""
    for x in v:
        if x:
            return x > 0
    return False


def negate(v: Vector) -> Vector:
    return tuple(-x for x in v)


def up_to_sign(v: Vector) -> Vector:
    """The lexicographically positive member of {v, -v} (v itself when zero)."""
    return v if lex_positive(v) else negate(v)


def _int_coord(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"coordinates must be integers, got {x!r}")
    return x


def _require(ok, *message) -> None:
    """An ``assert`` that ``python -O`` does not strip."""
    if not ok:
        raise AssertionError(*message)


def _json_fields(data, what: str, fields) -> dict:
    """``data`` if it is a JSON object holding every one of ``fields``."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} JSON must be an object, got {data!r}")
    for field in fields:
        if field not in data:
            raise ValueError(f"{what} JSON is missing the {field!r} field")
    return data


def _json_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field!r} must be an integer, got {value!r}")
    return value


def _json_list(value, field: str, items: str):
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{field!r} must be a list of {items}, got {value!r}")
    return value


def _json_ints(value, field: str) -> tuple[int, ...]:
    for x in _json_list(value, field, "integers"):
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"{field!r} entries must be integers, got {x!r}")
    return tuple(value)


@dataclass(frozen=True)
class GroundSet:
    """Finite indexed subset of Z^r with its sign partition."""

    rank: int
    elements: tuple[Vector, ...]
    plus: tuple[bool, ...]

    @staticmethod
    def from_elements(rank: int, elements, canonicalize: bool = False) -> "GroundSet":
        if _json_int(rank, "rank") < 1:
            raise ValueError("rank must be at least 1")
        for v in _json_list(elements, "elements", "integer lists"):
            if not isinstance(v, (list, tuple)):
                raise ValueError(f"'elements' entries must be integer lists, got {v!r}")
        elems = [tuple(_int_coord(x) for x in v) for v in elements]
        for v in elems:
            if len(v) != rank:
                raise ValueError(f"element {v} does not have {rank} coordinates")
        if len(set(elems)) != len(elems):
            raise ValueError("ground set elements must be pairwise distinct")
        if canonicalize:
            elems = sorted(elems)
        present = set(elems)
        plus = []
        for v in elems:
            if not any(v):
                plus.append(False)
            elif negate(v) in present:
                plus.append(lex_positive(v))
            else:
                plus.append(True)
        return GroundSet(rank, tuple(elems), tuple(plus))

    @cached_property
    def index(self) -> dict[Vector, int]:
        return {v: i for i, v in enumerate(self.elements)}

    @cached_property
    def neg_index(self) -> tuple[int | None, ...]:
        """Position of -g for each element g, or None when absent."""
        return tuple(self.index.get(negate(v)) for v in self.elements)

    @cached_property
    def plus_indices(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.plus) if p)

    @cached_property
    def zero_index(self) -> int | None:
        for i, v in enumerate(self.elements):
            if not any(v):
                return i
        return None

    def __len__(self) -> int:
        return len(self.elements)

    def position(self, v) -> int:
        v = tuple(_int_coord(x) for x in v)
        try:
            return self.index[v]
        except KeyError:
            raise ValueError(f"vector {v} is not a ground element") from None

    def is_symmetric(self) -> bool:
        return all(j is not None for i, j in enumerate(self.neg_index)
                   if any(self.elements[i]))

    def restrict(self, indices) -> "GroundSet":
        """Sub-ground-set on the given element positions (partition re-derived)."""
        elems = [self.elements[i] for i in sorted(set(indices))]
        return GroundSet.from_elements(self.rank, elems)

    def to_json(self) -> dict:
        return {"rank": self.rank, "elements": [list(v) for v in self.elements]}

    @staticmethod
    def from_json(data: dict, canonicalize: bool = False) -> "GroundSet":
        _json_fields(data, "ground set", ("rank", "elements"))
        return GroundSet.from_elements(data["rank"], data["elements"],
                                       canonicalize=canonicalize)


def _parse_mult(value):
    if isinstance(value, bool):
        raise ValueError(f"invalid multiplicity {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"invalid multiplicity {value!r}") from None
    raise ValueError(f"invalid multiplicity {value!r} (expected int or 'p/q')")


def _sequence_mult(data) -> list:
    """The multiplicity list of a sequence JSON document."""
    _json_fields(data, "sequence", ("mult",))
    return _json_list(data["mult"], "mult", "multiplicities")


def _encode_mult(value):
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return int(value)


class _SequenceOps:
    """Operations shared by integer and rational sequences."""

    ground: GroundSet
    mult: tuple

    @property
    def length(self):
        return sum(self.mult)

    def is_trivial(self) -> bool:
        return not any(self.mult)

    def sum_vector(self) -> tuple:
        """Sum of the sequence: sum over g of v_g(S) * g, exactly."""
        total = [0] * self.ground.rank
        for m, v in zip(self.mult, self.ground.elements):
            if m:
                for i, x in enumerate(v):
                    total[i] += m * x
        return tuple(total)

    def is_zero_sum(self) -> bool:
        return not any(self.sum_vector())

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.mult) if m)

    def signed_support(self) -> frozenset[Vector]:
        """Elements g (and -g) whose net multiplicity v_g - v_{-g} is nonzero."""
        out = set()
        for i, net in zip(self.ground.plus_indices, self.net_multiplicities()):
            if net:
                v = self.ground.elements[i]
                out.update((v, negate(v)))
        return frozenset(out)

    def net_multiplicities(self) -> tuple:
        """Net multiplicity v_g - v_{-g} for every positive-part element g."""
        out = []
        for i in self.ground.plus_indices:
            j = self.ground.neg_index[i]
            out.append(self.mult[i] - (self.mult[j] if j is not None else 0))
        return tuple(out)

    def split_balanced(self):
        """Split off zeros and cancelling pairs: S = balanced * core.

        The balanced part collects 0^{v_0(S)} and (g(-g))^{min(v_g, v_{-g})}
        over all pairs present in the ground set; the core keeps the signed
        support of S and meets its own negation in no element.
        """
        bal = [0 * m for m in self.mult]
        zi = self.ground.zero_index
        if zi is not None:
            bal[zi] = self.mult[zi]
        for i in self.ground.plus_indices:
            j = self.ground.neg_index[i]
            if j is not None:
                m = min(self.mult[i], self.mult[j])
                bal[i] = m
                bal[j] = m
        core = tuple(m - b for m, b in zip(self.mult, bal))
        cls = type(self)
        return cls(self.ground, tuple(bal)), cls(self.ground, core)

    def divides(self, other) -> bool:
        """Componentwise v_g(self) <= v_g(other); grounds must match."""
        self._check_same_ground(other)
        return all(a <= b for a, b in zip(self.mult, other.mult))

    def _check_same_ground(self, other):
        if self.ground is not other.ground and self.ground != other.ground:
            raise ValueError("sequences live over different ground sets")

    def __mul__(self, other):
        self._check_same_ground(other)
        mult = tuple(a + b for a, b in zip(self.mult, other.mult))
        if isinstance(self, RationalSequence) or isinstance(other, RationalSequence):
            return RationalSequence(self.ground, mult)
        return Sequence(self.ground, mult)

    def remove(self, other):
        """Quotient by a subsequence: componentwise subtraction."""
        self._check_same_ground(other)
        if not other.divides(self):
            raise ValueError("not a subsequence, cannot remove")
        mult = tuple(a - b for a, b in zip(self.mult, other.mult))
        if isinstance(self, RationalSequence) or isinstance(other, RationalSequence):
            return RationalSequence(self.ground, mult)
        return Sequence(self.ground, mult)

    def negated(self):
        """The sequence -S; requires every -g to be a ground element."""
        mult = [0 * m for m in self.mult]
        for i, m in enumerate(self.mult):
            if not m:
                continue
            j = self.ground.neg_index[i]
            if j is None:
                raise ValueError("negation leaves the ground set")
            mult[j] = m
        return type(self)(self.ground, tuple(mult))

    def to_json(self) -> dict:
        return {"mult": [_encode_mult(m) for m in self.mult]}


@dataclass(frozen=True)
class Sequence(_SequenceOps):
    """Ordinary sequence: nonnegative integer multiplicities."""

    ground: GroundSet
    mult: tuple[int, ...]

    def __post_init__(self):
        if len(self.mult) != len(self.ground):
            raise ValueError("multiplicity vector length does not match ground set")
        for m in self.mult:
            if not isinstance(m, int) or m < 0:
                raise ValueError(f"integer sequence needs multiplicities in N0, got {m!r}")

    @staticmethod
    def from_terms(ground: GroundSet, terms) -> "Sequence":
        """Build from an iterable of (vector, multiplicity) pairs."""
        mult = [0] * len(ground)
        for v, m in terms:
            mult[ground.position(v)] += m
        return Sequence(ground, tuple(mult))

    @staticmethod
    def empty(ground: GroundSet) -> "Sequence":
        return Sequence(ground, (0,) * len(ground))

    @staticmethod
    def from_json(ground: GroundSet, data: dict) -> "Sequence":
        mult = [_parse_mult(x) for x in _sequence_mult(data)]
        if any(isinstance(m, Fraction) for m in mult):
            raise ValueError("integer sequence JSON contains fractional multiplicities")
        return Sequence(ground, tuple(mult))

    def rational(self) -> "RationalSequence":
        return RationalSequence(self.ground, tuple(Fraction(m) for m in self.mult))


@dataclass(frozen=True)
class RationalSequence(_SequenceOps):
    """Rational sequence: nonnegative exact rational multiplicities."""

    ground: GroundSet
    mult: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.mult) != len(self.ground):
            raise ValueError("multiplicity vector length does not match ground set")
        object.__setattr__(self, "mult", tuple(
            m if isinstance(m, Fraction) else Fraction(m) for m in self.mult))
        for m in self.mult:
            if m.numerator < 0:
                raise ValueError("rational sequence multiplicities must be >= 0")

    @staticmethod
    def from_json(ground: GroundSet, data: dict) -> "RationalSequence":
        return RationalSequence(ground, tuple(Fraction(_parse_mult(x))
                                              for x in _sequence_mult(data)))

    def scaled(self, alpha) -> "RationalSequence":
        alpha = Fraction(alpha)
        if alpha < 0:
            raise ValueError("scaling factor must be >= 0")
        return RationalSequence(self.ground, tuple(alpha * m for m in self.mult))
