"""Hypercube ground sets, the Fibonacci lower-bound witness, and the eight
longest atoms of the rank-3 signed hypercube.

The Fibonacci witness is built by the flip recursion: starting from a single
basis vector, append F_{r-1} copies of the new basis direction and reflect
every term through the all-ones vector (swap 0s and 1s coordinatewise).  The
resulting sequence S_r over the hypercube vertices has length F_{r+1}, sum
F_r * (1,...,1), and no proper nonempty partial sum on the all-ones diagonal;
appending F_r copies of -(1,...,1) therefore yields a minimal zero-sum
sequence of length F_{r+2}.
"""

from __future__ import annotations

from .ground import GroundSet, Sequence, _Record

VERIFY_LIMIT = 8


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def hypercube_plus(r: int) -> GroundSet:
    """The 2^r - 1 nonzero 0/1 vertices, lexicographically ordered."""
    if r < 1:
        raise ValueError("rank must be at least 1")
    elems = sorted(tuple((mask >> i) & 1 for i in range(r))
                   for mask in range(1, 1 << r))
    return GroundSet.from_elements(r, elems)


def hypercube_pm(r: int) -> GroundSet:
    """The nonzero vertices together with their negatives, 2(2^r - 1) vectors."""
    if r < 1:
        raise ValueError("rank must be at least 1")
    plus = [tuple((mask >> i) & 1 for i in range(r)) for mask in range(1, 1 << r)]
    return GroundSet.from_elements(r, sorted(plus + [tuple(-x for x in v) for v in plus]))


def flip(v) -> tuple[int, ...]:
    """Exchange 0s and 1s: x -> (1,...,1) - x."""
    return tuple(1 - x for x in v)


def _diagonal_stack_sequence(r: int) -> list[tuple[int, ...]]:
    """Terms of the witness sequence over the rank-r hypercube, as a list."""
    terms = [(1,)]
    for k in range(2, r + 1):
        widened = [v + (0,) for v in terms]
        widened += [tuple(int(i == k - 1) for i in range(k))] * fibonacci(k - 1)
        terms = [flip(v) for v in widened]
    return terms


class FibonacciWitness(_Record):
    """Certified length lower bound for the signed hypercube Davenport constant."""

    rank: int
    stack: Sequence       # S over the positive vertices, length F_{r+1}
    atom: Sequence        # S * (-1,...,-1)^{F_r} over the signed vertices
    fib: tuple[int, ...]  # F_0 .. F_{r+2}
    verified: bool        # atom minimality checked (bounded subset-sum scan)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "stack_length": self.stack.length,
            "atom_length": self.atom.length,
            "fibonacci": list(self.fib),
            "davenport_lower_bound": self.atom.length,
            "verified": self.verified,
        }


def _proper_partial_sums_hit_diagonal(seq: Sequence) -> bool:
    """Whether any nonempty proper sub-multiset sums to a multiple of (1,..,1).

    Dynamic programming over distinct terms with multiplicities; state is the
    set of achievable sums.  Every term is a nonzero 0/1 vertex, so only the
    empty sub-multiset sums to 0 and only the full one to the total.
    """
    items = [(seq.ground.elements[i], seq.mult[i]) for i in seq.support()]
    r = seq.ground.rank
    states = {(0,) * r}
    for v, m in items:
        states = {tuple(x + k * y for x, y in zip(s, v)) for s in states for k in range(m + 1)}
    ends = {(0,) * r, seq.sum_vector()}
    return any(len(set(s)) == 1 and s not in ends for s in states)


def fibonacci_witness(r: int, verify_limit: int = VERIFY_LIMIT) -> FibonacciWitness:
    """Witness sequence and minimal zero-sum atom of length F_{r+2}.

    Minimality of the atom reduces to the partial-sum condition on the stack
    sequence, which is checked exhaustively up to ``verify_limit``; beyond
    that the witness is returned unverified.
    """
    if r < 1:
        raise ValueError("rank must be at least 1")
    plus = hypercube_plus(r)
    pm = hypercube_pm(r)
    terms = _diagonal_stack_sequence(r)
    stack = Sequence.from_terms(plus, [(v, 1) for v in terms])
    fib = tuple(fibonacci(i) for i in range(r + 3))
    if stack.length != fib[r + 1]:
        raise AssertionError("stack length drifted from the Fibonacci recursion")
    if stack.sum_vector() != (fib[r],) * r:
        raise AssertionError("stack sum drifted from the Fibonacci recursion")
    atom_terms = [(v, m) for v, m in zip(plus.elements, stack.mult) if m]
    atom_terms.append(((-1,) * r, fib[r]))
    atom = Sequence.from_terms(pm, atom_terms)
    verified = False
    if r <= verify_limit:
        if _proper_partial_sums_hit_diagonal(stack):
            raise AssertionError("a proper partial sum hit the diagonal; "
                                 "the witness would not be an atom")
        verified = True
    return FibonacciWitness(r, stack, atom, fib, verified)


def r3_extremal_atoms() -> list[Sequence]:
    """The four length-5 atoms of the rank-3 signed hypercube (up to sign)."""
    g = hypercube_pm(3)
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)

    def plus(*vs):
        return tuple(sum(c) for c in zip(*vs))

    def minus(*vs):
        return tuple(-sum(c) for c in zip(*vs))

    listing = [
        [(plus(e1, e2), 1), (plus(e1, e3), 1), (plus(e2, e3), 1), (minus(e1, e2, e3), 2)],
        [(plus(e1, e2), 1), (plus(e1, e3), 1), (minus(e2, e3), 1), (minus(e1), 2)],
        [(minus(e1, e3), 1), (plus(e1, e2), 1), (plus(e2, e3), 1), (minus(e2), 2)],
        [(minus(e1, e2), 1), (plus(e1, e3), 1), (plus(e2, e3), 1), (minus(e3), 2)],
    ]
    return [Sequence.from_terms(g, terms) for terms in listing]
