"""Enumeration of minimal zero-sum sequences and Davenport-type invariants.

The enumerator is a breadth-first completion procedure in the style of
Contejean and Devie: partial multiplicity vectors grow one term at a time,
a term g may extend a partial vector t only when the running sum of t has
negative inner product with g, and any partial vector that componentwise
dominates an already-found minimal solution is discarded.  That dominance
test runs only on the new child t + e_j of a partial vector, and only against
the atoms whose j-th coordinate equals the child's, screened by support
bitmask (see ``enumerate_atoms``).  Complete runs return the full Hilbert
basis of the kernel cone; a length budget acts as a safety valve and is
reported through the ``complete`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, isqrt
from operator import add, mul

from .ground import GroundSet, RationalSequence, Sequence, _encode_mult, up_to_sign
from .intlinalg import (
    det_bareiss,
    primitive_kernel_vector,
    rank_over_q,
    smith_normal_form,
)

DEFAULT_BUDGET = 20


@dataclass(frozen=True)
class AtomSet:
    """Atoms of the zero-sum monoid over a ground set, canonically sorted."""

    ground: GroundSet
    atoms: tuple[Sequence, ...]
    complete: bool

    def max_length(self) -> int:
        return max((a.length for a in self.atoms), default=0)

    def to_json(self) -> dict:
        return {
            "complete": self.complete,
            "atoms": [list(a.mult) for a in self.atoms],
        }


def _minimal_solutions(vectors, frontier: dict, size: int, budget: int,
                       clip: bool) -> tuple[list[tuple[int, ...]], bool]:
    """Componentwise-minimal count tuples t above the frontier whose state
    reaches zero, of length at most ``budget``, and whether the search ended
    because the frontier emptied.

    ``frontier`` maps each tuple of length ``size`` to its state and support
    bitmask.  Adding e_j adds ``vectors[j]`` to the state, clipped at 0 in
    each coordinate when ``clip`` is set; t may take e_j only when
    <state, vectors[j]> < 0.  Breadth-first, in rounds of equal length.

    Round L holds the frontier tuples of length L, none of which dominates a
    solution.  Its zero-state tuples are solutions; every other tuple t
    spawns the children t2 = t + e_j allowed by the inner-product rule, and a
    child that dominates a solution found so far (all of length <= L) is
    dropped.  Only the children need the dominance test:

    - a frontier tuple of length L was tested when it was made, against
      every solution shorter than L, and a solution of length L lies below
      it only if the two are equal, which no distinct tuple of the frontier
      can be;
    - if a solution a <= t2 had a_j < t2_j, then a <= t, which the first
      point rules out; so a_j = t2_j >= 1.

    The solutions are therefore kept by (j, a_j) for each j in supp(a), and
    a child is compared only with the solutions under (j, t2_j).  Each
    solution carries its support bitmask and each frontier tuple carries its
    own next to its state, so one integer test, supp(a) inside supp(t2),
    rejects most of those before any coordinate is read.

    Each count tuple is held as one int p of w-bit fields, t_j in bits
    [j * w, (j + 1) * w), with w = (budget + 1).bit_length() + 1.  No count
    exceeds the length of its tuple, and the rounds run only while the
    length is at most the budget, so the longest tuple they read or make is
    a child of length budget + 1: every count lies below the field's top
    bit, the guard bit G_j = 2^(w - 1).  The child t + e_j is p + 2^(j * w), and
    the key (j, t2_j) is the field itself, p2 masked to bits of field j: a
    distinct nonzero int for each pair with t2_j >= 1.  For the dominance
    test, set every guard and subtract a stored solution: field j of
    (p2 | G) - a holds t2_j + G_j - a_j, which lies in [1, 2 G_j) because
    both counts lie in [0, G_j), so no field borrows from the next and G_j
    survives exactly when a_j <= t2_j; hence a <= t2 exactly when
    ((p2 | G) - a) & G == G.  The solutions are unpacked into tuples once,
    at the end.
    """
    n = len(vectors)
    width = (budget + 1).bit_length() + 1
    field = (1 << (width - 1)) - 1
    shifts = range(0, n * width, width)
    guards = sum(1 << (s + width - 1) for s in shifts)
    # per j: the vector, the packed unit e_j, the mask of field j, the support bit
    steps = [(v, 1 << s, field << s, 1 << j)
             for j, (v, s) in enumerate(zip(vectors, shifts))]
    zero = (0,) * len(vectors[0]) if vectors else ()
    zeros = [0] * len(zero)
    frontier = {sum(c << s for c, s in zip(t, shifts)): entry for t, entry in frontier.items()}
    solutions: list[int] = []
    # field j of a, nonzero -> (support bitmask, a) for every solution a and every j in supp(a)
    by_coordinate: dict[int, list[tuple[int, int]]] = {}
    length = size
    while frontier and length <= budget:
        for p, (state, mask) in frontier.items():
            if state == zero:
                solutions.append(p)
                for _, _, f, _ in steps:
                    if p & f:
                        by_coordinate.setdefault(p & f, []).append((mask, p))
        next_frontier: dict[int, tuple[tuple[int, ...], int]] = {}
        for p, (state, mask) in frontier.items():
            if state == zero:
                continue
            for v, unit, f, bit in steps:
                if sum(map(mul, state, v)) >= 0:
                    continue
                p2 = p + unit
                if p2 in next_frontier:
                    continue
                mask2 = mask | bit
                raised = p2 | guards
                for found_mask, found in by_coordinate.get(p2 & f, ()):
                    if not found_mask & ~mask2 and (raised - found) & guards == guards:
                        break
                else:
                    if clip:
                        state2 = tuple(map(max, map(add, state, v), zeros))
                    else:
                        state2 = tuple(map(add, state, v))
                    next_frontier[p2] = (state2, mask2)
        frontier = next_frontier
        length += 1
    return [tuple((p >> s) & field for s in shifts) for p in solutions], not frontier


def enumerate_atoms(ground: GroundSet, budget: int | None = None) -> AtomSet:
    """All componentwise-minimal nonzero solutions of sum(x_g * g) = 0.

    When the search frontier empties before the length budget is hit the
    returned set is the complete Hilbert basis (``complete=True``); otherwise
    every atom of length <= budget is present and ``complete`` is False.
    The search is ``_minimal_solutions`` from the unit tuples, with the
    running sum as the state.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    n = len(ground)
    frontier = {tuple(int(i == j) for i in range(n)): (v, 1 << j)
                for j, v in enumerate(ground.elements)}
    atoms, complete = _minimal_solutions(ground.elements, frontier, 1, budget, clip=False)
    seqs = tuple(Sequence(ground, t) for t in sorted(atoms))
    return AtomSet(ground, seqs, complete)


@dataclass(frozen=True)
class DavenportResult:
    """Largest atom length, exactly or as a certified lower bound."""

    value: int
    exact: bool
    witnesses: tuple[Sequence, ...]

    def to_json(self) -> dict:
        return {
            "davenport": self.value,
            "complete": self.exact,
            "witnesses": [list(w.mult) for w in self.witnesses],
        }


def davenport(atom_set: AtomSet) -> DavenportResult:
    """Davenport constant of the ground set of an atom enumeration."""
    best = atom_set.max_length()
    witnesses = tuple(a for a in atom_set.atoms if a.length == best and best > 0)
    return DavenportResult(best, atom_set.complete, witnesses)


def _is_circuit(vectors) -> bool:
    """Dependent over Q, with every proper subset independent (never for no
    vectors).

    That holds exactly when the relations among the vectors form a lattice
    of rank one whose generator has full support.  A circuit has rank k - 1,
    and a relation that misses vector i would make the others dependent.
    Conversely, a dependent proper subset would give a relation with a zero
    coordinate, which is no nonzero multiple of a full-support generator.
    """
    z = primitive_kernel_vector(vectors)
    return z is not None and all(z)


def is_elementary(seq) -> bool:
    """Whether a zero-sum sequence has nonempty minimal signed support.

    Works through the support characterization: the one-per-pair
    representatives of the signed support must form a circuit (dependent,
    every proper subset independent).  The result does not depend on the
    chosen sign partition.
    """
    if not seq.is_zero_sum():
        raise ValueError("is_elementary needs a zero-sum sequence")
    return _is_circuit(sorted(set(map(up_to_sign, seq.signed_support()))))


def is_elementary_by_search(seq, atom_set: AtomSet | None = None) -> bool:
    """Direct-search oracle for ``is_elementary``.

    A zero-sum sequence fails to be elementary exactly when some atom of
    length >= 3 has strictly smaller nonempty signed support, so scanning a
    complete atom set decides the question independently of any rank
    computation.
    """
    if not seq.is_zero_sum():
        raise ValueError("is_elementary_by_search needs a zero-sum sequence")
    x = seq.signed_support()
    if not x:
        return False
    if atom_set is None:
        atom_set = enumerate_atoms(seq.ground)
    if not atom_set.complete:
        raise ValueError("direct search needs a complete atom set")
    for atom in atom_set.atoms:
        y = atom.signed_support()
        if y and y < x:
            return False
    return True


def circuit_length(vectors) -> int:
    """Sum over i of |det with column i removed|, divided by their gcd.

    For r+1 vectors spanning Q^r this is the 1-norm of the primitive kernel
    relation, hence the length of the atom supported on the tuple when one is
    realizable; it is 0 when the span has rank below r.
    """
    vecs = [tuple(int(x) for x in v) for v in vectors]
    if not vecs:
        raise ValueError("empty tuple")
    r = len(vecs[0])
    if len(vecs) != r + 1:
        raise ValueError(f"need {r + 1} vectors of dimension {r}, got {len(vecs)}")
    for v in vecs:
        if len(v) != r:
            raise ValueError("vector dimension mismatch")
    dets = [abs(det_bareiss([v for i, v in enumerate(vecs) if i != drop]))
            for drop in range(r + 1)]
    g = gcd(*dets)
    if g == 0:
        return 0
    return sum(dets) // g


def has_elementary_atom(ground: GroundSet, budget: int | None = None) -> bool:
    """Existence of an elementary atom (equivalently, of any atom of length >= 3)."""
    atom_set = enumerate_atoms(ground, budget)
    if any(a.length >= 3 for a in atom_set.atoms):
        return True
    if not atom_set.complete:
        raise ValueError("enumeration truncated before settling elementary existence")
    return False


def elementary_davenport(ground: GroundSet, method: str = "enumerate",
                         budget: int | None = None):
    """Largest elementary atom length, by filtering atoms or by determinants.

    method='enumerate' filters a complete atom enumeration through
    ``is_elementary``.  method='formula' takes the supremum of
    ``circuit_length`` over (r+1)-tuples of ground elements, restricted to
    tuples over which an atom of length >= 3 exists; for symmetric ground
    sets the restriction is vacuous.  method='both' cross-checks the two.
    """
    if method == "both":
        a = elementary_davenport(ground, "enumerate", budget)
        b = elementary_davenport(ground, "formula", budget)
        if a != b:
            raise AssertionError(f"elementary Davenport mismatch: enumerate={a} formula={b}")
        return a
    if method == "enumerate":
        atom_set = enumerate_atoms(ground, budget)
        if not atom_set.complete:
            raise ValueError("enumeration truncated; rerun with a larger budget")
        return max((a.length for a in atom_set.atoms if is_elementary(a)), default=0)
    if method != "formula":
        raise ValueError(f"unknown method {method!r}")

    r = ground.rank
    actual_rank = rank_over_q(ground.elements)
    if actual_rank < r:
        raise ValueError(
            f"ground set spans rank {actual_rank} < {r}; re-embed it into "
            f"Z^{actual_rank} before using the determinant formula")
    pool = [v for v in ground.elements if any(v)]
    if ground.is_symmetric():
        return longest_circuit(r, sorted(set(map(up_to_sign, pool))))[0]
    return longest_circuit(r, pool, side_condition=True)[0]


def longest_circuit(rank: int, pool, side_condition: bool = False) -> tuple[int, tuple]:
    """Largest ``circuit_length`` >= 3 over the (rank+1)-tuples of ``pool``,
    with the first tuple in ``combinations`` order that attains it; (0, ())
    when there is none.

    The tuples are tried longest first, ties in ``combinations`` order.  With
    ``side_condition`` a tuple counts only when it carries an atom of length
    >= 3 on its own, which ``has_elementary_atom`` decides on the tuple as a
    ground set within a length budget one above the tuple's circuit length.
    """
    candidates = sorted(((d, combo) for combo in combinations(pool, rank + 1)
                         if (d := circuit_length(combo)) >= 3), key=lambda t: -t[0])
    for d, combo in candidates:
        if not side_condition or has_elementary_atom(
                GroundSet.from_elements(rank, combo), budget=d + 1):
            return d, combo
    return 0, ()


def _is_hypercube_subset(ground: GroundSet) -> bool:
    """Every element is a 0/1 vector or the negative of one."""
    for v in ground.elements:
        if not any(v):
            return False
        if all(x in (0, 1) for x in v):
            continue
        if all(x in (0, -1) for x in v):
            continue
        return False
    return True


def hypercube_davenport_ceiling(r: int) -> int:
    """floor(((2^r - r - 1) / 2^r) * (r + 2)^((r + 2) / 2)), exactly.

    The half-integer power is handled through an integer square root so the
    floor is computed without floating point.
    """
    a = (1 << r) - r - 1
    if r % 2 == 0:
        return a * (r + 2) ** ((r + 2) // 2) >> r
    b = a * (r + 2) ** ((r + 1) // 2)
    return isqrt(b * b * (r + 2)) >> r


def davenport_upper_bounds(ground: GroundSet, atom_set: AtomSet) -> dict:
    """Certified upper bounds for the (elementary) Davenport constant.

    Returns a report with keys ``snf_G0``, ``snf_G1`` (largest elementary
    divisors of augmented column submatrices; these bound the elementary
    Davenport constant), ``hadamard`` (hypercube ground sets only), ``dgs``
    (the lattice-geometry bound), and ``elm_product`` (elementary-count times
    elementary-Davenport bound for the Davenport constant itself).
    ``atom_set`` is the atom enumeration of ``ground``, complete or not.
    """
    r = ground.rank
    if rank_over_q(ground.elements) != r:
        raise ValueError("upper bounds need a ground set of full rank; re-embed first")
    report: dict = {"rank": r, "certifies": "davenport-upper-bounds"}

    dav = davenport(atom_set)
    report["davenport"] = dav.value if dav.exact else None

    long_atom = any(a.length >= 3 for a in atom_set.atoms)
    if long_atom:
        report["snf_G0"] = 2 * _max_last_divisor(_augmented_columns(ground, both_signs=False))
        report["snf_G1"] = _max_last_divisor(_augmented_columns(ground, both_signs=True))
    else:
        report["snf_G0"] = None
        report["snf_G1"] = None
        report["skipped"] = ("largest atom length is below 3, augmented bounds do not apply"
                             if atom_set.complete else
                             "atom enumeration truncated before an atom of length 3 was "
                             "found, augmented bounds not decided")

    report["hadamard"] = hypercube_davenport_ceiling(r) if _is_hypercube_subset(ground) else None

    plus_cols = [ground.elements[i] for i in ground.plus_indices]
    best = 0
    for combo in combinations(plus_cols, r):
        best = max(best, abs(det_bareiss(combo)))
    report["dgs"] = (2 * r) ** r * (r + 1) ** (r + 1) * best

    delm = max((a.length for a in atom_set.atoms if is_elementary(a)), default=0)
    eta = max((len(a.support()) for a in atom_set.atoms), default=0)
    report["elm_product"] = max(2, min(eta, len(ground.plus_indices) - r) * delm)
    report["elm_product_conditional"] = not atom_set.complete
    return report


def _augmented_columns(ground: GroundSet, both_signs: bool) -> list[tuple[int, ...]]:
    up = [v + (1,) for v in ground.elements]
    if both_signs:
        down = [v + (-1,) for v in ground.elements]
    else:
        down = [v + (0,) for v in ground.elements]
    return up + down


def _max_last_divisor(columns) -> int:
    """Largest final elementary divisor over nonsingular square column choices.

    Negating a column multiplies the matrix on the right by a unimodular
    matrix, which leaves the Smith form unchanged, so each column is taken
    once up to sign: zero columns are dropped and the rest are normalised to
    a positive first nonzero entry and deduplicated.  A choice this skips is
    a sign variant of a kept one, or is singular (it holds a zero column, a
    repeated column, or c and -c) and has no nonzero last divisor.  Since
    |det| = d_1 ... d_k with every d_i >= 1 on a nonsingular choice,
    d_k <= |det|; a choice whose |det| does not exceed the best so far (a
    singular one included) cannot raise it, and gets no Smith form.
    """
    dim = len(columns[0])
    kept = dict.fromkeys(up_to_sign(c) for c in columns if any(c))
    best = 0
    for combo in combinations(kept, dim):
        if abs(det_bareiss(combo)) > best:
            best = max(best, smith_normal_form(combo)[-1])
    return best


@dataclass(frozen=True)
class ElementaryDecomposition:
    """A zero-sum sequence written as balanced-part times rational powers of
    elementary atoms."""

    balanced: RationalSequence
    parts: tuple[tuple[Sequence, Fraction], ...]

    @property
    def ell(self) -> int:
        return len(self.parts)

    def reassemble(self) -> RationalSequence:
        total = self.balanced
        for atom, alpha in self.parts:
            total = total * atom.rational().scaled(alpha)
        return total

    def to_json(self) -> dict:
        return {
            "balanced": self.balanced.to_json(),
            "parts": [{"atom": list(a.mult), "exponent": _encode_mult(x)}
                      for a, x in self.parts],
        }


@cache
def _elementary_atoms_on(ground: GroundSet, support: tuple[int, ...],
                         budget: int) -> tuple[Sequence, ...]:
    """The elementary atoms of the zero-sum monoid restricted to the sorted
    positions ``support``, lifted back to ``ground``.

    Memoized: decomposing many sequences over one ground set meets the same
    supports again and again.
    """
    sub_atoms = enumerate_atoms(ground.restrict(support), budget)
    if not sub_atoms.complete:
        raise ValueError("restricted atom enumeration truncated at the "
                         f"length budget {budget}; raise --budget")
    lifted = []
    for atom in sub_atoms.atoms:
        mult = [0] * len(ground)
        for i, m in zip(support, atom.mult):
            mult[i] = m
        lifted.append(Sequence(ground, tuple(mult)))
    return tuple(a for a in lifted if is_elementary(a))


def rational_elementary_decomposition(seq, budget: int | None = None) -> ElementaryDecomposition:
    """Greedy peel of a rational zero-sum sequence into elementary atoms.

    After splitting off the balanced part, the reduced sequence always admits
    an elementary atom supported inside its support; peeling with the minimal
    multiplicity ratio empties one support coordinate per step, so the number
    of parts is bounded by half the signed support and by the kernel
    dimension of the ground columns.  ``budget`` caps the length of the
    atoms enumerated on each support (default ``DEFAULT_BUDGET``).
    """
    if not seq.is_zero_sum():
        raise ValueError("decomposition needs a zero-sum sequence")
    s = seq.rational() if isinstance(seq, Sequence) else seq
    balanced, current = s.split_balanced()
    ground = s.ground
    parts: list[tuple[Sequence, Fraction]] = []
    if budget is None:
        budget = DEFAULT_BUDGET
    while not current.is_trivial():
        candidates = _elementary_atoms_on(ground, current.support(), budget)
        if not candidates:
            raise RuntimeError("no elementary atom inside the support; "
                               "the input was not a zero-sum sequence over its ground set")
        atom = min(candidates, key=lambda a: a.mult)
        alpha = min(Fraction(current.mult[i]) / atom.mult[i] for i in atom.support())
        current = current.remove(atom.rational().scaled(alpha))
        if atom.signed_support() <= current.signed_support():
            raise AssertionError("peeled atom signed support survived into the tail")
        parts.append((atom, alpha))
    return ElementaryDecomposition(balanced, tuple(parts))


def ell_bound(seq) -> int:
    """Cap on the number of parts in an elementary decomposition of seq."""
    ground = seq.ground
    kernel_dim = len(ground.plus_indices) - rank_over_q(ground.elements)
    return min(len(seq.signed_support()) // 2, kernel_dim)


def brute_force_atoms(ground: GroundSet, max_length: int) -> list[Sequence]:
    """Independent oracle: scan every multiplicity vector of bounded length.

    Minimality is decided by exhaustively checking all proper nonzero
    sub-vectors for zero sums.  Exponential; only for small cross-checks.
    """
    n = len(ground)
    zero = (0,) * ground.rank

    def vectors_of_length(total, pos):
        if pos == n - 1:
            yield (total,)
            return
        for m in range(total + 1):
            for rest in vectors_of_length(total - m, pos + 1):
                yield (m,) + rest

    def sub_vectors(t):
        ranges = [range(m + 1) for m in t]

        def rec(i):
            if i == n:
                yield ()
                return
            for head in ranges[i]:
                for rest in rec(i + 1):
                    yield (head,) + rest

        yield from rec(0)

    found = []
    for total in range(1, max_length + 1):
        for t in vectors_of_length(total, 0):
            s = Sequence(ground, t)
            if s.sum_vector() != zero:
                continue
            minimal = True
            for sub in sub_vectors(t):
                if sub == t or not any(sub):
                    continue
                if Sequence(ground, sub).sum_vector() == zero:
                    minimal = False
                    break
            if minimal:
                found.append(s)
    return sorted(found, key=lambda s: s.mult)
