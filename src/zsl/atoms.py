"""Enumeration of minimal zero-sum sequences and Davenport-type invariants.

The enumerator is a breadth-first completion procedure in the style of
Contejean and Devie: partial multiplicity vectors grow one term at a time,
a term g may extend a partial vector t only when the running sum of t has
negative inner product with g, and any partial vector that componentwise
dominates an already-found minimal solution is discarded.  That dominance
test runs only on the new child t + e_j of a partial vector, and only against
the atoms whose j-th coordinate equals the child's, screened by support
bitmask.  A partial vector, its running sum and the sum's inner products with
every ground element are packed ints of the guard-bit lanes of
``ground._Lanes``: a child is two additions, the dominance test one
subtraction, and the terms it may take are read off the sign bits of the
products (see ``_minimal_solutions``).  Complete runs return the full Hilbert
basis of the kernel cone; a length budget acts as a safety valve and is
reported through the ``complete`` flag.  The same search, with the running
sum less a need in the same offset fields, finds the minimal atom covers of
``invariants``: a tuple covers when every sign bit is set, and one that does
not steps only on the supplies of its lowest lacking coordinate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, combinations, combinations_with_replacement, repeat
from math import comb, gcd, isqrt
from operator import add, le, mul

from .ground import (GroundSet, RationalSequence, Sequence, _checked, _encode_mult, _Lanes,
                     _Record, up_to_sign)
from .intlinalg import (
    det_bareiss,
    primitive_kernel_vector,
    smith_normal_form,
    subset_determinants,
)

DEFAULT_BUDGET = 20


class AtomSet(_Record):
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


def _minimal_solutions(vectors, budget: int,
                       need=None) -> tuple[list[tuple[int, ...]], bool]:
    """Componentwise-minimal count tuples t whose state is final, of length
    at most ``budget``, and whether the search ended because the frontier
    emptied.  Breadth-first, in rounds of equal length; the state of t is
    its running sum s = sum_j t_j v_j, less ``need`` if given, and a child
    t + e_j adds v_j to it.

    - Without ``need`` a state is final when it is zero, and t may take e_j
      only when <s, v_j> < 0.  The search starts from the unit tuples e_j at
      length 1: the result is the Hilbert basis of the kernel cone of the
      vectors.
    - With ``need`` the vectors are supplies, s is the deficit, and a state
      is final when it is nonnegative: t covers the need.  The search starts
      from the zero tuple at length 0, whose deficit is -need.  The supplies
      and the need must be nonnegative, or a ValueError is raised, and t may
      take e_j only when v_j is positive on k, the lowest coordinate where s
      is negative (Knuth's dancing links branch on one uncovered column
      too).  No minimal cover c is lost: if t <= c does not cover, c covers
      k, so some j with c_j > t_j has v_jk > 0, and t + e_j <= c.  That
      child dominates no solution found so far, all shorter than c, as c is
      minimal; so by induction from the zero tuple c is reached in round
      |c|.

    Round L holds the frontier tuples of length L, none of which dominates a
    solution.  Its final-state tuples are solutions; every other tuple t
    spawns the children t2 = t + e_j allowed by the step rule, and a child
    that dominates a solution found so far (all of length <= L) is dropped.
    Only the children need the dominance test:

    - a frontier tuple of length L was tested when it was made, against
      every solution shorter than L, and a solution of length L lies below
      it only if the two are equal, which no distinct tuple of the frontier
      can be; the start tuples dominate no solution, as none is shorter;
    - if a solution a <= t2 had a_j < t2_j, then a <= t, which the first
      point rules out; so a_j = t2_j >= 1.

    The solutions are therefore kept by (j, a_j) for each j in supp(a), and
    a child is compared only with the solutions under (j, t2_j).  Each
    solution carries its support bitmask, whose set bits are the j it is
    filed under, and each frontier tuple carries its own next to its state,
    so one integer test, supp(a) inside supp(t2), rejects most of those
    before any coordinate is read.  The screen stays
    for the 4-cube: without it the complete signed 4-cube at budget 27 took
    8.9-13.1 s against 6.4-10.1 s (2-core host, Python 3.11), and
    perfbench's ``enumerate`` pass ran about 5 % slower (0.0193 s against
    0.0184 s, median of 6 alternating pairs).

    Round ``budget`` is the last, and no child it makes is read: its
    solutions come from the final-state pass over its whole frontier, and
    of its children only whether one survives the dominance test decides
    the flag.  So it stops at the first survivor, leaving the step loop and
    the frontier loop with that one child; the solutions, their order and
    the flag are those of a full last round.  When none survives, as in a
    run whose longest solution has length ``budget``, all are still made.

    Each count tuple is one int p of ``counts = _Lanes(n, budget + 1)``,
    t_j in field j of w bits.  No count exceeds the length of its tuple, and
    the rounds run only while the length is at most the budget, so no count
    of a tuple they read or make, at most a child of length budget + 1,
    exceeds budget + 1.  The child t + e_j is p + 2^(j * w), and the key
    (j, t2_j) is p2 masked to field j: a distinct nonzero int for each pair
    with t2_j >= 1.  With G the guards, a solution a lies below t2 exactly
    when ((p2 | G) - a) & G == G.  The solutions are unpacked at the end,
    column by column (``_Lanes.unpack_all``).

    Each state is one int T + pack(x) of ``lanes`` too, T its guards at bit
    c of each field, and a child's state is its parent's plus packed step
    j.  A state is read (final test, step list) only in the round of its
    tuple, so only while the tuple's length is at most the budget; the child
    the last round keeps is never read.  Every value x of a state read lies
    in [-B, B] for the ``largest`` B of the lanes, so its field holds
    x + 2^c, with bit c set exactly when x >= 0.  The steps of a state are
    listed under the clear guards of the fields that steer them, once per
    key in increasing j and kept, so the children come in increasing j: the
    steps whose test bits meet key & (-key | spread), all of key without
    ``need`` (spread = -1), its lowest bit with it (0).

    - Without ``need`` the lanes are ``_Lanes(r + n, B)`` and x is the
      coordinates s_k, then the inner products <s, v_j>.  Packed step i
      packs the entries of v_i, then row i of the Gram matrix: the state of
      e_i is T plus packed step i.  A state read is a sum of at most
      ``budget`` steps, so |x| <= B, the budget times the largest |entry| of
      a step.  s = 0 exactly when its coordinate fields all hold 2^c, and
      the key is the clear bits c of the product fields, the j with
      <s, v_j> < 0.
    - With ``need`` the lanes are ``_Lanes(r, B)``, B the larger of the
      largest need entry and the budget times the largest supply entry, and
      x is s itself: packed step j packs v_j, and the zero tuple's state is
      T - pack(need).  A state read adds at most ``budget`` supplies to
      -need, so s_k lies in [-need_k, budget * max v] within [-B, B].  t
      covers exactly when every guard is set, and the key is the clear
      guards, the coordinates still lacking; its lowest bit, key & -key, is
      the guard of the lowest.
    """
    if need is not None and any(x < 0 for x in chain(need, *vectors)):
        raise ValueError("supplies and need must be nonnegative")
    if need is None and not vectors:
        return [], True

    n = len(vectors)
    counts = _Lanes(n, budget + 1)
    if need is None:
        moves = [[*u, *(sum(map(mul, u, v)) for v in vectors)] for u in vectors]
        lanes = _Lanes(len(moves[0]), budget * max(map(abs, chain(*moves))))
    else:
        moves = vectors
        lanes = _Lanes(len(need), max([*need, budget * max(chain(*moves), default=0)]))
    guards, tops, c = counts.guards, lanes.guards, lanes.width - 1
    # per j: the packed unit e_j, the mask of field j, the support bit and the packed step
    steps = [(1 << s, counts.field << s, 1 << j, lanes.pack(move))
             for j, (s, move) in enumerate(zip(counts.shifts, moves))]
    if need is None:
        rank = len(vectors[0])
        state_mask = (1 << lanes.shifts[rank]) - 1
        state_zero = tops & state_mask
        signs = tops - state_zero  # bit c of every product field
        tests = [1 << (s + c) for s in lanes.shifts[rank:]]
        frontier = {unit: (tops + step, bit) for unit, _, bit, step in steps}
        length = 1
    else:
        state_mask = state_zero = signs = tops
        tests = [lanes.pack(map(bool, v)) << c for v in vectors]
        frontier, length = {0: (tops - lanes.pack(need), 0)}, 0
    spread = -(need is None)  # key & (-key | spread): the whole key, or its lowest bit
    solutions: list[int] = []
    # field j of a, nonzero -> (support bitmask, a) for every solution a and every j in supp(a)
    by_coordinate: dict[int, list[tuple[int, int]]] = {}
    suppliers: dict[int, list] = {}  # clear sign bits -> the steps they allow
    while frontier and length <= budget:
        for p, (state, mask) in frontier.items():
            if state & state_mask == state_zero:
                solutions.append(p)
                bits = mask
                while bits:
                    f = steps[(bits & -bits).bit_length() - 1][1]
                    by_coordinate.setdefault(p & f, []).append((mask, p))
                    bits &= bits - 1
        next_frontier: dict[int, tuple[int, int]] = {}
        last = length == budget  # its children are never read: one survivor settles the flag
        for p, (state, mask) in frontier.items():
            if last and next_frontier:
                break
            if state & state_mask == state_zero:
                continue
            key = signs & ~state
            allowed = suppliers.get(key)
            if allowed is None:
                chosen = key & (-key | spread)
                allowed = suppliers[key] = [s for s, test in zip(steps, tests) if chosen & test]
            for unit, f, bit, step in allowed:
                p2 = p + unit
                if p2 in next_frontier:
                    continue
                mask2 = mask | bit
                raised = p2 | guards
                for found_mask, found in by_coordinate.get(p2 & f, ()):
                    if not found_mask & ~mask2 and (raised - found) & guards == guards:
                        break
                else:
                    next_frontier[p2] = (state + step, mask2)
                    if last:
                        break
        frontier = next_frontier
        length += 1
    return counts.unpack_all(solutions), not frontier


def enumerate_atoms(ground: GroundSet, budget: int | None = None) -> AtomSet:
    """All componentwise-minimal nonzero solutions of sum(x_g * g) = 0.

    When the search frontier empties before the length budget is hit the
    returned set is the complete Hilbert basis (``complete=True``); otherwise
    every atom of length <= budget is present and ``complete`` is False.
    The search is ``_minimal_solutions`` on the ground elements.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    atoms, complete = _minimal_solutions(ground.elements, budget)
    # unpack_all's tuples are len(ground) nonnegative ints by construction: not validated again
    seqs = tuple(_checked(Sequence, ground, t) for t in sorted(atoms))
    return AtomSet(ground, seqs, complete)


class DavenportResult(_Record):
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
    if ground.span_rank < r:
        raise ValueError(
            f"ground set spans rank {ground.span_rank} < {r}; re-embed it into "
            f"Z^{ground.span_rank} before using the determinant formula")
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
    >= 3 on its own.  A tuple v_0, ..., v_r of circuit length d >= 3 spans
    Q^r, so its relations form a lattice of rank one, spanned by z / g with
    z_i = (-1)^i det(the tuple without v_i) (Cramer's rule) and g the gcd.
    A zero-sum sequence over the tuple is a nonnegative relation, so one
    exists exactly when the nonzero z_i share one sign, and then the only
    atom is |z| / g, of length d.  The side condition is read off the signed
    drop-one determinants, with no enumeration.

    det of every rank-subset of the pool is computed once, into the flat
    list ``dets`` in ``combinations`` order, and a tuple's circuit length is
    read off its rank + 1 drop-one entries.  The index of a subset
    c_0 < ... < c_{r-1} of n is C(n, r) - 1 - sum_i C(n - 1 - c_i, r - i), a
    sum of one weight per position.  A walk over the tuple prefixes keeps
    that index for the prefix and, for each d, for the prefix without its
    d-th member.  At the last position the weight of c is c - n + 1, so as
    the last member runs over its range each drop-one entry runs over a
    contiguous slice of ``dets``.
    """
    for v in pool:
        if len(v) != rank:
            raise ValueError(f"pool vector {tuple(v)} does not have {rank} coordinates")
    n = len(pool)
    signed = list(subset_determinants(pool))
    dets = list(map(abs, signed))
    weight = [[-comb(n - 1 - c, rank - i) for c in range(n)] for i in range(rank)]

    def carries_atom(combo) -> bool:
        z = [(-1) ** i * signed[comb(n, rank) - 1 + sum(
                 weight[p][c] for p, c in enumerate(combo[:i] + combo[i + 1:]))]
             for i in range(rank + 1)]
        return all(x >= 0 for x in z) or all(x <= 0 for x in z)

    lengths: list[int] = []  # circuit length of each tuple, in combinations order
    stack = [(0, [], comb(n, rank) - 1)]  # (next member, drop-one indices, own index)
    while stack:
        start, drops, own = stack.pop()
        if len(drops) < rank:
            j = len(drops)
            stack.extend((c + 1, [p + weight[j - 1][c] for p in drops] + [own],
                          own + weight[j][c])
                         for c in reversed(range(start, n - rank + j)))
            continue
        fixed = dets[own]
        columns = [dets[p + start + 1 - n:p + 1] for p in drops]
        lengths.extend(total // g if g else 0 for total, g in zip(
            map(add, map(sum, zip(*columns)), repeat(fixed)), map(gcd, repeat(fixed), *columns)))
    for d in sorted({d for d in lengths if d >= 3}, reverse=True):
        for combo, length in zip(combinations(range(n), rank + 1), lengths):
            if length == d and (not side_condition or carries_atom(combo)):
                return d, tuple(pool[c] for c in combo)
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
    if ground.span_rank != r:
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
    best = max(map(abs, subset_determinants(plus_cols)), default=0)
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
    kept = list(dict.fromkeys(up_to_sign(c) for c in columns if any(c)))
    best = 0
    for combo, det in zip(combinations(kept, dim), subset_determinants(kept)):
        if abs(det) > best:
            best = max(best, smith_normal_form(combo)[-1])
    return best


class ElementaryDecomposition(_Record):
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


def _least_ratio(counts, atom: Sequence) -> tuple[int, int]:
    """(counts[i], atom.mult[i]) with the least ratio over the support of the atom."""
    p, q = 0, 0
    for i in atom.support():
        if not q or counts[i] * q < p * atom.mult[i]:
            p, q = counts[i], atom.mult[i]
    return p, q


def rational_elementary_decomposition(seq, budget: int | None = None) -> ElementaryDecomposition:
    """Greedy peel of a rational zero-sum sequence into elementary atoms.

    After splitting off the balanced part, the reduced sequence always admits
    an elementary atom supported inside its support; peeling with the minimal
    multiplicity ratio empties one support coordinate per step, so the number
    of parts is bounded by half the signed support and by the kernel
    dimension of the ground columns.  ``budget`` caps the length of the
    atoms enumerated on each support (default ``DEFAULT_BUDGET``).

    The peel runs fraction-free, in the style of ``intlinalg._eliminate``:
    the rest is a list of integer numerators n over one positive denominator
    D.  Peeling the atom a takes alpha = p/q = min over supp(a) of
    n_i / (D a_i) and leaves (q n - p D a) / (q D), divided by the content of
    the numerators together with q D.  A ``Fraction`` is formed only for
    each alpha and for the balanced part.
    """
    numerators, scale = seq.integer_form()
    ground = seq.ground
    whole = Sequence(ground, numerators)
    if not whole.is_zero_sum():
        raise ValueError("decomposition needs a zero-sum sequence")
    balanced, core = whole.split_balanced()
    current, denominator = list(core.mult), scale
    parts: list[tuple[Sequence, Fraction]] = []
    if budget is None:
        budget = DEFAULT_BUDGET
    while any(current):
        support = tuple(i for i, m in enumerate(current) if m)
        candidates = _elementary_atoms_on(ground, support, budget)
        if not candidates:
            raise RuntimeError("no elementary atom inside the support; "
                               "the input was not a zero-sum sequence over its ground set")
        atom = min(candidates, key=lambda a: a.mult)
        n_i, a_i = _least_ratio(current, atom)
        alpha = Fraction(n_i, denominator * a_i)
        p, q = alpha.numerator, alpha.denominator
        step = p * denominator
        current = [q * m - step * a for m, a in zip(current, atom.mult)]
        if min(current) < 0:
            raise ValueError("peeled atom is not a subsequence of the rest")
        denominator *= q
        content = gcd(denominator, *current)
        current = [m // content for m in current]
        denominator //= content
        rest = Sequence(ground, tuple(current)).net_multiplicities()
        if all(r for a, r in zip(atom.net_multiplicities(), rest) if a):
            raise AssertionError("peeled atom signed support survived into the tail")
        parts.append((atom, alpha))
    balanced = RationalSequence(ground, tuple(Fraction(m, scale) if m else 0
                                              for m in balanced.mult))
    return ElementaryDecomposition(balanced, tuple(parts))


def ell_bound(seq) -> int:
    """Cap on the number of parts in an elementary decomposition of seq."""
    ground = seq.ground
    kernel_dim = len(ground.plus_indices) - ground.span_rank
    return min(len(seq.signed_support()) // 2, kernel_dim)


def brute_force_atoms(ground: GroundSet, max_length: int) -> list[Sequence]:
    """Independent oracle: every multiplicity vector t of total 1 ..
    ``max_length`` that sums to zero and has no nonempty proper sub-vector
    summing to zero, sorted.  Exponential; only for small cross-checks.  No
    code is shared with ``enumerate_atoms``.

    A count vector over a run of positions is the sorted tuple of its
    positions, repeated by count (``combinations_with_replacement``), so two
    halves join by concatenation and the counts are read off only for the
    atoms.  Its sum is one int: every coordinate of the sum of a vector of
    total <= ``max_length`` lies in [-M, M], M = ``max_length`` times the
    largest |entry|, where x -> sum_k x_k (2M + 1)^k is additive and
    injective (balanced digits).

    1. Meet in the middle (Horowitz and Sahni, J. ACM 21, 1974).  The
       vectors of the first n // 2 positions, the half with fewer vectors,
       are tabled by negated sum and total.  Each vector u of the other half
       takes, for each total T in 1 .. ``max_length``, the entries w under
       (sum of u, T - |u|).  A zero-sum t of total T splits into one such
       pair, so every one is listed, once, and nothing else is.  The table
       holds C(k + L, k) vectors for a half of k positions, L =
       ``max_length``: 170,544 for the signed 4-cube at length 7, where the
       whole process peaks at 36 MB (Python 3.11).  The other half is
       streamed.
    2. Minimality, level by level in increasing total: a listed vector t
       is kept when no atom already kept lies below it.  Such an atom has
       its support, its set of positions, inside t's, so the kept atoms are
       filed by support and t reads the file of each nonempty subset of its
       support, comparing counts: 2^s - 1 lookups for s distinct positions,
       not the 2^|t| combinations of its positions, which no atom of length
       78 over four positions would finish.  This is exact.  A nonzero
       zero-sum y < t has a smaller total, so y is listed in an earlier
       level, and by induction some kept atom lies below y.  Two distinct
       vectors of equal total never lie below one another.
    """
    n = len(ground)
    base = 2 * max_length * max(map(abs, chain(*ground.elements)), default=0) + 1
    keys = [sum(x * base ** k for k, x in enumerate(g)) for g in ground.elements]

    def half(positions):
        return ((c, sum(map(keys.__getitem__, c))) for m in range(max_length + 1)
                for c in combinations_with_replacement(positions, m))

    table: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for w, s in half(range(n // 2)):
        table.setdefault((-s, len(w)), []).append(w)
    levels: list[list[tuple[int, ...]]] = [[] for _ in range(max_length + 1)]
    for u, s in half(range(n // 2, n)):
        for total in range(max(len(u), 1), max_length + 1):
            levels[total] += [w + u for w in table.get((s, total - len(u)), ())]
    atoms: list[tuple[int, ...]] = []
    filed: dict[tuple[int, ...], list[tuple[int, ...]]] = {}  # kept atoms by support
    for t in chain(*levels):
        support = tuple(dict.fromkeys(t))
        if not any(all(map(le, map(a.count, s), map(t.count, s)))
                   for m in range(1, len(support) + 1) for s in combinations(support, m)
                   for a in filed.get(s, ())):
            atoms.append(t)
            filed.setdefault(support, []).append(t)
    return [Sequence(ground, t) for t in sorted(tuple(map(a.count, range(n))) for a in atoms)]
