"""Factorization invariants of finitely generated reduced monoids.

A monoid is presented by its atom vectors inside N0^m.  An element a divides
b exactly when b - a is componentwise nonnegative: the right notion for
zero-sum monoids and for divisor-theory images, which are saturated in the
ambient free monoid.

A depth-first factorization search enumerates the factorizations behind sets
of lengths and the catenary degree, each once: it branches only on the atoms
whose lowest support coordinate is the residual's lowest nonzero coordinate,
one of which every factorization of the residual uses, and picks them in
nondecreasing index order while that coordinate stays lowest.  It holds each
residual as one int of the guard-bit lanes of ``ground._Lanes``, wide enough
that subtracting an atom never borrows across fields, so one int
subtraction both removes an atom and tells whether it fit.  Each node
carries its factorization so far as one int too: the count vector, in lex
lanes whose int order is the order of the count vectors, so sorting the
ints sorts the factorizations and each is unpacked only for public output.
For a set of lengths, for whether each cover quotient behind tau has a
length up to the largest least length so far (and else for its least
length), and for whether an element has a factorization of one given length
(behind the unions of sets of lengths), the same search carries the length
subtracted instead and a mask of the lengths wanted: it stops at one
factorization of each wanted length, clearing that length from the mask,
and cuts every node whose window of possible lengths holds no wanted
length.  The unions of sets of lengths run it on the distinct k-fold
atom sums, each built and held as one packed int, and the walk over them
cuts, by one guarded subtraction, every branch whose values under linear
forms that vanish on the shortest atoms, with the least its remaining atoms
can add, already rule out the wanted length.  The catenary degree
grows a tree over the sorted packed factorizations under a bound that rises
only when no factorization outside the tree is within it, each distance one
guarded subtraction, a field mask and a multiply-by-ones sum.  The minimal
atom covers behind omega, tau and the tame degree are minimal solutions of a
linear system over the atoms that can supply, found by the completion
search of ``atoms._minimal_solutions``.
Set-level invariants (catenary, omega, tau, tame degree, unions of sets of
lengths) are derived from these.
Everything is deterministic: outputs are canonically sorted.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain
from math import lcm
from operator import ge, mul, sub

from .atoms import AtomSet, _minimal_solutions
from .ground import _Lanes, _Record
from .intlinalg import kernel_basis


class PresentedMonoid(_Record):
    ambient_dim: int
    atoms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        atoms = tuple(tuple(int(x) for x in a) for a in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        distinct: set[tuple[int, ...]] = set()
        for a in atoms:
            if len(a) != self.ambient_dim:
                raise ValueError("atom dimension does not match ambient dimension")
            if not any(a):
                raise ValueError("the zero vector cannot be an atom")
            if any(x < 0 for x in a):
                raise ValueError("atom vectors must be nonnegative")
            if a in distinct:
                raise ValueError(f"atom {list(a)} is repeated")
            distinct.add(a)
        # a < b needs supp(a) inside supp(b) and |a| < |b|, so group the atoms
        # by support bitmask and scan coordinates only where both can hold
        by_support: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        for a in atoms:
            mask = sum(1 << i for i, x in enumerate(a) if x)
            by_support.setdefault(mask, []).append((sum(a), a))
        for mask_a, lower in by_support.items():
            for mask_b, upper in by_support.items():
                if mask_a & ~mask_b:
                    continue
                for len_a, a in lower:
                    for len_b, b in upper:
                        if len_a < len_b and _leq(a, b):
                            raise ValueError("atoms must be pairwise incomparable")
        order = sorted(range(len(atoms)), key=lambda i: (-sum(atoms[i]), atoms[i]))
        object.__setattr__(self, "_search_order", tuple(order))
        object.__setattr__(self, "_lengths", tuple(map(sum, atoms)))
        # the shortest and longest atom lengths, 1 and 1 without atoms: the
        # length window of the factorization search and the band of the unions
        object.__setattr__(self, "_lmin", min(self._lengths, default=1))
        object.__setattr__(self, "_lmax", max(self._lengths, default=1))
        object.__setattr__(self, "_largest_coordinate", max(map(max, atoms), default=0))
        object.__setattr__(self, "_packings", {})
        object.__setattr__(self, "_slack_packings", {})

    def _lanes(self, largest: int) -> _Lanes:
        """The lanes of ``ambient_dim`` fields that hold ``largest`` and
        every atom coordinate, kept with their packing."""
        largest = max(largest, self._largest_coordinate)
        packing = self._packings.get(largest.bit_length() + 1)
        return (packing or self._packed(_Lanes(self.ambient_dim, largest)))[0]

    def _packed(self, lanes: _Lanes):
        """The lanes, the atoms in search order packed in them with their
        lengths, and per coordinate i the bucket of (packed atom, atom index)
        pairs, by atom index, of the atoms whose lowest support coordinate
        is i.  Built on first use of a lane width and kept."""
        packing = self._packings.get(lanes.width)
        if packing is None:
            packed = list(map(lanes.pack, self.atoms))
            buckets = [[] for _ in lanes.shifts]
            for i, a in enumerate(self.atoms):
                buckets[next(k for k, v in enumerate(a) if v)].append((packed[i], i))
            packing = (lanes,
                       tuple(packed[i] for i in self._search_order),
                       tuple(self._lengths[i] for i in self._search_order),
                       tuple(map(tuple, buckets)))
            self._packings[lanes.width] = packing
        return packing

    @cached_property
    def _lattice(self):
        """(slopes, rows, suffix) of the cut of ``union_of_lengths``: per g in
        G, N_g; per atom in search order, its c_g(a); and per place the least
        c_g(a) at or after it."""
        f = kernel_basis(list(zip(*(a for a in self.atoms if sum(a) == self._lmin))))
        values = [[sum(map(mul, g, self.atoms[i])) for g in f + [[-x for x in g] for g in f]]
                  for i in self._search_order]
        tops = {}
        for v, i in zip(values, self._search_order):
            if (d := self._lengths[i] - self._lmin) > 0:
                tops[d] = list(map(max, tops.get(d, v), v))
        scale = lcm(*tops)
        slopes = [max((top[g] * scale // d for d, top in tops.items()), default=0)
                  for g in range(2 * len(f))]
        rows = [[scale * x - slope * self._lengths[i] for x, slope in zip(v, slopes)]
                for v, i in zip(values, self._search_order)]
        suffix = list(accumulate(rows[::-1], lambda a, b: list(map(min, a, b))))[::-1]
        return slopes, rows, suffix

    def _slack_packing(self, k: int):
        """(guards, slopes, rows, suffix) of the cut in a walk of k atoms,
        built on first use of a k and kept: the guards of lanes, one field
        per g, that hold k * C, C = lmax * max |N_g| + max |c_g(a)|
        (``union_of_lengths``), then pack(N), each -pack(c(a)) and each
        place's pack(least c)."""
        packing = self._slack_packings.get(k)
        if packing is None:
            slopes, rows, suffix = self._lattice
            lanes = _Lanes(len(slopes), k * (self._lmax * max(map(abs, slopes), default=0)
                                             + max(map(abs, chain(*rows)), default=0)))
            packing = (lanes.guards, lanes.pack(slopes), tuple(-lanes.pack(r) for r in rows),
                       tuple(map(lanes.pack, suffix)))
            self._slack_packings[k] = packing
        return packing

    @property
    def atom_count(self) -> int:
        return len(self.atoms)

    def atom_lengths(self) -> tuple[int, ...]:
        return self._lengths

    def element(self, counts) -> tuple[int, ...]:
        """Image of a factorization-count vector: sum of count_i * atom_i."""
        x = [0] * self.ambient_dim
        for c, a in zip(counts, self.atoms):
            if c:
                for i, v in enumerate(a):
                    x[i] += c * v
        return tuple(x)

    def divides(self, a, b) -> bool:
        return _leq(a, b)


def _leq(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def block_monoid(atom_set: AtomSet) -> PresentedMonoid:
    """The zero-sum monoid presented by a complete atom enumeration."""
    if not atom_set.complete:
        raise ValueError("a truncated atom set does not present the monoid")
    return PresentedMonoid(len(atom_set.ground),
                           tuple(a.mult for a in atom_set.atoms))


def free_monoid(k: int) -> PresentedMonoid:
    basis = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    return PresentedMonoid(k, basis)


def _count_lanes(monoid: PresentedMonoid, total: int) -> _Lanes:
    """The lex lanes of the packed count vectors of the factorizations of an
    element of total length ``total``, atom i in field n - 1 - i.  A
    factorization of k atoms, each at least lmin long, has total length at
    least k * lmin, so its length k, and with it every count and every sum
    of counts, is at most total // lmin."""
    return _Lanes(monoid.atom_count, total // monoid._lmin, lex=True)


def _factorization_counts(monoid: PresentedMonoid, x, wanted: int | None = None):
    """``_packed_factorization_counts`` on x, a nonnegative element of the
    ambient dimension, packed in lanes that hold its largest coordinate."""
    lanes = monoid._lanes(max(x, default=0))
    return _packed_factorization_counts(monoid, lanes, lanes.pack(x), sum(x), wanted)


def _packed_factorization_counts(monoid: PresentedMonoid, lanes: _Lanes, residual: int,
                                 total: int, wanted: int | None = None):
    """Yield the factorizations of the element x packed as ``residual`` in
    ``lanes``, of total length ``total``, each once, in no fixed order, as
    count vectors packed in ``_count_lanes(monoid, total)``.  With an int
    ``wanted``, a mask with bit l set for each length l wanted (-1 for
    every length, 1 << l for l alone), yield instead the length of one
    factorization of each wanted length that x has, each length once.  The
    lanes must hold every coordinate of x.

    Depth-first with an explicit stack, so that the depth is not bounded by
    the recursion limit.  A node is a residual r, its depth, an accumulator
    and a place in a bucket.
    Bucket i holds the atoms whose lowest support coordinate is i, by atom
    index.  A nonzero r branches only on the atoms of bucket i for its
    lowest nonzero coordinate i, from the node's place on: each child
    subtracts the atom at one place p that fits r, and takes place p while
    i stays the lowest coordinate of the new residual and place 0 of the
    new lowest coordinate's bucket once r_i is 0.  A zero residual is a
    factorization of x; a node whose bucket has no atom that fits is a
    dead end.

    Each factorization of x is yielded exactly once.  Let M be a multiset
    of atoms summing to a residual r whose lowest nonzero coordinate is i.
    An atom with lowest support coordinate j < i has a_j > 0 = r_j, and
    residuals only shrink, so it fits no residual below r; an atom of a
    bucket above i has a_i = 0.  So M holds only atoms of buckets i and up,
    and its bucket-i atoms, each with a_i >= 1, sum to r_i in coordinate i.
    Subtract them in nondecreasing index order: each fits, what is left of
    r being the sum of the atoms of M not yet subtracted, and r_i stays
    positive, so i stays the lowest coordinate, until the last is gone and
    r_i is 0.  That is a path of the search, and by induction on the rest
    of M, which sums to the new residual, it extends to a zero residual.
    It is the only path to M: a path picks bucket-i atoms in nondecreasing
    index order while i is lowest, and once r_i is 0 no atom of bucket i
    or below fits again, so the atoms it picks while i is lowest are the
    bucket-i atoms of M, in their one nondecreasing order.  Conversely a
    path to a zero residual yields the multiset of the atoms it
    subtracted, a factorization of x.

    A residual is one int of the lanes, coordinate i in field i, and
    residuals only shrink from x, so every value, residual or atom, stays
    at or below the lanes' largest: an atom A fits exactly when the guards
    G survive in (r | G) - A, and clearing them gives r - A
    (``ground._Lanes``).  The residual is zero exactly when the int is, and
    the lowest set bit of a nonzero residual lies in the field of its
    lowest nonzero coordinate.

    The accumulator adds one step per atom subtracted.  Enumerating, the
    step of atom i is the 1 of its count field, so the accumulator is the
    packed count vector of the path; no count or length exceeds the count
    lanes' largest (``_count_lanes``), so no field carries.  With
    ``wanted`` the step is the atom's length, so the accumulator is the
    length c subtracted so far.  The atoms that complete a node of depth d
    then sum to total - c in length, each between lmin and lmax long, the
    shortest and longest atom lengths, so the node's factorizations have
    lengths in the window d + ceil((total - c) / lmax) ..
    d + (total - c) // lmin, just d at a zero residual.  A yielded length
    is cleared from ``wanted``, and a node whose window holds no length
    still wanted is cut: every factorization below it has a length not
    wanted or already yielded, so no wanted length is lost, and a zero
    residual whose length is not wanted, or was yielded, is not yielded.
    """
    guards, width = lanes.guards, lanes.width
    buckets = monoid._packed(lanes)[3]
    lmin, lmax = monoid._lmin, monoid._lmax
    if wanted is None:
        steps = [1 << s for s in _count_lanes(monoid, total).shifts]
    else:
        steps = monoid._lengths
    stack = [(0, residual, 0, -1, 0)]
    while stack:
        depth, residual, acc, low, place = stack.pop()
        if wanted is not None:
            rest = total - acc
            window = (2 << depth + rest // lmin) - (1 << depth - -rest // lmax)
            if not window & wanted:
                continue
        if not residual:
            if wanted is None:
                yield acc
            else:
                wanted &= ~(1 << depth)
                yield depth
            continue
        i = ((residual & -residual).bit_length() - 1) // width
        if i != low:
            place = 0
        bucket = buckets[i]
        depth += 1
        for p in range(place, len(bucket)):
            atom, index = bucket[p]
            fitted = (residual | guards) - atom
            if fitted & guards == guards:
                stack.append((depth, fitted ^ guards, acc + steps[index], i, p))


def _element(monoid: PresentedMonoid, x) -> tuple[int, ...]:
    x = tuple(int(v) for v in x)
    if len(x) != monoid.ambient_dim:
        raise ValueError("element dimension mismatch")
    return x


def _nonnegative_element(monoid: PresentedMonoid, x) -> tuple[int, ...]:
    x = _element(monoid, x)
    if any(v < 0 for v in x):
        raise ValueError("element vectors must be nonnegative")
    return x


def _sorted_factorizations(monoid: PresentedMonoid, x) -> tuple[_Lanes, list[int]]:
    """The count lanes of x, a nonnegative element of the ambient dimension,
    and its factorizations packed in them, sorted: as the lanes are lex,
    in the order of their count vectors."""
    return _count_lanes(monoid, sum(x)), sorted(_factorization_counts(monoid, x))


def factorizations(monoid: PresentedMonoid, x) -> list[tuple[int, ...]]:
    """All ways to write x as a nonnegative combination of the atoms, as
    count vectors (the length of a factorization is the sum of its vector).

    Empty exactly when x is not in the monoid.  Output sorted by count
    vector, so results are schedule-independent.
    """
    lanes, zs = _sorted_factorizations(monoid, _nonnegative_element(monoid, x))
    return lanes.unpack_all(zs)


def set_of_lengths(monoid: PresentedMonoid, x) -> tuple[int, ...]:
    x = _nonnegative_element(monoid, x)
    return tuple(sorted(_factorization_counts(monoid, x, -1)))


def distance(z, w) -> int:
    """max of the two reduced lengths after cancelling the common part of
    the count vectors z and w."""
    common = tuple(min(a, b) for a, b in zip(z, w))
    dz = sum(a - c for a, c in zip(z, common))
    dw = sum(b - c for b, c in zip(w, common))
    return max(dz, dw)


def _packed_lengths(lanes: _Lanes, zs: list[int]) -> list[int]:
    """The length of each count vector packed in ``zs`` in ``lanes``, whose
    largest is at least every length.

    With G the guards and w the width, ones = G >> (w - 1) has a 1 in every
    field, and field j of z * ones is the sum of fields 0 .. j of z.  No
    such partial sum exceeds |z| <= largest < 2^(w - 1), so no field carries
    into the next, and field n - 1 holds |z|."""
    width, field = lanes.width, lanes.field
    ones, top = lanes.guards >> (width - 1), (len(lanes.shifts) - 1) * width
    return [z * ones >> top & field for z in zs]


def _packed_catenary(lanes: _Lanes, zs: list[int]) -> int:
    """Least N whose distance-at-most-N graph on the count vectors packed in
    ``zs`` in ``lanes`` is connected, for lanes whose largest is at least
    every length.  Exact in any order, but much faster on sorted vectors:
    on the 9,519 factorizations of the rank-3 element of every ground
    element twice, 18 s in the search's order against 1.4-2.5 s sorted
    (2-core host, Python 3.11).

    A tree T grows from the first vector under a bound B, starting at 0.
    Each vector of T is expanded once: it lowers the link of every vector
    outside T, the least distance to T seen so far (at first the largest
    length, which no distance exceeds).  A vector whose link drops to at
    most B joins T at once, unexpanded and without a scan for the least
    link.  Only when every vector of T is expanded and none outside is
    within B does B rise to the least link, and a vector at that link
    joins.

    The result is exact.  Every vector joins T by an edge of length at most
    the B of that moment, so T stays connected at the final B, and
    c <= B.  When T is stuck, each vector outside it was outside at the
    expansion of every vector of T, so its link is its exact least distance
    to T, and the least link m is the shortest edge leaving T.  Every path
    from the first vector to one outside T takes an edge leaving T, so the
    graph at any N < m is not connected and c >= m, the new B.

    The distance d(z, w) = max(|z|, |w|) - sum_i min(z_i, w_i) takes three
    int operations on Z = pack(z) and W = pack(w), beside the lengths of
    ``_packed_lengths``.  Every count is at most the lanes' largest, so
    D = (Z | G) - W holds z_i + 2^(w - 1) - w_i in field i, its guard G_i
    set exactly when z_i >= w_i (``ground._Lanes``).  With K = D & G the
    surviving guards, K - (K >> (w - 1)) masks the low w - 1 bits of their
    fields, and P = D & that holds max(z_i - w_i, 0) in field i.  Its
    horizontal sum, P times ones read from field n - 1 as in
    ``_packed_lengths``, is S = sum_i max(z_i - w_i, 0) = |z| -
    sum_i min(z_i, w_i), with no carry: no partial sum exceeds S <= |z|
    <= largest.  So d(z, w) = S + max(|w| - |z|, 0).
    """
    k = len(zs)
    if k <= 1 or not lanes.shifts:  # without atoms every vector is empty
        return 0
    guards, field, c = lanes.guards, lanes.field, lanes.width - 1
    ones, top = guards >> c, (len(lanes.shifts) - 1) * lanes.width
    lengths = _packed_lengths(lanes, zs)
    outside = list(range(1, k))
    link = [max(lengths)] * (k - 1)
    pending = [0]  # vectors of T not yet expanded
    bound = 0
    while True:
        while pending and outside:
            u = pending.pop()
            raised, lu = zs[u] | guards, lengths[u]
            kept, kept_link = [], []
            for v, best in zip(outside, link):
                diff = raised - zs[v]
                survived = diff & guards
                d = (diff & survived - (survived >> c)) * ones >> top & field
                lv = lengths[v]
                if lv > lu:
                    d += lv - lu
                if d < best:
                    best = d
                if best <= bound:
                    pending.append(v)
                else:
                    kept.append(v)
                    kept_link.append(best)
            outside, link = kept, kept_link
        if not outside:
            return bound
        bound = min(link)
        j = link.index(bound)
        del link[j]
        pending.append(outside.pop(j))


def catenary_from_factorizations(zs) -> int:
    """Least N whose distance-at-most-N graph on the given factorization
    count vectors is connected, for vectors in any order: ``_packed_catenary``
    on them packed in the lex lanes of their largest length, sorted.  A
    ragged list, or a count that is negative, a bool or not an int, raises
    ValueError.
    """
    sizes = set(map(len, zs))
    if len(sizes) > 1:
        raise ValueError(f"count vectors of {sorted(sizes)} entries: a ragged list")
    counts = list(chain.from_iterable(zs))
    if not set(map(type, counts)) <= {int}:  # a bool is not an int count
        bad = next(c for c in counts if type(c) is not int)
        raise ValueError(f"counts must be integers, got {bad!r}")
    if min(counts, default=0) < 0:
        raise ValueError(f"counts must be nonnegative, got {min(counts)}")
    lanes = _Lanes(sizes.pop() if sizes else 0, max(map(sum, zs), default=0), lex=True)
    return _packed_catenary(lanes, sorted(map(lanes.pack, zs)))


def catenary_element(monoid: PresentedMonoid, x) -> int:
    lanes, zs = _sorted_factorizations(monoid, _nonnegative_element(monoid, x))
    if not zs:
        raise ValueError("element is not in the monoid")
    return _packed_catenary(lanes, zs)


def exists_length(monoid: PresentedMonoid, x, target: int) -> bool:
    """Whether x factors into exactly ``target`` atoms (never, for an x with
    a negative coordinate or a target outside 0 .. |x|, as every atom is at
    least 1 long).

    The factorization search with only ``target`` wanted, stopped at its
    first yield: it cuts every node whose window of lengths misses the
    target (``_packed_factorization_counts``).
    """
    x = _element(monoid, x)
    if any(v < 0 for v in x) or not 0 <= target <= sum(x):
        return False
    return next(_factorization_counts(monoid, x, 1 << target), None) is not None


class UnionOfLengths(_Record):
    k: int
    values: frozenset[int]
    rho: int
    lam: int
    exhaustive: bool

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "values": sorted(self.values),
            "rho": self.rho,
            "lambda": self.lam,
            "exhaustive": self.exhaustive,
        }


def _sum_lanes(monoid: PresentedMonoid, k: int) -> _Lanes:
    """The lanes of the packed sums of k atoms: every coordinate of such a
    sum is at most k times the largest atom coordinate, so the sums add
    fieldwise and ``_packed_factorization_counts`` takes them as they are."""
    return monoid._lanes(k * monoid._largest_coordinate)


def _k_fold_sums(monoid: PresentedMonoid, k: int, min_total: int = 0, cut: bool = False):
    """Yield (packed, total) for each distinct sum of k atoms whose total
    length is at least min_total, once, so that a caller can stop at the
    first that works: the sum packed in ``_sum_lanes(monoid, k)`` and its
    total length.

    Depth-first over nonincreasing atom lengths, with an explicit stack; a
    branch stops as soon as its remaining picks at the current length can no
    longer reach min_total.  With ``cut``, each node also carries its slack
    at floor = min_total (``PresentedMonoid._slack_packing``), and a node
    whose slack plus ``left`` times the least c_g at or after its place is
    positive for some g is cut, by one guarded subtraction
    (``union_of_lengths``): what is yielded is every sum whose slack is at
    most 0 for every g, in the order of the walk without the cut.  Its lanes
    assume min_total <= k * lmax; a larger min_total yields no sum either
    way, as the root has no child.  Without ``cut`` the slack stays 0.
    """
    _, atoms, lengths, _ = monoid._packed(_sum_lanes(monoid, k))
    n = len(atoms)
    seen: set[int] = set()
    if cut:
        guards, slopes, rows, suffix = monoid._slack_packing(k)
    else:
        guards, slopes, rows = 0, 0, (0,) * n
    stack = [(0, k, 0, 0, guards - min_total * slopes)]
    while stack:
        pos, left, total, acc, slack = stack.pop()
        if cut and (slack - left * suffix[pos]) & guards != guards:
            continue
        if left == 0:
            if total >= min_total and acc not in seen:
                seen.add(acc)
                yield acc, total
            continue
        end = pos
        while end < n and total + left * lengths[end] >= min_total:
            end += 1
        for p in range(end - 1, pos - 1, -1):  # pushed downwards, so pos pops first
            stack.append((p, left - 1, total + lengths[p], acc + atoms[p], slack + rows[p]))


def union_of_lengths(monoid: PresentedMonoid, k: int,
                     strategy: str = "exhaustive") -> UnionOfLengths:
    """The union U_k of all sets of lengths containing k, with its extremes.

    A length l lies in U_k exactly when some element is both a sum of k atoms
    and a sum of l atoms.  Such an element has total length at least
    max(k, l) * lmin, lmin and lmax being the shortest and longest atom
    lengths.  So for l > k it suffices to ask whether some k-fold sum of total
    length >= l * lmin factors into l atoms, for l < k whether some l-fold sum
    of total length >= k * lmin factors into k atoms; and l = k always lies in
    U_k.  Its total length sits between k * lmin and k * lmax and between
    l * lmin and l * lmax, which confines l to the band
    max(1, ceil(k * lmin / lmax)) .. floor(k * lmax / lmin).

    strategy='exhaustive' tests every l of the band; 'extremes' walks in from
    each end of the band to the first member, which gives rho_k and lambda_k
    exactly but leaves the value set partial.

    The walk over the candidates cuts by a lattice bound.  Let G be F and
    -F, F an integer basis of the g with g(a) = 0 for every shortest atom
    a; D the lcm of the excesses d = |b| - lmin > 0 of the longer atoms b;
    and N_g / D the largest g(b) / d over them (D = 1 and N_g = 0 without a
    longer atom).  If a candidate s is b_1 + ... + b_m, m = max(k, l), its
    excess e = |s| - m * lmin is sum_i (|b_i| - lmin), and the shortest
    atoms add 0 to g, so g(s) = sum_i (|b_i| - lmin) * g(b_i) / (|b_i| -
    lmin) over the longer b_i is at most N_g e / D.  So a candidate whose
    slack D g(s) - N_g e is positive for some g has no factorization of m
    atoms.  As a sum a_1 + ... + a_j of the walk's atoms, j = min(k, l), its
    slack is N_g * floor + sum_i c_g(a_i), floor = m * lmin and c_g(a) =
    D g(a) - N_g |a|.  The walk picks atoms in search order, so at a node
    with ``left`` atoms still to pick, all at or after its place, every sum
    below it has slack at least the node's slack plus ``left`` times the
    least c_g at or after the place; when that is positive for some g, the
    branch is cut (``_k_fold_sums``), and at a leaf the test is the slack
    itself.  So the walk yields exactly the candidates whose slack is at
    most 0 for every g, in the order of the walk without the cut, and the
    factorization search with only m wanted decides each of them.

    A node holds G + pack(-slack) in lanes of one field per g; the test
    subtracts ``left`` times pack(least c_g), and the guard of g survives
    exactly when slack_g + left * least <= 0 (``ground._Lanes``).  The band
    gives floor <= j * lmax, so every field stays within |N_g| floor + j
    max |c| <= j * C, C = lmax * max |N_g| + max |c_g(a)|, which the lanes
    hold (``PresentedMonoid._slack_packing``).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if monoid.atom_count == 0:
        raise ValueError("monoid has no atoms")
    if strategy not in ("exhaustive", "extremes"):
        raise ValueError(f"unknown strategy {strategy!r}")
    lmin, lmax = monoid._lmin, monoid._lmax

    def member(l: int) -> bool:
        if l == k:
            return True
        small, big = min(k, l), max(k, l)
        lanes = _sum_lanes(monoid, small)
        return any(next(_packed_factorization_counts(monoid, lanes, s, total, 1 << big), None)
                   is not None for s, total in _k_fold_sums(monoid, small, big * lmin, True))

    band = range(max(1, -(-k * lmin // lmax)), k * lmax // lmin + 1)
    if strategy == "exhaustive":
        values = {l for l in band if member(l)}
        return UnionOfLengths(k, frozenset(values), max(values), min(values), True)
    rho = next(l for l in reversed(band) if member(l))
    lam = next(l for l in band if member(l))
    return UnionOfLengths(k, frozenset({lam, k, rho}), rho, lam, False)


def _covers(monoid: PresentedMonoid, atom_index: int):
    """(kept, covers): the indices of the atoms nonzero on supp(u), u the
    given atom, increasing, and the minimal covers of u as count tuples over
    those atoms, in no fixed order (see ``minimal_covers``)."""
    u = monoid.atoms[atom_index]
    support = [k for k, x in enumerate(u) if x]
    kept = [i for i, a in enumerate(monoid.atoms) if any(a[k] for k in support)]
    supplies = [[monoid.atoms[i][k] for k in support] for i in kept]
    return kept, _minimal_solutions(supplies, sum(u), need=[u[k] for k in support])[0]


def minimal_covers(monoid: PresentedMonoid, atom_index: int) -> list[tuple[int, ...]]:
    """Componentwise-minimal atom multisets whose product is divisible by the
    given atom, as factorization-count vectors, sorted.

    The search is ``atoms._minimal_solutions`` with u on supp(u) (the only
    coordinates u <= x reads) as the need and, as the supplies p_j, the
    atoms nonzero there, projected there.  A minimal cover holds no atom
    that is zero on supp(u): without one copy of it the multiset still
    covers u.  So the dropped atoms take count 0 in every cover, and the
    covers over the kept atoms, mapped back, are all of them.  The state of
    a multiset z is sum_j z_j p_j - u, and z covers exactly when it is
    nonnegative; each step raises a negative coordinate by at least 1, so
    the search ends within sum(u) atoms.
    """
    kept, covers = _covers(monoid, atom_index)
    columns = [(0,) * len(covers)] * monoid.atom_count
    for i, column in zip(kept, zip(*covers)):
        columns[i] = column
    return sorted(zip(*columns))


def omega(monoid: PresentedMonoid, atom_index: int, mode: str = "minimal-cover"):
    """Distance-from-prime measure of an atom.

    mode='minimal-cover': the maximum size of a componentwise-minimal atom
    multiset whose product the atom divides.  mode='definition-budget'
    replays the defining property over all atom products of size at most
    the atom's coordinate sum, as an independent oracle.  mode='both'
    cross-checks them.

    The replay answers for every atom multiset z with 1 <= |z| <= sum(u):
    over those whose product u divides (the covering ones) it takes the
    largest f(z), the least size of a sub-multiset of z that u still
    divides.  It computes f level by level, in increasing size, from

        f(z) = min(|z|, min f(z - e_i) over the i with u | z - e_i).

    Proof: a covering proper sub-multiset y of z misses some copy of an
    atom i, so y <= z - e_i, which covers too because divisibility is
    upward closed; and a sub-multiset of z - e_i is one of z.  Only the
    f values of the previous size's covering multisets are kept.

    Two exact prunes keep the walk near the size of its answer.

    1. Atoms whose projection onto supp(u), the only coordinates u <= x
       reads, is zero are dropped before the growth.  Removing them from
       a multiset z leaves whether it covers unchanged and gives a z'
       with |z'| <= |z| and f(z') = f(z): a least covering sub-multiset
       holds none of them (without them it still covers), so it lies in
       z' too.  The largest f over the remaining multisets is the same.
    2. A covering multiset gets its f but is not grown.  Each multiset
       arises once, from its prefix: the multiset without one copy of its
       largest-index atom.  So the walk reaches exactly the multisets whose
       proper prefixes all fail to cover.  Nothing is lost:
       - f can only fall along supersets (a sub-multiset of z is one of
         z + e_j), and every covering z has a shortest covering prefix,
         which is reached and has f at least f(z);
       - the recurrence stays exact: if z is reached, so is each z - e_i.
         The k-th prefix of z - e_i lies inside the (k+1)-th prefix of z,
         which for k < |z| - 1 is a proper prefix of z and does not
         cover, so by upward closure neither does the prefix of z - e_i.
         A covering z - e_i is thus reached and its f recorded.

    The multisets of one size are those of the previous size's list, each
    grown by one copy of an atom whose index is at least the largest it
    holds, so each multiset arises once; each carries what u still lacks
    on supp(u), and it covers when the atom added supplies all of that.
    The last size builds no list for the next.

    A multiset is keyed by one int that holds its count of atom i in the
    field of w = sum(u).bit_length() bits at bit w * i.  No count exceeds
    |z| <= sum(u) < 2^w, so adding an atom never carries out of its field;
    and z - e_i is read only for the atoms i that z holds, whose fields are
    at least 1, so subtracting ``unit[i]`` never borrows and gives exactly
    the key of z - e_i.
    """
    if mode == "both":
        a = omega(monoid, atom_index, "minimal-cover")
        b = omega(monoid, atom_index, "definition-budget")
        if a != b:
            raise AssertionError(f"omega mismatch: minimal-cover={a} definition-budget={b}")
        return a
    if mode == "minimal-cover":
        return max(sum(z) for z in minimal_covers(monoid, atom_index))
    if mode != "definition-budget":
        raise ValueError(f"unknown omega mode {mode!r}")
    u = monoid.atoms[atom_index]
    support = [k for k, x in enumerate(u) if x]
    proj = [p for a in monoid.atoms if any(p := tuple(a[k] for k in support))]
    n = len(proj)
    budget = sum(u)
    unit = [1 << (budget.bit_length() * i) for i in range(n)]
    worst = 0
    prev: dict[int, int] = {}  # f of the covering multisets one size down
    # the non-covering multisets of one size: key, largest index, what u
    # still lacks, distinct indices
    level = [(0, 0, tuple(u[k] for k in support), ())]
    for size in range(1, budget + 1):
        cur: dict[int, int] = {}
        grown = []
        for key, start, lack, distinct in level:
            for j in range(start, n):
                z = key + unit[j]
                holds = distinct if j == start and distinct else distinct + (j,)
                if all(map(ge, proj[j], lack)):
                    f = size
                    for i in holds:  # drop one copy of each atom of z in turn
                        g = prev.get(z - unit[i])
                        if g is not None and g < f:
                            f = g
                    cur[z] = f
                    if f > worst:
                        worst = f
                elif size < budget:
                    grown.append((z, j, tuple(map(sub, lack, proj[j])), holds))
        prev, level = cur, grown
    return worst


def atom_invariants(monoid: PresentedMonoid, atom_index: int) -> dict:
    """omega, tau and the tame degree of an atom from one minimal-cover search.

    omega is the largest size of a minimal cover; tau the largest minimal
    factorization length of (product of a minimal cover) / atom; the tame
    degree max(omega, tau + 1) for a non-prime atom and 0 for a prime one.

    The covers stay count tuples over the atoms that can supply (see
    ``minimal_covers``), and each quotient is built from those atoms alone.
    The product of a cover z is at least u, so its quotient sum z_i a_i - u
    is nonnegative, of total length T = sum z_i |a_i| - |u|; as |z| <= omega,
    every coordinate is at most omega times the largest atom coordinate, so
    in ``_sum_lanes(monoid, omega)`` it packs as sum z_i A_i - U with no
    carry or borrow.  Only a quotient whose least length exceeds t, the
    largest so far, raises t: so the factorization search first wants the
    lengths 0 .. t and stops at its first yield.  A quotient without such a
    length gets the search with the lengths above t wanted, which yields
    each of them once: its least yield is the least length, the new t, and
    no yield means the quotient left the monoid.
    """
    kept, covers = _covers(monoid, atom_index)
    w = max(map(sum, covers))
    lanes = _sum_lanes(monoid, w)
    u, lengths = monoid.atoms[atom_index], monoid.atom_lengths()
    packed = [lanes.pack(monoid.atoms[i]) for i in kept]
    lengths = [lengths[i] for i in kept]
    packed_u, length_u = lanes.pack(u), sum(u)
    t = 0
    for z in covers:
        residual = sum(map(mul, z, packed)) - packed_u
        total = sum(map(mul, z, lengths)) - length_u
        if next(_packed_factorization_counts(monoid, lanes, residual, total, (2 << t) - 1),
                None) is None:
            t = min(_packed_factorization_counts(monoid, lanes, residual, total, -2 << t),
                    default=None)
            if t is None:
                raise AssertionError("cover quotient left the monoid")
    return {"omega": w, "tau": t, "tame": 0 if w <= 1 else max(w, t + 1)}


def tau(monoid: PresentedMonoid, atom_index: int) -> int:
    """Largest minimal factorization length of (product of a minimal cover) / atom."""
    return atom_invariants(monoid, atom_index)["tau"]


def tame_degree(monoid: PresentedMonoid, atom_index: int) -> int:
    """max(omega, tau + 1) for a non-prime atom; 0 for a prime one."""
    return atom_invariants(monoid, atom_index)["tame"]


def elements_up_to(monoid: PresentedMonoid, level: int) -> set[tuple[int, ...]]:
    """Distinct sums of at most ``level`` atoms (the identity excluded)."""
    out: set[tuple[int, ...]] = set()
    for k in range(1, level + 1):
        out.update(_sum_lanes(monoid, k).unpack_all([s for s, _ in _k_fold_sums(monoid, k)]))
    return out
