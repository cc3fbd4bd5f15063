"""Factorization invariants of finitely generated reduced monoids.

A monoid is presented by its atom vectors inside N0^m.  An element a divides
b exactly when b - a is componentwise nonnegative: the right notion for
zero-sum monoids and for divisor-theory images, which are saturated in the
ambient free monoid.

A depth-first factorization search over the atoms in decreasing length order,
with residual-feasibility pruning, enumerates the factorizations behind sets
of lengths and the catenary degree.  It holds each residual as one int of
fixed-width fields with a guard bit on top of each field, wide enough that
subtracting an atom never borrows across fields, so one int subtraction both
removes an atom and tells whether it fit.  Whether an element has a
factorization of one given length (behind minimal lengths, tau and the
unions of sets of lengths) is a second, existence-only search over the same
packed residuals: a length budget that the remaining atoms must meet
exactly cuts a branch that its longest atom cannot fill and skips the atoms
too long for the slack left above the shortest atom length.  The minimal
atom covers behind omega, tau and the tame degree are minimal solutions of
a linear system, found by the completion search of
``atoms._minimal_solutions``.  Set-level invariants (catenary, omega, tau,
tame degree, unions of sets of lengths) are derived from these.
Everything is deterministic: outputs are canonically sorted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .atoms import AtomSet, _minimal_solutions


@dataclass(frozen=True)
class PresentedMonoid:
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
        # slack s -> the first search position whose atom is at most lmin + s
        # long, for s = 0 .. lmax - lmin (see _has_length)
        lengths = [sum(atoms[i]) for i in order]
        lmin = lengths[-1] if lengths else 0
        object.__setattr__(self, "_slack_start", tuple(
            next(p for p, length in enumerate(lengths) if length <= lmin + s)
            for s in range(lengths[0] - lmin + 1 if lengths else 0)))
        object.__setattr__(self, "_largest_coordinate", max(map(max, atoms), default=0))
        object.__setattr__(self, "_packings", {})

    def _packed(self, width: int):
        """The atoms in search order packed into ``width``-bit fields, with
        their lengths, the guard bits and, per search position, the fields
        of the coordinates that no atom from that position on touches.
        Built on first use of a width and kept."""
        packing = self._packings.get(width)
        if packing is None:
            shifts = range(0, self.ambient_dim * width, width)
            field = (1 << (width - 1)) - 1
            ordered = [self.atoms[i] for i in self._search_order]
            uncovered = []
            mask = sum(field << s for s in shifts)
            for a in reversed(ordered):
                mask &= ~sum(field << s for v, s in zip(a, shifts) if v)
                uncovered.append(mask)
            uncovered.reverse()
            packing = (tuple(sum(v << s for v, s in zip(a, shifts) if v) for a in ordered),
                       tuple(sum(a) for a in ordered),
                       sum(1 << (s + width - 1) for s in shifts),
                       tuple(uncovered))
            self._packings[width] = packing
        return packing

    @property
    def atom_count(self) -> int:
        return len(self.atoms)

    def atom_lengths(self) -> tuple[int, ...]:
        return tuple(sum(a) for a in self.atoms)

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


def _factorization_counts(monoid: PresentedMonoid, x):
    """Yield the count vectors of the factorizations of x, a nonnegative
    element of the ambient dimension.

    Depth-first over the atoms in search order, with an explicit stack so
    that the depth is not bounded by the recursion limit.  Each atom takes
    every count from the largest that fits down to 0.  A residual that the
    remaining atoms cannot cover is pruned.

    A residual is one int of w-bit fields, coordinate i in bits
    [i * w, (i + 1) * w), with w = (largest coordinate of x and of the
    atoms).bit_length() + 1.  Every value held in a field, residual or
    atom, is below the field's top bit, the guard bit G_i.  Setting the
    guards and subtracting a packed atom A leaves r_i + G_i - a_i, which
    lies in [1, 2 G_i), in every field, so no borrow crosses into the next
    field, and G_i survives exactly when a_i <= r_i: one copy of A fits
    when every guard survives, and clearing the guards then gives r - A.
    Residuals only shrink from x, so no field overflows.  The residual is
    zero exactly when the int is, and the cover test is an AND with the
    fields the remaining atoms never touch.
    """
    order = monoid._search_order
    n = len(order)
    width = _field_width(monoid, x)
    atoms, _, guards, uncovered = monoid._packed(width)
    path: list[int] = []  # the count chosen at each search position so far
    stack = [(0, _pack(x, width), 0)]
    while stack:
        pos, residual, c = stack.pop()
        if pos:
            del path[pos - 1:]
            path.append(c)
        if not residual:
            counts = [0] * n
            for p, k in enumerate(path):
                counts[order[p]] = k
            yield tuple(counts)
            continue
        if pos == n or residual & uncovered[pos]:
            continue
        atom = atoms[pos]
        pos += 1
        stack.append((pos, residual, 0))
        c = 0
        while True:  # pushed upwards, so the largest count pops first
            fitted = (residual | guards) - atom
            if fitted & guards != guards:
                break
            residual = fitted ^ guards
            c += 1
            stack.append((pos, residual, c))


def _has_length(monoid: PresentedMonoid, x, target: int) -> bool:
    """Whether x, a nonnegative element of the ambient dimension, is a sum
    of exactly ``target`` atoms.

    The search of ``_factorization_counts`` (same packed residuals, search
    order, child order and cover test) without the path and the count
    vectors, stopping at the first hit.  A node is a residual of total
    length T that ``left`` atoms from search position ``pos`` on must sum
    to exactly.  Each of them is at least lmin long, lmin being the
    shortest atom length, so

    - the node is dead when slack = T - left * lmin is negative;
    - an atom of length L among the left picks leaves T - L >=
      (left - 1) * lmin for the other left - 1, so L <= lmin + slack:
      every position before the first one whose atom is at most
      lmin + slack long takes count 0, and the search jumps there;
    - the atoms from the (new) pos on are at most lengths[pos] long, the
      search order being by nonincreasing length, so the node is dead
      when T > left * lengths[pos].

    A pruned node has no factorization of the wanted length, so the answer
    is that of the search without the prunes.
    ``PresentedMonoid._slack_start[s]`` is the first position for slack s;
    from slack lmax - lmin on it is position 0.
    """
    n = len(monoid._search_order)
    width = _field_width(monoid, x)
    atoms, lengths, guards, uncovered = monoid._packed(width)
    residual = _pack(x, width)
    if not residual or not n:
        return not residual and not target
    lmin = lengths[-1]
    start = monoid._slack_start
    top = len(start)
    stack = [(0, residual, target, sum(x))]
    while stack:
        pos, residual, left, total = stack.pop()
        if not residual:
            if not left:
                return True
            continue
        slack = total - left * lmin
        if slack < 0:
            continue
        if slack < top and start[slack] > pos:
            pos = start[slack]
        if pos == n or total > left * lengths[pos] or residual & uncovered[pos]:
            continue
        atom, length = atoms[pos], lengths[pos]
        pos += 1
        stack.append((pos, residual, left, total))
        while left:  # pushed upwards, so the largest count pops first
            fitted = (residual | guards) - atom
            if fitted & guards != guards:
                break
            residual = fitted ^ guards
            left -= 1
            total -= length
            stack.append((pos, residual, left, total))
    return False


def _field_width(monoid: PresentedMonoid, x) -> int:
    return max(max(x, default=0), monoid._largest_coordinate).bit_length() + 1


def _pack(x, width: int) -> int:
    return sum(v << (i * width) for i, v in enumerate(x))


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


def factorizations(monoid: PresentedMonoid, x) -> list[tuple[int, ...]]:
    """All ways to write x as a nonnegative combination of the atoms, as
    count vectors (the length of a factorization is the sum of its vector).

    Empty exactly when x is not in the monoid.  Output sorted by count
    vector, so results are schedule-independent.
    """
    return sorted(_factorization_counts(monoid, _nonnegative_element(monoid, x)))


def set_of_lengths(monoid: PresentedMonoid, x) -> tuple[int, ...]:
    x = _nonnegative_element(monoid, x)
    return tuple(sorted({sum(z) for z in _factorization_counts(monoid, x)}))


def distance(z, w) -> int:
    """max of the two reduced lengths after cancelling the common part of
    the count vectors z and w."""
    common = tuple(min(a, b) for a, b in zip(z, w))
    dz = sum(a - c for a, c in zip(z, common))
    dw = sum(b - c for b, c in zip(w, common))
    return max(dz, dw)


def catenary_from_factorizations(zs) -> int:
    """Least N whose distance-at-most-N graph on the given factorization
    count vectors is connected: the largest edge of a minimum spanning tree.

    The tree is grown by Prim's algorithm, so no edge list is built or
    sorted.  Each vertex added to the tree updates the least distance from
    every vertex outside it, with d(z, w) = max(|z|, |w|) - sum_i min(z_i, w_i)
    summed over the support of the added z only; the lengths are computed
    once.  Every distance is at most the largest length, which therefore
    serves as the initial bound.
    """
    k = len(zs)
    if k <= 1:
        return 0
    lengths = [sum(z) for z in zs]
    outside = list(range(1, k))
    link = [max(lengths)] * (k - 1)
    u, bottleneck = 0, 0
    while outside:
        lu = lengths[u]
        support = [(i, c) for i, c in enumerate(zs[u]) if c]
        for j, v in enumerate(outside):
            cv = zs[v]
            d = max(lu, lengths[v]) - sum(min(c, cv[i]) for i, c in support)
            if d < link[j]:
                link[j] = d
        j = min(range(len(outside)), key=link.__getitem__)
        bottleneck = max(bottleneck, link.pop(j))
        u = outside.pop(j)
    return bottleneck


def catenary_element(monoid: PresentedMonoid, x) -> int:
    zs = factorizations(monoid, x)
    if not zs:
        raise ValueError("element is not in the monoid")
    return catenary_from_factorizations(zs)


def _length_band(monoid: PresentedMonoid, x) -> tuple[int, int] | None:
    """Necessary range for factorization lengths of x, or None when x = 0."""
    total = sum(x)
    if not total:
        return None
    lens = monoid.atom_lengths()
    if not lens:
        return (1, 0)
    lmin, lmax = min(lens), max(lens)
    return (-(-total // lmax), total // lmin)


def min_length(monoid: PresentedMonoid, x) -> int | None:
    """Shortest factorization length, by an ascending exists-length scan."""
    band = _length_band(monoid, x)
    if band is None:
        return 0
    for target in range(band[0], band[1] + 1):
        if exists_length(monoid, x, target):
            return target
    return None


def exists_length(monoid: PresentedMonoid, x, target: int) -> bool:
    """Whether x factors into exactly ``target`` atoms (never, for an x with
    a negative coordinate).

    Depth-first over the atoms by nonincreasing length, stopping at the
    first hit.  The atoms still to pick must sum to exactly the residual's
    length, so a branch whose longest remaining atom cannot fill it is cut,
    and an atom longer than the shortest atom length plus the slack (the
    residual length beyond what that many shortest atoms would take) is
    skipped; the proof is at ``_has_length``.
    """
    x = _element(monoid, x)
    if any(v < 0 for v in x):
        return False
    return _has_length(monoid, x, target)


@dataclass(frozen=True)
class UnionOfLengths:
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


def _k_fold_sums(monoid: PresentedMonoid, k: int, min_total: int = 0):
    """Yield each distinct sum of k atoms whose total length is at least
    min_total, once, so that a caller can stop at the first that works.

    Depth-first over nonincreasing atom lengths, with an explicit stack; a
    branch stops as soon as its remaining picks at the current length can no
    longer reach min_total.
    """
    atoms = [monoid.atoms[i] for i in monoid._search_order]
    lens = [sum(a) for a in atoms]
    seen: set[tuple[int, ...]] = set()
    stack = [(0, k, 0, (0,) * monoid.ambient_dim)]
    while stack:
        pos, left, total, acc = stack.pop()
        if left == 0:
            if total >= min_total and acc not in seen:
                seen.add(acc)
                yield acc
            continue
        end = pos
        while end < len(atoms) and total + left * lens[end] >= min_total:
            end += 1
        for p in range(end - 1, pos - 1, -1):  # pushed downwards, so pos pops first
            stack.append((p, left - 1, total + lens[p],
                          tuple(x + y for x, y in zip(acc, atoms[p]))))


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
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if monoid.atom_count == 0:
        raise ValueError("monoid has no atoms")
    if strategy not in ("exhaustive", "extremes"):
        raise ValueError(f"unknown strategy {strategy!r}")
    lens = monoid.atom_lengths()
    lmin, lmax = min(lens), max(lens)

    def member(l: int) -> bool:
        small, big = min(k, l), max(k, l)
        return l == k or any(exists_length(monoid, s, big)
                             for s in _k_fold_sums(monoid, small, big * lmin))

    band = range(max(1, -(-k * lmin // lmax)), k * lmax // lmin + 1)
    if strategy == "exhaustive":
        values = {l for l in band if member(l)}
        return UnionOfLengths(k, frozenset(values), max(values), min(values), True)
    rho = next(l for l in reversed(band) if member(l))
    lam = next(l for l in band if member(l))
    return UnionOfLengths(k, frozenset({lam, k, rho}), rho, lam, False)


def minimal_covers(monoid: PresentedMonoid, atom_index: int) -> list[tuple[int, ...]]:
    """Componentwise-minimal atom multisets whose product is divisible by the
    given atom, as factorization-count vectors.

    The search is ``atoms._minimal_solutions`` with, as the state of a
    multiset z, what u still lacks on supp(u) (the only coordinates u <= x
    reads), and the negated atoms projected onto supp(u) as the vectors.
    Clipped at 0, lack(z + e_j) = max(lack(z) - p_j, 0), and z covers exactly
    when its lack is 0.  In any order of adding the atoms of a minimal cover
    each atom supplies a coordinate still lacking (else the cover without
    that copy would cover too), so the rule <lack, -p_j> < 0 loses no cover;
    and a parent that does not cover dominates no cover, so the dominance
    lemma of the kernel holds unchanged.  Each atom added lowers the total
    lack, so the search ends within sum(u) atoms.
    """
    u = monoid.atoms[atom_index]
    support = [k for k, x in enumerate(u) if x]
    need = tuple(u[k] for k in support)
    vectors = [tuple(-a[k] for k in support) for a in monoid.atoms]
    frontier = {(0,) * monoid.atom_count: (need, 0)}
    covers, _ = _minimal_solutions(vectors, frontier, 0, sum(u), clip=True)
    return sorted(covers)


def omega(monoid: PresentedMonoid, atom_index: int, mode: str = "minimal-cover"):
    """Distance-from-prime measure of an atom.

    mode='minimal-cover': the maximum size of a componentwise-minimal atom
    multiset whose product the atom divides.  mode='definition-budget'
    replays the defining property over all atom products of size at most
    the atom's coordinate sum, as an independent oracle.  mode='both'
    cross-checks them.

    The replay visits every atom multiset z with 1 <= |z| <= sum(u), in
    increasing size, and over those whose product u divides it takes the
    largest f(z), the least size of a sub-multiset of z that u still
    divides.  It computes f level by level from

        f(z) = min(|z|, min f(z - e_i) over the i with u | z - e_i).

    Proof: a covering proper sub-multiset y of z misses some copy of an
    atom i, so y <= z - e_i, which covers too because divisibility is
    upward closed; and a sub-multiset of z - e_i is one of z.  Only the
    f values of the previous size's covering multisets are kept.  The
    multisets of one size come from a depth-first walk over nondecreasing
    atom index sequences that carries the running sum, restricted to the
    coordinates of supp(u), the only ones u <= x reads.
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
    need = tuple(u[k] for k in support)
    proj = [tuple(a[k] for k in support) for a in monoid.atoms]
    n = monoid.atom_count
    worst = 0
    prev: dict[tuple[int, ...], int] = {}  # f of the covering multisets one size down
    for size in range(1, sum(u) + 1):
        cur: dict[tuple[int, ...], int] = {}
        # nondecreasing index prefixes of length size - 1 with what u still lacks
        stack = [((), need)]
        while stack:
            prefix, lack = stack.pop()
            start = prefix[-1] if prefix else 0
            if len(prefix) < size - 1:
                for j in range(start, n):
                    stack.append((prefix + (j,),
                                  tuple(d - a for d, a in zip(lack, proj[j]))))
                continue
            for j in range(start, n):
                if any(a < d for a, d in zip(proj[j], lack)):
                    continue
                z = prefix + (j,)
                f = size
                for p in range(size):  # drop the last copy of each atom in turn
                    if p + 1 < size and z[p] == z[p + 1]:
                        continue
                    g = prev.get(z[:p] + z[p + 1:])
                    if g is not None and g < f:
                        f = g
                cur[z] = f
                if f > worst:
                    worst = f
        prev = cur
    return worst


def atom_invariants(monoid: PresentedMonoid, atom_index: int) -> dict:
    """omega, tau and the tame degree of an atom from one minimal-cover search.

    omega is the largest size of a minimal cover; tau the largest minimal
    factorization length of (product of a minimal cover) / atom; the tame
    degree max(omega, tau + 1) for a non-prime atom and 0 for a prime one.
    """
    u = monoid.atoms[atom_index]
    covers = minimal_covers(monoid, atom_index)
    w = max(sum(z) for z in covers)
    t = 0
    for z in covers:
        quotient = tuple(x - y for x, y in zip(monoid.element(z), u))
        ml = min_length(monoid, quotient)
        if ml is None:
            raise AssertionError("cover quotient left the monoid")
        t = max(t, ml)
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
        out.update(_k_fold_sums(monoid, k))
    return out
