"""Executable models of three monoid constructions and their invariants.

* rank-1 exponent-1 finitely primary monoids (group x positive level),
* the unit-pinned product H0 |x D attaching a class coordinate to non-units,
* almost-constant vector monoids N0^Omega(c, Lambda) with tower constraints,
* the composition of the last two driven by tower data.

Each closed-form invariant is computed twice: once through the stated
formula and once by a brute-force oracle over a finite truncation, with any
disagreement raised rather than smoothed over.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import gcd

from .ground import _json_fields, _json_int, _json_ints, _json_list, _Record, _require
from .intlinalg import lattice_quotient, rank_over_q, smith_normal_form
from .invariants import (
    PresentedMonoid,
    _packed_catenary,
    _packed_lengths,
    _sorted_factorizations,
    atom_invariants,
    catenary_from_factorizations,
    elements_up_to,
    factorizations,
    free_monoid,
    set_of_lengths,
)


class FiniteAbelianGroup(_Record):
    """Finite abelian group in invariant-factor form n_1 | n_2 | ... | n_t."""

    factors: tuple[int, ...]

    @staticmethod
    def from_factors(factors) -> "FiniteAbelianGroup":
        factors = [int(f) for f in factors]
        if any(f < 1 for f in factors):
            raise ValueError("group factors must be positive")
        factors = [f for f in factors if f > 1]
        if not factors:
            return FiniteAbelianGroup(())
        diag = [[factors[i] if i == j else 0 for j in range(len(factors))]
                for i in range(len(factors))]
        chain = [d for d in smith_normal_form(diag) if d > 1]
        return FiniteAbelianGroup(tuple(chain))

    def __post_init__(self):
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    def order(self) -> int:
        n = 1
        for f in self.factors:
            n *= f
        return n

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.factors)

    def elements(self) -> list[tuple[int, ...]]:
        return sorted(product(*(range(f) for f in self.factors)))

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % f for x, y, f in zip(a, b, self.factors))

    def neg(self, a) -> tuple[int, ...]:
        return tuple((-x) % f for x, f in zip(a, self.factors))


class MonextModel:
    """The product (H0 minus units) x D union {(1, 1_D)} for reduced H0.

    H0 is given by its atom presentation; D is either a finite abelian group
    or a free commutative monoid N0^k.  Elements are pairs (vector, d); the
    vector 0 stands for the identity of H0 and forces d to be the identity.
    """

    def __init__(self, h0: PresentedMonoid, group: FiniteAbelianGroup | None = None,
                 free_rank: int | None = None):
        if (group is None) == (free_rank is None):
            raise ValueError("give exactly one of group= or free_rank=")
        if free_rank is not None and free_rank < 0:
            raise ValueError("free_rank must be >= 0")
        self.h0 = h0
        self.group = group
        self.free_rank = free_rank

    # ---- D arithmetic -------------------------------------------------
    @property
    def d_is_group(self) -> bool:
        return self.group is not None

    def d_identity(self):
        return self.group.zero() if self.d_is_group else (0,) * self.free_rank

    def d_add(self, a, b):
        if self.d_is_group:
            return self.group.add(a, b)
        return tuple(x + y for x, y in zip(a, b))

    def d_sub(self, a, b):
        if self.d_is_group:
            return self.group.add(a, self.group.neg(b))
        diff = tuple(x - y for x, y in zip(a, b))
        if any(x < 0 for x in diff):
            raise ValueError("not divisible in the free coordinate")
        return diff

    # ---- H = H0 |x D --------------------------------------------------
    def zero_vec(self) -> tuple[int, ...]:
        return (0,) * self.h0.ambient_dim

    def is_member(self, vec, d) -> bool:
        if tuple(vec) == self.zero_vec():
            return tuple(d) == self.d_identity()
        return True

    def h_atoms(self) -> list[tuple[int, tuple]]:
        """(atom index in H0, d-value) pairs; finite only for group D."""
        if not self.d_is_group:
            raise ValueError("the free case has infinitely many atoms")
        return [(i, d) for i in range(self.h0.atom_count)
                for d in self.group.elements()]

    def factorizations(self, vec, d, base=None) -> list[tuple]:
        """All factorizations of (vec, d) as sorted ((atom, d-value), count)
        tuples; ``base``, when given, is factorizations(h0, vec)."""
        vec, d = tuple(vec), tuple(d)
        if not self.is_member(vec, d):
            return []
        # the d-values an atom may carry: all of D, or the divisors of d in N0^k
        if self.d_is_group:
            pool = self.group.elements()
        else:
            pool = list(product(*(range(t + 1) for t in d)))
        out = []
        for z in factorizations(self.h0, vec) if base is None else base:
            if not any(z):
                if d == self.d_identity():
                    out.append(())
                continue
            choices = [(i, list(combinations_with_replacement(pool, c)))
                       for i, c in enumerate(z) if c]
            for assignment in product(*(opts for _, opts in choices)):
                total = self.d_identity()
                for combo in assignment:
                    for dv in combo:
                        total = self.d_add(total, dv)
                if total != d:
                    continue
                items: dict[tuple, int] = {}
                for (i, _), combo in zip(choices, assignment):
                    for dv in combo:
                        items[(i, dv)] = items.get((i, dv), 0) + 1
                out.append(tuple(sorted(items.items())))
        return sorted(set(out))

    def lengths(self, vec, d) -> tuple[int, ...]:
        return tuple(sorted({sum(c for _, c in z) for z in self.factorizations(vec, d)}))

    @staticmethod
    def catenary(zs) -> int:
        """Catenary degree of an element from its list of factorizations."""
        if not zs:
            raise ValueError("element is not in the product monoid")
        keys = sorted({key for z in zs for key, _ in z})
        index = {key: i for i, key in enumerate(keys)}
        vecs = []
        for z in zs:
            counts = [0] * len(keys)
            for key, c in z:
                counts[index[key]] = c
            vecs.append(counts)
        return catenary_from_factorizations(vecs)

    def atom_product(self, multiset) -> tuple[tuple[int, ...], tuple]:
        vec = self.zero_vec()
        d = self.d_identity()
        for (i, dv), c in multiset:
            vec = tuple(x + c * y for x, y in zip(vec, self.h0.atoms[i]))
            for _ in range(c):
                d = self.d_add(d, dv)
        return vec, d

    def minimal_atom_covers(self, u_idx: int, du, cap: int) -> list[tuple]:
        """Componentwise-minimal H-atom multisets of at most ``cap`` atoms
        divisible by ((atom u), du), sorted: breadth-first in nondecreasing
        atom index order, so each multiset is built once, and kept when it
        covers and no single removal still covers.  A covering multiset is
        not grown, since its supersets are not minimal.

        (u, du) divides (v, d) in H exactly when u <= v componentwise (in a
        group du divides every d) and the quotient is no (1, d') with
        d' != 1: when v != u or d == du.  Each multiset carries its product,
        so a child adds one atom to it and a removal subtracts one.  The
        vector is one int of w-bit fields, w = (cap * largest H0
        coordinate).bit_length() + 1, so no product of at most ``cap`` atoms
        reaches the top bit of a field, its guard bit: with the guards set,
        subtracting the packed u borrows across no field, and every guard
        survives exactly when u <= v.  A removal only takes an atom the
        multiset holds, so it borrows nowhere.  The d-value is its index in
        ``group.elements()``, added and subtracted through tables built
        here.  Removing the atom added last gives back the parent, which
        does not cover, so only the other atoms are tried."""
        if not self.d_is_group:
            raise ValueError("minimal covers need a finite atom list (group D)")
        group = self.group
        elements = group.elements()
        index = {d: k for k, d in enumerate(elements)}
        plus = [[index[group.add(a, b)] for b in elements] for a in elements]
        minus = [[row[index[group.neg(b)]] for b in elements] for row in plus]
        h0 = self.h0.atoms
        width = (cap * max(map(max, h0))).bit_length() + 1
        shifts = range(0, self.h0.ambient_dim * width, width)
        guards = sum(1 << (s + width - 1) for s in shifts)
        packed = [sum(x << s for x, s in zip(a, shifts)) for a in h0]
        atoms = self.h_atoms()
        n = len(atoms)
        vecs = [packed[i] for i, _ in atoms]
        ds = [index[d] for _, d in atoms]
        target, d_target = packed[u_idx], index[tuple(du)]

        def covers(v, d):
            return ((v | guards) - target) & guards == guards and (v != target or d == d_target)

        found = []
        # (atom indices, nondecreasing; their product's vector and d-value)
        frontier = [((), 0, index[group.zero()])]
        for _ in range(cap):
            nxt = []
            for z, v, d in frontier:
                for j in range(z[-1] if z else 0, n):
                    v2, d2 = v + vecs[j], plus[d][ds[j]]
                    if not covers(v2, d2):
                        nxt.append((z + (j,), v2, d2))
                    elif not any(covers(v2 - vecs[i], minus[d2][ds[i]])
                                 for i in set(z) - {j}):
                        z2 = z + (j,)
                        found.append(tuple((atoms[i], z2.count(i)) for i in sorted(set(z2))))
            frontier = nxt
        return sorted(found)


def monext_invariants(model: MonextModel, u_idx: int, dval) -> dict:
    """Omega, tau and tame degree of the atom (u, d) of H0 |x D.

    For group D the closed forms (2/1/2 for prime u, the H0 values
    otherwise) are cross-checked against a brute-force minimal-cover oracle
    and any mismatch raises.  For free D only the bracketing bounds are
    reported, along with the unbounded-omega flag of the whole monoid.
    """
    h0 = model.h0
    formula = atom_invariants(h0, u_idx)
    w0 = formula["omega"]
    prime = w0 == 1
    if model.d_is_group:
        if prime and not model.group.is_trivial:
            formula = {"omega": 2, "tau": 1, "tame": 2}
        covers = model.minimal_atom_covers(u_idx, dval, cap=formula["omega"] + 1)
        oracle_omega = max(sum(c for _, c in z) for z in covers)
        oracle_tau = 0
        for z in covers:
            vec, d = model.atom_product(z)
            qvec = tuple(x - y for x, y in zip(vec, h0.atoms[u_idx]))
            qd = model.d_sub(d, dval)
            ls = model.lengths(qvec, qd)
            oracle_tau = max(oracle_tau, ls[0])
        if model.group.is_trivial and prime:
            oracle_tame = 0
        else:
            oracle_tame = max(oracle_omega, oracle_tau + 1)
        oracle = {"omega": oracle_omega, "tau": oracle_tau, "tame": oracle_tame}
        if formula != oracle:
            raise AssertionError(f"product-monoid invariants disagree: "
                                 f"formula={formula} oracle={oracle}")
        return {"formula": formula, "oracle": oracle, "prime_in_h0": prime}
    # free D: report the bracket and the global flags
    dlen = sum(dval)
    eps = 1 if prime and dlen == 0 else 0
    report = {
        "omega_lower": max(w0, dlen),
        "omega_upper": w0 + dlen + eps,
        "prime_in_h0": prime,
        "omega_monoid_infinite": model.free_rank > 0,
        "tame_monoid_infinite": model.free_rank > 0,
    }
    return report


def monext_catenary(model: MonextModel, vec, dval, base) -> dict:
    """Catenary degree of ((non-atom a), d), classified and cross-checked.

    The zero cases: |D| = 2 with d nontrivial and a = u^2 uniquely; D
    reduced with d = 1 and a uniquely factorable; D reduced with d an atom
    of D and a a unique atom power.  Otherwise max(2, catenary of a).
    ``base`` is factorizations(h0, vec), which a caller classifying vec
    under several d then searches once.
    """
    vec, dval = tuple(vec), tuple(dval)
    if not base:
        raise ValueError("base element is not in H0")
    if len(base) == 1 and sum(base[0]) <= 1:
        raise ValueError("classification needs a non-atom, non-unit base element")
    c0 = catenary_from_factorizations(base)
    unique = len(base) == 1
    unique_prime_power = unique and sum(1 for c in base[0] if c) == 1

    if model.d_is_group and model.group.is_trivial:
        predicted = c0
    elif model.d_is_group:
        if model.group.order() == 2 and dval != model.group.zero():
            square = unique_prime_power and sum(base[0]) == 2
            predicted = 0 if square else max(2, c0)
        else:
            predicted = max(2, c0)
    else:
        d_is_identity = dval == model.d_identity()
        d_is_atom = sum(dval) == 1
        if d_is_identity:
            predicted = 0 if unique else max(2, c0)
        elif d_is_atom and unique_prime_power:
            predicted = 0
        else:
            predicted = max(2, c0)

    observed = model.catenary(model.factorizations(vec, dval, base))
    if observed != predicted:
        raise AssertionError(f"catenary classification failed: "
                             f"predicted={predicted} observed={observed}")
    return {"predicted": predicted, "observed": observed, "base_catenary": c0}


def monext_theta_check(model: MonextModel, samples: int = 100,
                       seed: int = 0) -> dict:
    """Replay the transfer-homomorphism conditions for the projection to H0.

    Checks the unit fibre, the lifting of factorizations theta((a,d)) = b*c
    to splittings in the product, and the equality of sets of lengths, all
    on seeded random samples.
    """
    import random

    h0 = model.h0
    if not h0.atom_count:
        raise ValueError("h0 has no atoms, so there is no element to sample")
    rng = random.Random(seed)
    if model.d_is_group:
        d_pool = model.group.elements()
    else:
        d_pool = [tuple(rng.randint(0, 2) for _ in range(model.free_rank))
                  for _ in range(4)]
    # units map exactly onto units
    for d in d_pool:
        expected = tuple(d) == model.d_identity()
        _require(model.is_member(model.zero_vec(), d) == expected)
    checked_splits = 0
    checked_lengths = 0
    for _ in range(samples):
        k = rng.randint(1, 3)
        picks = [rng.randrange(h0.atom_count) for _ in range(k)]
        avec = tuple(0 for _ in range(h0.ambient_dim))
        for i in picks:
            avec = tuple(x + y for x, y in zip(avec, h0.atoms[i]))
        d = rng.choice(d_pool)
        if not model.is_member(avec, d):
            continue
        # random split of a known factorization of a into b * c
        keep = [i for i in picks if rng.random() < 0.5]
        bvec = tuple(0 for _ in range(h0.ambient_dim))
        for i in keep:
            bvec = tuple(x + y for x, y in zip(bvec, h0.atoms[i]))
        cvec = tuple(x - y for x, y in zip(avec, bvec))
        if any(bvec):
            v, w = (bvec, d), (cvec, model.d_identity())
        elif any(cvec):
            v, w = (bvec, model.d_identity()), (cvec, d)
        else:
            v = w = (bvec, model.d_identity())
            if tuple(d) != model.d_identity():
                continue
        _require(model.is_member(*v) and model.is_member(*w))
        prod_vec = tuple(x + y for x, y in zip(v[0], w[0]))
        prod_d = model.d_add(v[1], w[1])
        _require((prod_vec, prod_d) == (avec, tuple(d)))
        _require(v[0] == bvec and w[0] == cvec)
        checked_splits += 1
        if model.d_is_group and checked_lengths < samples // 2:
            _require(model.lengths(avec, d) == set_of_lengths(h0, avec))
            checked_lengths += 1
    return {"passed": True, "splits": checked_splits, "length_checks": checked_lengths}


def fp_rank1_invariants(group: FiniteAbelianGroup, budget: int = 6) -> dict:
    """Invariants of the rank-1 exponent-1 finitely primary monoid on a group.

    The monoid is (G x N) with identity adjoined, realized as the unit-pinned
    product of N0 with G.  Every level-n element factors into exactly n
    level-1 atoms, so the model is half-factorial; for nontrivial G the
    catenary degree of every level >= 2 element and the omega/tame degree of
    every atom are verified to equal 2.
    """
    if budget < 3:
        raise ValueError("budget must be at least 3")
    model = MonextModel(free_monoid(1), group=group)
    report: dict = {"group_order": group.order(), "budget": budget}
    factorial = group.is_trivial
    max_c = 0
    for n in range(1, budget + 1):
        for g in group.elements():
            zs = model.factorizations((n,), g)
            ls = tuple(sorted({sum(c for _, c in z) for z in zs}))
            if ls != (n,):
                raise AssertionError(f"level {n} element has lengths {ls}")
            if n >= 2:
                max_c = max(max_c, model.catenary(zs))
            if factorial and len(zs) != 1:
                raise AssertionError("trivial group must give unique factorization")
    report["certifies"] = "rank1-primary-catenary-tame-two"
    report["half_factorial"] = True
    report["factorial"] = factorial
    report["max_catenary"] = max_c
    atom_stats = [monext_invariants(model, 0, g)["formula"] for g in group.elements()]
    report["atom_invariants"] = atom_stats
    if factorial:
        _require(max_c == 0)
        _require(all(s == {"omega": 1, "tau": 0, "tame": 0} for s in atom_stats))
    else:
        _require(max_c == 2)
        _require(all(s == {"omega": 2, "tau": 1, "tame": 2} for s in atom_stats))
    report["catenary"] = max_c
    report["tame"] = 0 if factorial else 2
    return report


# ---------------------------------------------------------------------------
# Almost-constant vector monoids
# ---------------------------------------------------------------------------


class AcmSpec(_Record):
    """Parameters of N0^Omega(c, Lambda): coordinate count, weights, towers."""

    size: int
    weights: tuple[Fraction, ...]
    towers: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("need at least the level coordinate")
        if len(self.weights) != self.size:
            raise ValueError("weight vector must have one entry per coordinate")
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))
        if self.weights[0] != 1:
            raise ValueError("the level coordinate must have weight 1")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        towers = tuple(tuple(sorted(int(i) for i in t)) for t in self.towers)
        object.__setattr__(self, "towers", towers)
        seen: set[int] = set()
        for t in towers:
            if len(t) < 2:
                raise ValueError("each tower needs at least two coordinates")
            for i in t:
                if not 1 <= i < self.size:
                    raise ValueError(f"tower coordinate {i} out of range")
                if i in seen:
                    raise ValueError("towers must be pairwise disjoint")
                seen.add(i)
        for t in towers:
            if self.tower_sum(t).denominator != 1:
                raise ValueError(f"tower {t} has non-integral weight sum "
                                 f"{self.tower_sum(t)}")

    def tower_sum(self, tower) -> Fraction:
        return sum((self.weights[i] for i in tower), Fraction(0))

    def tower_sums(self) -> tuple[int, ...]:
        return tuple(int(self.tower_sum(t)) for t in self.towers)

    def covered(self) -> set[int]:
        return {i for t in self.towers for i in t}

    def case(self) -> int:
        if self.size == 1:
            return 1
        return 2 if self.covered() == set(range(1, self.size)) else 3

    @staticmethod
    def from_json(data: dict) -> "AcmSpec":
        _json_fields(data, "acm spec", ("omega", "c", "lambda"))
        weights = []
        for w in _json_list(data["c"], "c", "weights"):
            if isinstance(w, bool) or not isinstance(w, (int, float, str)):
                raise ValueError(f"'c' entries must be numbers or 'p/q' strings, got {w!r}")
            try:
                weights.append(Fraction(str(w)))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"'c' entry {w!r} is not a rational number") from None
        towers = _json_list(data["lambda"], "lambda", "coordinate lists")
        return AcmSpec(_json_int(data["omega"], "omega"), tuple(weights),
                       tuple(_json_ints(t, f"lambda[{k}]") for k, t in enumerate(towers)))

    def to_json(self) -> dict:
        return {
            "omega": self.size,
            "c": [str(w) for w in self.weights],
            "lambda": [list(t) for t in self.towers],
        }


class AcmModel:
    """Atoms and presentation of a finite-atom AcmSpec (case 1 or 2), built once."""

    def __init__(self, spec: AcmSpec):
        if spec.case() == 3:
            raise ValueError("uncovered coordinates leave infinitely many atoms")
        self.spec = spec
        blocks = [list(_compositions(cs, len(t)))
                  for t, cs in zip(spec.towers, spec.tower_sums())]
        atoms = []
        for picks in product(*blocks):
            x = [0] * spec.size
            x[0] = 1
            for t, comp in zip(spec.towers, picks):
                for i, v in zip(t, comp):
                    x[i] = v
            atoms.append(tuple(x))
        self.atoms: list[tuple[int, ...]] = sorted(atoms)
        # the image of the level-dropping embedding, saturated in N0^(size-1)
        self._monoid = free_monoid(1) if spec.case() == 1 else PresentedMonoid(
            spec.size - 1, tuple(a[1:] for a in self.atoms))

    def presented(self) -> PresentedMonoid:
        return self._monoid


def _compositions(total: int, parts: int):
    """Every tuple of ``parts`` nonnegative ints with sum ``total``: stars and
    bars, the parts - 1 bars placed among total + parts - 1 slots."""
    slots = total + parts - 1
    for bars in combinations(range(slots), parts - 1):
        edges = (-1, *bars, slots)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def acm_class_group(model: AcmModel) -> dict:
    """Divisor class group of the fully covered almost-constant monoid.

    Computed two ways: the cokernel of the atom lattice via the Smith normal
    form, and the explicit homomorphism built from the tower sums; the two
    must agree on rank and torsion.
    """
    spec, atoms = model.spec, model.atoms
    if spec.case() != 2:
        raise ValueError("class group computed only in the fully covered case")
    j_atoms = [list(a[1:]) for a in atoms]
    quotient = lattice_quotient(j_atoms, spec.size - 1)
    sums = spec.tower_sums()
    n = len(sums)
    report: dict = {
        "atom_count": len(atoms),
        "invariant_factors": list(quotient.invariant_factors),
        "free_rank": quotient.free_rank,
    }
    if n == 1:
        c1 = sums[0]
        expected = (c1,) if c1 > 1 else ()
        if quotient.invariant_factors != expected or quotient.free_rank != 0:
            raise AssertionError("lattice quotient disagrees with Z/C1")
        report["group"] = f"Z/{c1}" if c1 > 1 else "trivial"
        report["classes_with_prime_divisors"] = [{
            "image": [1], "modulus": c1,
            "prime_divisors": len(spec.towers[0]),
        }]
        return report
    cn = sums[-1]
    a_coeffs = [cn // gcd(sums[i], cn) for i in range(n - 1)]
    b_coeffs = [sums[i] // gcd(sums[i], cn) for i in range(n - 1)]

    def phi_star(y) -> tuple[int, ...]:
        last = sum(y[i - 1] for i in spec.towers[-1])
        return tuple(a_coeffs[k] * sum(y[i - 1] for i in spec.towers[k])
                     - b_coeffs[k] * last for k in range(n - 1))

    for a in atoms:
        if any(phi_star(a[1:])):
            raise AssertionError("tower homomorphism does not kill an atom")
    if quotient.free_rank != n - 1 or quotient.invariant_factors:
        raise AssertionError("lattice quotient is not free of rank (tower count - 1)")
    images = []
    for k, t in enumerate(spec.towers):
        basis = [0] * (spec.size - 1)
        basis[t[0] - 1] = 1
        images.append({"image": list(phi_star(basis)), "prime_divisors": len(t)})
    image_vectors = [im["image"] for im in images]
    if rank_over_q(image_vectors) != n - 1:
        raise AssertionError("prime-divisor classes do not span full rank")
    report["group"] = f"Z^{n - 1}"
    report["classes_with_prime_divisors"] = images
    report["a_coefficients"] = a_coeffs
    report["b_coefficients"] = b_coeffs
    return report


def acm_report(spec: AcmSpec | AcmModel, level_budget: int = 4) -> dict:
    """Summary report: atoms, half-factoriality, catenary, class group, tame.

    In the fully covered case the omega of every atom u must lie in its
    tower bracket [sum(C_I - min_I u), sum(C_I)], and unless the monoid is
    factorial its tame degree and omega must both equal sum(C_I).  Given an
    AcmModel, the report is on its spec and uses it rather than building one.
    """
    model = spec if isinstance(spec, AcmModel) else None
    spec = model.spec if model else spec
    report: dict = {"case": spec.case(), "spec": spec.to_json(),
                    "certifies": "tower-constrained-monoid-arithmetic"}
    if spec.case() == 1:
        report.update({"monoid": "N0", "factorial": True, "half_factorial": True,
                       "tame": 0, "catenary": 0})
        return report
    if spec.case() == 3:
        report["free_coordinates"] = spec.size - 1 - len(spec.covered())
        report["half_factorial"] = True
        report["catenary"] = 2
        report["tame"] = "infinite"
        report["omega"] = "infinite"
        return report
    model = model or AcmModel(spec)
    monoid = model.presented()
    sums = spec.tower_sums()
    total = sum(sums)
    factorial = len(sums) == 1 and sums[0] == 1
    max_c = 0
    for x in sorted(elements_up_to(monoid, level_budget)):
        lanes, zs = _sorted_factorizations(monoid, x)
        if len(set(_packed_lengths(lanes, zs))) > 1:
            raise AssertionError(f"half-factoriality failed at {x}")
        max_c = max(max_c, _packed_catenary(lanes, zs))
    if factorial and max_c != 0:
        raise AssertionError("factorial case must have catenary 0")
    if max_c > 2:
        raise AssertionError("catenary exceeded 2 in the covered case")
    invs = [atom_invariants(monoid, idx) for idx in range(monoid.atom_count)]
    for atom, inv in zip(model.atoms, invs):
        lower = sum(cs - min(atom[i] for i in t) for t, cs in zip(spec.towers, sums))
        if not lower <= inv["omega"] <= total:
            raise AssertionError(f"omega {inv['omega']} outside bracket [{lower}, {total}]")
    tame = 0 if factorial else max(inv["tame"] for inv in invs)
    omega = max(inv["omega"] for inv in invs)
    if not factorial and (tame != total or omega != total):
        raise AssertionError("tame degree does not equal the tower-sum total")
    report.update({
        "atom_count": len(model.atoms),
        "half_factorial": True,
        "max_catenary_observed": max_c,
        "factorial": factorial,
        "tame": tame,
        "omega": omega,
        "class_group": acm_class_group(model),
    })
    return report


# ---------------------------------------------------------------------------
# Tower data and the composed model
# ---------------------------------------------------------------------------


class TowerData(_Record):
    """Numeric tower data: uniform dimension, cycle/faithful tower ranks, and
    the ideal class group.  Faithful tower rank lists cover only the
    unfaithful members (the leading faithful module carries no rank)."""

    udim: int
    cycle_towers: tuple[tuple[int, ...], ...]
    faithful_towers: tuple[tuple[int, ...], ...]
    class_group: FiniteAbelianGroup

    def __post_init__(self):
        if self.udim < 1:
            raise ValueError("uniform dimension must be positive")
        for t in self.cycle_towers + self.faithful_towers:
            if any(r < 1 for r in t):
                raise ValueError("tower member ranks must be positive")
        for t in self.cycle_towers:
            if len(t) >= 2 and sum(t) % self.udim:
                raise ValueError(f"cycle tower {t} has rank sum not divisible "
                                 f"by the uniform dimension")

    @staticmethod
    def from_json(data: dict) -> "TowerData":
        _json_fields(data, "tower data",
                     ("udim", "cycle_towers", "faithful_towers", "class_group"))

        def ranks(field):
            out = []
            for k, t in enumerate(_json_list(data[field], field, "tower objects")):
                where = f"{field}[{k}]"
                out.append(_json_ints(_json_fields(t, where, ("ranks",))["ranks"],
                                      f"{where}.ranks"))
            return tuple(out)

        return TowerData(_json_int(data["udim"], "udim"), ranks("cycle_towers"),
                         ranks("faithful_towers"),
                         FiniteAbelianGroup.from_factors(
                             _json_ints(data["class_group"], "class_group")))

    def nontrivial_cycle(self) -> tuple[tuple[int, ...], ...]:
        return tuple(t for t in self.cycle_towers if len(t) >= 2)

    def nontrivial_faithful(self) -> tuple[tuple[int, ...], ...]:
        # a faithful tower is nontrivial as soon as it has an unfaithful member
        return tuple(t for t in self.faithful_towers if len(t) >= 1)


def hnp_monoid(td: TowerData) -> tuple[AcmSpec, FiniteAbelianGroup]:
    """The stable-class monoid of the tower data: acm part and class group.

    Coordinates: one level coordinate, then the members of nontrivial cycle
    towers (grouped into towers), then the unfaithful members of nontrivial
    faithful towers (free coordinates).
    """
    weights = [Fraction(1)]
    towers = []
    for t in td.nontrivial_cycle():
        start = len(weights)
        for r in t:
            weights.append(Fraction(r, td.udim))
        towers.append(tuple(range(start, start + len(t))))
    for t in td.nontrivial_faithful():
        for r in t:
            weights.append(Fraction(r, td.udim))
    return AcmSpec(len(weights), tuple(weights), tuple(towers)), td.class_group


def hnp_report(td: TowerData, level_budget: int = 4) -> dict:
    """Verdicts for the composed model: factoriality, tame degree, lengths."""
    spec, group = hnp_monoid(td)
    cycles = td.nontrivial_cycle()
    faithfuls = td.nontrivial_faithful()
    tower_total = sum(sum(t) for t in cycles) // td.udim if cycles else 0
    report: dict = {
        "udim": td.udim,
        "nontrivial_cycle_towers": len(cycles),
        "nontrivial_faithful_towers": len(faithfuls),
        "class_group_order": group.order(),
        "tame_formula": tower_total,
        "certifies": "stable-class-monoid-tame-degree",
    }
    single_unit_cycle = (len(cycles) == 1 and not faithfuls
                         and sum(cycles[0]) == td.udim)
    factorial = group.is_trivial and ((not cycles and not faithfuls)
                                      or single_unit_cycle)
    report["factorial"] = factorial

    # the theta check of a nontrivial class group runs on the acm model too
    model = None if faithfuls or group.is_trivial else AcmModel(spec)
    acm = acm_report(model or spec, level_budget)
    report["half_factorial"] = acm["half_factorial"]
    if faithfuls:
        report["tame"] = "infinite"
        report["omega"] = "infinite"
        report["catenary"] = acm["catenary"]
        return report

    tame = acm["tame"] if group.is_trivial else max(2, acm["tame"])
    report["tame"] = tame
    report["omega"] = tame
    report["catenary"] = 0 if factorial else max(2, acm.get("max_catenary_observed", 0))
    if not factorial and tame != tower_total:
        report["tame_formula_note"] = (
            "closed form undershoots: the class-group coordinate alone "
            "forces tame degree 2")
    if model:
        monext_theta_check(MonextModel(model.presented(), group=group), samples=40, seed=1)
    return report
