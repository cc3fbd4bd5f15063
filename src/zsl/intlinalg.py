"""Exact integer linear algebra: determinants, rank, Smith normal form,
lattice quotients and primitive kernel relations.

Everything here works on plain nested lists/tuples of Python ints, so all
arithmetic is arbitrary precision and no floating point ever enters.  The
eliminations are fraction-free: integer row operations, with each row
divided by its content where entries could grow, so no ``Fraction`` is
formed either.  Rank, |det| and the Smith form do not change under
transposition, so callers pass their vectors as rows.  The routines are
deliberately dense-and-small: matrices in this package have at most a few
dozen rows/columns.
"""

from __future__ import annotations

from itertools import combinations, repeat
from math import comb, gcd, lcm
from operator import add, mul

from .ground import _Record


def matrix_dims(m) -> tuple[int, int]:
    """Return (rows, cols) after checking the matrix is rectangular."""
    rows = len(m)
    if rows == 0:
        return 0, 0
    cols = len(m[0])
    for row in m:
        if len(row) != cols:
            raise ValueError("ragged matrix: rows have different lengths")
    return rows, cols


def det_bareiss(m) -> int:
    """Exact determinant via fraction-free Bareiss elimination.

    Intermediate entries stay integral because each 2x2 cross-multiplication
    step is exactly divisible by the previous pivot.
    """
    rows, cols = matrix_dims(m)
    if rows != cols:
        raise ValueError(f"determinant needs a square matrix, got {rows}x{cols}")
    n = rows
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def subset_determinants(rows):
    """Yield det of every k-subset of ``rows``, k-vectors all, in
    ``itertools.combinations`` order; nothing when there are fewer than k.

    Depth first over the prefixes: a prefix of j rows carries its j x j
    minors on every j-subset of the k columns (one, the empty minor 1, for
    no rows), in ``combinations`` order.  Taking one more row extends them
    by a Laplace expansion along that row, placed last.  At k - 1 rows the
    minors, signed, are the cofactors of the last row, so each choice costs
    one k-term dot product and no elimination.  A prefix whose minors all
    vanish has dependent rows, and every choice below it yields 0.
    """
    rows = [tuple(row) for row in rows]
    n, k = matrix_dims(rows)
    if not k:
        if n:
            yield 1
        return
    columns = list(zip(*rows))

    def dots(coefficients, lo, hi):
        """sum_c coefficients[c] * rows[i][c] for i in range(lo, hi)."""
        out = repeat(0, hi - lo)
        for column, x in zip(columns, coefficients):
            if x:
                out = map(add, out, map(mul, column[lo:hi], repeat(x)))
        return out

    # expand[j]: for each j-subset S of the columns, the terms
    # (column c, sign (-1)^(j + 1-based position of c in S), index of S - {c})
    expand = [None]
    for j in range(1, k):
        below = {s: i for i, s in enumerate(combinations(range(k), j - 1))}
        expand.append([[(c, -1 if (j + pos + 1) % 2 else 1, below[s[:pos] + s[pos + 1:]])
                        for pos, c in enumerate(s)]
                       for s in combinations(range(k), j)])
    # the (k-1)-subsets come as "drop k-1", ..., "drop 0"
    signs = [(-1) ** (k + 1 + c) for c in range(k)]
    stack = [(0, 0, (1,))]
    while stack:
        start, depth, minors = stack.pop()
        if not any(minors):
            yield from repeat(0, comb(n - start, k - depth))
        elif depth == k - 1:
            yield from dots([s * m for s, m in zip(signs, reversed(minors))], start, n)
        else:
            stop = n - k + depth + 1
            expansions = []
            for term in expand[depth + 1]:
                coefficients = [0] * k
                for c, sign, b in term:
                    coefficients[c] = sign * minors[b]
                expansions.append(dots(coefficients, start, stop))
            children = [(i, depth + 1, m) for i, m in enumerate(zip(*expansions), start + 1)]
            stack.extend(reversed(children))


def _eliminate(row, pivot, col: int) -> list[int]:
    """row * pivot[col] - row[col] * pivot, which is 0 at ``col``, divided by
    the content of its entries."""
    f = row[col]
    out = [x * pivot[col] - f * y for x, y in zip(row, pivot)]
    content = gcd(*out)
    return [x // content for x in out] if content > 1 else out


def rank_over_q(m) -> int:
    """Rank of the matrix over the rationals, computed fraction-free.

    Integer row elimination with a per-row content reduction keeps entries
    small without ever forming a fraction.
    """
    rows, cols = matrix_dims(m)
    a = [list(row) for row in m]
    rank = 0
    for col in range(cols):
        pivot_row = next((i for i in range(rank, rows) if a[i][col] != 0), None)
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        for i in range(rank + 1, rows):
            if a[i][col]:
                a[i] = _eliminate(a[i], a[rank], col)
        rank += 1
        if rank == rows:
            break
    return rank


def smith_normal_form(m) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the nonnegative elementary divisors d_1 | d_2 | ... | d_k with
    k = min(rows, cols); zeros trail once the rank is exhausted.  Pivoting is
    by smallest nonzero absolute value, which keeps intermediate entries from
    blowing up.
    """
    rows, cols = matrix_dims(m)
    a = [list(row) for row in m]
    n = min(rows, cols)
    diag: list[int] = []
    for t in range(n):
        while True:
            pivot_pos = None
            pivot_abs = None
            for i in range(t, rows):
                for j in range(t, cols):
                    v = abs(a[i][j])
                    if v and (pivot_abs is None or v < pivot_abs):
                        pivot_abs = v
                        pivot_pos = (i, j)
            if pivot_pos is None:
                diag.extend([0] * (n - t))
                return diag
            pi, pj = pivot_pos
            a[t], a[pi] = a[pi], a[t]
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            p = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // p
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            # Row and column are clear; enforce divisibility into the rest.
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                diag.append(abs(p))
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
    return diag


class QuotientStructure(_Record):
    """Structure of Z^n modulo a sublattice: torsion factors and free rank."""

    invariant_factors: tuple[int, ...]
    free_rank: int


def lattice_quotient(gens, ambient_dim: int) -> QuotientStructure:
    """Structure of Z^ambient_dim / <gens> via the Smith normal form.

    ``gens`` is a list of integer vectors.  Invariant factors equal to 1 are
    dropped.
    """
    gens = [list(g) for g in gens]
    for g in gens:
        if len(g) != ambient_dim:
            raise ValueError("generator dimension mismatch")
    if not gens:
        return QuotientStructure((), ambient_dim)
    diag = smith_normal_form(gens)
    nonzero = [d for d in diag if d]
    factors = tuple(d for d in nonzero if d > 1)
    return QuotientStructure(factors, ambient_dim - len(nonzero))


def kernel_basis(vectors) -> list[list[int]]:
    """One primitive integer relation z with sum_j z_j * vectors[j] = 0 per
    free column, in column order: a basis over Q of the relations, so there
    are len(vectors) - rank of them.

    Integer Gauss-Jordan on the matrix with the vectors as columns, each
    row divided by its content after every step, leaves pivot row i with
    p_i at its pivot column, c_i at each free column f and 0 at the other
    pivot columns, so a relation satisfies p_i * z_pivot(i) + sum_f c_i *
    z_f = 0 for every i.  The relation of free column f sets z_f = L =
    lcm(|p_i|), every other free coordinate to 0 and z_pivot(i) = -c_i * L
    / p_i, an integer; dividing by its content leaves it primitive with
    z_f > 0.  It is the only relation of the basis nonzero at f, so the
    relations are independent.
    """
    k = len(vectors)
    rows = len(vectors[0]) if vectors else 0
    a = [[v[i] for v in vectors] for i in range(rows)]
    pivots: list[int] = []
    free: list[int] = []
    for col in range(k):
        rank = len(pivots)
        pivot_row = next((i for i in range(rank, rows) if a[i][col]), None)
        if pivot_row is None:
            free.append(col)
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        for i in range(rows):
            if i != rank and a[i][col]:
                a[i] = _eliminate(a[i], a[rank], col)
        pivots.append(col)
    scale = lcm(*(a[i][col] for i, col in enumerate(pivots)))
    basis = []
    for f in free:
        z = [0] * k
        z[f] = scale
        for i, col in enumerate(pivots):
            z[col] = -a[i][f] * scale // a[i][col]
        content = gcd(*z)
        basis.append([x // content for x in z])
    return basis


def primitive_kernel_vector(vectors) -> list[int] | None:
    """The one relation of ``kernel_basis(vectors)``, the generator of the
    relations with its free coordinate positive, or None unless the
    relations form a lattice of rank exactly one."""
    basis = kernel_basis(vectors)
    return basis[0] if len(basis) == 1 else None
