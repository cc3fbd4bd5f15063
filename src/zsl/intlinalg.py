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

from dataclasses import dataclass
from math import gcd, lcm


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


@dataclass(frozen=True)
class QuotientStructure:
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


def primitive_kernel_vector(vectors) -> list[int] | None:
    """Primitive integer relation z with sum_j z_j * vectors[j] = 0.

    Returns None unless the relations form a lattice of rank exactly one;
    otherwise z is the generator of that lattice whose free coordinate (the
    one column without a pivot) is positive.

    Integer Gauss-Jordan on the matrix with the vectors as columns, each
    row divided by its content after every step, leaves pivot row i with
    p_i at its pivot column, c_i at the free column f and 0 elsewhere, so
    a relation satisfies p_i * z_pivot(i) + c_i * z_f = 0 for every i.
    Taking z_f = L = lcm(|p_i|) makes every z_pivot(i) = -c_i * L / p_i an
    integer; dividing by the content of z leaves the primitive relation
    with z_f > 0.
    """
    if not vectors:
        return None
    k = len(vectors)
    rows = len(vectors[0])
    a = [[v[i] for v in vectors] for i in range(rows)]
    pivots: list[int] = []
    free = None
    for col in range(k):
        rank = len(pivots)
        pivot_row = next((i for i in range(rank, rows) if a[i][col]), None)
        if pivot_row is None:
            if free is not None:
                return None
            free = col
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        for i in range(rows):
            if i != rank and a[i][col]:
                a[i] = _eliminate(a[i], a[rank], col)
        pivots.append(col)
    if free is None:
        return None
    scale = lcm(*(a[i][col] for i, col in enumerate(pivots)))
    z = [0] * k
    z[free] = scale
    for i, col in enumerate(pivots):
        z[col] = -a[i][free] * scale // a[i][col]
    content = gcd(*z)
    return [x // content for x in z]
