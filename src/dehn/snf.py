"""Integer matrix normal forms for finitely generated abelian groups.

Provides a Smith normal form over Z by invertible row/column reduction, and
a cokernel description: the group Z^rows / column-span presented by an
integer matrix, reported as a free rank plus a list of torsion orders
(each > 1, each dividing the next).  The cokernel depends only on the span,
so its columns are read lazily into an echelon basis of at most ``rows``
vectors: a repeated column reduces to zero, reading stops as soon as the
basis spans Z^rows (the quotient is then trivial), and otherwise the Smith
form runs on the basis rather than on one column per input.  A word's
vanishing cycles repeat a few curve classes many times and usually span
H1 of the fiber within its first few letters.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def smith_normal_form(rows: list[list[int]]) -> list[list[int]]:
    """Diagonalize an integer matrix by invertible row and column moves.

    Returns a new matrix (the input is not modified) in Smith form:
    diagonal, entries non-negative, each dividing the next.
    """
    m = [list(map(int, r)) for r in rows]
    if not m or not m[0]:
        return [list(r) for r in m]
    nrows, ncols = len(m), len(m[0])
    if any(len(r) != ncols for r in m):
        raise ValueError("ragged matrix")

    t = 0
    while t < min(nrows, ncols):
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if m[i][j] and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[t], m[pi] = m[pi], m[t]
        for r in m:
            r[t], r[pj] = r[pj], r[t]

        dirty = False
        for i in range(t + 1, nrows):
            if m[i][t]:
                q = m[i][t] // m[t][t]
                for j in range(t, ncols):
                    m[i][j] -= q * m[t][j]
                dirty = dirty or m[i][t] != 0
        for j in range(t + 1, ncols):
            if m[t][j]:
                q = m[t][j] // m[t][t]
                for i in range(t, nrows):
                    m[i][j] -= q * m[i][t]
                dirty = dirty or m[t][j] != 0
        if dirty:
            continue  # smaller remainders appeared; re-pick the pivot

        bad = next((i for i in range(t + 1, nrows)
                    for j in range(t + 1, ncols) if m[i][j] % m[t][t]), None)
        if bad is not None:
            for j in range(t, ncols):
                m[t][j] += m[bad][j]  # pull nondivisible content into the pivot row
            continue

        # m[t][t] divides the whole trailing block, so every later pivot is a
        # multiple of it: the diagonal is a chain, with its zeros last
        if m[t][t] < 0:
            m[t][t] = -m[t][t]
        t += 1
    return m


def _insert(basis: dict[int, list[int]], v: list[int]) -> int:
    """Add column v to the echelon basis; return how many unit pivots it adds.

    ``basis`` maps a pivot position to the one vector whose first nonzero
    entry sits there.  v is reduced against the pivots it meets, in order;
    where a pivot does not divide v's entry, the two are replaced by their
    extended-gcd combination, an invertible 2 x 2 move that leaves the span
    unchanged: the basis vector takes the gcd as its pivot and v keeps a
    zero there.  A pivot of +-1 divides everything, so it is never replaced.
    A column already in the span reduces to zero and adds nothing.
    """
    units = 0
    for i in range(len(v)):
        a = v[i]
        if not a:
            continue
        b = basis.get(i)
        if b is None:
            basis[i] = v
            return units + (1 if a in (1, -1) else 0)
        p = b[i]
        if a % p == 0:
            q = a // p
            v = [w - q * u for u, w in zip(b, v)]
            continue
        # x p + y a = g = gcd(p, a) > 0, where p does not divide a
        g, x, y = _xgcd(p, a)
        basis[i] = [x * u + y * w for u, w in zip(b, v)]
        v = [(p // g) * w - (a // g) * u for u, w in zip(b, v)]
        if g == 1:
            units += 1
    return units


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def abelian_group_from_columns(nrows: int, columns: Iterable[Sequence[int]]
                               ) -> tuple[int, list[int]]:
    """Cokernel Z^nrows / <columns> as (free rank, torsion orders).

    Each column is a length-nrows integer vector, checked as it is read.
    Columns are read one at a time into an integer echelon basis
    (``_insert``), which holds at most nrows vectors and spans what has
    been read.  Once all nrows pivots are +-1, the basis is triangular
    with a unit diagonal, so it spans Z^nrows: the cokernel is trivial and
    no further column is read.  Otherwise the Smith form runs on the basis
    vectors, and the torsion orders are its diagonal entries > 1, in
    divisibility order.
    """
    if nrows == 0:
        return 0, []
    basis: dict[int, list[int]] = {}
    units = 0
    for c in columns:
        if len(c) != nrows:
            raise ValueError("column length does not match nrows")
        units += _insert(basis, list(c))
        if units == nrows:
            return 0, []
    if not basis:
        return nrows, []
    # echelon vectors with distinct pivots are independent, so the rank of
    # the span is the basis size and the Smith form is needed for torsion
    s = smith_normal_form([list(r) for r in zip(*basis.values())])
    return nrows - len(basis), [s[i][i] for i in range(len(basis)) if s[i][i] > 1]
