"""Integer matrix normal forms for finitely generated abelian groups.

Provides a Smith normal form over Z by invertible row/column reduction, and
a cokernel description: the group Z^rows / column-span presented by an
integer matrix, reported as a free rank plus a list of torsion orders
(each > 1, each dividing the next).  The cokernel depends only on the span,
so its columns are first reduced to distinct classes up to sign: a word's
vanishing cycles repeat a few curve classes many times, and the Smith form
then runs on one column per class rather than one per letter.
"""

from __future__ import annotations


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


def abelian_group_from_columns(nrows: int, columns: list[list[int]]) -> tuple[int, list[int]]:
    """Cokernel Z^nrows / <columns> as (free rank, torsion orders).

    Each column is a length-nrows integer vector.  The span is reduced to
    distinct classes up to sign before the Smith form runs: zero columns
    are dropped, each column is taken with its first nonzero entry
    positive, and repeats are dropped (first-seen order is kept).  Torsion
    orders are the diagonal entries > 1 of the Smith form, in divisibility
    order.
    """
    if nrows == 0:
        return 0, []
    if not columns:
        return nrows, []
    if any(len(c) != nrows for c in columns):
        raise ValueError("column length does not match nrows")
    distinct = {}  # a dict keeps first-seen order
    for c in columns:
        lead = next((x for x in c if x), 0)
        if lead:
            distinct[tuple(c) if lead > 0 else tuple(-x for x in c)] = None
    rows = [list(r) for r in zip(*distinct)]
    s = smith_normal_form(rows)
    diag = [s[i][i] for i in range(min(nrows, len(distinct)))]
    rank = nrows - sum(1 for v in diag if v)
    torsion = [v for v in diag if v > 1]
    return rank, torsion
