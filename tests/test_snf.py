"""Smith normal form and abelian-group presentations.

The independent check: the product of the first k diagonal entries of the
Smith form must equal the gcd of all k x k minors of the input (the
determinantal-divisor characterization), which a brute-force minor
enumeration computes without any reference to the reduction code.

``abelian_group_from_columns`` reduces its columns to distinct classes up
to sign before the Smith form runs; it is checked against the Smith form of
the full, unreduced matrix, and its work is bounded by counting the columns
the Smith form receives.
"""

import io
import json
import math
import random
from itertools import combinations

import pytest

from dehn import snf
from dehn.cli import run
from dehn.fibration import first_homology, gn_word
from dehn.snf import abelian_group_from_columns, smith_normal_form


def _minor_gcd(m, k):
    nrows, ncols = len(m), len(m[0])
    g = 0
    for rows in combinations(range(nrows), k):
        for cols in combinations(range(ncols), k):
            g = math.gcd(g, _det([[m[i][j] for j in cols] for i in rows]))
    return g


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(sub)
    return total


def test_known_forms():
    assert smith_normal_form([[2, 4], [6, 8]]) == [[2, 0], [0, 4]]
    assert smith_normal_form([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]
    assert smith_normal_form([[0, 0], [0, 0]]) == [[0, 0], [0, 0]]
    assert smith_normal_form([[6]]) == [[6]]
    assert smith_normal_form([[-6]]) == [[6]]
    # classic 2 x 2 with nontrivial divisor chain
    assert smith_normal_form([[2, 0], [0, 3]]) == [[1, 0], [0, 6]]


def test_rectangular_and_degenerate():
    s = smith_normal_form([[2, 4, 6]])
    assert s == [[2, 0, 0]]
    s = smith_normal_form([[2], [4], [6]])
    assert s == [[2], [0], [0]]
    assert smith_normal_form([]) == []
    assert smith_normal_form([[]]) == [[]]


def test_input_not_mutated():
    m = [[2, 4], [6, 8]]
    smith_normal_form(m)
    assert m == [[2, 4], [6, 8]]


def test_random_matrices_satisfy_determinantal_divisors():
    rng = random.Random(11)
    for _ in range(60):
        nrows = rng.randrange(1, 5)
        ncols = rng.randrange(1, 5)
        m = [[rng.randrange(-9, 10) for _ in range(ncols)] for _ in range(nrows)]
        s = smith_normal_form(m)
        diag = [s[i][i] for i in range(min(nrows, ncols))]
        # diagonal, non-negative, divisibility chain
        for i in range(nrows):
            for j in range(ncols):
                if i != j:
                    assert s[i][j] == 0
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert a == 0 or b % a == 0 or b == 0
            if a == 0:
                assert b == 0
        # determinantal divisors match the input's minor gcds
        prod = 1
        for k, d in enumerate(diag, start=1):
            prod *= d
            assert abs(prod) == _minor_gcd(m, k), (m, s, k)


def test_abelian_group_from_columns():
    assert abelian_group_from_columns(2, []) == (2, [])
    assert abelian_group_from_columns(0, []) == (0, [])
    assert abelian_group_from_columns(1, [[2]]) == (0, [2])
    assert abelian_group_from_columns(2, [[1, 0]]) == (1, [])
    assert abelian_group_from_columns(2, [[2, 0], [0, 2]]) == (0, [2, 2])
    assert abelian_group_from_columns(2, [[2, 0], [0, 3]]) == (0, [6])
    assert abelian_group_from_columns(3, [[1, 0, 0], [0, 2, 0]]) == (1, [2])
    with pytest.raises(ValueError):
        abelian_group_from_columns(2, [[1, 2, 3]])


def test_abelian_group_redundant_columns():
    # extra dependent columns change nothing
    assert abelian_group_from_columns(2, [[1, 0], [2, 0], [3, 0]]) == (1, [])
    # an imprimitive single column leaves torsion: Z^2 / <(4,6)> = Z + Z/2
    assert abelian_group_from_columns(2, [[4, 6]]) == (1, [2])
    # adding the primitive half kills the torsion
    assert abelian_group_from_columns(2, [[4, 6], [2, 3]]) == (1, [])


def _cokernel_reference(nrows, columns):
    """Z^nrows / <columns> from the Smith form of the full matrix."""
    if not columns:
        return nrows, []
    s = smith_normal_form([[c[i] for c in columns] for i in range(nrows)])
    diag = [s[i][i] for i in range(min(nrows, len(columns)))]
    return nrows - sum(1 for d in diag if d), [d for d in diag if d > 1]


def test_cokernel_ignores_repeats_signs_order_and_zero_columns():
    rng = random.Random(7)
    for _ in range(200):
        nrows = rng.randrange(1, 6)
        columns = [[rng.randrange(-6, 7) for _ in range(nrows)]
                   for _ in range(rng.randrange(0, 6))]
        expect = _cokernel_reference(nrows, columns)
        assert abelian_group_from_columns(nrows, columns) == expect
        duplicated = columns + [rng.choice(columns) for _ in columns]
        negated = [[-x for x in c] if rng.random() < 0.5 else c for c in columns]
        shuffled = rng.sample(columns, len(columns))
        padded = columns + [[0] * nrows for _ in range(rng.randrange(1, 4))]
        for variant in (duplicated, negated, shuffled, padded):
            assert abelian_group_from_columns(nrows, variant) == expect, (nrows, variant)
            assert _cokernel_reference(nrows, variant) == expect


def test_column_length_checked_before_reduction():
    # a zero column of the wrong length is still an error
    with pytest.raises(ValueError):
        abelian_group_from_columns(2, [[1, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        abelian_group_from_columns(2, [[1, 0], [1, 0], [1]])
    assert abelian_group_from_columns(2, [[0, 0], [0, 0]]) == (2, [])


@pytest.fixture
def snf_widths(monkeypatch):
    """The column count of every matrix handed to the Smith form."""
    widths = []
    real = snf.smith_normal_form

    def spy(rows):
        widths.append(len(rows[0]) if rows else 0)
        return real(rows)

    monkeypatch.setattr(snf, "smith_normal_form", spy)
    return widths


@pytest.mark.parametrize("n", [2, 8, 16])
def test_gn_homology_runs_on_distinct_classes(snf_widths, n):
    # gn(n) has 2n(4n+2) letters on 2n distinct chain curves
    assert first_homology(gn_word(n)).trivial
    assert snf_widths and max(snf_widths) <= 2 * n


def test_fibersum_homology_runs_on_distinct_classes(snf_widths):
    g = 3
    chain = [{"base": f"{c}{i}"} for i in range(1, g + 1) for c in "ab"]
    relator = chain * (4 * g + 2)
    words = [relator[5:] + relator[:5], relator[11:] + relator[:11]]
    payload = {"surface": {"genus": g, "boundary": 0}, "words": words}
    stdout = io.StringIO()
    assert run(["fibersum"], stdin=io.StringIO(json.dumps(payload)), stdout=stdout) == 0
    assert json.loads(stdout.getvalue())["h1"] == {"rank": 0, "torsion": []}
    assert snf_widths and max(snf_widths) <= 2 * g
