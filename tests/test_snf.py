"""Smith normal form and abelian-group presentations.

The independent check: the product of the first k diagonal entries of the
Smith form must equal the gcd of all k x k minors of the input (the
determinantal-divisor characterization), which a brute-force minor
enumeration computes without any reference to the reduction code.

``abelian_group_from_columns`` reads its columns lazily into an echelon
basis and stops once they span; it is checked against the Smith form of
the full, unreduced matrix.  ``first_homology`` is checked against a copy
of the eager path it replaced (every distinct letter transported, then one
Smith form), and its work is bounded by counting the classes it transports
and the matrices handed to the Smith form.
"""

import io
import json
import math
import random
from itertools import combinations

import pytest

from dehn import fibration, snf
from dehn.cli import run
from dehn.constructions import theorem11_family
from dehn.fibration import AbelianGroup, Fibration, first_homology, gn_word
from dehn.homology import transported_class
from dehn.snf import abelian_group_from_columns, smith_normal_form
from dehn.surface import SurfaceSig, Twist, TwistWord, curve_classes


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


def _random_column(rng, nrows, bound=6):
    return [rng.randrange(-bound, bound + 1) for _ in range(nrows)]


def _unit_triangular_prefix(rng, nrows):
    """Columns that are unit upper triangular at a random set of pivot rows."""
    pivots = sorted(rng.sample(range(nrows), rng.randrange(1, nrows + 1)))
    cols = []
    for p in pivots:
        c = [0] * p + [rng.choice((1, -1))] + [rng.randrange(-4, 5) for _ in range(nrows - p - 1)]
        cols.append(c)
    return rng.sample(cols, len(cols))


def test_cokernel_matches_full_smith_form_on_seeded_matrices():
    rng = random.Random(20)
    gcd_pairs = [(4, 6), (6, 9), (2, 3), (6, 4), (-4, 6), (3, 2), (9, 6)]
    cases = 0
    early = 0
    for k in range(600):
        nrows = rng.randrange(1, 9)
        kind = k % 4
        if kind == 0:  # arbitrary columns
            columns = [_random_column(rng, nrows) for _ in range(rng.randrange(0, 10))]
        elif kind == 1:  # a unit-triangular prefix, then anything
            columns = (_unit_triangular_prefix(rng, nrows)
                       + [_random_column(rng, nrows, 30) for _ in range(rng.randrange(0, 4))])
        elif kind == 2:  # gcd steps: pairs whose first entry divides neither way
            columns = []
            for _ in range(rng.randrange(1, 5)):
                x, y = rng.choice(gcd_pairs)
                i = rng.randrange(nrows)
                c = [0] * nrows
                c[i] = x
                if i + 1 < nrows:
                    c[i + 1] = y
                columns.append(c)
                columns.append([v * rng.choice((1, -1)) for v in reversed(c)])
            columns += [_random_column(rng, nrows, 2) for _ in range(rng.randrange(0, 3))]
        else:  # many repeats of a few classes, as a long word gives
            classes = [_random_column(rng, nrows, 3) for _ in range(rng.randrange(1, nrows + 2))]
            columns = [rng.choice(classes) for _ in range(rng.randrange(1, 20))]
        expect = _cokernel_reference(nrows, columns)
        assert abelian_group_from_columns(nrows, columns) == expect, (nrows, columns)
        # a generator is read once, and only as far as the cokernel needs
        read = []

        def lazily():
            for c in columns:
                read.append(c)
                yield tuple(c)

        assert abelian_group_from_columns(nrows, lazily()) == expect, (nrows, columns)
        early += len(read) < len(columns)
        cases += 1
    assert cases >= 500
    assert early >= 50  # the early exit is exercised, not only the Smith form


def test_gcd_step_columns():
    # 2(2, 3) and 3(2, 3) span the primitive (2, 3)
    assert abelian_group_from_columns(2, [[4, 6], [6, 9]]) == (1, [])
    assert abelian_group_from_columns(1, [[4], [6]]) == (0, [2])
    assert abelian_group_from_columns(1, [[4], [6], [9]]) == (0, [])
    assert abelian_group_from_columns(2, [[4, 0], [6, 1], [0, 3]]) == (0, [2])
    assert abelian_group_from_columns(2, [(2, 3), (1, 0)]) == (0, [3])
    # (2, 3) then (1, 1): a gcd step makes both pivots 1, so the
    # malformed third column is never read
    assert abelian_group_from_columns(2, iter([(2, 3), (1, 1), (7, 7, 7)])) == (0, [])


def test_cokernel_stops_reading_once_it_spans():
    read = []

    def columns():
        for c in ([1, 0, 0], [5, 1, 0], [2, 2, -1], [9, 9, 9]):
            read.append(c)
            yield c

    assert abelian_group_from_columns(3, columns()) == (0, [])
    assert len(read) == 3


def _first_homology_eager(f):
    """The eager path: every distinct letter transported, one Smith form."""
    cols = [list(transported_class(t, f.fiber)) for t in dict.fromkeys(f.word.letters)]
    rank, torsion = _cokernel_reference(2 * f.fiber.genus, cols)
    return AbelianGroup(rank, tuple(torsion))


def _random_positive_word(rng, sig):
    names = list(curve_classes(sig))
    letters = []
    for _ in range(rng.randrange(1, 7)):
        conj = tuple((rng.choice(names), rng.choice((1, -1)))
                     for _ in range(rng.randrange(0, 4)))
        letters.append(Twist(rng.choice(names), 1, conj))
    return TwistWord(sig, letters)


def test_first_homology_matches_eager_path_on_seeded_words():
    rng = random.Random(3)
    torsion = 0
    for genus in (1, 2, 3):
        for boundary in (0, 1):
            sig = SurfaceSig(genus, boundary)
            for _ in range(60):
                f = Fibration("disk", _random_positive_word(rng, sig))
                expect = _first_homology_eager(f)
                assert first_homology(f) == expect, f.word
                torsion += bool(expect.torsion)
    assert torsion >= 5


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_first_homology_matches_eager_path_on_family_fillings(n):
    for f in theorem11_family(n).fillings:
        assert first_homology(f) == _first_homology_eager(f)


def test_first_homology_matches_eager_path_on_gn():
    for n in range(1, 25):
        f = gn_word(n)
        assert first_homology(f) == _first_homology_eager(f) == AbelianGroup(0)


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


@pytest.fixture
def transports(monkeypatch):
    """The letters ``first_homology`` transports, one entry per call."""
    calls = []

    def spy(twist, sig):
        calls.append(twist)
        return transported_class(twist, sig)

    monkeypatch.setattr(fibration, "transported_class", spy)
    return calls


@pytest.mark.parametrize("n", [2, 8, 16])
def test_gn_homology_runs_on_distinct_classes(snf_widths, transports, n):
    # gn(n) has 2n(4n+2) letters on 2n chain curves, whose classes are unit
    # upper triangular: they span H1 and the Smith form never runs
    assert first_homology(gn_word(n)).trivial
    assert snf_widths == []
    assert 0 < len(transports) <= 2 * n


def test_fibersum_homology_runs_on_distinct_classes(snf_widths, transports):
    g = 3
    chain = [{"base": f"{c}{i}"} for i in range(1, g + 1) for c in "ab"]
    relator = chain * (4 * g + 2)
    words = [relator[5:] + relator[:5], relator[11:] + relator[:11]]
    payload = {"surface": {"genus": g, "boundary": 0}, "words": words}
    stdout = io.StringIO()
    assert run(["fibersum"], stdin=io.StringIO(json.dumps(payload)), stdout=stdout) == 0
    assert json.loads(stdout.getvalue())["h1"] == {"rank": 0, "torsion": []}
    assert snf_widths == []
    assert 0 < len(transports) <= 2 * g
