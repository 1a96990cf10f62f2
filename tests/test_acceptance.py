"""Acceptance battery: one test per release criterion, tolerances inline.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Timing bounds are generous upper limits asserted inside the
tests; everything else is exact integer equality.
"""

import random
import time

import pytest

from dehn import (
    SurfaceSig,
    Twist,
    TwistWord,
    chain_word,
    decide_equal,
    euler_characteristic,
    first_homology,
    inverse_twist_expansion,
    is_allowable,
    mapping_torus_homology,
    positivize,
    prop9_factor,
    swap_matrix,
    theorem11_family,
    trefoil_completions,
)
from dehn.cli import run as run_cli
from dehn.fibration import AbelianGroup
from dehn.homology import (
    homology_equal,
    identity_matrix,
    word_matrix,
)
from dehn.pi1 import ENGINE_PI1
from dehn.surface import curve_classes

from matrices import mat_mul

TORUS = SurfaceSig(1, 0)
T1 = SurfaceSig(1, 1)


def word(sig, names):
    return TwistWord.from_names(sig, names)


def test_criterion_01_torus_relations_on_matrices():
    """Four torus relations hold on 2x2 matrices, under 1 ms each (warm)."""
    a, b, ab = word(TORUS, "a1"), word(TORUS, "b1"), word(TORUS, "a1 b1")
    relations = [
        (ab.power(6), TwistWord(TORUS, ())),
        (a.inverse(), b * ab.power(5)),
        (b.inverse(), ab.power(5) * a),
        (ab.inverse(), ab.power(5)),
    ]
    for lhs, rhs in relations:  # warm-up pass
        assert word_matrix(lhs) == word_matrix(rhs)
    for lhs, rhs in relations:
        t0 = time.perf_counter()
        assert word_matrix(lhs) == word_matrix(rhs)
        assert time.perf_counter() - t0 < 0.001


def test_criterion_02_boundary_twist_identities_exact():
    """Chain-power = boundary-twist identities rel boundary, within 60 s.

    A cap-exceeded "unknown" verdict fails the test: resource exhaustion
    is not a pass.
    """
    t0 = time.perf_counter()
    assert decide_equal(word(T1, "a1 b1").power(6), word(T1, "delta"))[0] == "true"
    sig2 = SurfaceSig(2, 1)
    assert decide_equal(chain_word(sig2, 10), word(sig2, "delta"))[0] == "true"
    assert time.perf_counter() - t0 < 60.0


def test_criterion_03_hyperelliptic_identity_on_homology():
    """(full chain)^(4n+2) acts trivially on H1 for n <= 10, within 1 s."""
    t0 = time.perf_counter()
    for n in range(1, 11):
        sig = SurfaceSig(n, 1)
        assert word_matrix(chain_word(sig, 4 * n + 2)) == identity_matrix(2 * n)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_04_chain_relation_selftest():
    """(a1 b1 a2)^4 = d2 e2 on (g=2, b=1) under both engines."""
    sig = SurfaceSig(2, 1)
    lhs, rhs = word(sig, "a1 b1 a2").power(4), word(sig, "d2 e2")
    assert homology_equal(lhs, rhs)
    assert decide_equal(lhs, rhs) == ("true", ENGINE_PI1)


def test_criterion_05_factorization_counts():
    """(chain)^4 = (a1 b1 a2)^4 . psi with 8n-12 positive nonseparating
    letters; faithful verification at n=2, homology verification n <= 5."""
    for n in (2, 3, 4, 5):
        sig = SurfaceSig(n, 1)
        prefix, psi, verdict = prop9_factor(n)
        assert verdict[0] == "true"
        assert len(psi) == 8 * n - 12
        assert psi.all_positive()
        assert all(t.base != "delta" for t in psi.letters)
        assert homology_equal(prefix * psi, chain_word(sig, 4))
        if n == 2:
            assert decide_equal(prefix * psi, chain_word(sig, 4))[0] == "true"


def test_criterion_06_filling_families():
    """Family chis descend by 10 from 8n^2+2n+1; members verified equal,
    H1 trivial, and allowable (n = 2 and n = 3)."""
    fam2, trade2 = theorem11_family(2)
    assert [euler_characteristic(f) for f in fam2] == [37, 27, 17]
    assert trade2[0] == "true"
    assert all(first_homology(f).trivial for f in fam2)
    assert all(is_allowable(f) for f in fam2)

    fam3, trade3 = theorem11_family(3)
    assert [euler_characteristic(f) for f in fam3] == [79, 69, 59, 49]
    assert trade3[0] == "true"
    assert all(first_homology(f).trivial for f in fam3)
    # explicit homology certification for every member
    base = fam3[0].word
    assert all(homology_equal(f.word, base) for f in fam3[1:])


def test_criterion_07_trefoil_completions():
    """The doubled completion (24 letters, chi 24) and the short one
    (12 letters, chi 12) agree as torus mapping classes."""
    big, small, verdict = trefoil_completions()
    assert verdict[0] == "true"
    assert (big.letter_count, euler_characteristic(big)) == (24, 24)
    assert (small.letter_count, euler_characteristic(small)) == (12, 12)
    assert decide_equal(big.word, small.word)[0] == "true"  # faithful at genus 1


def test_criterion_08_positivization_battery():
    """100 random signed words (length <= 10, genus <= 3, closed fiber):
    output all-positive, homology-equal to input, of the exact predicted
    length."""
    rng = random.Random(20260816)
    for _ in range(100):
        g = rng.randrange(1, 4)
        sig = SurfaceSig(g, 0)
        curves = [c for c in curve_classes(sig) if c != "delta"]
        k = rng.randrange(11)
        names = [(rng.choice(curves), rng.choice((1, -1))) for _ in range(k)]
        w = TwistWord.from_names(sig, names)
        rep = positivize(w, engine="homology")
        assert rep.output.all_positive()
        assert homology_equal(w, rep.output)
        negatives = sum(1 for t in w.letters if t.sign == -1)
        expansion = len(inverse_twist_expansion(sig))
        assert len(rep.output) == (k - negatives) + negatives * expansion
        assert rep.verdict[0] != "false"


def test_criterion_09_doubled_monodromy_symmetry():
    """For phi in {a1, a1 b1, (a1 b1)^3}: the two halves of the doubled
    word commute on homology, and the swap involution conjugates the
    doubled action to its exact inverse."""
    from dehn import branched_double_cover

    s = swap_matrix()
    for names in (["a1"], ["a1", "b1"], ["a1", "b1"] * 3):
        phi = word(T1, names)
        w = branched_double_cover(phi)
        k = len(phi)
        m1 = word_matrix(TwistWord(w.surface, w.letters[:k]))
        m2 = word_matrix(TwistWord(w.surface, w.letters[k:]))
        assert mat_mul(m1, m2) == mat_mul(m2, m1)
        m = word_matrix(w)
        assert mat_mul(mat_mul(s, m), s) == word_matrix(w.inverse())


def test_criterion_10_mapping_torus_of_a_single_twist():
    """H1 of the torus bundle with one positive twist: rank 2, no torsion."""
    assert mapping_torus_homology(word(TORUS, "a1")) == AbelianGroup(2)


def test_criterion_11_engine_matches_independent_oracle():
    """The free-group engine induces the same equality partition as the
    independent string-rewriting oracle on all words of length <= 4 over
    the four signed torus twists."""
    from test_oracle_pi1 import _all_words, _oracle_images, _partition
    from dehn.pi1 import apply_word

    words = _all_words(4)
    oracle_keys = [_oracle_images(w) for w in words]
    engine_keys = []
    for w in words:
        tw = TwistWord(T1, tuple(Twist(n, s) for n, s in w))
        engine_keys.append(tuple(apply_word(tw, (j,)) for j in (1, 2)))
    assert _partition(oracle_keys) == _partition(engine_keys)


def test_criterion_12_cli_reports_are_deterministic():
    """Byte-identical reports across repeated runs of the same request."""
    import io
    import json

    requests = [
        (["verify"], {
            "surface": {"genus": 2, "boundary": 1},
            "words": [
                [{"base": c} for c in ["a1", "b1", "a2", "b2"] * 10],
                [{"base": "delta"}],
            ],
        }),
        (["positivize"], {
            "surface": {"genus": 1, "boundary": 0},
            "word": [{"base": "a1", "sign": -1}, {"base": "b1"}],
        }),
        (["family", "--n", "2"], None),
        (["gn", "--n", "2"], None),
    ]
    for argv, payload in requests:
        outputs = []
        codes = []
        for _ in range(2):
            stdin = io.StringIO("" if payload is None else json.dumps(payload))
            stdout = io.StringIO()
            codes.append(run_cli(argv, stdin=stdin, stdout=stdout))
            outputs.append(stdout.getvalue())
        assert outputs[0] == outputs[1]
        assert codes[0] == codes[1]
        json.loads(outputs[0])  # and each report is valid JSON
