"""Fibration objects, their invariants, doubling, and fiber sums."""

import random

import pytest

from dehn import (
    AbelianGroup,
    Fibration,
    SurfaceSig,
    Twist,
    TwistWord,
    chain_word,
    double_report,
    euler_characteristic,
    fiber_sum,
    first_homology,
    gn_word,
    is_allowable,
    positivize,
    theorem11_family,
)
from dehn.homology import is_identity, transported_class, word_matrix
from dehn.snf import smith_normal_form
from dehn.surface import curve_classes

T1 = SurfaceSig(1, 1)
TORUS = SurfaceSig(1, 0)


def word(sig, names):
    return TwistWord.from_names(sig, names)


def test_abelian_group_validation():
    assert AbelianGroup(0).trivial
    assert not AbelianGroup(1).trivial
    assert not AbelianGroup(0, (2,)).trivial
    assert AbelianGroup(1, (2, 4)).torsion == (2, 4)
    with pytest.raises(ValueError):
        AbelianGroup(-1)
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 2))  # not a divisibility chain
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    # a zero order is rejected as an order, not divided by
    for torsion in ((0, 5), (0, 0), (0,)):
        with pytest.raises(ValueError, match="at least 2"):
            AbelianGroup(0, torsion)


def test_fibration_validation():
    with pytest.raises(ValueError, match="base"):
        Fibration("torus", word(T1, "a1"))
    with pytest.raises(ValueError, match="positive"):
        Fibration("disk", word(T1, "a1^-1"))
    with pytest.raises(ValueError, match="closed"):
        Fibration("sphere", word(T1, "a1"))
    with pytest.raises(ValueError, match="homology"):
        Fibration("sphere", word(TORUS, "a1"))
    # a valid sphere word: the full relation
    f = Fibration("sphere", chain_word(TORUS, 6))
    assert f.letter_count == 12


def test_euler_characteristic():
    assert euler_characteristic(Fibration("disk", word(T1, "a1 b1"))) == 1
    sig2 = SurfaceSig(2, 1)
    assert euler_characteristic(Fibration("disk", chain_word(sig2, 10))) == 37
    assert euler_characteristic(Fibration("sphere", chain_word(TORUS, 6))) == 12
    assert euler_characteristic(Fibration("sphere", chain_word(TORUS, 12))) == 24


def test_first_homology_and_allowability():
    assert first_homology(Fibration("disk", word(T1, "a1 b1"))) == AbelianGroup(0)
    assert first_homology(Fibration("disk", word(T1, "a1"))) == AbelianGroup(1)
    assert first_homology(Fibration("disk", word(T1, "a1 a1"))) == AbelianGroup(1)
    assert first_homology(Fibration("disk", TwistWord(T1, ()))) == AbelianGroup(2)

    assert is_allowable(Fibration("disk", word(T1, "a1 b1")))
    delta_fib = Fibration("disk", word(T1, "delta"))
    assert transported_class(delta_fib.word.letters[0], T1) == (0, 0)
    assert not is_allowable(delta_fib)
    # a conjugated letter contributes its transported class
    t = Twist("a1", 1, (("b1", 1),))
    f = Fibration("disk", TwistWord(T1, (t,)))
    assert transported_class(t, T1) == (1, 1)
    assert first_homology(f) == AbelianGroup(1)


@pytest.mark.parametrize("sig", [T1, TORUS, SurfaceSig(2, 1), SurfaceSig(3, 0)])
def test_allowability_ignores_conjugators(sig):
    # reference: every letter's class transported through its conjugator
    def reference(f):
        zero = (0,) * (2 * f.fiber.genus)
        return all(transported_class(t, f.fiber) != zero for t in f.word.letters)

    curves = tuple(curve_classes(sig))
    rng = random.Random(f"allowable/{sig.genus}/{sig.boundary}")
    seen = set()
    for _ in range(60):
        letters = []
        for _ in range(rng.randint(1, 4)):
            conj = tuple((rng.choice(curves), rng.choice((1, -1)))
                         for _ in range(rng.randint(0, 4)))
            # delta is drawn often, so words with and without one both occur
            base = "delta" if "delta" in curves and rng.random() < 0.2 else rng.choice(curves)
            letters.append(Twist(base, 1, conj))
        f = Fibration("disk", TwistWord(sig, tuple(letters)))
        assert is_allowable(f) == reference(f), letters
        seen.add(reference(f))
    assert seen == ({True, False} if sig.boundary else {True})


@pytest.mark.parametrize("sig", [SurfaceSig(g, b) for g in (1, 2, 3) for b in (0, 1)])
def test_first_homology_matches_a_dense_smith_form_in_any_order(sig):
    # reference: every letter's transported class, one column each, through
    # the Smith form of the whole matrix; no class is skipped or deduplicated
    n = 2 * sig.genus

    def reference(letters):
        cols = [transported_class(t, sig) for t in letters]
        if not cols:
            return AbelianGroup(n)
        s = smith_normal_form([list(row) for row in zip(*cols)])
        diagonal = [s[i][i] for i in range(min(n, len(cols)))]
        return AbelianGroup(n - sum(1 for d in diagonal if d),
                            tuple(d for d in diagonal if d > 1))

    curves = tuple(curve_classes(sig))
    rng = random.Random(f"first_homology/{sig.genus}/{sig.boundary}")
    seen = set()
    for _ in range(60):
        letters = []
        for _ in range(rng.randint(0, n + 2)):
            conj = tuple((rng.choice(curves), rng.choice((1, -1)))
                         for _ in range(rng.choice((0, 0, 1, 2, 3))))
            base = "delta" if "delta" in curves and rng.random() < 0.2 else rng.choice(curves)
            letters.append(Twist(base, 1, conj))
        expected = reference(letters)
        assert first_homology(Fibration("disk", TwistWord(sig, tuple(letters)))) == expected
        rng.shuffle(letters)
        assert first_homology(Fibration("disk", TwistWord(sig, tuple(letters)))) == expected
        seen.add(expected)
    assert len(seen) >= 3  # several ranks, with torsion on most surfaces


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_family_homology_transports_no_conjugated_letter(monkeypatch, n):
    # the plain letters of every filling span H1(fiber), and they are read first
    import dehn.fibration

    read = []

    def spy(t, sig):
        read.append(t)
        return transported_class(t, sig)

    monkeypatch.setattr(dehn.fibration, "transported_class", spy)
    for f in theorem11_family(n)[0]:
        read.clear()
        assert first_homology(f).trivial
        assert all(not t.conj for t in read)
        assert len(read) <= 2 * n + 1


def test_double_trefoil():
    palf = Fibration("disk", word(T1, "a1 b1"))
    f, verdict = double_report(palf)
    assert f.base == "sphere"
    assert f.fiber == TORUS
    assert f.letter_count == 24
    assert verdict[0] == "true"
    assert euler_characteristic(f) == 24


def test_double_empty_word():
    palf = Fibration("disk", TwistWord(T1, ()))
    assert double_report(palf)[0].letter_count == 0


def test_double_random_battery():
    rng = random.Random(29)
    curves = ("a1", "b1")
    for _ in range(8):
        k = rng.randrange(1, 5)
        palf = Fibration("disk",
                         TwistWord.from_names(T1, [rng.choice(curves) for _ in range(k)]))
        f, verdict = double_report(palf)
        assert f.letter_count == 12 * k
        assert f.word.all_positive()
        assert is_identity(word_matrix(f.word))
        assert verdict[0] == "true"


def test_double_rejections():
    with pytest.raises(ValueError, match="disk"):
        double_report(Fibration("sphere", chain_word(TORUS, 6)))
    with pytest.raises(ValueError, match="one-boundary"):
        double_report(Fibration("disk", word(TORUS, "a1")))
    with pytest.raises(ValueError, match="allowable"):
        double_report(Fibration("disk", word(T1, "delta")))


def test_fiber_sum():
    e1 = gn_word(1)
    summed = fiber_sum(e1, e1)
    assert summed.letter_count == 24
    assert euler_characteristic(summed) == 24
    assert first_homology(summed).trivial
    # associativity on the nose
    assert fiber_sum(fiber_sum(e1, e1), e1) == fiber_sum(e1, fiber_sum(e1, e1))
    with pytest.raises(ValueError, match="sphere"):
        fiber_sum(e1, Fibration("disk", word(T1, "a1")))
    with pytest.raises(ValueError, match="different surfaces"):
        fiber_sum(e1, gn_word(2))


def test_gn_word():
    e1 = gn_word(1)
    assert e1.fiber == TORUS
    assert e1.letter_count == 12
    assert euler_characteristic(e1) == 12
    e2 = gn_word(2)
    assert e2.letter_count == 40
    assert euler_characteristic(e2) == 36
    assert first_homology(e2).trivial
    with pytest.raises(ValueError):
        gn_word(0)


@pytest.mark.xfail(strict=True, reason="the sphere check reads homology only")
def test_sphere_fibration_needs_trivial_monodromy():
    # d2 e2^-1 on the closed genus-3 surface is a bounding-pair map: it acts
    # trivially on homology but is not the identity mapping class, so its
    # positivization is no sphere fibration (today: accepted, chi 76)
    closed3 = SurfaceSig(3, 0)
    rep = positivize(word(closed3, "d2 e2^-1"))
    with pytest.raises(ValueError):
        Fibration("sphere", rep.output)


def test_double_never_rechecks_the_sphere_homology(monkeypatch):
    # the doubled word is trivial, and decide_equal answers "false" on every
    # engine when the positivization acts otherwise on homology, so under
    # the homology engine at genus 2 the "unknown" verdict is no reason to
    # check the positive word's homology again
    import dehn.fibration

    calls = []

    def spy(w):
        calls.append(w)
        return word_matrix(w)

    monkeypatch.setattr(dehn.fibration, "word_matrix", spy)
    sig = SurfaceSig(2, 1)
    palf = Fibration("disk", word(sig, "a1 b2"))
    for engine, expected in (("auto", "true"), ("homology", "unknown")):
        calls.clear()
        f, verdict = double_report(palf, engine=engine)
        assert verdict[0] == expected
        assert calls == []
        assert is_identity(word_matrix(f.word))
    calls.clear()
    assert double_report(Fibration("disk", word(T1, "a1 b1")))[-1][0] == "true"
    assert calls == []
