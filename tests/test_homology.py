"""Transvection action on first homology of the fiber surface."""

import random

import pytest

from dehn.homology import (
    homology_equal,
    identity_matrix,
    is_identity,
    transported_class,
    word_matrix,
)
from dehn.surface import (
    SurfaceSig,
    Twist,
    TwistWord,
    chain_word,
    curve_classes,
    homology_class,
)

from matrices import mat_mul

# ---------------------------------------------------------------------------
# The dense engine, kept as the reference for the sparse stream engine: each
# letter's class is transported through its conjugator letter by letter,
# then every letter is swept over all 2g basis vectors with full-length
# transvections.
# ---------------------------------------------------------------------------


def intersection_pairing(u, v):
    """Standard alternating form: sum of u[2i] v[2i+1] - u[2i+1] v[2i]."""
    if len(u) != len(v) or len(u) % 2:
        raise ValueError("vectors must share an even length")
    total = 0
    for i in range(0, len(u), 2):
        total += u[i] * v[i + 1] - u[i + 1] * v[i]
    return total


def transvect(x, v, sign=1):
    """Apply T_v^sign to x."""
    c = sign * intersection_pairing(x, v)
    return tuple(xi + c * vi for xi, vi in zip(x, v))


def reference_transported_class(twist, sig):
    v = homology_class(twist.base, sig)
    for name, sign in reversed(twist.conj):
        v = transvect(v, homology_class(name, sig), sign)
    return v


def reference_word_matrix(word):
    sig = word.surface
    n = 2 * sig.genus
    classes = [(reference_transported_class(t, sig), t.sign) for t in reversed(word.letters)]
    cols = []
    for j in range(n):
        x = tuple(1 if i == j else 0 for i in range(n))
        for v, s in classes:
            x = transvect(x, v, s)
        cols.append(x)
    return tuple(zip(*cols))


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def is_symplectic(m):
    """Whether m preserves the pairing."""
    n = len(m)
    cols = tuple(zip(*m))
    for i in range(n):
        for j in range(n):
            expect = 1 if (j == i + 1 and i % 2 == 0) else (-1 if (i == j + 1 and j % 2 == 0) else 0)
            if intersection_pairing(cols[i], cols[j]) != expect:
                return False
    return True


def random_word(rng, sig, length):
    """Conjugated letters with adjacent t t^-1 pairs and shared conjugators."""
    curves = tuple(curve_classes(sig))

    def plain():
        return (rng.choice(curves), rng.choice((1, -1)))

    letters = []
    while len(letters) < length:
        conj = tuple(plain() for _ in range(rng.randrange(4)))
        t = Twist(*plain(), conj)
        roll = rng.random()
        if roll < 0.25:
            letters += [t, t.inverse()]
        elif roll < 0.5:
            letters += [t, Twist(*plain(), conj)]
        else:
            letters.append(t)
    return TwistWord(sig, tuple(letters))


def letter_matrix(t, sig):
    """Matrix of the one-letter word t."""
    return word_matrix(TwistWord(sig, (t,)))


@pytest.mark.parametrize("genus", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("boundary", [0, 1])
def test_stream_engine_matches_dense_reference(genus, boundary):
    sig = SurfaceSig(genus, boundary)
    empty = TwistWord(sig, ())
    assert word_matrix(empty) == reference_word_matrix(empty) == identity_matrix(2 * genus)
    rng = random.Random(10 * genus + boundary)
    for _ in range(20):
        w = random_word(rng, sig, rng.randint(1, 12))
        assert word_matrix(w) == reference_word_matrix(w)
        for t in w.letters:
            assert transported_class(t, sig) == reference_transported_class(t, sig)


def test_intersection_pairing_basics():
    assert intersection_pairing((1, 0), (0, 1)) == 1
    assert intersection_pairing((0, 1), (1, 0)) == -1
    assert intersection_pairing((1, 0, 0, 0), (0, 0, 0, 1)) == 0
    assert intersection_pairing((1, 2), (1, 2)) == 0
    with pytest.raises(ValueError):
        intersection_pairing((1, 0, 0), (0, 1, 0))


def test_transvection_formula():
    v = (1, 0)
    assert transvect((0, 1), v) == (-1, 1)      # x + <x,v> v with <e2,e1> = -1
    assert transvect((0, 1), v, -1) == (1, 1)
    assert transvect(v, v) == v                 # fixes its own class
    # inverse pair cancels for arbitrary vectors
    rng = random.Random(1)
    for _ in range(50):
        x = tuple(rng.randrange(-5, 6) for _ in range(4))
        v = tuple(rng.randrange(-5, 6) for _ in range(4))
        assert transvect(transvect(x, v, 1), v, -1) == x


def test_transvection_matrix():
    torus = SurfaceSig(1, 0)
    # twist about the a-class: fixes it, sends the b-class to b - a
    m = letter_matrix(Twist("a1"), torus)
    assert mat_vec(m, (1, 0)) == (1, 0)
    assert mat_vec(m, (0, 1)) == (-1, 1)
    # twist about the b-class: sends the a-class to a + b
    assert mat_vec(letter_matrix(Twist("b1"), torus), (1, 0)) == (1, 1)
    # the null-homologous boundary curve acts trivially
    assert letter_matrix(Twist("delta"), SurfaceSig(2, 1)) == identity_matrix(4)


def test_matrix_comparisons():
    sig = SurfaceSig(1, 0)
    ab = TwistWord.from_names(sig, "a1 b1")
    assert is_identity(word_matrix(ab.power(5) * ab))
    assert not is_identity(word_matrix(TwistWord.from_names(sig, "a1")))


def test_word_matrix_composition_order():
    # The rightmost letter acts first, so the matrix product runs left to right.
    sig = SurfaceSig(1, 0)
    a = letter_matrix(Twist("a1"), sig)
    b = letter_matrix(Twist("b1"), sig)
    w = TwistWord.from_names(sig, "a1 b1")
    assert word_matrix(w) == mat_mul(a, b)
    x = (3, -2)
    assert mat_vec(word_matrix(w), x) == mat_vec(a, mat_vec(b, x))


def test_generator_matrices_are_symplectic():
    for sig in (SurfaceSig(1, 1), SurfaceSig(2, 1), SurfaceSig(3, 0)):
        for name in curve_classes(sig):
            for sign in (1, -1):
                assert is_symplectic(letter_matrix(Twist(name, sign), sig)), name


def test_twist_matrix_inverse_pair():
    sig = SurfaceSig(2, 0)
    for name in curve_classes(sig):
        m1 = letter_matrix(Twist(name, 1), sig)
        m2 = letter_matrix(Twist(name, -1), sig)
        assert mat_mul(m1, m2) == identity_matrix(4)


def test_conjugated_letter_uses_transported_class():
    sig = SurfaceSig(2, 0)
    t = Twist("a2", 1, (("b1", 1), ("a1", -1)))
    u = TwistWord(sig, (Twist("b1", 1), Twist("a1", -1)))
    expected = mat_vec(word_matrix(u), (0, 0, 1, 0))
    assert transported_class(t, sig) == expected
    # and the letter's matrix is the transvection about that class
    m = letter_matrix(t, sig)
    for e in identity_matrix(4):
        assert mat_vec(m, e) == transvect(e, expected)


def test_transported_class_rejects_foreign_conjugator_curves():
    sig = SurfaceSig(2, 0)
    for conj in ((("delta", 1),), (("b1", 1), ("a3", -1))):
        with pytest.raises(ValueError, match="is not valid on genus"):
            transported_class(Twist("a1", 1, conj), sig)


def test_conjugated_letter_matrix_matches_word_conjugation():
    sig = SurfaceSig(2, 0)
    conj = (("b2", -1), ("a1", 1))
    t = Twist("d2", 1, conj)
    u = TwistWord(sig, tuple(Twist(n, s) for n, s in conj))
    lhs = letter_matrix(t, sig)
    rhs = word_matrix(u * TwistWord(sig, (Twist("d2"),)) * u.inverse())
    assert lhs == rhs


def test_torus_relations_on_matrices():
    sig = SurfaceSig(1, 0)
    ab6 = chain_word(sig, 6)
    assert is_identity(word_matrix(ab6))
    a_inv = TwistWord(sig, (Twist("a1", -1),))
    b_then_ab5 = TwistWord.from_names(
        sig, ["b1"] + ["a1", "b1"] * 5)
    assert homology_equal(a_inv, b_then_ab5)
    b_inv = TwistWord(sig, (Twist("b1", -1),))
    ab5_then_a = TwistWord.from_names(sig, ["a1", "b1"] * 5 + ["a1"])
    assert homology_equal(b_inv, ab5_then_a)
    assert homology_equal(chain_word(sig, 1).inverse(), chain_word(sig, 5))


def test_hyperelliptic_relation_up_to_genus_ten():
    for n in range(1, 11):
        sig = SurfaceSig(n, 0)
        assert is_identity(word_matrix(chain_word(sig, 4 * n + 2))), n


def test_homology_equal_requires_same_surface():
    with pytest.raises(ValueError):
        homology_equal(TwistWord(SurfaceSig(1, 0)), TwistWord(SurfaceSig(2, 0)))


def test_random_words_symplectic_and_invertible():
    rng = random.Random(7)
    sig = SurfaceSig(2, 1)
    names = tuple(curve_classes(sig))
    for _ in range(25):
        letters = tuple(
            Twist(rng.choice(names), rng.choice((1, -1))) for _ in range(8))
        w = TwistWord(sig, letters)
        m = word_matrix(w)
        assert is_symplectic(m)
        assert mat_mul(m, word_matrix(w.inverse())) == identity_matrix(4)
