"""Transvection action on first homology of the fiber surface."""

import random

import pytest

from dehn.homology import (
    homology_equal,
    identity_matrix,
    intersection_pairing,
    is_identity,
    is_symplectic,
    mat_mul,
    mat_vec,
    transported_class,
    transvect,
    word_matrix,
)
from dehn.surface import SurfaceSig, Twist, TwistWord, chain_word, standard_curves


def letter_matrix(t, sig):
    """Matrix of the one-letter word t."""
    return word_matrix(TwistWord(sig, (t,)))


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
        for name in standard_curves(sig):
            for sign in (1, -1):
                assert is_symplectic(letter_matrix(Twist(name, sign), sig)), name


def test_twist_matrix_inverse_pair():
    sig = SurfaceSig(2, 0)
    for name in standard_curves(sig):
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
    names = standard_curves(sig)
    for _ in range(25):
        letters = tuple(
            Twist(rng.choice(names), rng.choice((1, -1))) for _ in range(8))
        w = TwistWord(sig, letters)
        m = word_matrix(w)
        assert is_symplectic(m)
        assert mat_mul(m, word_matrix(w.inverse())) == identity_matrix(4)
