"""Finite-quotient witnesses: an oracle for every engine that shares none of its passes.

A homomorphism rho from pi1 to a finite group G separates mapping classes:
rel boundary psi fixes the free group pointwise, so rho . psi != rho shows
psi != 1; on a closed surface Mod(S_g) acts on Hom(pi1, G) up to
conjugation in G (Dehn-Nielsen-Baer), so rho . psi not conjugate to rho
shows psi != 1 in Mod(S_g).  Such a rho is a witness that the two words
are unequal, so an engine must answer "false" wherever one is found, and
a "true" must have none.

G is S_4, its elements tuples.  psi is the stream of ``quotient_stream``,
with neither commutation nor chain relators removed, and it is applied as
rho <- rho . T, one twist table T at a time from the last-acting step, so
each step costs 2g short products in G and no long word is built.
"""

import random
from itertools import permutations

import pytest

from dehn import SurfaceSig, Twist, TwistWord, decide_equal
from dehn.pi1 import twist_tables
from dehn.surface import boundary_word, curve_classes, intersection, quotient_stream

S4 = tuple(permutations(range(4)))
IDENTITY = S4[0]
SAMPLES = 30
SURFACES = [(genus, boundary) for genus in (1, 2, 3) for boundary in (0, 1)]
POINT_PUSH = "the closed engine decides Mod(S_g, *) and reports point-pushes false"


def multiply(p, q):
    return tuple(p[i] for i in q)


def invert(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def evaluate(rho, word):
    """rho of a word in the signed generators 1..2g."""
    out = IDENTITY
    for x in word:
        out = multiply(out, rho[x - 1] if x > 0 else invert(rho[-x - 1]))
    return out


def sample(sig, rng):
    """A random homomorphism pi1 -> S_4, as the images of w_1 ... w_2g.

    On a closed surface w_2g is drawn from the elements that make the
    boundary relator trivial, and the others are redrawn if there are none.
    """
    n = 2 * sig.genus
    while True:
        head = tuple(rng.choice(S4) for _ in range(n - 1))
        if sig.boundary:
            return head + (rng.choice(S4),)
        last = [x for x in S4 if evaluate(head + (x,), boundary_word(sig.genus)) == IDENTITY]
        if last:
            return head + (rng.choice(last),)


def witness(w1, w2, rng):
    """A homomorphism that psi = w2^-1 . w1 moves, or None after SAMPLES draws."""
    sig = w1.surface
    psi = quotient_stream(w1, w2)
    tables = twist_tables(sig.genus)
    for _ in range(SAMPLES):
        rho = moved = sample(sig, rng)
        for step in reversed(psi):
            images = tables[step].images
            moved = tuple(evaluate(moved, image) for image in images)
        if sig.boundary:
            if moved != rho:
                return rho
        elif all(tuple(multiply(multiply(invert(g), r), g) for r in rho) != moved
                 for g in S4):
            return rho
    return None


def curves(sig):
    return [c for c in curve_classes(sig) if c != "delta"]


def random_word(sig, rng):
    return [Twist(rng.choice(curves(sig)), rng.choice((1, -1))) for _ in range(rng.randint(3, 8))]


def relator(sig, rng):
    """A braid or commutation relator of two distinct curves, conjugated by a short word."""
    c, d = rng.sample(curves(sig), 2)
    if intersection(c, d, sig):
        steps = [(c, 1), (d, 1), (c, 1), (d, -1), (c, -1), (d, -1)]
    else:
        steps = [(c, 1), (d, 1), (c, -1), (d, -1)]
    u = tuple((rng.choice(curves(sig)), rng.choice((1, -1))) for _ in range(rng.randint(0, 2)))
    return [Twist(name, sign, u) for name, sign in steps]


def pairs(genus, boundary):
    """25 seeded words on the surface, each with its three variants.

    Returns (inserted, flipped, swapped): the word against itself with a
    relator inserted, with one sign flipped, and (where it holds d2 or e2)
    with one d2 swapped for e2 or back.
    """
    sig = SurfaceSig(genus, boundary)
    rng = random.Random(f"witness/{genus}/{boundary}")
    inserted, flipped, swapped = [], [], []
    for _ in range(25):
        letters = random_word(sig, rng)
        word = TwistWord(sig, tuple(letters))
        at = rng.randint(0, len(letters))
        inserted.append((word, TwistWord(sig, tuple(letters[:at] + relator(sig, rng)
                                                     + letters[at:]))))
        i = rng.randrange(len(letters))
        flipped.append((word, TwistWord(sig, tuple(letters[:i] + [letters[i].inverse()]
                                                   + letters[i + 1:]))))
        spots = [i for i, t in enumerate(letters) if t.base in ("d2", "e2")]
        if spots:
            i = rng.choice(spots)
            other = Twist("e2" if letters[i].base == "d2" else "d2", letters[i].sign)
            swapped.append((word, TwistWord(sig, tuple(letters[:i] + [other]
                                                       + letters[i + 1:]))))
    return inserted, flipped, swapped


@pytest.mark.parametrize("genus, boundary", SURFACES)
def test_an_inserted_relator_is_true_and_has_no_witness(genus, boundary):
    rng = random.Random(f"inserted/{genus}/{boundary}")
    for w1, w2 in pairs(genus, boundary)[0]:
        assert decide_equal(w1, w2)[0] == "true", (w1, w2)
        assert witness(w1, w2, rng) is None, (w1, w2)


@pytest.mark.parametrize("genus, boundary", SURFACES)
def test_a_flipped_sign_has_a_witness_and_is_false(genus, boundary):
    rng = random.Random(f"flipped/{genus}/{boundary}")
    for w1, w2 in pairs(genus, boundary)[1]:
        assert witness(w1, w2, rng) is not None, (w1, w2)
        assert decide_equal(w1, w2)[0] == "false", (w1, w2)


@pytest.mark.parametrize("genus, boundary", [(2, 1), (3, 0), (3, 1)])
def test_a_swap_of_d2_and_e2_has_a_witness_and_is_false(genus, boundary):
    rng = random.Random(f"swapped/{genus}/{boundary}")
    swapped = pairs(genus, boundary)[2]
    assert len(swapped) >= 10
    for w1, w2 in swapped:
        assert witness(w1, w2, rng) is not None, (w1, w2)
        assert decide_equal(w1, w2)[0] == "false", (w1, w2)


def test_a_swap_of_d2_and_e2_has_no_witness_on_closed_genus_two():
    # d2 and e2 are isotopic on the closed genus-2 surface, so every swap
    # is equal in Mod(S_2) and no homomorphism can separate it; the
    # engine's "false" comes with no witness, as the invariant allows
    rng = random.Random("swapped/2/0")
    swapped = pairs(2, 0)[2]
    assert len(swapped) >= 10
    for w1, w2 in swapped:
        assert witness(w1, w2, rng) is None, (w1, w2)


@pytest.mark.xfail(strict=True, reason=POINT_PUSH)
def test_a_swap_of_d2_and_e2_is_true_on_closed_genus_two():
    for w1, w2 in pairs(2, 0)[2]:
        assert decide_equal(w1, w2)[0] == "true", (w1, w2)
