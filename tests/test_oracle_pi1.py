"""Independent brute-force oracle for the free-group engine at genus 1.

The oracle below was written before the optimized engine and shares no code
with it.  It realizes the two torus twists by the textbook substitutions on
the free group F(x, y),

    twist about the x-curve:  x -> x,      y -> y x
    twist about the y-curve:  x -> x y^-1, y -> y

applies words letter-by-letter (rightmost letter first), and decides equality
of mapping classes rel boundary by comparing the reduced images of both
generators.  The test enumerates every word of length <= 4 over
{a1, a1^-1, b1, b1^-1} and checks that the oracle's equality partition
coincides with the engine's.
"""

from itertools import product

import pytest

from dehn.pi1 import ENGINE_PI1, apply_word, decide_equal
from dehn.surface import SurfaceSig, Twist, TwistWord

# ---------------------------------------------------------------------------
# oracle: strings over the alphabet x, X, y, Y (capital = inverse)

_INV = {"x": "X", "X": "x", "y": "Y", "Y": "y"}

_ORACLE_TABLES = {
    ("a1", 1): {"x": "x", "y": "yx"},
    ("a1", -1): {"x": "x", "y": "yX"},
    ("b1", 1): {"x": "xY", "y": "y"},
    ("b1", -1): {"x": "xy", "y": "y"},
}


def _oracle_reduce(s):
    out = []
    for ch in s:
        if out and out[-1] == _INV[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def _oracle_apply_letter(name, sign, s):
    table = _ORACLE_TABLES[(name, sign)]
    image = []
    for ch in s:
        if ch in table:
            image.append(table[ch])
        else:  # inverse generator: reversed, inverted image of the plain one
            plain = table[_INV[ch]]
            image.append("".join(_INV[c] for c in reversed(plain)))
    return _oracle_reduce("".join(image))


def _oracle_images(letters):
    """Images of (x, y) under the word; rightmost letter acts first."""
    x, y = "x", "y"
    for name, sign in reversed(letters):
        x = _oracle_apply_letter(name, sign, x)
        y = _oracle_apply_letter(name, sign, y)
    return x, y


def _all_words(max_len):
    alphabet = [("a1", 1), ("a1", -1), ("b1", 1), ("b1", -1)]
    words = [()]
    for k in range(1, max_len + 1):
        words.extend(product(alphabet, repeat=k))
    return words


def _partition(keys):
    """Group word indices by image key; return a canonical set of blocks."""
    blocks = {}
    for idx, key in enumerate(keys):
        blocks.setdefault(key, []).append(idx)
    return frozenset(frozenset(b) for b in blocks.values())


@pytest.fixture(scope="module")
def words():
    return _all_words(4)


def test_oracle_is_consistent_on_known_relations():
    # braid relation and a deliberately false pair, checked in the oracle only
    aba = [("a1", 1), ("b1", 1), ("a1", 1)]
    bab = [("b1", 1), ("a1", 1), ("b1", 1)]
    assert _oracle_images(aba) == _oracle_images(bab)
    assert _oracle_images([("a1", 1)]) != _oracle_images([("b1", 1)])
    # inverse pair cancels
    assert _oracle_images([("a1", 1), ("a1", -1)]) == ("x", "y")


def test_engine_equality_matches_oracle_partition(words):
    sig = SurfaceSig(1, 1)

    oracle_keys = [_oracle_images(w) for w in words]

    engine_keys = []
    for w in words:
        tw = TwistWord(sig, tuple(Twist(n, s) for n, s in w))
        engine_keys.append(tuple(apply_word(tw, (j,)) for j in (1, 2)))

    assert _partition(oracle_keys) == _partition(engine_keys)


def test_engine_equal_agrees_with_oracle_on_sampled_pairs(words):
    # direct spot-check of decide_equal against the oracle on a
    # deterministic sample of pairs (the full quadratic comparison is done
    # via the partition above)
    sig = SurfaceSig(1, 1)
    sample = words[:: max(1, len(words) // 60)]
    for i, wi in enumerate(sample):
        for wj in sample[i:]:
            lhs = TwistWord(sig, tuple(Twist(n, s) for n, s in wi))
            rhs = TwistWord(sig, tuple(Twist(n, s) for n, s in wj))
            expected = _oracle_images(wi) == _oracle_images(wj)
            assert decide_equal(lhs, rhs) == ("true" if expected else "false", ENGINE_PI1)
