"""Reduced words and free-group endomorphism machinery."""

import random

import pytest

from dehn.freegroup import FreeAutomorphism, invert_word, reduce_word


def test_reduce():
    assert reduce_word((1, -1)) == ()
    assert reduce_word((1, 2, -2, 1)) == (1, 1)
    assert reduce_word((1, 2, -2, -1)) == ()
    assert reduce_word((3, -2, 2, -3, 1)) == (1,)
    already = (1, 2, -1)
    assert reduce_word(already) == already
    assert reduce_word(reduce_word((1, 2, -2, 1))) == (1, 1)
    with pytest.raises(ValueError):
        reduce_word((1, 0))


def test_invert_and_multiply():
    w = (1, -2, 3)
    assert invert_word(w) == (-3, 2, -1)
    assert reduce_word(w + invert_word(w)) == ()
    assert reduce_word((1, 2) + (-2, 3) + (-3,)) == (1,)
    assert reduce_word((2,) + (1,) + invert_word((2,))) == (2, 1, -2)


def test_automorphism_identity_and_from_map():
    ident = FreeAutomorphism.identity(3)
    assert ident.images == ((1,), (2,), (3,)) and ident.moved == ()
    assert ident.apply((1, -2, 3)) == (1, -2, 3)
    f = FreeAutomorphism.from_map(2, {1: (1, 2)})
    assert f.images == ((1, 2), (2,))
    assert f.apply((1,)) == (1, 2)
    assert f.apply((-1,)) == (-2, -1)


def test_apply_reduces():
    f = FreeAutomorphism(((1, 2), (-1,)))
    # image of (2, 1) is (-1) . (1, 2) which cancels
    assert f.apply((2, 1)) == (2,)


def test_compose_matches_sequential_application():
    rng = random.Random(3)
    n = 3

    def random_auto():
        # build from random Nielsen-style moves so it is a genuine automorphism
        f = FreeAutomorphism.identity(n)
        for _ in range(6):
            k = rng.randrange(1, n + 1)
            j = rng.randrange(1, n + 1)
            if k == j:
                table = {k: (-k,)}
            else:
                table = {k: (k, j) if rng.random() < 0.5 else (-j, k)}
            f = f.compose(FreeAutomorphism.from_map(n, table))
        return f

    for _ in range(20):
        f, g = random_auto(), random_auto()
        w = tuple(rng.choice((1, -1)) * rng.randrange(1, n + 1) for _ in range(8))
        assert f.compose(g).apply(w) == f.apply(g.apply(w))

