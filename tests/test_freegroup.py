"""Reduced words and free-group endomorphism machinery."""

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
    ident = FreeAutomorphism.from_map(3, {})
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
