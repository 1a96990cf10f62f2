"""Stack-based Dehn reduction against the restart-from-zero reference, and
the word-length cap of ``FreeAutomorphism.apply``."""

import random

import pytest

import dehn
import dehn.pi1
from dehn import WordGrowthExceeded, dehn_reduce
from dehn.freegroup import WordGrowthExceeded as FreeGroupWordGrowthExceeded
from dehn.freegroup import invert_word, reduce_word
from dehn.cli import JSON_MAX_GENUS
from dehn.pi1 import _dehn_rules, twist_tables
from dehn.surface import boundary_word


def reference_dehn_reduce(z, genus):
    """Restart-from-zero Dehn reduction: after every replacement, rescan z.

    Replaces any subword matching more than half of a cyclic rotation of the
    relator (or its inverse) by the inverse of the complement.
    """
    r = boundary_word(genus)
    rots = [base[s:] + base[:s] for base in (r, invert_word(r)) for s in range(len(r))]
    full = 4 * genus
    need = 2 * genus + 1
    z = reduce_word(z)
    changed = True
    while changed:
        changed = False
        for i in range(len(z)):
            if changed:
                break
            for rot in rots:
                limit = min(full, len(z) - i)
                match = 0
                while match < limit and z[i + match] == rot[match]:
                    match += 1
                if match >= need:
                    z = reduce_word(z[:i] + invert_word(rot[match:]) + z[i + match:])
                    changed = True
                    break
    return z


def long_relator_subwords(genus):
    """Every cyclic subword of length 2g+1 of r and of r^-1."""
    r = boundary_word(genus)
    need = 2 * genus + 1
    return {(base + base)[s:s + need] for base in (r, invert_word(r)) for s in range(len(r))}


def random_word(rng, genus, length):
    return tuple(rng.choice((1, -1)) * rng.randint(1, 2 * genus) for _ in range(length))


def relator_product(rng, genus, stray):
    """A product of conjugated rotations of r^+-1, with one stray letter if asked."""
    r = boundary_word(genus)
    parts = []
    for _ in range(rng.randint(0, 6)):
        u = random_word(rng, genus, rng.randint(0, 5))
        s = rng.randrange(len(r))
        rot = r[s:] + r[:s]
        parts += [u, rot if rng.random() < 0.5 else invert_word(rot), invert_word(u)]
    if stray:
        parts.insert(rng.randint(0, len(parts)), random_word(rng, genus, 1))
    return reduce_word(sum(parts, ()))


@pytest.mark.parametrize("genus", [2, 3, 4])
@pytest.mark.parametrize("stray", [False, True])
def test_stack_reduction_matches_reference(genus, stray):
    rng = random.Random(f"dehn/{genus}/{stray}")
    forbidden = long_relator_subwords(genus)
    need = 2 * genus + 1
    for _ in range(150):
        z = relator_product(rng, genus, stray)
        out = dehn_reduce(z, genus)
        expected = reference_dehn_reduce(z, genus)
        assert (out == ()) == (expected == ())
        if not stray:
            assert out == ()
        assert reduce_word(out) == out
        assert not any(out[i:i + need] in forbidden for i in range(len(out) - need + 1))
        # the output is the same element of the surface group as the input
        assert reference_dehn_reduce(out + invert_word(z), genus) == ()


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_relator_powers_reduce_to_empty(genus):
    r = boundary_word(genus)
    for k in (1, 2, 3, 10, 100, 500):
        assert dehn_reduce(r * k, genus) == ()
        assert dehn_reduce(invert_word(r) * k, genus) == ()
        s = k % len(r)
        assert dehn_reduce((r[s:] + r[:s]) * k, genus) == ()


@pytest.mark.parametrize("genus", range(2, JSON_MAX_GENUS + 1))
def test_relator_is_small_cancellation(genus):
    # Dehn's algorithm needs every piece of r to have length 1: no two-letter
    # cyclic subword occurs twice among r and r^-1 (C'(1/6) at genus >= 2)
    r = boundary_word(genus)
    assert len(r) == 4 * genus
    rotations = [base[s:] + base[:s] for base in (r, invert_word(r)) for s in range(len(r))]
    pairs = [rot[:2] for rot in rotations]
    assert len(set(pairs)) == len(pairs) == 8 * genus
    assert len(_dehn_rules(genus)) == 8 * genus
    for rot in rotations:
        assert dehn_reduce(rot, genus) == ()


def test_zero_letter_is_rejected():
    with pytest.raises(ValueError):
        dehn_reduce((1, 0, -1), 2)


def test_word_growth_exceeded_is_one_class():
    assert WordGrowthExceeded is FreeGroupWordGrowthExceeded
    assert dehn.pi1.WordGrowthExceeded is WordGrowthExceeded
    assert dehn.WordGrowthExceeded is WordGrowthExceeded


def test_apply_cap_raises_exactly_when_over():
    rng = random.Random("apply-cap")
    for genus in (1, 2, 3):
        autos = list(twist_tables(genus).values())
        for _ in range(60):
            auto = rng.choice(autos)
            w = reduce_word(random_word(rng, genus, rng.randint(0, 12)))
            image = auto.apply(w)
            length = len(image)
            for cap in (max(length - 1, 0), length, length + 1):
                if length > cap:
                    with pytest.raises(WordGrowthExceeded) as info:
                        auto.apply(w, cap)
                    assert info.value.length == length and info.value.cap == cap
                else:
                    assert auto.apply(w, cap) == image
