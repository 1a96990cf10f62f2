"""Surface signatures, curve tables, and twist-word plumbing."""

import re

import pytest

from dehn.surface import (
    SurfaceSig,
    Twist,
    TwistWord,
    chain_name,
    chain_word,
    curve_classes,
    curve_valid,
    homology_class,
    intersection,
)


def intersection_pairing(u, v):
    """The standard alternating form of the fixed basis."""
    return sum(u[i] * v[i + 1] - u[i + 1] * v[i] for i in range(0, len(u), 2))


def test_surface_sig_validation():
    assert SurfaceSig(2, 1).genus == 2
    with pytest.raises(ValueError):
        SurfaceSig(-1, 0)
    with pytest.raises(ValueError):
        SurfaceSig(1, 2)
    with pytest.raises(ValueError):
        SurfaceSig(1, -1)


@pytest.mark.parametrize("genus, boundary", [(True, 1), (2, 1.0), (2, True), (2, False)])
def test_surface_sig_fields_must_be_ints(genus, boundary):
    # bools and floats compare equal to ints, as Twist signs do
    with pytest.raises(ValueError, match="must be"):
        SurfaceSig(genus, boundary)


def test_curve_validity():
    g2b1 = SurfaceSig(2, 1)
    for name in ("a1", "b1", "a2", "b2", "d2", "e2", "delta"):
        assert curve_valid(name, g2b1)
    assert not curve_valid("a3", g2b1)
    assert not curve_valid("delta", SurfaceSig(2, 0))
    assert not curve_valid("d2", SurfaceSig(1, 1))
    assert not curve_valid("e2", SurfaceSig(1, 0))
    assert not curve_valid("c1", g2b1)
    assert not curve_valid("a0", g2b1)
    assert not curve_valid("", g2b1)
    assert not curve_valid("a01", g2b1)


def test_curve_table_order():
    assert tuple(curve_classes(SurfaceSig(1, 0))) == ("a1", "b1")
    assert tuple(curve_classes(SurfaceSig(1, 1))) == ("a1", "b1", "delta")
    assert tuple(curve_classes(SurfaceSig(2, 0))) == ("a1", "b1", "a2", "b2", "d2", "e2")
    assert tuple(curve_classes(SurfaceSig(3, 1))) == (
        "a1", "b1", "a2", "b2", "a3", "b3", "d2", "e2", "delta")


def test_homology_classes_hardcoded():
    sig = SurfaceSig(2, 0)
    assert homology_class("a1", sig) == (1, 0, 0, 0)
    assert homology_class("b1", sig) == (0, 1, 0, -1)
    assert homology_class("a2", sig) == (0, 0, 1, 0)
    assert homology_class("b2", sig) == (0, 0, 0, 1)
    assert homology_class("d2", sig) == (1, 0, 1, 0)
    assert homology_class("e2", sig) == (1, 0, 1, 0)
    assert homology_class("delta", SurfaceSig(2, 1)) == (0, 0, 0, 0)
    # genus-1 special case: b1 is the last chain curve
    t = SurfaceSig(1, 0)
    assert homology_class("a1", t) == (1, 0)
    assert homology_class("b1", t) == (0, 1)


def test_homology_classes_match_intersection_table():
    # intersection is the dense pairing of the reference classes on every
    # pair; chain-adjacent pairs pair to +-1
    for genus in range(9):
        for boundary in (0, 1):
            sig = SurfaceSig(genus, boundary)
            names = ref_standard_curves(sig)
            chain = names[:2 * genus]
            for c1 in names:
                for c2 in names:
                    pairing = intersection_pairing(
                        ref_homology_class(c1, sig), ref_homology_class(c2, sig))
                    assert intersection(c1, c2, sig) == pairing, (sig, c1, c2)
                    if c1 in chain and c2 in chain and abs(chain.index(c1) - chain.index(c2)) == 1:
                        assert pairing in (1, -1), (c1, c2)
    with pytest.raises(ValueError, match="is not valid on genus"):
        intersection("a1", "a3", SurfaceSig(2, 1))


def test_adjacent_chain_pairings_are_plus_one():
    sig = SurfaceSig(3, 0)
    chain = ["a1", "b1", "a2", "b2", "a3", "b3"]
    for c1, c2 in zip(chain, chain[1:]):
        assert intersection_pairing(
            homology_class(c1, sig), homology_class(c2, sig)) == 1


# The curve alphabet written out by branches, as a reference for the table.
_REF_CURVE_RE = re.compile(r"^(?:([ab])([1-9][0-9]*)|d2|e2|delta)$")


def ref_curve_valid(name, sig):
    m = _REF_CURVE_RE.match(name) if isinstance(name, str) else None
    if m is None:
        return False
    if name == "delta":
        return sig.boundary == 1
    if name in ("d2", "e2"):
        return sig.genus >= 2
    return int(m.group(2)) <= sig.genus


def ref_standard_curves(sig):
    names = []
    for i in range(1, sig.genus + 1):
        names.append(f"a{i}")
        names.append(f"b{i}")
    if sig.genus >= 2:
        names += ["d2", "e2"]
    if sig.boundary == 1:
        names.append("delta")
    return tuple(names)


def ref_homology_class(name, sig):
    g = sig.genus
    v = [0] * (2 * g)
    if name == "delta":
        return tuple(v)
    if name in ("d2", "e2"):  # both loops abelianize to e1 + e3
        v[0] = v[2] = 1
        return tuple(v)
    kind, i = name[0], int(name[1:])
    if kind == "a":
        v[2 * i - 2] = 1
    else:
        v[2 * i - 1] = 1
        if i < g:
            v[2 * i + 1] = -1
    return tuple(v)


@pytest.mark.parametrize("boundary", [0, 1])
@pytest.mark.parametrize("genus", range(9))
def test_curve_table_matches_reference(genus, boundary):
    sig = SurfaceSig(genus, boundary)
    assert tuple(curve_classes(sig)) == ref_standard_curves(sig)
    names = list(ref_standard_curves(SurfaceSig(genus + 1, 1))) + [
        "a0", "b0", "a01", f"a{genus + 1}", f"b{genus + 1}", "c1", "", " a1", "A1",
        "d2", "e2", "delta", None, 1, ["a1"]]
    for name in names:
        valid = ref_curve_valid(name, sig)
        assert curve_valid(name, sig) is valid, name
        if valid:
            assert homology_class(name, sig) == ref_homology_class(name, sig)
        else:
            with pytest.raises(ValueError, match="is not valid on genus"):
                homology_class(name, sig)
    for j in range(1, 2 * genus + 1):
        assert chain_name(j) == ref_standard_curves(sig)[j - 1]


def test_trailing_newline_is_not_a_curve():
    # a regex "$" also matches before a final newline; the table does not
    sig = SurfaceSig(2, 1)
    for name in ("a1\n", "d2\n", "delta\n"):
        assert not curve_valid(name, sig)
        with pytest.raises(ValueError):
            Twist(name).validate(sig)

def test_intersection_table():
    sig = SurfaceSig(2, 1)
    assert intersection("a1", "b1", sig) == 1
    assert intersection("b1", "a2", sig) == 1
    assert intersection("b1", "a1", sig) == -1
    assert intersection("a1", "a2", sig) == 0
    assert intersection("a1", "b2", sig) == 0
    assert intersection("b1", "b2", sig) == 0
    assert intersection("a1", "a1", sig) == 0
    # d2/e2 block: disjoint from a1, b1, a2 and each other; meet b2
    for c in ("a1", "b1", "a2"):
        assert intersection("d2", c, sig) == 0
        assert intersection(c, "e2", sig) == 0
    assert intersection("d2", "e2", sig) == 0
    assert intersection("d2", "b2", sig) == 1
    assert intersection("e2", "b2", sig) == 1
    assert intersection("d2", "d2", sig) == 0
    # ... and from the chain curves past b2
    sig3 = SurfaceSig(3, 1)
    for c in ("a3", "b3"):
        assert intersection("d2", c, sig3) == 0
        assert intersection("e2", c, sig3) == 0
    # the boundary-parallel curve misses everything, itself included
    for c in ("a1", "b2", "d2", "delta"):
        assert intersection("delta", c, sig) == 0
        assert intersection(c, "delta", sig) == 0


def test_curve_table_is_linear_in_genus():
    sig = SurfaceSig(1500, 1)
    table = curve_classes(sig)
    assert len(table) == 3003
    assert all(len(v) <= 2 for v in table.values())
    b1 = homology_class("b1", sig)
    assert len(b1) == 3000
    assert b1[:4] == (0, 1, 0, -1) and not any(b1[4:])


def test_twist_validation():
    sig = SurfaceSig(1, 1)
    with pytest.raises(ValueError):
        Twist("a1", 0)
    with pytest.raises(ValueError):
        Twist("a1", 1, (("b1", 2),))
    Twist("a1", -1, (("b1", -1),)).validate(sig)
    with pytest.raises(ValueError):
        Twist("a2", 1).validate(sig)
    with pytest.raises(ValueError):
        Twist("a1", 1, (("d2", 1),)).validate(sig)


@pytest.mark.parametrize("bad", [True, 1.0, 1.9, "1"])
def test_twist_sign_must_be_the_int_plus_or_minus_one(bad):
    # True and 1.0 compare equal to 1, and int() would truncate 1.9 to 1
    with pytest.raises(ValueError):
        Twist("a1", bad)
    with pytest.raises(ValueError):
        Twist("a1", 1, (("b1", bad),))


def test_twist_accepts_int_signs():
    for s in (1, -1):
        t = Twist("a1", s, (("b1", s), ("a1", -s)))
        assert type(t.sign) is int and t.sign == s
        assert t.conj == (("b1", s), ("a1", -s))
        assert all(type(c) is int for _, c in t.conj)


def test_twist_word_construction_and_inverse():
    sig = SurfaceSig(2, 1)
    w = TwistWord.from_names(sig, "a1 b1^-1 d2")
    assert [(t.base, t.sign) for t in w] == [("a1", 1), ("b1", -1), ("d2", 1)]
    inv = w.inverse()
    assert [(t.base, t.sign) for t in inv] == [("d2", -1), ("b1", 1), ("a1", -1)]
    assert inv.inverse() == w
    assert len(w * inv) == 6
    assert not w.all_positive()
    assert TwistWord.from_names(sig, ["a1", ("b1", -1)]) == TwistWord(
        sig, (Twist("a1"), Twist("b1", -1)))


def test_twist_word_rejects_foreign_curves_and_surfaces():
    sig = SurfaceSig(1, 0)
    with pytest.raises(ValueError):
        TwistWord.from_names(sig, "delta")
    with pytest.raises(ValueError):
        TwistWord.from_names(sig, "d2")
    # the public constructor checks every base and every conjugator name
    with pytest.raises(ValueError, match="not valid"):
        TwistWord(sig, (Twist("a1"), Twist("a2", -1)))
    with pytest.raises(ValueError, match="not valid"):
        TwistWord(sig, (Twist("b1", -1, (("a1", 1), ("d2", 1))),))
    with pytest.raises(ValueError):
        TwistWord(sig) * TwistWord(SurfaceSig(2, 0))


def test_power():
    sig = SurfaceSig(1, 0)
    w = TwistWord.from_names(sig, "a1 b1")
    assert len(w.power(6)) == 12
    assert w.power(0) == TwistWord(sig)
    assert w.power(-1) == w.inverse()


def test_chain_word():
    sig = SurfaceSig(2, 1)
    w = chain_word(sig, 2)
    assert [t.base for t in w] == ["a1", "b1", "a2", "b2"] * 2
    assert w.all_positive()
    with pytest.raises(ValueError):
        chain_word(SurfaceSig(0, 1))
