"""Free-group action: generator tables, relator corpus, equality engines."""

import hashlib
import random

import pytest

from dehn import (
    SurfaceSig,
    Twist,
    TwistWord,
    WordGrowthExceeded,
    decide_equal,
    dehn_reduce,
)
from dehn.cli import JSON_MAX_GENUS
from dehn.freegroup import FreeAutomorphism, invert_word, reduce_word
from dehn.homology import homology_equal, word_matrix
from dehn.pi1 import (
    BRAID_PAIRS,
    CHAIN_RELATIONS,
    COMMUTING_PAIRS,
    ENGINE_CLOSED,
    ENGINE_HOMOLOGY_FAITHFUL,
    ENGINE_HOMOLOGY_NECESSARY,
    ENGINE_PI1,
    RELATOR_CORPUS,
    apply_word,
    twist_tables,
)
from dehn.surface import (
    boundary_word,
    chain_name,
    chain_word,
    crossing_table,
    curve_classes,
    curve_rows,
    homology_class,
    intersection,
)
from two_streams import two_stream_verdict

T1 = SurfaceSig(1, 1)
T2 = SurfaceSig(2, 1)


def word(sig, names):
    return TwistWord.from_names(sig, names)


def generator_images(w):
    return tuple(apply_word(w, (k,)) for k in range(1, 2 * w.surface.genus + 1))


def is_trivial_rel_boundary(w):
    return decide_equal(w, TwistWord(w.surface, ())) == ("true", ENGINE_PI1)


def verdict(sig, lhs, rhs):
    return decide_equal(word(sig, lhs), word(sig, rhs))


def abelianize(z, genus):
    """Homology class of the loop z in the standard symplectic basis.

    The chain loop w_j maps to the class of chain curve j, which makes the
    free-group action and the homology action of every twist word commute
    with this map.
    """
    sig = SurfaceSig(genus, 1)
    vec = [0] * (2 * genus)
    for letter in z:
        s = 1 if letter > 0 else -1
        for i, c in enumerate(homology_class(chain_name(abs(letter)), sig)):
            vec[i] += s * c
    return tuple(vec)


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def test_boundary_word():
    assert boundary_word(1) == (1, -2, -1, 2)
    assert boundary_word(2) == (1, 3, -4, -3, -2, -1, 2, 4)


def test_genus_one_tables():
    # the half-twist lift on the two chain loops of <w_1, w_2>
    assert generator_images(word(T1, "a1")) == ((1,), (-1, 2))
    assert generator_images(word(T1, "b1")) == ((1, 2), (2,))
    assert generator_images(word(T1, "a1^-1")) == ((1,), (1, 2))
    assert generator_images(word(T1, "b1^-1")) == ((1, -2), (2,))


def test_genus_two_extra_curve_tables():
    # d2 conjugates w_1, w_2, w_3 by (w_1 w_3)^-1 and prefixes w_4 with it;
    # e2 is disjoint from a1, b1 and a2, so it moves w_4 only
    assert generator_images(word(T2, "d2")) == (
        (-3, 1, 3),
        (-3, -1, 2, 1, 3),
        (-3, -1, 3, 1, 3),
        (-3, -1, 4),
    )
    assert generator_images(word(T2, "e2")) == (
        (1,),
        (2,),
        (3,),
        (-3, -2, -1, 2, 4),
    )


def reference_tables(g):
    """The twist tables by hand-written formulas, a reference for the loop rule.

    Chain twists by the half-twist lift, d2 by its formula, e2 composed
    from d2^-1 and (a1 b1 a2)^4 by the chain relation, and delta as
    conjugation by the inverse boundary word.
    """
    n = 2 * g

    def compose(f, h):  # f o h: h acts first
        return FreeAutomorphism(tuple(f.apply(w) for w in h.images))

    def chain(j, s):
        table = {}
        if j > 1:
            table[j - 1] = (j - 1, j) if s > 0 else (j - 1, -j)
        if j < n:
            table[j + 1] = (-j, j + 1) if s > 0 else (j, j + 1)
        return FreeAutomorphism.from_map(n, table)

    def conj(u, gens):  # z -> u z u^-1
        return {k: reduce_word(u + (k,) + invert_word(u)) for k in gens}

    tables = {(chain_name(j), s): chain(j, s) for j in range(1, n + 1) for s in (1, -1)}
    if g >= 2:
        for s, u in ((1, (-3, -1)), (-1, (1, 3))):
            tables[("d2", s)] = FreeAutomorphism.from_map(n, {**conj(u, (1, 2, 3)), 4: u + (4,)})
        chain3 = FreeAutomorphism.from_map(n, {})
        chain3_inv = chain3
        for name in ["a1", "b1", "a2"] * 4:
            chain3 = compose(chain3, tables[(name, 1)])
            chain3_inv = compose(tables[(name, -1)], chain3_inv)
        tables[("e2", 1)] = compose(tables[("d2", -1)], chain3)
        tables[("e2", -1)] = compose(chain3_inv, tables[("d2", 1)])
    bw = boundary_word(g)
    for s, u in ((1, invert_word(bw)), (-1, bw)):
        tables[("delta", s)] = FreeAutomorphism.from_map(n, conj(u, range(1, n + 1)))
    return tables


@pytest.mark.parametrize("genus", range(1, JSON_MAX_GENUS + 1))
def test_loop_rule_rows_give_the_reference_tables(genus):
    tables, reference = twist_tables(genus), reference_tables(genus)
    assert list(tables) == list(reference)
    for key, auto in tables.items():
        assert auto.images == reference[key].images, key
    for boundary in (0, 1):
        sig = SurfaceSig(genus, boundary)
        for name, (loop, *_) in curve_rows(sig).items():
            # the twist fixes its own loop, which runs once around its curve
            assert tables[(name, 1)].apply(loop) == loop, name
            assert tables[(name, -1)].apply(loop) == loop, name
            assert abelianize(loop, genus) == homology_class(name, sig), (name, boundary)


def test_delta_is_boundary_conjugation():
    for g in (1, 2, 3):
        sig = SurfaceSig(g, 1)
        delta = word(sig, "delta")
        bw = boundary_word(g)
        for k in range(1, 2 * g + 1):
            assert apply_word(delta, (k,)) == reduce_word(invert_word(bw) + (k,) + bw)
        # and its inverse conjugates the other way
        for k in range(1, 2 * g + 1):
            assert apply_word(word(sig, "delta^-1"), (k,)) == reduce_word(bw + (k,) + invert_word(bw))


def test_boundary_word_is_fixed_by_every_twist():
    for g in (1, 2, 3):
        sig = SurfaceSig(g, 1)
        bw = boundary_word(g)
        for curve in curve_classes(sig):
            for s in ("", "^-1"):
                assert apply_word(word(sig, f"{curve}{s}"), bw) == bw


def test_inverse_pairs_are_trivial():
    for curve in curve_classes(T2):
        w = word(T2, f"{curve} {curve}^-1")
        assert is_trivial_rel_boundary(w)
    # also with a conjugated letter
    from dehn.surface import Twist

    t = Twist("b1", 1, (("a1", 1), ("a2", -1)))
    w = TwistWord(T2, (t, t.inverse()))
    assert is_trivial_rel_boundary(w)


def test_outputs_are_reduced():
    rng = random.Random(11)
    curves = tuple(curve_classes(T2))
    for _ in range(20):
        names = [(rng.choice(curves), rng.choice((1, -1))) for _ in range(5)]
        w = TwistWord.from_names(T2, names)
        for k in range(1, 5):
            z = apply_word(w, (k,))
            assert z == reduce_word(z)
            # an unreduced input has the image of its reduction
            assert apply_word(w, (k, 3, -3, -k, k)) == z


@pytest.mark.parametrize("letter", [5, 7, 9, -5, -9, 0])
def test_apply_word_rejects_letters_off_the_generators(letter):
    # genus 2 has generators 1..4; an index past them must not wrap round
    # the signed image table onto another generator's inverse
    a1 = word(T2, "a1")
    with pytest.raises(ValueError, match=rf"^letter {letter} is not a generator"):
        apply_word(a1, (1, letter))
    # Dehn reduction runs the same check, so it returns no word for such a letter
    with pytest.raises(ValueError, match=rf"^letter {letter} is not a generator"):
        dehn_reduce((1, letter), 2)


# A hand-written reference for the corpus pairs: the pairs read off the
# curve table must hold every one of them.
REF_BRAID_PAIRS = (("a1", "b1"), ("b1", "a2"), ("a2", "b2"), ("d2", "b2"), ("b2", "e2"))
REF_COMMUTING_PAIRS = (
    ("a1", "a2"), ("a1", "b2"), ("b1", "b2"), ("d2", "e2"),
    ("d2", "a1"), ("d2", "b1"), ("d2", "a2"), ("e2", "a1"), ("e2", "b1"),
    ("delta", "a1"), ("delta", "b2"), ("delta", "d2"),
)


def unordered(pairs):
    return {frozenset(p) for p in pairs}


def test_braid_relations():
    assert unordered(REF_BRAID_PAIRS) <= unordered(BRAID_PAIRS)
    for c, d in BRAID_PAIRS:
        assert verdict(T2, f"{c} {d} {c}", f"{d} {c} {d}") == ("true", ENGINE_PI1)


def test_commuting_relations():
    assert unordered(REF_COMMUTING_PAIRS) <= unordered(COMMUTING_PAIRS)
    # every pair of distinct curves is in exactly one of the two lists
    curves = tuple(curve_classes(T2))
    assert len(BRAID_PAIRS) + len(COMMUTING_PAIRS) == len(curves) * (len(curves) - 1) // 2
    assert not unordered(BRAID_PAIRS) & unordered(COMMUTING_PAIRS)
    for c, d in COMMUTING_PAIRS:
        assert verdict(T2, f"{c} {d}", f"{d} {c}") == ("true", ENGINE_PI1)
        # decide_equal cancels the pair's steps unread; each word's own
        # stream runs them through the twist tables
        assert two_stream_verdict(word(T2, f"{c} {d}"), word(T2, f"{d} {c}")) == "true"
    # intersecting pairs do not commute
    for lhs, rhs in (("a1 b1", "b1 a1"), ("d2 b2", "b2 d2")):
        assert verdict(T2, lhs, rhs) == ("false", ENGINE_PI1)
        assert two_stream_verdict(word(T2, lhs), word(T2, rhs)) == "false"


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_intersection_decides_commute_or_braid(genus):
    # the rule commute_pull and the corpus rest on: 0 commutes, +-1 braids
    sig = SurfaceSig(genus, 1)
    curves = tuple(curve_classes(sig))
    for i, c in enumerate(curves):
        for d in curves[i + 1:]:
            n = intersection(c, d, sig)
            assert n in (-1, 0, 1), (c, d)
            commute = verdict(sig, f"{c} {d}", f"{d} {c}")
            # each word's own stream reads the twist tables that
            # decide_equal's reduction of psi leaves unread
            tables = two_stream_verdict(word(sig, f"{c} {d}"), word(sig, f"{d} {c}"))
            if n == 0:
                assert commute == ("true", ENGINE_PI1), (c, d)
                assert tables == "true", (c, d)
            else:
                assert commute == ("false", ENGINE_PI1), (c, d)
                assert tables == "false", (c, d)
                assert verdict(sig, f"{c} {d} {c}", f"{d} {c} {d}") == (
                    "true", ENGINE_PI1), (c, d)


def test_chain_relations():
    # decide_equal deletes a whole chain relator unread, so each row is also
    # checked through the twist tables, each side on its own stream
    for genus, lhs, rhs in CHAIN_RELATIONS:
        sig = SurfaceSig(genus, 1)
        assert verdict(sig, lhs, rhs) == ("true", ENGINE_PI1), lhs
        assert two_stream_verdict(word(sig, lhs), word(sig, rhs)) == "true", lhs
    assert {genus for genus, _, _ in CHAIN_RELATIONS} == {1, 2, 3}


def test_every_corpus_relation_is_decided_true():
    for genus, lhs, rhs in RELATOR_CORPUS:
        sig = SurfaceSig(genus, 1)
        assert homology_equal(word(sig, lhs), word(sig, rhs)), lhs
        assert verdict(sig, lhs, rhs) == ("true", ENGINE_PI1), lhs
        assert two_stream_verdict(word(sig, lhs), word(sig, rhs)) == "true", lhs


def test_relator_battery_on_random_words():
    rng = random.Random(23)
    relators = [word(T2, lhs) * word(T2, rhs).inverse()
                for genus, lhs, rhs in RELATOR_CORPUS if genus == 2]
    curves = tuple(curve_classes(T2))
    for _ in range(30):
        names = [(rng.choice(curves), rng.choice((1, -1))) for _ in range(rng.randrange(7))]
        w = TwistWord.from_names(T2, names)
        r = rng.choice(relators)
        assert decide_equal(w * r, w) == ("true", ENGINE_PI1)
        assert decide_equal(w * r * word(T2, "a1"), w) == ("false", ENGINE_PI1)


def test_growth_cap():
    # (a1 b1 a1)^4 = delta walks no chain run, so its images meet the cap
    w = word(T1, "a1 b1 a1").power(4)
    assert decide_equal(w, word(T1, "delta"), cap=3) == ("unknown", ENGINE_PI1)
    # (a1 b1)^6 is one whole chain relator, deleted before any image is built
    assert decide_equal(word(T1, "a1 b1").power(6), word(T1, "delta"), cap=3) == (
        "true", ENGINE_PI1)
    with pytest.raises(WordGrowthExceeded) as info:
        apply_word(w, (1,), cap=3)
    assert info.value.cap == 3
    assert info.value.length > 3


def test_identical_words_are_equal_without_applying_them():
    # the images of (a1 b1^-1)^16 pass the default cap, which used to make
    # the exact engines answer "unknown" even for a word against itself
    w = word(T1, "a1 b1^-1").power(16)
    assert decide_equal(w, w) == ("true", ENGINE_PI1)
    closed2 = SurfaceSig(2, 0)
    w2 = word(closed2, "a1 b1^-1 a2 b2^-1").power(4)
    assert decide_equal(w2, w2, cap=3) == ("true", ENGINE_CLOSED)
    torus = SurfaceSig(1, 0)
    assert decide_equal(word(torus, "a1"), word(torus, "a1")) == (
        "true", ENGINE_HOMOLOGY_FAITHFUL)
    assert decide_equal(word(torus, "a1"), word(torus, "a1"), engine="homology") == (
        "true", ENGINE_HOMOLOGY_FAITHFUL)
    # the necessary-only engine still cannot certify equality
    a = word(T2, "a1 b2")
    assert decide_equal(a, a, engine="homology") == ("unknown", ENGINE_HOMOLOGY_NECESSARY)
    # the surface picks the exact engine; naming one is an error
    with pytest.raises(ValueError, match="unknown engine"):
        decide_equal(a, a, engine="closed")


# The closed engine compares automorphisms of pi1 with a marked point, so it
# decides Mod(S_g, *), not Mod(S_g): words that differ by a point-push are
# equal on the closed surface but read "false".  d2 and e2 are isotopic on
# the closed genus-2 surface, because the complement of a neighbourhood of
# a1, b1, a2 is an annulus.
POINT_PUSH = "the closed engine decides Mod(S_g, *) and reports point-pushes false"


@pytest.mark.xfail(strict=True, reason=POINT_PUSH)
def test_d2_equals_e2_on_closed_genus_two():
    closed2 = SurfaceSig(2, 0)
    assert decide_equal(word(closed2, "d2"), word(closed2, "e2"))[0] == "true"


@pytest.mark.xfail(strict=True, reason=POINT_PUSH)
def test_three_chain_power_equals_d2_squared_on_closed_genus_two():
    closed2 = SurfaceSig(2, 0)
    lhs = word(closed2, "a1 b1 a2").power(4)
    assert decide_equal(lhs, word(closed2, "d2 d2"))[0] == "true"


def test_abelianize():
    assert abelianize((1,), 2) == (1, 0, 0, 0)
    assert abelianize((2,), 2) == (0, 1, 0, -1)
    assert abelianize((-4, 3, 3), 2) == (0, 0, 2, -1)
    assert abelianize(boundary_word(3), 3) == (0,) * 6


def test_action_commutes_with_abelianization():
    rng = random.Random(5)
    for g in (1, 2, 3):
        sig = SurfaceSig(g, 1)
        curves = tuple(curve_classes(sig))
        for _ in range(10):
            names = [(rng.choice(curves), rng.choice((1, -1))) for _ in range(4)]
            w = TwistWord.from_names(sig, names)
            m = word_matrix(w)
            for k in range(1, 2 * g + 1):
                assert abelianize(apply_word(w, (k,)), g) == mat_vec(m, abelianize((k,), g))


def test_dehn_reduce():
    with pytest.raises(ValueError):
        dehn_reduce((1,), 1)
    r = boundary_word(2)
    assert dehn_reduce(r, 2) == ()
    assert dehn_reduce(invert_word(r), 2) == ()
    assert dehn_reduce((3, -1) + r + (1, -3), 2) == ()
    assert dehn_reduce(r + r, 2) == ()
    # short reduced words cannot contain more than half the relator
    rng = random.Random(7)
    for _ in range(20):
        z = reduce_word(tuple(rng.choice((1, -1)) * rng.randrange(1, 5) for _ in range(4)))
        assert dehn_reduce(z, 2) == z
    # a long word of partial relator rotations and stray letters over +-1..+-4,
    # which fires many replacements: its output is pinned by length and digest
    rng = random.Random(31)
    z = ()
    while len(z) < 4000:
        s = rng.randrange(len(r))
        rot = r[s:] + r[:s] if rng.random() < 0.5 else invert_word(r[s:] + r[:s])
        z += rot[:rng.randint(3, 7)] + tuple(rng.choice((1, -1)) * rng.randint(1, 4)
                                             for _ in range(rng.randint(0, 2)))
    out = dehn_reduce(z, 2)
    assert (len(z), len(reduce_word(z)), len(out)) == (4006, 3524, 1826)
    assert hashlib.sha256(repr(out).encode()).hexdigest()[:16] == "7a3cfaacc744ad08"


def test_closed_equal():
    torus = SurfaceSig(1, 0)
    empty = TwistWord(torus, ())
    faithful = ENGINE_HOMOLOGY_FAITHFUL
    assert decide_equal(word(torus, "a1 b1").power(6), empty) == ("true", faithful)
    assert decide_equal(word(torus, "a1 b1").power(5), empty) == ("false", faithful)

    closed2 = SurfaceSig(2, 0)
    empty2 = TwistWord(closed2, ())
    assert decide_equal(word(closed2, "a1 b1 a2 b2").power(10), empty2) == ("true", ENGINE_CLOSED)
    assert decide_equal(word(closed2, "a1 b1 a2 b2").power(9), empty2) == ("false", ENGINE_CLOSED)
    assert decide_equal(word(closed2, "a1"), empty2) == ("false", ENGINE_CLOSED)

    sphere = SurfaceSig(0, 0)
    assert decide_equal(TwistWord(sphere, ()), TwistWord(sphere, ())) == ("true", faithful)

    # a one-boundary surface goes to the rel-boundary engine, not the closed one
    assert decide_equal(word(T1, "a1"), word(T1, "a1")) == ("true", ENGINE_PI1)


def test_decide_equal_dispatch():
    # boundary = 1: the faithful free-group engine
    assert decide_equal(word(T1, "a1 b1 a1"), word(T1, "b1 a1 b1")) == ("true", ENGINE_PI1)
    assert decide_equal(word(T1, "a1"), word(T1, "b1")) == ("false", ENGINE_PI1)
    # the disk: delta is trivial rel boundary, and pi1 has no generators
    disk = SurfaceSig(0, 1)
    assert decide_equal(word(disk, "delta"), TwistWord(disk, ())) == ("true", ENGINE_PI1)
    # closed genus 1: homology is faithful
    torus = SurfaceSig(1, 0)
    v = decide_equal(word(torus, "a1 b1").power(6), TwistWord(torus, ()))
    assert v == ("true", ENGINE_HOMOLOGY_FAITHFUL)
    # closed genus 2: relator reduction
    closed2 = SurfaceSig(2, 0)
    v = decide_equal(word(closed2, "a1 b1 a2 b2").power(10), TwistWord(closed2, ()))
    assert v == ("true", ENGINE_CLOSED)
    # forced homology on a bounded surface is only a necessary test
    a, b = word(T2, "a1 a2"), word(T2, "a2 a1")
    assert decide_equal(a, b, engine="homology") == ("unknown", ENGINE_HOMOLOGY_NECESSARY)
    assert decide_equal(a, word(T2, "a1 a1"), engine="homology")[0] == "false"
    # the surface picks the exact engine: only "auto" and "homology" are engines
    with pytest.raises(ValueError, match=r"^unknown engine 'pi1'$"):
        decide_equal(word(torus, "a1"), word(torus, "a1"), engine="pi1")
    with pytest.raises(ValueError, match=r"^unknown engine 'closed'$"):
        decide_equal(a, b, engine="closed")
    with pytest.raises(ValueError, match=r"^unknown engine 'nonsense'$"):
        decide_equal(a, b, engine="nonsense")
    # the engine is checked before the words are compared at all
    with pytest.raises(ValueError, match=r"^unknown engine 'pi1'$"):
        decide_equal(a, word(T1, "a1"), engine="pi1")
    with pytest.raises(ValueError):
        decide_equal(a, word(T1, "a1"))


def relators(sig):
    """Words equal to the identity on ``sig``: braid, commutation and chain relations.

    The commutators are those of every pair of distinct curves that
    ``crossing_table`` calls disjoint, d2, e2 and delta included.
    """
    chain = [t.base for t in chain_word(sig).letters]
    pairs = [(f"{c} {d} {c}", f"{d} {c} {d}") for c, d in zip(chain, chain[1:])]
    crossing = crossing_table(sig)
    curves = tuple(crossing)
    pairs += [(f"{c} {d}", f"{d} {c}") for i, c in enumerate(curves) for d in curves[i + 1:]
              if d not in crossing[c]]
    if sig.genus >= 2:
        pairs.append((" ".join(["a1 b1 a2"] * 4), "d2 e2"))
    # the 2g-chain relation: its power 4g + 2 is the boundary twist
    pairs.append((" ".join(chain * (4 * sig.genus + 2)), "delta" if sig.boundary else ""))
    return [word(sig, lhs) * word(sig, rhs).inverse() for lhs, rhs in pairs]


def seeded_pairs(rng, sig):
    """Relator-inserted, one-letter-flipped and shared-prefix/suffix pairs.

    Letters are conjugated by conjugators drawn from a small pool, so
    neighbouring letters often share one.  Inserting (a1 b1)^6, a twist
    about a separating curve (the boundary at genus 1), gives pairs that
    homology cannot separate.
    """
    curves = tuple(curve_classes(sig))
    pool = [(), ((rng.choice(curves), 1),),
            tuple((rng.choice(curves), rng.choice((1, -1))) for _ in range(2))]

    def rand_word(n):
        return TwistWord(sig, tuple(Twist(rng.choice(curves), rng.choice((1, -1)),
                                          rng.choice(pool)) for _ in range(n)))

    rels = relators(sig)
    separating = word(sig, "a1 b1").power(6)
    pairs = []
    for _ in range(10):
        w = rand_word(rng.randrange(1, 6))
        i = rng.randrange(len(w) + 1)
        head, tail = TwistWord(sig, w.letters[:i]), TwistWord(sig, w.letters[i:])
        r = head * rng.choice(rels) * tail
        pairs.append((w, r))
        pairs.append((r, w))
        pairs.append((w, head * separating * tail))
        j = rng.randrange(len(w))
        flipped = w.letters[:j] + (w.letters[j].inverse(),) + w.letters[j + 1:]
        pairs.append((w, TwistWord(sig, flipped)))
        p, q = rand_word(rng.randrange(4)), rand_word(rng.randrange(4))
        x = rand_word(rng.randrange(3))
        pairs.append((p * x * q, p * rand_word(rng.randrange(3)) * q))
        pairs.append((p * x * q, p * rng.choice(rels) * x * q))
    return pairs


@pytest.mark.parametrize("genus", [1, 2, 3])
@pytest.mark.parametrize("boundary", [0, 1])
def test_quotient_stream_agrees_with_two_stream_reference(genus, boundary):
    sig = SurfaceSig(genus, boundary)
    rng = random.Random(f"quotient/{genus}/{boundary}")
    seen = set()
    for w1, w2 in seeded_pairs(rng, sig):
        expected = two_stream_verdict(w1, w2)
        if expected is not None:
            assert decide_equal(w1, w2)[0] == expected, (w1, w2)
            seen.add(expected)
        assert homology_equal(w1, w2) == (word_matrix(w1) == word_matrix(w2))
    assert seen == {"true", "false"}


def test_shared_ends_keep_long_equal_words_under_the_cap():
    # the images of (a1 b1^-1)^16 pass the default cap, but psi is a
    # conjugate of the six-letter braid relator
    w = word(T1, "a1 b1^-1").power(16)
    assert decide_equal(w, w * word(T1, "a1 b1 a1 b1^-1 a1^-1 b1^-1")) == ("true", ENGINE_PI1)


def test_homology_rejects_before_the_free_group_runs():
    w = word(T1, "a1 b1^-1").power(6)
    assert decide_equal(w, word(T1, "a1"), cap=3) == ("false", ENGINE_PI1)
