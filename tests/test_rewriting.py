"""Commutation pulls, positivization, chain substitution, transports."""

import random

import pytest

import dehn.pi1
import dehn.rewriting
from dehn import (
    Fibration,
    SurfaceSig,
    Twist,
    TwistWord,
    chain_substitute,
    chain_word,
    commute_pull,
    decide_equal,
    double_report,
    inverse_twist_expansion,
    positivize,
    prop9_factor,
    splitting_words,
)
from dehn.homology import homology_class, homology_equal, transported_class
from dehn.pi1 import CHAIN_RELATIONS, ENGINE_CLOSED, ENGINE_HOMOLOGY_FAITHFUL, ENGINE_PI1
from dehn.rewriting import transport_pairs
from dehn.surface import curve_classes

T2 = SurfaceSig(2, 1)


def word(sig, names):
    return TwistWord.from_names(sig, names)


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------


def test_transport_pairs_examples():
    assert transport_pairs("a1", T2) == ()
    assert transport_pairs("b1", T2) == (("b1", -1), ("a1", -1))
    assert transport_pairs("d2", T2) == (
        ("b1", -1), ("a1", -1), ("a2", -1), ("b1", -1), ("b2", -1), ("a2", -1),
        ("d2", 1), ("b2", 1),
    )
    with pytest.raises(ValueError):
        transport_pairs("delta", T2)
    with pytest.raises(ValueError):
        transport_pairs("d2", SurfaceSig(1, 1))


@pytest.mark.parametrize("name, sig", [
    ("x1", T2), ("c1", SurfaceSig(2, 0)), ("a3", T2), ("delta", SurfaceSig(2, 0)),
    (5, T2), (None, T2), ("d2", SurfaceSig(1, 1)), ("e2", SurfaceSig(1, 0))])
def test_transport_pairs_rejects_a_name_that_is_not_a_curve(name, sig):
    # the text of every other invalid curve: there is no check of its own
    message = f"curve {name!r} is not valid on genus {sig.genus}, boundary {sig.boundary}"
    with pytest.raises(ValueError) as info:
        transport_pairs(name, sig)
    assert str(info.value) == message


def ref_transport_pairs(curve, sig):
    """The transport rule written out by hand: d2/e2 hop onto b2, then ride down."""
    chain = [f"a{(j + 1) // 2}" if j % 2 else f"b{j // 2}" for j in range(1, 2 * sig.genus + 1)]
    if curve in ("d2", "e2"):
        hop, top = ((curve, 1), ("b2", 1)), 4
    else:
        hop, top = (), chain.index(curve) + 1
    down = []
    for j in range(2, top + 1):
        down += [(chain[j - 1], -1), (chain[j - 2], -1)]
    return tuple(down) + hop


@pytest.mark.parametrize("boundary", [0, 1])
@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_transport_pairs_match_the_hand_written_rule(genus, boundary):
    # positivize reports carry these words, so they must not move
    sig = SurfaceSig(genus, boundary)
    for curve in curve_classes(sig):
        if curve != "delta":
            assert transport_pairs(curve, sig) == ref_transport_pairs(curve, sig), curve


def test_transport_conjugates_to_a1():
    for g in (2, 3, 4):
        sig = SurfaceSig(g, 1)
        a1 = word(sig, "a1")
        for curve in curve_classes(sig):
            if curve == "delta":
                continue
            v = TwistWord.from_names(sig, transport_pairs(curve, sig))
            moved = v * TwistWord.from_names(sig, [curve]) * v.inverse()
            assert decide_equal(moved, a1) == ("true", ENGINE_PI1), curve
            # and on homology classes, up to the curve's orientation
            t = Twist(curve, 1, transport_pairs(curve, sig))
            cls = homology_class("a1", sig)
            neg = tuple(-x for x in cls)
            assert transported_class(t, sig) in (cls, neg), curve


# ---------------------------------------------------------------------------
# commute_pull
# ---------------------------------------------------------------------------


def test_commute_pull_single_hop():
    rep = commute_pull(word(T2, "b1 a1"), word(T2, "a1"))
    assert rep.output.letters == (Twist("a1"), Twist("b1", 1, (("a1", -1),)))
    assert rep.steps == 1
    assert (rep.verified, rep.engine) == ("true", ENGINE_PI1)


def test_commute_pull_prefix_is_free():
    w = word(T2, "a1 b1 a2")
    rep = commute_pull(w, word(T2, "a1 b1"))
    assert rep.output == w
    assert rep.steps == 0


def test_commute_pull_disjoint_and_same_base_skip_conjugators():
    rep = commute_pull(word(T2, "a2 a1"), word(T2, "a1"))
    assert rep.output.letters == (Twist("a1"), Twist("a2"))
    rep = commute_pull(word(T2, "a1^-1 a1"), word(T2, "a1"))
    assert rep.output.letters == (Twist("a1"), Twist("a1", -1))
    assert rep.verified == "true"
    # d2 and a3 have intersection number 0, so d2 stays plain
    rep = commute_pull(word(SurfaceSig(3, 1), "d2 a3"), word(SurfaceSig(3, 1), "a3"))
    assert rep.output.letters == (Twist("a3"), Twist("d2"))
    assert (rep.verified, rep.engine) == ("true", ENGINE_PI1)


def test_commute_pull_preserves_letter_count():
    w = chain_word(T2, 4)
    pattern = word(T2, "a1 b1 a2").power(4)
    rep = commute_pull(w, pattern)
    assert len(rep.output) == len(w) == 16
    assert rep.output.letters[:12] == pattern.letters
    assert (rep.verified, rep.engine) == ("true", ENGINE_PI1)


def test_commute_pull_rejections():
    with pytest.raises(ValueError, match="not realizable"):
        commute_pull(word(T2, "a1 b1"), word(T2, "d2"))
    with pytest.raises(ValueError, match="not realizable"):
        # only one plain a1 available for a two-a1 pattern
        commute_pull(word(T2, "a1 b1"), word(T2, "a1 a1"))
    with pytest.raises(ValueError, match="plain"):
        commute_pull(word(T2, "a1"), TwistWord(T2, (Twist("a1", 1, (("b1", 1),)),)))
    with pytest.raises(ValueError, match="different surfaces"):
        commute_pull(word(T2, "a1"), word(SurfaceSig(3, 1), "a1"))


def test_prop9_factor_counts():
    for n in (2, 3, 4):
        prefix, psi = prop9_factor(n)
        assert prefix == word(SurfaceSig(n, 1), "a1 b1 a2").power(4)
        assert len(psi) == 8 * n - 12
        assert psi.all_positive()
        assert all(t.base != "delta" for t in psi.letters)
    with pytest.raises(ValueError):
        prop9_factor(1)


# ---------------------------------------------------------------------------
# inverse_twist_expansion / positivize
# ---------------------------------------------------------------------------


def test_expansion_shape():
    torus = SurfaceSig(1, 0)
    e = inverse_twist_expansion(torus)
    assert [t.base for t in e.letters] == ["b1"] + ["a1", "b1"] * 5
    for g in (1, 2, 3):
        sig = SurfaceSig(g, 0)
        e = inverse_twist_expansion(sig)
        assert len(e) == (2 * g - 1) + 2 * g * (4 * g + 1)
        assert e.all_positive()
        # a1 . expansion is literally the full chain power
        lhs = TwistWord.from_names(sig, "a1") * e
        assert lhs.letters == chain_word(sig, 4 * g + 2).letters
        engine = ENGINE_CLOSED if g >= 2 else ENGINE_HOMOLOGY_FAITHFUL
        assert decide_equal(lhs, TwistWord(sig, ())) == ("true", engine)
    with pytest.raises(ValueError):
        inverse_twist_expansion(SurfaceSig(1, 1))
    with pytest.raises(ValueError):
        inverse_twist_expansion(SurfaceSig(0, 0))


def test_positivize_trivial_torus_word():
    torus = SurfaceSig(1, 0)
    rep = positivize(word(torus, "a1 b1 b1^-1 a1^-1"))
    assert len(rep.output) == 24
    assert rep.output.all_positive()
    assert rep.steps == 2
    assert (rep.verified, rep.engine) == ("true", ENGINE_HOMOLOGY_FAITHFUL)
    assert decide_equal(rep.output, TwistWord(torus, ())) == ("true", ENGINE_HOMOLOGY_FAITHFUL)


def test_positivize_single_inverse_is_plain_expansion():
    torus = SurfaceSig(1, 0)
    rep = positivize(word(torus, "a1^-1"))
    assert rep.output.letters == inverse_twist_expansion(torus).letters
    assert len(rep.output) == 11


def test_positivize_positive_input_unchanged():
    torus = SurfaceSig(1, 0)
    w = word(torus, "a1 b1 a1")
    rep = positivize(w)
    assert rep.output == w
    assert rep.steps == 0
    assert rep.verified == "true"


def test_positivize_conjugated_negative_letter():
    closed2 = SurfaceSig(2, 0)
    t = Twist("b2", -1, (("a1", 1),))
    rep = positivize(TwistWord(closed2, (t,)), engine="homology")
    assert len(rep.output) == 39
    expected_conj = (("a1", 1),) + tuple(
        (n, -s) for n, s in reversed(transport_pairs("b2", closed2)))
    assert all(u.conj == expected_conj for u in rep.output.letters)
    assert homology_equal(TwistWord(closed2, (t,)), rep.output)


def _letter_count(word):
    return sum(1 + len(t.conj) for t in word.letters)


def _rejected(monkeypatch, build, count):
    """What ``build`` reached of the engine before it raised, naming ``count``, at bound ``count`` - 1.

    The engine is seen through ``decide_equal`` and ``twist_tables``.
    """
    seen = []
    real_decide, real_tables = dehn.rewriting.decide_equal, dehn.pi1.twist_tables
    with monkeypatch.context() as m:
        m.setattr(dehn.rewriting, "decide_equal",
                  lambda *args: seen.append("decide_equal") or real_decide(*args))
        m.setattr(dehn.pi1, "twist_tables",
                  lambda genus: seen.append("twist_tables") or real_tables(genus))
        m.setattr(dehn.rewriting, "OUTPUT_MAX_LETTERS", count - 1)
        with pytest.raises(ValueError) as exc:
            build()
    assert str(exc.value) == (f"field 'word' would give {count} output letters "
                              f"counting conjugators, more than {count - 1}")
    return seen


def _at_the_bound(monkeypatch, build, count):
    """``_rejected`` below the bound ``count``, and what ``build`` gives at it."""
    seen = _rejected(monkeypatch, build, count)
    with monkeypatch.context() as m:
        m.setattr(dehn.rewriting, "OUTPUT_MAX_LETTERS", count)
        return seen, build()


def test_output_length_is_the_length_of_the_output(monkeypatch):
    # positivize counts its output, conjugator letters included, before it
    # builds or verifies any of it; one curve negative several times, under
    # different conjugators
    rng = random.Random("output-length")
    for g in (1, 2, 3):
        sig = SurfaceSig(g, 0)
        curves = list(curve_classes(sig))
        for _ in range(4):
            repeated = rng.choice(curves)
            letters = [Twist(repeated, -1, tuple((rng.choice(curves), rng.choice((1, -1)))
                                                for _ in range(k))) for k in (0, 1, 2, 1)]
            letters += [Twist(rng.choice(curves), rng.choice((1, -1)),
                              ((rng.choice(curves), 1),) * rng.randrange(2)) for _ in range(3)]
            rng.shuffle(letters)
            w = TwistWord(sig, tuple(letters))
            count = _letter_count(positivize(w, engine="homology").output)
            seen, rep = _at_the_bound(monkeypatch, lambda: positivize(w, engine="homology"), count)
            assert seen == [] and _letter_count(rep.output) == count
    empty = TwistWord(SurfaceSig(2, 0), ())
    seen, rep = _at_the_bound(monkeypatch, lambda: positivize(empty), 0)
    assert seen == [] and rep.output == empty


def _seeded_words(rng, genus):
    """Five four-letter words on the closed surface of ``genus``, with up to two conjugator letters each."""
    curves = list(curve_classes(SurfaceSig(genus, 0)))
    return [[(rng.choice(curves), rng.choice((1, -1)),
              tuple((rng.choice(curves), rng.choice((1, -1))) for _ in range(rng.randrange(3))))
             for _ in range(4)] for _ in range(5)]


def test_double_and_splitting_count_their_output(monkeypatch):
    rng = random.Random("output-size")
    for genus in (1, 2, 3):
        bounded = SurfaceSig(genus, 1)
        for word in _seeded_words(rng, genus):
            palf = Fibration("disk",
                             TwistWord(bounded, tuple(Twist(b, 1, c) for b, _, c in word)))
            count = _letter_count(double_report(palf).fibration.word)
            seen, rep = _at_the_bound(monkeypatch, lambda: double_report(palf), count)
            assert seen == [] and _letter_count(rep.fibration.word) == count
    # splitting positivizes twice; the second output is the larger, and is
    # counted once the first is built and verified
    rng = random.Random("splitting-size")
    for genus in (1, 2):
        closed = SurfaceSig(genus, 0)
        for word in _seeded_words(rng, genus)[:2]:
            phi = TwistWord(closed, tuple(Twist(*t) for t in word))
            x1, x2 = splitting_words(phi)
            first, second = _letter_count(x1.word), _letter_count(x2.word)
            assert _rejected(monkeypatch, lambda: splitting_words(phi), first) == []
            seen, (y1, y2) = _at_the_bound(monkeypatch, lambda: splitting_words(phi), second)
            assert seen.count("decide_equal") == 1 and (y1, y2) == (x1, x2)


def test_positivize_transports_each_negative_base_once(monkeypatch):
    calls = []

    def spy(curve, sig):
        calls.append(curve)
        return transport_pairs(curve, sig)

    monkeypatch.setattr(dehn.rewriting, "transport_pairs", spy)
    sig = SurfaceSig(2, 0)
    w = TwistWord(sig, (Twist("b2", -1), Twist("a1", 1), Twist("b2", -1, (("a1", 1),)),
                        Twist("d2", -1), Twist("b2", -1, (("b1", -1),)), Twist("d2", -1)))
    positivize(w, engine="homology")
    assert calls == ["b2", "d2"]
    # the output is counted from the same transports, also when it is rejected
    calls.clear()
    monkeypatch.setattr(dehn.rewriting, "OUTPUT_MAX_LETTERS", 0)
    with pytest.raises(ValueError, match="output letters"):
        positivize(w, engine="homology")
    assert calls == ["b2", "d2"]


def test_positivize_rejections():
    with pytest.raises(ValueError):
        positivize(word(T2, "a1^-1"))
    torus = SurfaceSig(1, 0)
    with pytest.raises(ValueError):
        positivize(TwistWord(SurfaceSig(1, 1), (Twist("delta", -1),)))


def test_positivize_random_battery():
    rng = random.Random(17)
    for _ in range(15):
        g = rng.choice((1, 2))
        sig = SurfaceSig(g, 0)
        curves = [c for c in curve_classes(sig) if c != "delta"]
        k = rng.randrange(1, 7)
        names = [(rng.choice(curves), rng.choice((1, -1))) for _ in range(k)]
        w = TwistWord.from_names(sig, names)
        rep = positivize(w, engine="homology")
        assert rep.output.all_positive()
        positives = sum(1 for t in w.letters if t.sign == 1)
        negatives = k - positives
        expansion = (2 * g - 1) + 2 * g * (4 * g + 1)
        assert len(rep.output) == positives + negatives * expansion
        assert homology_equal(w, rep.output)
        assert rep.verified != "false"


# ---------------------------------------------------------------------------
# chain_substitute
# ---------------------------------------------------------------------------


def test_chain_substitute_shortens_by_ten():
    w = word(T2, "a1 b1 a2").power(4) * chain_word(T2, 7)
    assert len(w) == 40
    rep = chain_substitute(w)
    assert len(rep.output) == 30
    assert rep.output.letters[:2] == (Twist("d2"), Twist("e2"))
    assert (rep.verified, rep.engine) == ("true", ENGINE_PI1)
    assert homology_equal(w, rep.output)


def test_chain_substitute_interior_block():
    w = word(T2, "b2") * word(T2, "a1 b1 a2").power(4)
    rep = chain_substitute(w)
    assert rep.output.letters == (Twist("b2"), Twist("d2"), Twist("e2"))


def test_chain_substitute_rejections():
    with pytest.raises(ValueError, match="no contiguous"):
        chain_substitute(chain_word(T2, 4))  # b2 letters interrupt the block
    with pytest.raises(ValueError, match="no contiguous"):
        chain_substitute(word(T2, "a1 b1 a2").power(3))
    # a 12-letter block with one conjugated letter, or with one a1^-1, is no match
    block = list(word(T2, "a1 b1 a2").power(4).letters)
    for k, bad in ((4, Twist("b1", 1, (("a1", 1),))), (6, Twist("a1", -1))):
        letters = block[:k] + [bad] + block[k + 1:]
        with pytest.raises(ValueError, match="no contiguous"):
            chain_substitute(TwistWord(T2, letters))
    with pytest.raises(ValueError, match="genus"):
        chain_substitute(word(SurfaceSig(1, 1), "a1 b1"))


def test_chain_relation_selftest():
    # (a1 b1 a2)^4 = d2 e2 on (g=2, b=1), in homology and rel boundary
    lhs, rhs = word(T2, "a1 b1 a2").power(4), word(T2, "d2 e2")
    assert (2, " ".join(["a1 b1 a2"] * 4), "d2 e2") in CHAIN_RELATIONS
    assert homology_equal(lhs, rhs)
    assert decide_equal(lhs, rhs) == ("true", ENGINE_PI1)
