"""Commutation pulls, positivization, chain substitution, transports."""

import random

import pytest

import dehn.constructions
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
from dehn.pi1 import (
    CHAIN_RELATIONS,
    DEFAULT_CAP,
    ENGINE_CLOSED,
    ENGINE_HOMOLOGY_FAITHFUL,
    ENGINE_HOMOLOGY_NECESSARY,
    ENGINE_PI1,
    _reduced_psi,
)
from dehn.rewriting import OutputTooLarge, _inverse_lemma, transport_pairs
from dehn.surface import curve_classes
from two_streams import two_stream_verdict

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
    assert rep.verdict == ("true", ENGINE_PI1)


def test_commute_pull_prefix_is_free():
    w = word(T2, "a1 b1 a2")
    rep = commute_pull(w, word(T2, "a1 b1"))
    assert rep.output == w
    assert rep.steps == 0


def test_commute_pull_disjoint_and_same_base_skip_conjugators():
    # decide_equal cancels a plain swap's steps before any twist table is
    # read, so each output is also checked through its own stream
    w = word(T2, "a2 a1")
    rep = commute_pull(w, word(T2, "a1"))
    assert rep.output.letters == (Twist("a1"), Twist("a2"))
    assert two_stream_verdict(w, rep.output) == "true"
    w = word(T2, "a1^-1 a1")
    rep = commute_pull(w, word(T2, "a1"))
    assert rep.output.letters == (Twist("a1"), Twist("a1", -1))
    assert rep.verdict[0] == "true"
    assert two_stream_verdict(w, rep.output) == "true"
    # d2 and a3 have intersection number 0, so d2 stays plain
    w = word(SurfaceSig(3, 1), "d2 a3")
    rep = commute_pull(w, word(SurfaceSig(3, 1), "a3"))
    assert rep.output.letters == (Twist("a3"), Twist("d2"))
    assert rep.verdict == ("true", ENGINE_PI1)
    assert two_stream_verdict(w, rep.output) == "true"


def test_commute_pull_preserves_letter_count():
    w = chain_word(T2, 4)
    pattern = word(T2, "a1 b1 a2").power(4)
    rep = commute_pull(w, pattern)
    assert len(rep.output) == len(w) == 16
    assert rep.output.letters[:12] == pattern.letters
    assert rep.verdict == ("true", ENGINE_PI1)


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
        prefix, psi, verdict = prop9_factor(n)
        assert verdict == ("true", ENGINE_PI1)
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
    assert rep.verdict == ("true", ENGINE_HOMOLOGY_FAITHFUL)
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
    assert rep.verdict[0] == "true"


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

    The engine is seen through ``decide_equal``, in each module that calls
    it, and ``twist_tables``.
    """
    seen = []
    real_decide, real_tables = dehn.pi1.decide_equal, dehn.pi1.twist_tables
    with monkeypatch.context() as m:
        for module in (dehn.rewriting, dehn.constructions):
            m.setattr(module, "decide_equal",
                      lambda *args: seen.append("decide_equal") or real_decide(*args))
        m.setattr(dehn.pi1, "twist_tables",
                  lambda genus: seen.append("twist_tables") or real_tables(genus))
        m.setattr(dehn.rewriting, "OUTPUT_MAX_LETTERS", count - 1)
        with pytest.raises(OutputTooLarge) as exc:
            build()
    # a library caller has no request field, so none is named
    assert str(exc.value) == (f"the positivized word would have {count} letters "
                              f"counting conjugators, more than {count - 1}")
    assert (exc.value.size, exc.value.limit) == (count, count - 1)
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
            count = _letter_count(double_report(palf)[0].word)
            seen, (f, _) = _at_the_bound(monkeypatch, lambda: double_report(palf), count)
            assert seen == [] and _letter_count(f.word) == count
    # splitting positivizes twice; the second output is the larger, and is
    # counted once the first is built, before either is verified
    rng = random.Random("splitting-size")
    for genus in (1, 2):
        closed = SurfaceSig(genus, 0)
        for word in _seeded_words(rng, genus)[:2]:
            phi = TwistWord(closed, tuple(Twist(*t) for t in word))
            x1, x2, verdict = splitting_words(phi)
            first, second = _letter_count(x1.word), _letter_count(x2.word)
            assert _rejected(monkeypatch, lambda: splitting_words(phi), first) == []
            seen, split = _at_the_bound(monkeypatch, lambda: splitting_words(phi), second)
            assert seen == [] and split == (x1, x2, verdict)


def test_positivize_transports_each_negative_base_once(monkeypatch):
    calls = []

    def spy(curve, sig):
        calls.append(curve)
        return transport_pairs(curve, sig)

    monkeypatch.setattr(dehn.rewriting, "transport_pairs", spy)
    sig = SurfaceSig(2, 0)
    w = TwistWord(sig, (Twist("b2", -1), Twist("a1", 1), Twist("b2", -1, (("a1", 1),)),
                        Twist("d2", -1), Twist("b2", -1, (("b1", -1),)), Twist("d2", -1)))
    # once for the output, and once for each lemma that is not yet kept
    positivize(w, engine="homology")
    assert calls == ["b2", "d2", "b2", "d2"]
    calls.clear()
    positivize(w, engine="homology")
    assert calls == ["b2", "d2"]
    # the output is counted from the same transports, also when it is rejected
    calls.clear()
    monkeypatch.setattr(dehn.rewriting, "OUTPUT_MAX_LETTERS", 0)
    with pytest.raises(OutputTooLarge, match="1600 letters"):
        positivize(w, engine="homology")
    assert calls == ["b2", "d2"]


@pytest.mark.parametrize("genus", [1, 2, 3, 4, 5, 6, 7, 8])
def test_every_single_inverse_collapses_before_the_engine(genus):
    # t_c^-1 becomes v^-1 . E . v, v the transport of c and E the chain
    # relator less one step, so psi holds E^-1, a walk of L - 1 steps that
    # the more-than-half rule of the chain turns into one step.  What is
    # left, c^-1 . v^-1 . a1 . v, is trivial by the braid relators of v's
    # hops, and the braid pass empties it.  That is each curve's
    # inverse-twist lemma, which every closed curve has: decided "true" by
    # the exact engine, and left "unknown" by the necessary one, which
    # homology decides only at genus 1
    sig = SurfaceSig(genus, 0)
    exact = ENGINE_HOMOLOGY_FAITHFUL if genus == 1 else ENGINE_CLOSED
    necessary = ("true", exact) if genus == 1 else ("unknown", ENGINE_HOMOLOGY_NECESSARY)
    for c in curve_classes(sig):
        w = TwistWord(sig, (Twist(c, -1),))
        report = positivize(w)
        assert _reduced_psi(w, report.output) == (), c
        assert report.verdict == _inverse_lemma(sig, c, DEFAULT_CAP, "auto") == ("true", exact)
        assert _inverse_lemma(sig, c, DEFAULT_CAP, "homology") == necessary


def _decisions(monkeypatch):
    """Every ``decide_equal`` call that rewriting makes from now on, as (len(w1), len(w2))."""
    calls = []
    real = dehn.rewriting.decide_equal

    def spy(w1, w2, *args):
        calls.append((len(w1), len(w2)))
        return real(w1, w2, *args)

    monkeypatch.setattr(dehn.rewriting, "decide_equal", spy)
    return calls


def _signed_words(rng, genus, count):
    """Seeded six-letter words with conjugated letters and one curve negative twice."""
    sig = SurfaceSig(genus, 0)
    curves = list(curve_classes(sig))

    def conj():
        return tuple((rng.choice(curves), rng.choice((1, -1))) for _ in range(rng.randrange(3)))

    for _ in range(count):
        repeated = rng.choice(curves)
        letters = [Twist(repeated, -1, conj()) for _ in range(2)]
        letters += [Twist(rng.choice(curves), rng.choice((1, -1)), conj()) for _ in range(4)]
        rng.shuffle(letters)
        yield TwistWord(sig, tuple(letters))


def test_positivize_verdict_is_the_whole_decision_where_that_is_decided():
    # the lemma verdict against deciding the whole output against the input
    rng = random.Random("inverse-lemma-oracle")
    decided = 0
    for genus in (1, 2, 3):
        for w in _signed_words(rng, genus, 12):
            for engine in ("auto", "homology"):
                report = positivize(w, engine=engine)
                whole = decide_equal(w, report.output, engine)
                if whole[0] != "unknown":
                    decided += 1
                    assert report.verdict == whole, (w, engine)
                else:
                    assert report.verdict[0] != "false"
    assert decided >= 36 + 12  # every exact decision, and every homology one at genus 1


def test_a_second_positivize_makes_no_decision(monkeypatch):
    calls = _decisions(monkeypatch)
    w = word(SurfaceSig(3, 0), "b2^-1 a1 b2^-1 e2^-1 a3")
    first = positivize(w)
    assert calls == [(1, 83), (1, 83)]  # the lemmas of b2 and e2
    calls.clear()
    assert positivize(w) == first and calls == []
    # a positive word has no lemma, and is decided against itself
    positivize(word(SurfaceSig(3, 0), "a1 b2"))
    assert calls == [(2, 2)]


def test_a_false_lemma_is_positivize_verdict_and_double_raises(monkeypatch):
    # only b1's lemma answers "false"; a1's, decided first, is "true"
    real = dehn.rewriting.decide_equal

    def decide(w1, w2, *args):
        verdict, engine = real(w1, w2, *args)
        return ("false", engine) if w1.letters[0].base == "b1" else (verdict, engine)

    monkeypatch.setattr(dehn.rewriting, "decide_equal", decide)
    assert positivize(word(SurfaceSig(2, 0), "a1^-1 b1^-1")).verdict == ("false", ENGINE_CLOSED)
    assert positivize(word(SurfaceSig(2, 0), "a1^-1")).verdict == ("true", ENGINE_CLOSED)
    with pytest.raises(AssertionError, match="doubling"):
        double_report(Fibration("disk", word(T2, "a1 b1")))


def _images_seen(monkeypatch):
    """The stream of every ``_images`` call from now on."""
    streams = []
    real = dehn.pi1._images
    monkeypatch.setattr(dehn.pi1, "_images", lambda genus, stream, cap:
                        streams.append(stream) or real(genus, stream, cap))
    return streams


def test_positivize_of_the_fifty_fold_robustness_word_builds_no_image(monkeypatch):
    # 50 copies of b1 d2 b2 a1 e2^-1 on closed genus 3: e2's lemma is
    # c^-1 . v^-1 . a1 . v as steps, trivial by the braid relators of v's
    # hops, so the passes empty it and no generator image is composed from a
    # step.  Bounded by the work done, not by the time taken
    streams = _images_seen(monkeypatch)
    w = word(SurfaceSig(3, 0), " ".join(["b1 d2 b2 a1 e2^-1"] * 50))
    assert positivize(w).verdict == ("true", ENGINE_CLOSED)
    assert streams == [()]


def long_signed_word(genus, length):
    """``length`` plain letters of seed 1, each a closed curve of ``genus`` and a sign.

    The CI robustness step builds the genus-4 word the same way.
    """
    rng = random.Random(1)
    curves = list(curve_classes(SurfaceSig(genus, 0)))
    return TwistWord(SurfaceSig(genus, 0), tuple(
        Twist(rng.choice(curves), rng.choice((1, -1))) for _ in range(length)))


@pytest.mark.parametrize("genus, length", [(4, 400), (6, 300)])
def test_positivize_of_a_long_seeded_word_builds_no_image(monkeypatch, genus, length):
    # deciding the whole output against the input passed the cap on these
    # words, after 1-2 s; each distinct negative curve's lemma has an empty
    # psi, so no generator image is composed from a step
    streams = _images_seen(monkeypatch)
    w = long_signed_word(genus, length)
    assert positivize(w).verdict == ("true", ENGINE_CLOSED)
    assert streams and set(streams) == {()}


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
        assert rep.verdict[0] != "false"


# ---------------------------------------------------------------------------
# chain_substitute
# ---------------------------------------------------------------------------


def test_chain_substitute_shortens_by_ten():
    w = word(T2, "a1 b1 a2").power(4) * chain_word(T2, 7)
    assert len(w) == 40
    rep = chain_substitute(w)
    assert len(rep.output) == 30
    assert rep.output.letters[:2] == (Twist("d2"), Twist("e2"))
    assert rep.verdict == ("true", ENGINE_PI1)
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
