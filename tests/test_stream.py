"""Compiled letter streams and the signed generator tables they run on."""

import random

import pytest

from dehn import (
    SurfaceSig,
    Twist,
    TwistWord,
    WordGrowthExceeded,
    decide_equal,
)
from dehn.freegroup import invert_word, reduce_word
from dehn.homology import is_identity, stream_matrix
from dehn.pi1 import (
    DEFAULT_CAP,
    ENGINE_CLOSED,
    ENGINE_PI1,
    _images,
    apply_twist,
    apply_word,
    dehn_reduce,
    twist_tables,
)
from dehn.rewriting import positivize
from dehn.surface import compile_word, curve_classes, invert_steps, quotient_stream
from run_words import run_shaped_word


def reference_apply(auto, z):
    """Letterwise image from the positive images alone, inverting per letter."""
    out = []
    for x in z:
        img = auto.images[x - 1] if x > 0 else invert_word(auto.images[-x - 1])
        for y in img:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def reference_apply_word(word, z):
    """Letter by letter: each u t u^-1 swept through the tables, uncancelled."""
    tables = twist_tables(word.surface.genus)
    z = reduce_word(z)
    for t in reversed(word.letters):
        for name, sign in t.conj:
            z = reference_apply(tables[(name, -sign)], z)
        z = reference_apply(tables[(t.base, t.sign)], z)
        for name, sign in reversed(t.conj):
            z = reference_apply(tables[(name, sign)], z)
    return z


def random_word(rng, sig, length):
    """Conjugated letters with adjacent t t^-1 pairs and shared conjugators."""
    curves = tuple(curve_classes(sig))

    def plain():
        return (rng.choice(curves), rng.choice((1, -1)))

    letters = []
    while len(letters) < length:
        conj = tuple(plain() for _ in range(rng.randrange(3)))
        t = Twist(*plain(), conj)
        roll = rng.random()
        if roll < 0.25:
            letters += [t, t.inverse()]
        elif roll < 0.5:
            letters += [t, Twist(*plain(), conj)]
        else:
            letters.append(t)
    return TwistWord(sig, tuple(letters))


def random_element(rng, genus, length):
    return reduce_word(rng.choice((1, -1)) * rng.randint(1, 2 * genus) for _ in range(length))


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_inverse_images_are_inverted_images(genus):
    for key, auto in twist_tables(genus).items():
        for k in range(1, 2 * genus + 1):
            assert auto.apply((-k,)) == invert_word(auto.images[k - 1]), (key, k)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_signed_apply_matches_letterwise_inversion(genus):
    rng = random.Random(genus)
    for auto in twist_tables(genus).values():
        for _ in range(10):
            z = tuple(rng.choice((1, -1)) * rng.randint(1, 2 * genus) for _ in range(12))
            assert auto.apply(z) == reference_apply(auto, z)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_opposite_tables_cancel(genus):
    # a cancelled x^s x^-s pair of the stream composes to the identity
    tables = twist_tables(genus)
    for (name, sign), auto in tables.items():
        inverse = tables[(name, -sign)]
        for k in range(1, 2 * genus + 1):
            assert inverse.apply(auto.apply((k,))) == (k,)


@pytest.mark.parametrize("genus", [1, 2, 3])
@pytest.mark.parametrize("boundary", [0, 1])
def test_stream_matches_letter_by_letter_reference(genus, boundary):
    sig = SurfaceSig(genus, boundary)
    rng = random.Random(100 * genus + boundary)
    for _ in range(12):
        w = random_word(rng, sig, rng.randint(1, 6))
        for k in range(1, 2 * genus + 1):
            assert apply_word(w, (k,)) == reference_apply_word(w, (k,))
        z = random_element(rng, genus, 8)
        assert apply_word(w, z) == reference_apply_word(w, z)


def test_apply_twist_matches_reference():
    sig = SurfaceSig(2, 1)
    rng = random.Random(5)
    for _ in range(20):
        t = random_word(rng, sig, 1).letters[0]
        z = random_element(rng, 2, 6)
        assert apply_twist(t, z, sig) == reference_apply_word(TwistWord(sig, (t,)), z)
    with pytest.raises(ValueError):
        apply_twist(Twist("delta"), (1,), SurfaceSig(2, 0))


def test_compiled_stream_cancels():
    sig = SurfaceSig(2, 1)
    u = (("a1", 1), ("b2", -1))
    t = Twist("b1", 1, u)
    # conjugated letter: u^-1 swept forward with flipped signs, base, u reversed
    assert compile_word(TwistWord(sig, (t,))) == (
        ("a1", -1), ("b2", 1), ("b1", 1), ("b2", -1), ("a1", 1))
    # adjacent t t^-1 cancels completely
    assert compile_word(TwistWord(sig, (t, t.inverse()))) == ()
    # letters sharing a conjugator lose the u ... u^-1 seam between them
    s = Twist("a2", -1, u)
    assert compile_word(TwistWord(sig, (t, s))) == (
        ("a1", -1), ("b2", 1), ("a2", -1), ("b1", 1), ("b2", -1), ("a1", 1))
    # conjugator letters cancel against plain neighbours too
    plain = TwistWord.from_names(sig, "a1^-1")
    assert compile_word(plain * TwistWord(sig, (t,))) == (
        ("a1", -1), ("b2", 1), ("b1", 1), ("b2", -1))


def reference_compile_word(word):
    """Letter by letter: u^-1, base, u pushed for every letter, seams cancelled one push at a time."""
    stream = []
    delta = 0
    for t in reversed(word.letters):
        if t.base == "delta":
            delta += t.sign
            continue
        steps = [(name, -sign) for name, sign in t.conj]
        steps.append((t.base, t.sign))
        steps += reversed(t.conj)
        for name, sign in steps:
            if stream and stream[-1] == (name, -sign):
                stream.pop()
            else:
                stream.append((name, sign))
    stream += [("delta", 1 if delta > 0 else -1)] * abs(delta)
    return tuple(stream)


@pytest.mark.parametrize("genus", [1, 2, 3])
@pytest.mark.parametrize("boundary", [0, 1])
def test_run_walk_matches_letter_by_letter_stream(genus, boundary):
    sig = SurfaceSig(genus, boundary)
    rng = random.Random(f"runs/{genus}/{boundary}")
    for _ in range(40):
        w = run_shaped_word(rng, sig, rng.randint(1, 6))
        assert compile_word(w) == reference_compile_word(w), w
    for _ in range(10):
        w = random_word(rng, sig, rng.randint(1, 6))
        assert compile_word(w) == reference_compile_word(w), w
        if boundary == 0:
            out = positivize(w, engine="homology").output
            assert compile_word(out) == reference_compile_word(out)


def test_run_walk_shapes():
    sig = SurfaceSig(2, 1)
    u, v = (("a1", 1), ("b2", -1)), (("a1", 1), ("d2", 1))
    shared = [Twist._trusted("b1", 1, u), Twist._trusted("a2", -1, u)]
    # equal conjugators in different tuples form one run, like one shared tuple
    equal = [Twist("b1", 1, u), Twist("a2", -1, tuple(list(u)))]
    assert equal[0].conj is not equal[1].conj
    runs = (("a1", -1), ("b2", 1), ("a2", -1), ("b1", 1), ("b2", -1), ("a1", 1))
    for letters in (shared, equal):
        assert compile_word(TwistWord(sig, tuple(letters))) == runs
    # a delta letter inside a run leaves the run open
    w = TwistWord(sig, (shared[0], Twist("delta", -1, u), shared[1]))
    assert compile_word(w) == runs + (("delta", -1),)
    # alternating conjugators close and open a run at every letter; u and v
    # share their first step, so closing one and opening the other cancel it
    w = TwistWord(sig, (Twist("e2", 1, u), Twist("a2", 1, v), Twist("b1", -1, u)))
    assert compile_word(w) == reference_compile_word(w) == (
        ("a1", -1), ("b2", 1), ("b1", -1), ("b2", -1), ("d2", -1), ("a2", 1),
        ("d2", 1), ("b2", 1), ("e2", 1), ("b2", -1), ("a1", 1))
    # a conjugator whose last step is the base cancels it
    w = TwistWord(sig, (Twist("b1", 1, (("a1", 1), ("b1", 1))),))
    assert compile_word(w) == (("a1", -1), ("b1", 1), ("a1", 1))
    assert compile_word(TwistWord(sig, ())) == ()


def test_delta_letters_act_last():
    # the boundary twist is central: every delta letter, plain or
    # conjugated, leaves the stream and delta^e acts last
    sig = SurfaceSig(2, 1)
    u = (("a1", 1), ("b2", -1))
    assert compile_word(TwistWord.from_names(sig, "delta a1 delta")) == (
        ("a1", 1), ("delta", 1), ("delta", 1))
    assert compile_word(TwistWord.from_names(sig, "a1 delta^-1 b1")) == (
        ("b1", 1), ("a1", 1), ("delta", -1))
    w = TwistWord(sig, (Twist("b1"), Twist("delta", -1, u), Twist("delta", 1, u)))
    assert compile_word(w) == (("b1", 1),)
    w = TwistWord(sig, (Twist("delta", 1, u), Twist("a2")))
    assert compile_word(w) == (("a2", 1), ("delta", 1))
    # a plain and a conjugated delta give the same stream, wherever they stand
    a1 = TwistWord.from_names(sig, "a1")
    delta = TwistWord.from_names(sig, "delta")
    assert quotient_stream(delta * a1, TwistWord(sig, (Twist("a1"), Twist("delta", 1, u)))) == ()
    assert quotient_stream(delta * a1, a1 * delta.inverse()) == (
        ("delta", 1), ("delta", 1))


def test_moved_delta_is_decided_under_a_small_cap():
    # the images of x = (a1 b1^-1)^14 pass cap 1000; with delta hoisted to
    # the last-acting end the shared x needs no free-group work at all
    sig = SurfaceSig(1, 1)
    x = TwistWord.from_names(sig, "a1 b1^-1").power(14)
    delta = TwistWord.from_names(sig, "delta")
    assert decide_equal(delta * x, x * delta, cap=1000) == ("true", ENGINE_PI1)
    assert decide_equal(delta * x, x * delta.inverse(), cap=1000) == ("false", ENGINE_PI1)


def test_quotient_stream():
    sig = SurfaceSig(2, 1)
    u = (("a1", 1), ("b2", -1))
    w = TwistWord(sig, (Twist("b1", 1, u), Twist("a2", -1, u), Twist("d2")))
    assert quotient_stream(w, w) == ()
    # psi = w2^-1 . w1: w1's stream, then w2's reversed with signs flipped
    a1, b1 = TwistWord.from_names(sig, "a1"), TwistWord.from_names(sig, "b1")
    assert quotient_stream(a1, b1) == (("a1", 1), ("b1", -1))
    assert quotient_stream(a1, TwistWord(sig, ())) == (("a1", 1),)
    assert quotient_stream(TwistWord(sig, ()), a1) == (("a1", -1),)
    # the shared first-acting steps (w's stream) and the shared last-acting
    # steps (u's) are dropped, whatever lies between them
    mid1 = TwistWord.from_names(sig, "b2 a2^-1")
    mid2 = TwistWord.from_names(sig, "e2")
    v = TwistWord.from_names(sig, "a1 b1 a1^-1")
    assert quotient_stream(v * mid1 * w, v * mid2 * w) == (
        ("a2", -1), ("b2", 1), ("e2", -1))
    # one stream a prefix of the other: only the extra steps remain
    assert quotient_stream(w, a1 * w) == (("a1", -1),)
    assert quotient_stream(w * a1, w) == (("a1", 1),)
    with pytest.raises(ValueError, match="different surfaces"):
        quotient_stream(a1, TwistWord.from_names(SurfaceSig(2, 0), "a1"))


@pytest.mark.parametrize("genus", [1, 2, 3])
@pytest.mark.parametrize("boundary", [0, 1])
def test_invert_steps_inverts_compiled_streams(genus, boundary):
    sig = SurfaceSig(genus, boundary)
    empty = TwistWord(sig, ())
    rng = random.Random(f"invert/{genus}/{boundary}")
    for _ in range(200):
        w = run_shaped_word(rng, sig, rng.randint(1, 6))
        stream = compile_word(w)
        assert invert_steps(invert_steps(stream)) == stream
        # compile_word puts delta^e last, so the delta steps are compared apart
        body = tuple(step for step in stream if step[0] != "delta")
        delta = stream[len(body):]
        assert body + delta == stream
        assert compile_word(w.inverse()) == invert_steps(body) + invert_steps(delta)
        assert quotient_stream(w, empty) == stream
        assert quotient_stream(empty, w) == invert_steps(stream)


def test_compiled_path_respects_cap():
    sig = SurfaceSig(1, 1)
    w = TwistWord.from_names(sig, "a1 b1^-1").power(6)
    with pytest.raises(WordGrowthExceeded) as info:
        apply_word(w, (1,), cap=5)
    assert info.value.cap == 5 and info.value.length > 5
    # words equal on homology reach the free group, where the cap answers "unknown"
    chain = TwistWord.from_names(sig, "a1 b1").power(6)
    delta = TwistWord.from_names(sig, "delta")
    assert decide_equal(chain, delta, cap=5) == ("unknown", ENGINE_PI1)
    closed = SurfaceSig(2, 0)
    w2 = TwistWord.from_names(closed, "a1 b1 a2 b2").power(10)
    assert decide_equal(w2, TwistWord(closed, ()), cap=5) == ("unknown", ENGINE_CLOSED)


def forward_images(genus, stream):
    """Reference: the whole stream, first-acting step first, run on each generator."""
    tables = twist_tables(genus)
    images = []
    for k in range(1, 2 * genus + 1):
        z = (k,)
        for step in stream:
            z = tables[step].apply(z)
        images.append(z)
    return images


def forward_verdict(w1, w2):
    """Reference verdict of the free-group engines from the forward images."""
    sig = w1.surface
    psi = quotient_stream(w1, w2)
    if not is_identity(stream_matrix(sig, psi)):
        return "false"
    images = enumerate(forward_images(sig.genus, psi), 1)
    if sig.boundary:
        fixed = all(u == (k,) for k, u in images)
    else:
        fixed = all(not dehn_reduce(u + (-k,), sig.genus) for k, u in images)
    return "true" if fixed else "false"


@pytest.mark.parametrize("genus", [1, 2, 3])
@pytest.mark.parametrize("boundary", [0, 1])
def test_backward_images_match_forward_reference(genus, boundary):
    # equal as free words: equal rel boundary, and u v^-1 Dehn-reduces to ()
    sig = SurfaceSig(genus, boundary)
    rng = random.Random(f"images/{genus}/{boundary}")
    n = 2 * genus
    for _ in range(20):
        stream = compile_word(random_word(rng, sig, rng.randint(1, 8)))
        images = _images(genus, stream, DEFAULT_CAP)
        assert [tuple(images[k]) for k in range(1, n + 1)] == forward_images(genus, stream)
        for k in range(1, n + 1):
            assert tuple(images[-k]) == invert_word(tuple(images[k]))


@pytest.mark.parametrize("sig", [SurfaceSig(1, 1), SurfaceSig(2, 0), SurfaceSig(2, 1),
                                 SurfaceSig(3, 0), SurfaceSig(3, 1)])
def test_decide_equal_matches_forward_reference(sig):
    # a braid relator inserted gives "true"; (a1 b1)^6, a twist about a
    # separating curve (delta at genus 1), gives "false" past homology
    rng = random.Random(f"verdicts/{sig.genus}/{sig.boundary}")
    chain = tuple(curve_classes(sig))[:2 * sig.genus]
    separating = TwistWord.from_names(sig, "a1 b1").power(6)
    seen = set()
    for _ in range(15):
        w = random_word(rng, sig, rng.randint(1, 6))
        i = rng.randrange(len(w) + 1)
        head, tail = TwistWord(sig, w.letters[:i]), TwistWord(sig, w.letters[i:])
        j = rng.randrange(len(chain) - 1)
        c, d = chain[j], chain[j + 1]
        relator = TwistWord.from_names(sig, f"{c} {d} {c} {d}^-1 {c}^-1 {d}^-1")
        for other in (head * relator * tail, head * separating * tail,
                      random_word(rng, sig, rng.randint(1, 6))):
            expected = forward_verdict(w, other)
            assert decide_equal(w, other)[0] == expected, (w, other)
            seen.add(expected)
    assert seen == {"true", "false"}
