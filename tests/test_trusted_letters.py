"""Words built from letters already validated skip the check, and equal checked words."""

import io
import json
import random

import pytest

from dehn import (
    SurfaceSig,
    Twist,
    TwistWord,
    chain_substitute,
    chain_word,
    commute_pull,
    fiber_sum,
    gn_word,
    inverse_twist_expansion,
    positivize,
    prop9_factor,
    theorem11_family,
)
from dehn import cli, homology, surface
from dehn.cli import InputError, parse_word, run
from dehn.homology import is_identity, word_matrix
from dehn.surface import curve_classes, plain_letters


def checked(word):
    """The same letters through the public constructor, which validates each."""
    return TwistWord(word.surface, word.letters)


def assert_like_checked(word):
    again = checked(word)
    assert word == again and again == word
    assert hash(word) == hash(again)
    assert type(word.letters) is tuple


def test_every_trusted_path_equals_the_checked_word():
    sig = SurfaceSig(2, 0)
    w = TwistWord(sig, (Twist("a1"), Twist("b2", -1, (("a2", 1), ("b1", -1))), Twist("d2")))
    v = TwistWord.from_names(sig, "e2 b1^-1")
    for word in (w * v, v * w, w.inverse(), w.power(3), w.power(-2), w.power(0),
                 chain_word(sig, 3), inverse_twist_expansion(sig)):
        assert_like_checked(word)

    assert_like_checked(positivize(w).output)
    assert_like_checked(positivize(TwistWord(sig, ())).output)

    b2 = SurfaceSig(2, 1)
    pattern = TwistWord.from_names(b2, "a1 b1 a2").power(4)
    pulled = commute_pull(chain_word(b2, 4), pattern)
    assert_like_checked(pulled.output)
    assert_like_checked(chain_substitute(pulled.output).output)
    for part in prop9_factor(2)[:2]:
        assert_like_checked(part)
    for filling in theorem11_family(2)[0]:
        assert_like_checked(filling.word)


def test_certified_sphere_words_act_trivially_on_homology():
    # gn's word skips the sphere check: the chain relation is the theorem
    # behind it, so its homology action is checked here instead
    for n in range(1, 7):
        f = gn_word(n)
        assert f.base == "sphere" and f.fiber == SurfaceSig(n, 0)
        assert f.word.all_positive()
        assert is_identity(word_matrix(f.word))
        assert_like_checked(f.word)
    for n in (1, 2, 3):
        summed = fiber_sum(gn_word(n), gn_word(n))
        assert summed.base == "sphere"
        assert is_identity(word_matrix(summed.word))
        assert_like_checked(summed.word)


def spy_on_check_letters(monkeypatch):
    """Every letter handed to ``check_letters``, the one check of a letter's curves."""
    checked_letters = []
    check_letters = surface.check_letters

    def spy(letters, sig):
        letters = tuple(letters)
        checked_letters.extend(letters)
        return check_letters(letters, sig)

    for module in (surface, cli, homology):
        monkeypatch.setattr(module, "check_letters", spy)
    return checked_letters


def test_positivize_validates_each_input_letter_once(monkeypatch):
    calls = spy_on_check_letters(monkeypatch)
    word = [{"base": "b2", "sign": -1, "conj": [{"base": "a1"}, {"base": "b1", "sign": -1}]},
            {"base": "a2"},
            {"base": "a3", "sign": -1}]
    payload = {"surface": {"genus": 3, "boundary": 0}, "word": word}
    stdout = io.StringIO()
    code = run(["positivize"], stdin=io.StringIO(json.dumps(payload)), stdout=stdout)
    assert code == 0
    assert len(json.loads(stdout.getvalue())["word_out"]) == 1 + 2 * 83
    assert len(calls) == len(word)
    assert [t.base for t in calls] == ["b2", "a2", "a3"]


def test_verify_validates_each_input_letter_once(monkeypatch):
    calls = spy_on_check_letters(monkeypatch)
    words = [[{"base": "a1", "conj": [{"base": "b1"}]}, {"base": "b1", "sign": -1}],
             [{"base": "b1", "sign": -1}, {"base": "delta"}, {"base": "a1", "conj": [{"base": "b1"}]}]]
    payload = {"surface": {"genus": 1, "boundary": 1}, "words": words}
    stdout = io.StringIO()
    code = run(["verify"], stdin=io.StringIO(json.dumps(payload)), stdout=stdout)
    assert code == 1
    assert len(calls) == len(words[0]) + len(words[1])
    assert [t.base for t in calls] == ["a1", "b1", "b1", "delta", "a1"]


def random_letters(rng, sig, size):
    """Seeded JSON letters on ``sig``, some with a conjugator, some with the sign left out."""
    names = list(curve_classes(sig))
    letters = []
    for _ in range(size):
        letter = {"base": rng.choice(names)}
        if rng.random() < 0.7:
            letter["sign"] = rng.choice((1, -1))
        if rng.random() < 0.5:
            letter["conj"] = [{"base": rng.choice(names), "sign": rng.choice((1, -1))}
                              for _ in range(rng.randint(0, 3))]
        letters.append(letter)
    return letters


def test_read_words_equal_the_checked_words():
    rng = random.Random("read-words")
    for genus in (1, 2, 3):
        for boundary in (0, 1):
            sig = SurfaceSig(genus, boundary)
            for _ in range(20):
                letters = random_letters(rng, sig, rng.randint(0, 12))
                word = parse_word(sig, letters)
                assert_like_checked(word)
                public = TwistWord(sig, tuple(
                    Twist(e["base"], e.get("sign", 1),
                          tuple((c["base"], c["sign"]) for c in e.get("conj", [])))
                    for e in letters))
                assert word == public and hash(word) == hash(public)
                for t, e in zip(word.letters, letters):
                    assert type(t.conj) is tuple
                    assert all(type(pair) is tuple for pair in t.conj)
                    assert t.sign == e.get("sign", 1) and type(t.sign) is int


def test_positivize_shares_one_checked_conjugator_per_negative_letter(monkeypatch):
    sig = SurfaceSig(2, 0)
    w = TwistWord(sig, (Twist("b2", -1, (("a1", 1),)), Twist("a2"), Twist("e2", -1)))
    built = []
    init = Twist.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Twist, "__init__", spy)
    out = positivize(w).output.letters
    # only the chain word's plain letters go through the checks
    assert all(t.conj == () for t in built)
    n = len(inverse_twist_expansion(sig))
    assert len(out) == 1 + 2 * n
    for part in (out[:n], out[n + 1:]):
        assert len({id(t.conj) for t in part}) == 1
    for t in out:
        again = Twist(t.base, t.sign, t.conj)
        assert t == again and hash(t) == hash(again)


def test_inverse_keeps_the_shared_conjugators():
    # Twist.inverse shares its letter's conjugator tuple, so the inverse of
    # a positivize output keeps the runs that compile_word and report_text
    # tell apart with an identity test first
    out = positivize(TwistWord.from_names(SurfaceSig(2, 0), "a1 b1^-1 a2")).output
    inverse = out.inverse()

    def shared(word):
        return sum(s.conj is t.conj for s, t in zip(word.letters, word.letters[1:]))

    assert len(out) == 41 and shared(out) == 38
    assert shared(inverse) == 38
    for s, t in zip(reversed(inverse.letters), out.letters):
        assert s.conj is t.conj
        again = Twist(t.base, -t.sign, t.conj)
        assert s == again and hash(s) == hash(again)
    assert_like_checked(inverse)


def test_plain_letters_are_the_shared_table_letters():
    sig = SurfaceSig(2, 1)
    plain = plain_letters(sig)
    assert plain_letters(sig) is plain
    assert set(plain) == {(name, sign) for name in curve_classes(sig) for sign in (1, -1)}
    for (name, sign), t in plain.items():
        again = Twist(name, sign)
        assert t == again and hash(t) == hash(again)
    letters = [{"base": "a1"}, {"base": "b2", "sign": -1}, {"base": "delta", "sign": 1},
               {"base": "a1", "conj": []}, {"base": "a1", "conj": [{"base": "b1"}]},
               {"base": "e2", "sign": -1, "conj": []}]
    word = parse_word(sig, letters)
    assert_like_checked(word)
    shared = [plain[("a1", 1)], plain[("b2", -1)], plain[("delta", 1)], plain[("a1", 1)]]
    assert all(t is p for t, p in zip(word.letters, shared))
    assert word.letters[5] is plain[("e2", -1)]
    assert word.letters[4] == Twist("a1", 1, (("b1", 1),))
    assert all(word.letters[4] is not t for t in plain.values())
    # each surface has its own table
    assert parse_word(SurfaceSig(1, 0), [{"base": "a1"}]).letters[0] is not plain[("a1", 1)]


@pytest.mark.parametrize("letters, error", [
    ([{"base": "a1", "sign": True}], "word[0].sign must be 1 or -1"),
    ([{"base": "a1", "sign": 1.0}], "word[0].sign must be 1 or -1"),
    ([{"base": "a1", "sign": -1.0}], "word[0].sign must be 1 or -1"),
    ([{"base": "b1", "sign": False}], "word[0].sign must be 1 or -1"),
    ([{"base": "a1", "conj": None}], "word[0].conj must be a list"),
    ([{"base": "a1", "conj": {}}], "word[0].conj must be a list"),
    ([{"base": "a1"}, {"base": "a1", "conj": ""}], "word[1].conj must be a list"),
    # an unknown plain name is built and left to the curve check, so a later
    # letter's sign fault is still the one reported
    ([{"base": "zz"}, {"base": "a1", "sign": True}], "word[1].sign must be 1 or -1"),
    ([{"base": "zz"}, {"base": "a1", "conj": None}], "word[1].conj must be a list"),
    ([{"base": "zz"}, {"base": "a1"}], "word: curve 'zz' is not valid on genus 2, boundary 0"),
    ([{"base": "a1"}, {"base": "delta", "conj": []}],
     "word: curve 'delta' is not valid on genus 2, boundary 0"),
])
def test_plain_fast_path_keeps_the_errors_and_their_order(letters, error):
    with pytest.raises(InputError) as exc:
        parse_word(SurfaceSig(2, 0), letters)
    assert str(exc.value) == error
