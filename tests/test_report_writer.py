"""The report writer: word_out spliced in, bytes as the indented encoder writes them."""

import io
import json
import random

import pytest

import dehn.cli
from dehn import SurfaceSig, Twist, TwistWord, gn_word
from dehn.cli import _period, report_text, run
from dehn.rewriting import positivize
from dehn.surface import curve_classes, plain_letters
from run_words import run_shaped_word


def old_word_json(word):
    """word_out as the list of letter objects the indented encoder wrote."""
    out = []
    for t in word.letters:
        entry = {"base": t.base, "sign": t.sign}
        if t.conj:
            entry["conj"] = [{"base": n, "sign": s} for n, s in t.conj]
        out.append(entry)
    return out


def expected_text(report):
    """json.dumps(report, indent=2), with a word_out word in its old list form."""
    if "word_out" in report:
        report = {**report, "word_out": old_word_json(report["word_out"])}
    return json.dumps(report, indent=2)


@pytest.fixture
def captured(monkeypatch):
    """Every report dict the CLI writes, in order."""
    reports = []

    def spy(report):
        reports.append(dict(report))
        return report_text(report)

    monkeypatch.setattr(dehn.cli, "report_text", spy)
    return reports


def run_text(argv, payload=None):
    stdin = io.StringIO("" if payload is None else json.dumps(payload))
    stdout = io.StringIO()
    code = run(argv, stdin=stdin, stdout=stdout)
    return code, stdout.getvalue()


def random_letter(rng, curves, sign=None):
    conj = tuple((rng.choice(curves), rng.choice((1, -1)))
                 for _ in range(rng.choice((0, 0, 1, 3))))
    letter = {"base": rng.choice(curves), "sign": sign or rng.choice((1, -1))}
    if conj:
        letter["conj"] = [{"base": n, "sign": s} for n, s in conj]
    return letter


def chain_letters(genus, copies, rotate=0):
    chain = [{"base": n} for n in tuple(curve_classes(SurfaceSig(genus, 0)))[:2 * genus]]
    word = chain * copies
    return word[rotate:] + word[:rotate]


def seeded_requests():
    rng = random.Random("report-writer")
    requests = []
    for genus in (1, 2, 3):
        sig = SurfaceSig(genus, 0)
        curves = [c for c in curve_classes(sig) if c != "delta"]
        for _ in range(3):
            word = [random_letter(rng, curves) for _ in range(rng.randint(1, 4))]
            requests.append((["positivize"], {"surface": {"genus": genus, "boundary": 0},
                                              "word": word}))
    requests.append((["positivize"], {"surface": {"genus": 2, "boundary": 0}, "word": []}))
    t1 = ["a1", "b1"]
    for _ in range(3):
        word = [random_letter(rng, t1, sign=1) for _ in range(rng.randint(1, 3))]
        requests.append((["double"], {"surface": {"genus": 1, "boundary": 1}, "word": word}))
        word = [random_letter(rng, t1) for _ in range(rng.randint(1, 5))]
        requests.append((["branched-double"], {"surface": {"genus": 1, "boundary": 1},
                                               "word": word}))
    requests.append((["branched-double"], {"surface": {"genus": 1, "boundary": 1},
                                           "word": []}))
    for genus in (1, 2):
        words = [chain_letters(genus, 4 * genus + 2, rng.randrange(2 * genus))
                 for _ in range(2)]
        requests.append((["fibersum"], {"surface": {"genus": genus, "boundary": 0},
                                        "words": words}))
    for n in (1, 2, 3, 4):
        requests.append((["gn", "--n", str(n)], None))
    return requests


@pytest.mark.parametrize("timing", [False, True])
def test_writer_matches_indented_encoder_on_every_word_command(captured, timing):
    requests = seeded_requests()
    commands = set()
    for argv, payload in requests:
        argv = argv + ["--timing"] if timing else argv
        code, text = run_text(argv, payload)
        assert code == 0, (argv, text)
        report = captured[-1]
        assert "word_out" in report
        assert ("runtime_ms" in report) == timing
        assert text == expected_text(report) + "\n"
        commands.add(report["command"])
    assert commands == {"positivize", "double", "gn", "fibersum", "branched-double"}
    assert any(not report["word_out"] for report in captured)


def test_writer_on_conjugated_letters_and_delta():
    sig = SurfaceSig(2, 1)
    word = TwistWord(sig, (
        Twist("delta", -1, (("a1", 1), ("b1", -1))),
        Twist("delta"),
        Twist("a1", 1, (("d2", 1), ("e2", -1), ("a1", 1))),
        Twist("delta", -1, (("a1", 1), ("b1", -1))),
        Twist("b2", -1),
    ))
    for report in (
        {"command": "positivize", "verdict": "true", "word_out": word, "steps": 2},
        {"command": "gn", "chi": 4, "h1": {"rank": 0, "torsion": []}, "word_out": word},
        {"command": "double", "word_out": TwistWord(sig, ()), "runtime_ms": 3},
        {"command": "verify", "verdict": "false", "engine": "pi1"},
    ):
        assert report_text(report) == expected_text(report)


@pytest.mark.parametrize("genus", [1, 2, 3])
@pytest.mark.parametrize("boundary", [0, 1])
def test_writer_on_runs_of_shared_conjugators(genus, boundary):
    sig = SurfaceSig(genus, boundary)
    rng = random.Random(f"writer-runs/{genus}/{boundary}")
    words = [run_shaped_word(rng, sig, rng.randint(1, 6)) for _ in range(20)]
    words.append(TwistWord(sig, ()))
    if boundary == 0:
        # positivize writes each negative letter as one run of its expansion
        for _ in range(3):
            signed = run_shaped_word(rng, sig, 2) * TwistWord.from_names(sig, "b1^-1")
            words.append(positivize(signed, engine="homology").output)
    for word in words:
        report = {"command": "positivize", "verdict": "true", "word_out": word, "steps": 1}
        assert report_text(report) == expected_text(report)


def test_error_reports_are_written_by_the_encoder(captured):
    for argv, payload in (
        (["positivize"], {"surface": {"genus": 1, "boundary": 1}, "word": [{"base": "a1"}]}),
        (["gn", "--n", "0"], None),
        (["fibersum", "--timing"], {"surface": {"genus": 1, "boundary": 0},
                                    "words": [[{"base": "a1"}], []]}),
        (["branched-double"], {"surface": {"genus": 1, "boundary": 1},
                               "word": [{"base": "\u0000word_out"}]}),
    ):
        code, text = run_text(argv, payload)
        assert code == 2
        assert "error" in captured[-1] and "word_out" not in captured[-1]
        assert text == json.dumps(captured[-1], indent=2) + "\n"


def assert_written_like_the_encoder(word):
    report = {"command": "positivize", "verdict": "true", "word_out": word, "steps": 1}
    assert report_text(report) == expected_text(report)


def test_writer_on_one_letter_under_alternating_conjugators():
    sig = SurfaceSig(2, 0)
    u, v = (("b1", -1), ("a2", 1)), (("e2", 1),)
    for conjs in ((u, v, u, (), v, v, ()),
                  # equal conjugators that are distinct tuples form one run
                  (u, tuple(list(u)), v, tuple(list(v)), (), u)):
        letters = []
        for conj in conjs:
            letters += [Twist("a1", 1, conj), Twist("a1", -1, conj), Twist("a1", 1, conj)]
        assert_written_like_the_encoder(TwistWord(sig, tuple(letters)))


def test_writer_on_gn_words(captured):
    for n in range(1, 25):
        code, text = run_text(["gn", "--n", str(n)])
        assert code == 0
        report = captured[-1]
        assert len(report["word_out"]) == 2 * n * (4 * n + 2)
        assert text == expected_text(report) + "\n"


def test_writer_on_a_positivize_output():
    sig = SurfaceSig(3, 0)
    word = TwistWord.from_names(sig, "a1 b2^-1 d2 e2^-1 a3^-1 a3^-1 b1")
    assert_written_like_the_encoder(positivize(word, engine="homology").output)


def writer_calls(monkeypatch, word):
    """The names report_text encodes while it writes ``word``, in order."""
    names = []

    def spy(name):
        names.append(name)
        return json.encoder.encode_basestring_ascii(name)

    monkeypatch.setattr(dehn.cli, "encode_basestring_ascii", spy)
    report_text({"command": "gn", "word_out": word})
    monkeypatch.undo()
    return names


def test_writer_encodes_each_distinct_letter_once_per_run(monkeypatch):
    # a deterministic cost guard: gn(16) is one run of 2,112 plain letters
    # over 32 distinct ones
    word = gn_word(16).word
    assert len(word) == 2112
    names = writer_calls(monkeypatch, word)
    assert len(names) == 32 and sorted(names) == sorted({t.base for t in word.letters})
    # a run's conjugator is encoded once, and each distinct letter once in it
    sig = SurfaceSig(2, 0)
    u = (("b1", -1), ("a2", 1))
    letters = ((Twist("a1", 1, u), Twist("a1", -1, u)) * 5 + (Twist("a1"),) * 3
               + (Twist("b1", 1, u), Twist("a1", 1, u)) * 4)
    assert writer_calls(monkeypatch, TwistWord(sig, letters)) == [
        "b1", "a2", "a1", "a1", "a1", "b1", "a2", "b1", "a1"]


# -- the period path: a word that is k copies of one block of shared letters


def shared(sig, *names):
    """The surface's shared plain letters for ``names`` ("b1^-1" for an inverse)."""
    plain = plain_letters(sig)
    return tuple(plain[(n[:-3], -1)] if n.endswith("^-1") else plain[(n, 1)] for n in names)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_writer_on_identity_powers_of_plain_and_conjugated_blocks(genus):
    sig = SurfaceSig(genus, genus % 2)
    rng = random.Random(f"writer-powers/{genus}")
    blocks = [TwistWord.from_names(sig, [c for c in curve_classes(sig) if c != "delta"])]
    # runs of shared conjugators, equal ones and alternating ones inside the block
    blocks += [run_shaped_word(rng, sig, rng.randint(2, 6)) for _ in range(12)]
    assert _period(blocks[0].power(5).letters) == len(blocks[0])
    powers = 0
    for block in blocks:
        for k in (2, 3, 7):
            word = block.power(k)
            period = _period(word.letters)
            assert word.letters == word.letters[:period] * (len(word) // period)
            powers += period < len(word)
            assert_written_like_the_encoder(word)
    # most blocks open with a letter that does not recur inside them
    assert powers >= len(blocks)


def test_period_is_the_shortest_block_of_an_identity_power():
    sig = SurfaceSig(2, 0)
    u = (("b1", -1), ("a2", 1))
    block = (Twist._trusted("a1", 1, u), Twist._trusted("b1", -1, u),
             Twist._trusted("a2", 1, ()), Twist._trusted("a1", 1, u))
    assert _period(block * 5) == 4
    assert _period(shared(sig, "a1", "b1", "a2", "b2") * 10) == 4
    assert _period(shared(sig, "b1^-1") * 2 + shared(sig, "b1^-1")) == 1


def test_writer_falls_back_where_the_first_recurrence_is_no_period():
    sig = SurfaceSig(2, 0)
    a1, b1, a2 = shared(sig, "a1", "b1", "a2")
    words = {
        # a1 recurs at 2, off the period of 4
        "off period": (a1, b1, a1, a2) * 5,
        # a1 recurs every 2 letters, but 7 is no multiple of 2
        "not a multiple": (a1, b1) * 3 + (a1,),
        # a1 recurs at 2 and 2 divides 8, yet the copies differ
        "unequal copies": (a1, b1, a1, a2, a1, b1, a1, b1),
        "no recurrence": (a1, b1, a2),
        # a1 recurs at once, inside the block (a1 a1 b1)
        "recurs inside the block": (a1, a1, b1) * 2,
    }
    for name, letters in words.items():
        assert _period(letters) == len(letters), name
        assert_written_like_the_encoder(TwistWord(sig, letters))


def test_writer_on_equal_but_distinct_letters():
    sig = SurfaceSig(2, 1)
    conj = (("a1", 1), ("b2", -1))
    fresh = [Twist("a1"), Twist("b1", -1, conj), Twist("delta", -1, conj), Twist("a2")]
    # every letter its own object: no recurrence of letters[0] by identity
    distinct = tuple(Twist(t.base, t.sign, t.conj) for _ in range(6) for t in fresh)
    assert _period(distinct) == len(distinct)
    assert_written_like_the_encoder(TwistWord(sig, distinct))
    # letters[0] shared, the rest equal but distinct: the copies compare equal
    head = fresh[0]
    mixed = tuple(t for _ in range(6) for t in
                  (head,) + tuple(Twist(t.base, t.sign, t.conj) for t in fresh[1:]))
    assert _period(mixed) == len(fresh)
    assert_written_like_the_encoder(TwistWord(sig, mixed))


def test_writer_on_single_letter_powers_and_the_empty_word():
    sig = SurfaceSig(1, 1)
    conj = Twist._trusted("a1", -1, (("b1", 1),))
    for letters in ((), shared(sig, "a1"), shared(sig, "b1^-1") * 2, shared(sig, "a1") * 9,
                    (conj,) * 5, (conj,), (Twist("delta"),) * 3):
        assert _period(letters) == min(len(letters), 1)
        assert_written_like_the_encoder(TwistWord(sig, letters))


class CountingField:
    """A slot descriptor that counts the reads that go through it."""

    def __init__(self, slot):
        self.slot, self.reads = slot, 0

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        self.reads += 1
        return self.slot.__get__(obj, owner)

    def __set__(self, obj, value):
        self.slot.__set__(obj, value)


def test_writer_reads_one_period_of_a_power(monkeypatch):
    # a deterministic cost guard: gn(24) is 98 copies of a 48-letter chain
    # of distinct letters, and the writer reads the base of each letter of
    # one copy twice (its key, then its text); a walk over every letter
    # would read 4,752 bases
    word = gn_word(24).word
    assert len(word) == 4704
    counter = CountingField(Twist.base)
    monkeypatch.setattr(Twist, "base", counter)
    text = report_text({"command": "gn", "word_out": word})
    monkeypatch.undo()
    assert counter.reads == 2 * 48
    assert text == expected_text({"command": "gn", "word_out": word})
