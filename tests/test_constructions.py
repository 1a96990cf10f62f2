"""Filling families, completions, covers, bundles, splittings."""

import io
import json
import sys

import pytest

from dehn import (
    Fibration,
    SurfaceSig,
    Twist,
    TwistWord,
    branched_double_cover,
    chain_substitute,
    chain_word,
    commute_pull,
    double_report,
    euler_characteristic,
    first_homology,
    is_allowable,
    mapping_torus_homology,
    positivize,
    prop9_factor,
    splitting_words,
    swap_matrix,
    theorem11_family,
    trefoil_completions,
)
from dehn.fibration import AbelianGroup
from dehn.homology import homology_class, identity_matrix, is_identity, word_matrix
from dehn.pi1 import DEFAULT_CAP, ENGINE_CLOSED, ENGINE_PI1, decide_equal, settle
from dehn.rewriting import RewriteReport

from matrices import mat_mul

T1 = SurfaceSig(1, 1)
T2 = SurfaceSig(2, 1)
TORUS = SurfaceSig(1, 0)
CLOSED2 = SurfaceSig(2, 0)


def word(sig, names):
    return TwistWord.from_names(sig, names)


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


# Gram matrix of the intersection form on the fixed basis of a genus-2 surface
FORM2 = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))


@pytest.fixture(autouse=True)
def _fresh_prop9_cache():
    # prop9_factor keeps its pull per (n, cap) for the process; a test that
    # patches what it calls must see the patch run, and leave no pull behind
    prop9_factor.cache_clear()
    yield
    prop9_factor.cache_clear()


# ---------------------------------------------------------------------------
# the filling family
# ---------------------------------------------------------------------------


def test_family_n2():
    fillings, trade = theorem11_family(2)
    assert [euler_characteristic(f) for f in fillings] == [37, 27, 17]
    assert len(fillings) == 3
    assert [len(f.word) for f in fillings] == [40, 30, 20]
    assert trade == ("true", ENGINE_PI1)
    assert all(first_homology(f).trivial for f in fillings)
    assert all(is_allowable(f) for f in fillings)
    assert all(f.base == "disk" and f.fiber == SurfaceSig(2, 1) for f in fillings)
    # each step contributes a d2 e2 pair followed by four commuted letters
    assert fillings[1].word.letters[:2] == (Twist("d2"), Twist("e2"))
    assert fillings[2].word.letters[:2] == (Twist("d2"), Twist("e2"))
    assert fillings[2].word.letters[6:8] == (Twist("d2"), Twist("e2"))


def test_family_n3():
    fillings, trade = theorem11_family(3)
    assert [euler_characteristic(f) for f in fillings] == [79, 69, 59, 49]
    assert trade[0] == "true"
    assert all(first_homology(f).trivial for f in fillings)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_family_members_equal_the_base_by_the_engine(n):
    # the family verifies its members by substituting the one trade; this
    # compares every whole member with X_0 directly instead
    fillings, _ = theorem11_family(n)
    x0 = fillings[0].word
    assert x0 == chain_word(SurfaceSig(n, 1), 4 * n + 2)
    trade = 8 * n - 10  # (chain)^4 is 8n letters; S is ten shorter
    for i, f in enumerate(fillings):
        assert len(f.word) == len(x0) - 10 * i
        for k in range(i):
            assert f.word.letters[k * trade:k * trade + 2] == (Twist("d2"), Twist("e2"))
        assert f.word.letters[i * trade:] == chain_word(f.fiber, 4 * (n - i) + 2).letters
        if i:
            assert decide_equal(f.word, x0) == ("true", ENGINE_PI1)


def _family_with_trade_verdict(monkeypatch, rewrite, verdict):
    import dehn.constructions
    import dehn.rewriting

    # the family calls chain_substitute itself, and commute_pull through
    # prop9_factor
    owner = dehn.rewriting if rewrite == "commute_pull" else dehn.constructions
    real = getattr(owner, rewrite)

    def patched(*args):
        rep = real(*args)
        return RewriteReport(rep.output, rep.steps, (verdict, rep.verdict[1]))

    monkeypatch.setattr(owner, rewrite, patched)


@pytest.mark.parametrize("rewrite", ["commute_pull", "chain_substitute"])
def test_family_passes_on_an_unknown_trade(monkeypatch, rewrite):
    from dehn.cli import EXIT_UNKNOWN, run

    _family_with_trade_verdict(monkeypatch, rewrite, "unknown")
    assert theorem11_family(2)[-1] == ("unknown", ENGINE_PI1)
    out = io.StringIO()
    assert run(["family", "--n", "2"], stdin=io.StringIO(""), stdout=out) == EXIT_UNKNOWN
    assert [v["verdict"] for v in json.loads(out.getvalue())["verdicts"]] == ["unknown"] * 2


@pytest.mark.parametrize("rewrite", ["commute_pull", "chain_substitute"])
def test_family_raises_on_a_false_trade(monkeypatch, rewrite):
    _family_with_trade_verdict(monkeypatch, rewrite, "false")
    with pytest.raises(AssertionError):
        theorem11_family(2)


def _counted_decisions(monkeypatch):
    """The list of every ``decide_equal`` call's arguments from now on."""
    import dehn.pi1

    real = dehn.pi1.decide_equal
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    # rebind every dehn module's reference, not only the ones that hold one today
    for mod in [m for name, m in sys.modules.items() if name.startswith("dehn.")]:
        if getattr(mod, "decide_equal", None) is real:
            monkeypatch.setattr(mod, "decide_equal", counted)
    return calls


def test_family_decides_only_its_two_rewrites(monkeypatch):
    calls = _counted_decisions(monkeypatch)
    for n in (2, 3, 4, 5):
        calls.clear()
        theorem11_family(n)
        assert len(calls) == 2, n


def test_a_second_family_decides_only_its_substitution(monkeypatch):
    # the pull is kept per (n, cap); the substitution is decided per call
    calls = _counted_decisions(monkeypatch)
    for n in (2, 3, 4, 5):
        first = theorem11_family(n)
        calls.clear()
        assert theorem11_family(n) == first
        assert len(calls) == 1, n
        assert len(calls[0][0]) == 8 * n  # (a1 b1 a2)^4 . psi, the substitution's input


def test_a_false_pull_raises_on_every_call(monkeypatch):
    _family_with_trade_verdict(monkeypatch, "commute_pull", "false")
    for _ in range(2):
        with pytest.raises(AssertionError, match="commutation pull"):
            prop9_factor(2)
        with pytest.raises(AssertionError, match="commutation pull"):
            theorem11_family(2)


def test_an_unknown_pull_stays_with_its_cap(monkeypatch):
    import dehn.rewriting

    real = dehn.rewriting.commute_pull
    odd_cap = 2 * DEFAULT_CAP

    def patched(w, pattern, cap):
        rep = real(w, pattern, cap)
        verdict = ("unknown", rep.verdict[1]) if cap == odd_cap else rep.verdict
        return RewriteReport(rep.output, rep.steps, verdict)

    monkeypatch.setattr(dehn.rewriting, "commute_pull", patched)
    assert prop9_factor(2, odd_cap)[-1] == ("unknown", ENGINE_PI1)
    assert theorem11_family(2, odd_cap)[-1] == ("unknown", ENGINE_PI1)
    assert prop9_factor(2, DEFAULT_CAP)[-1] == ("true", ENGINE_PI1)
    assert theorem11_family(2)[-1] == ("true", ENGINE_PI1)
    # the unknown pull is still passed on at its own cap
    assert theorem11_family(2, odd_cap)[-1] == ("unknown", ENGINE_PI1)


def test_family_rejects_small_genus():
    with pytest.raises(ValueError):
        theorem11_family(1)


# ---------------------------------------------------------------------------
# trefoil completions
# ---------------------------------------------------------------------------


def test_trefoil_completions():
    big, small, verdict = trefoil_completions()
    assert verdict == ("true", "homology(g=1,faithful)")
    assert (big.base, small.base) == ("sphere", "sphere")
    assert big.fiber == small.fiber == TORUS
    assert (big.letter_count, small.letter_count) == (24, 12)
    assert (euler_characteristic(big), euler_characteristic(small)) == (24, 12)
    assert first_homology(big).trivial and first_homology(small).trivial


def test_trefoil_completions_pass_an_unknown_verdict_on(monkeypatch):
    # a resource cap says nothing about whether the completions disagree
    import dehn.constructions

    unknown = ("unknown", "homology(g=1,faithful)")
    monkeypatch.setattr(dehn.constructions, "decide_equal", lambda w1, w2, engine, cap: unknown)
    big, small, verdict = trefoil_completions()
    assert verdict == unknown
    assert (big.letter_count, small.letter_count) == (24, 12)
    monkeypatch.setattr(dehn.constructions, "decide_equal",
                        lambda w1, w2, engine, cap: ("false", "homology(g=1,faithful)"))
    with pytest.raises(AssertionError, match="disagree"):
        trefoil_completions()


# ---------------------------------------------------------------------------
# branched double cover
# ---------------------------------------------------------------------------


def test_branched_double_cover_word():
    w = branched_double_cover(word(T1, "a1 b1"))
    assert w.surface == CLOSED2
    assert w.letters == (
        Twist("a1"), Twist("b1"), Twist("b2", -1), Twist("d2", -1))


def test_branched_double_cover_mirrors_conjugators():
    t = Twist("a1", 1, (("b1", -1),))
    w = branched_double_cover(TwistWord(T1, (t,)))
    assert w.letters == (t, Twist("d2", -1, (("b2", -1),)))


def test_branched_double_cover_halves_commute():
    for names in (["a1"], ["a1", "b1"], ["a1", "b1"] * 3):
        phi = word(T1, names)
        w = branched_double_cover(phi)
        k = len(phi)
        first = TwistWord(CLOSED2, w.letters[:k])
        second = TwistWord(CLOSED2, w.letters[k:])
        m1, m2 = word_matrix(first), word_matrix(second)
        assert mat_mul(m1, m2) == mat_mul(m2, m1)


def test_branched_double_cover_swap_conjugates_to_inverse():
    s = swap_matrix()
    for names in (["a1"], ["a1", "b1"], ["a1", "b1"] * 3):
        w = branched_double_cover(word(T1, names))
        m = word_matrix(w)
        assert mat_mul(mat_mul(s, m), s) == word_matrix(w.inverse())


def test_branched_double_cover_rejections():
    with pytest.raises(ValueError, match="boundary"):
        branched_double_cover(word(TORUS, "a1"))
    sig21 = SurfaceSig(2, 1)
    with pytest.raises(ValueError, match="genus-1"):
        branched_double_cover(word(sig21, "a1"))
    with pytest.raises(ValueError, match="separating"):
        branched_double_cover(word(T1, "delta"))
    # delta has no mirror in a conjugator either
    t = Twist("a1", 1, (("b1", 1), ("delta", -1)))
    with pytest.raises(ValueError, match="boundary-parallel letters"):
        branched_double_cover(TwistWord(T1, (t,)))


def test_swap_matrix_properties():
    s = swap_matrix()
    assert mat_mul(s, s) == identity_matrix(4)
    assert mat_mul(mat_mul(tuple(zip(*s)), FORM2), s) == FORM2  # symplectic
    assert mat_vec(s, homology_class("a1", CLOSED2)) == homology_class("d2", CLOSED2)
    assert mat_vec(s, homology_class("b1", CLOSED2)) == homology_class("b2", CLOSED2)
    assert mat_vec(s, homology_class("d2", CLOSED2)) == homology_class("a1", CLOSED2)
    assert mat_vec(s, homology_class("b2", CLOSED2)) == homology_class("b1", CLOSED2)


# ---------------------------------------------------------------------------
# mapping tori
# ---------------------------------------------------------------------------


def test_mapping_torus_homology():
    assert mapping_torus_homology(word(TORUS, "a1")) == AbelianGroup(2)
    # identity monodromy gives the 3-torus
    assert mapping_torus_homology(TwistWord(TORUS, ())) == AbelianGroup(3)
    # a double twist leaves 2-torsion
    assert mapping_torus_homology(word(TORUS, "a1 a1")) == AbelianGroup(2, (2,))
    assert mapping_torus_homology(word(CLOSED2, "a1")) == AbelianGroup(4)
    with pytest.raises(ValueError, match="closed"):
        mapping_torus_homology(word(T1, "a1"))


# ---------------------------------------------------------------------------
# splittings
# ---------------------------------------------------------------------------


def test_splitting_words_torus():
    x1, x2, verdict = splitting_words(word(TORUS, "a1^-1"))
    assert verdict == ("true", "homology(g=1,faithful)")
    assert (x1.letter_count, x2.letter_count) == (11, 121)
    assert x1.word.all_positive() and x2.word.all_positive()
    assert x1.base == x2.base == "disk"
    assert is_identity(word_matrix(x1.word * x2.word))


def test_splitting_words_mixed():
    x1, x2, verdict = splitting_words(word(TORUS, "a1 b1^-1"))
    assert verdict == ("true", "homology(g=1,faithful)")
    assert (x1.letter_count, x2.letter_count) == (12, 132)
    assert is_identity(word_matrix(x1.word * x2.word))


def test_splitting_words_at_closed_genus_three():
    # x2 is x1's 332 letters, inverted and each expanded; each psi collapses
    # under the chain-relator pass before any generator image is built
    x1, x2, verdict = splitting_words(word(SurfaceSig(3, 0), "b2^-1 d2^-1 e2^-1 b3^-1"))
    assert verdict == ("true", ENGINE_CLOSED)
    assert (x1.letter_count, x2.letter_count) == (332, 27556)
    assert x1.word.all_positive() and x2.word.all_positive()


@pytest.mark.parametrize("failing_call", [1, 2])
def test_splitting_words_raises_on_a_false_positivization(monkeypatch, failing_call):
    import dehn.constructions

    real = dehn.constructions.decide_equal
    calls = []

    def decide(*args):
        calls.append(args)
        verdict, engine = real(*args)
        return ("false", engine) if len(calls) == failing_call else (verdict, engine)

    monkeypatch.setattr(dehn.constructions, "decide_equal", decide)
    with pytest.raises(AssertionError):
        splitting_words(word(TORUS, "a1^-1"))
    assert len(calls) == 2


def test_splitting_words_rejects_bounded_fiber():
    with pytest.raises(ValueError, match="closed"):
        splitting_words(word(T1, "a1"))


# ---------------------------------------------------------------------------
# verdicts passed on
# ---------------------------------------------------------------------------


def _rewrites_decide(monkeypatch, verdict):
    """Make every rewrite's decision, and every construction's own, answer ``verdict``.

    Every construction below verifies through a rewrite, the trefoil
    through its doubling, except ``splitting_words``, which builds both
    positivizations before it decides either.
    """
    import dehn.constructions
    import dehn.rewriting

    for module in (dehn.rewriting, dehn.constructions):
        monkeypatch.setattr(module, "decide_equal", lambda *args: verdict)


# each rewrite and construction, reduced to the (verdict, engine) it hands back
_VERDICT_OF = {
    "commute_pull": lambda: commute_pull(word(T2, "b1 a1"), word(T2, "a1")).verdict,
    "positivize": lambda: positivize(word(TORUS, "a1^-1")).verdict,
    "chain_substitute": lambda: chain_substitute(word(T2, "a1 b1 a2").power(4)).verdict,
    "prop9_factor": lambda: prop9_factor(2)[-1],
    "double_report": lambda: double_report(Fibration("disk", word(T1, "a1 b1")))[-1],
    "theorem11_family": lambda: theorem11_family(2)[-1],
    "trefoil_completions": lambda: trefoil_completions()[-1],
    "splitting_words": lambda: splitting_words(word(TORUS, "a1^-1"))[-1],
}


@pytest.mark.parametrize("name", sorted(_VERDICT_OF))
def test_every_rewrite_and_construction_passes_an_unknown_verdict_on(monkeypatch, name):
    spy = ("unknown", "spy")
    _rewrites_decide(monkeypatch, spy)
    assert _VERDICT_OF[name]() == spy


@pytest.mark.parametrize("name, fault", [("prop9_factor", "commutation pull"),
                                         ("double_report", "doubling"),
                                         ("trefoil_completions", "doubling")])
def test_a_false_rewrite_raises(monkeypatch, name, fault):
    _rewrites_decide(monkeypatch, ("false", "spy"))
    with pytest.raises(AssertionError, match=fault):
        _VERDICT_OF[name]()


@pytest.mark.parametrize("doubling, comparison, fault, comparisons", [
    ("false", "true", "doubling", 0),
    ("true", "false", "disagree", 1),
])
def test_trefoil_names_the_decision_that_failed(monkeypatch, doubling, comparison,
                                                fault, comparisons):
    # the doubling settles its own verdict first, so a false doubling is
    # named as such and the two completions are never compared
    import dehn.constructions

    calls = []

    def compare(*args):
        calls.append(args)
        return (comparison, "spy")

    _rewrites_decide(monkeypatch, (doubling, "spy"))
    monkeypatch.setattr(dehn.constructions, "decide_equal", compare)
    with pytest.raises(AssertionError, match=fault):
        trefoil_completions()
    assert len(calls) == comparisons


def test_settle_raises_on_false_and_passes_on_the_first_unknown():
    yes, cap, necessary = ("true", "a"), ("unknown", "b"), ("unknown", "c")
    assert settle("fault", yes) == yes
    assert settle("fault", yes, ("true", "d")) == ("true", "d")
    assert settle("fault", yes, cap, necessary) == cap
    with pytest.raises(AssertionError, match="^fault$"):
        settle("fault", cap, ("false", "e"))
