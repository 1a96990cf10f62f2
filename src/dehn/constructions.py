"""End-to-end constructions: filling families, doublings, covers, bundles.

* ``theorem11_family`` — from the disk fibration with word (chain)^(4n+2)
  on a genus-n one-boundary fiber, repeatedly trade a (chain)^4 block for
  d2 e2 (after a commutation pull), producing n+1 fillings of the same
  open book whose Euler characteristics descend by 10.  The one trade is
  verified once; every member then equals X_0 by substituting it.
* ``trefoil_completions`` — two sphere-fibration completions of the
  two-letter torus fibration: the algorithmic double (24 letters) and the
  short closure (ab)^6 (12 letters), with the verdict of deciding that
  they agree.
* ``branched_double_cover`` — the closed genus-2 bundle monodromy phi
  followed by a mirrored inverse copy with disjoint support, for a word
  phi on a one-boundary page of genus 1.
* ``mapping_torus_homology`` — H1 of a surface bundle over the circle from
  the monodromy's homology action by the standard long-exact-sequence
  presentation coker(M - I) + Z; the fiber is the monodromy's surface.
* ``splitting_words`` — positive disk fibrations x1, x2 with monodromies
  multiplying to the identity, from an arbitrary signed word on a closed
  fiber.

Every word carries its surface, so no function here takes a surface
beside a word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fibration import (
    AbelianGroup,
    Fibration,
    double_report,
    euler_characteristic,
    first_homology,
)
from .homology import Matrix, word_matrix
from .pi1 import DEFAULT_CAP, decide_equal
from .rewriting import chain_substitute, positivize, pull_trade
from .snf import abelian_group_from_columns
from .surface import SurfaceSig, Twist, TwistWord, chain_word


@dataclass(frozen=True)
class FamilyReport:
    """A family of fillings of one open book: words, chis, verdict, homology.

    ``trade`` is the (verdict, engine) of the one trade, which every step
    makes.
    """

    n: int
    fillings: tuple[Fibration, ...]
    chis: tuple[int, ...]
    trade: tuple[str, str]
    h1s: tuple[AbelianGroup, ...]


def theorem11_family(n: int, cap: int = DEFAULT_CAP) -> FamilyReport:
    """Build the n+1 fillings X_0 ... X_n on the genus-n one-boundary fiber.

    X_0 carries (chain)^(4n+2); step i pulls (a1 b1 a2)^4 to the front of
    the leading (chain)^4 block of the unconsumed power and substitutes
    d2 e2, shortening the word by 10.  Every step trades the same block,
    so the trade is rewritten and verified once: ``pull_trade`` decides
    (chain)^4 = pulled and ``chain_substitute`` decides pulled = S.  X_i is
    X_0 with i copies of (chain)^4 replaced by S, so S = (chain)^4 rel
    boundary gives X_i = X_0 by substitution in the group.  Every step's
    (verdict, engine) is therefore the trade's, kept once: "true" when both
    rewrites verified "true", otherwise the first one's "unknown" (a
    resource cap) with its engine; a "false" rewrite raises.
    """
    if n < 2:
        raise ValueError("the family needs genus n >= 2")
    sig = SurfaceSig(n, 1)
    pulled = pull_trade(sig, cap)
    substituted = chain_substitute(pulled.output, cap)
    for rep in (pulled, substituted):
        if rep.verified == "false":
            raise AssertionError("rewriting step failed verification")
    trade = next((rep for rep in (pulled, substituted) if rep.verified != "true"),
                 substituted)

    fillings = [Fibration("disk", chain_word(sig, 4 * n + 2))]
    for i in range(1, n + 1):
        word = TwistWord._trusted(sig, substituted.output.letters * i
                                  + chain_word(sig, 4 * (n - i) + 2).letters)
        fillings.append(Fibration("disk", word))

    chis = tuple(euler_characteristic(f) for f in fillings)
    expected = tuple(8 * n * n + 2 * n + 1 - 10 * i for i in range(n + 1))
    if chis != expected:
        raise AssertionError(f"chi sequence {chis} deviates from {expected}")
    h1s = tuple(first_homology(f) for f in fillings)
    return FamilyReport(n, tuple(fillings), chis, (trade.verified, trade.engine), h1s)


def trefoil_completions(cap: int = DEFAULT_CAP
                        ) -> tuple[Fibration, Fibration, tuple[str, str]]:
    """Both sphere completions of the two-letter torus disk fibration.

    The big one doubles the fibration (24 letters); the small one closes it
    with the short relation, giving (a1 b1)^6 (12 letters).  The two words
    agree as torus mapping classes.  The third value is the (verdict,
    engine) of the one decision that they do: a "false" verdict raises,
    and an "unknown" one (a resource cap) is passed on.
    """
    palf = Fibration("disk", TwistWord.from_names(SurfaceSig(1, 1), "a1 b1"))
    big = double_report(palf, cap).fibration
    small = Fibration("sphere", chain_word(SurfaceSig(1, 0), 6))
    verdict = decide_equal(big.word, small.word, "auto", cap)
    if verdict[0] == "false":
        raise AssertionError("the two completions disagree as mapping classes")
    return big, small, verdict


_MIRROR = {"a1": "d2", "b1": "b2"}


def branched_double_cover(monodromy: TwistWord) -> TwistWord:
    """Monodromy of the double of a one-boundary page: phi then mirrored phi^-1.

    The page is the surface of ``monodromy``, and the result lives on the
    closed double.  The closed double of a genus-1 page is a genus-2
    surface on which the page's a1, b1 re-embed as themselves and the
    mirrored copy re-embeds as d2, b2 — every mirror curve is disjoint
    from every original curve, so the two halves commute.  Pages of genus
    >= 2 would need mirror curves outside the standard alphabet and are
    rejected, and so is every letter that names delta, as its base or in
    its conjugator.
    """
    page = monodromy.surface
    if page.boundary != 1:
        raise ValueError("the page must have one boundary component")
    if page.genus != 1:
        raise ValueError("only genus-1 pages are supported: the mirrored copy of a "
                         "higher-genus chain leaves the standard curve alphabet")
    if any(name not in _MIRROR
           for t in monodromy.letters for name in (t.base, *(n for n, _ in t.conj))):
        raise ValueError("boundary-parallel letters double to a separating seam "
                         "twist outside the standard alphabet")

    closed = SurfaceSig(2 * page.genus, 0)

    # a1, b1 and their mirrors d2, b2 are all curves of the closed double
    def mirror(t: Twist) -> Twist:
        return Twist._trusted(_MIRROR[t.base], -t.sign,
                              tuple((_MIRROR[n], s) for n, s in t.conj))

    copy2 = tuple(mirror(t) for t in reversed(monodromy.letters))
    return TwistWord._trusted(closed, monodromy.letters + copy2)


def swap_matrix() -> Matrix:
    """The involution of the doubled genus-2 surface swapping the two copies.

    Exchanges the classes of a1, b1 with those of d2, b2; symplectic and an
    involution, and it conjugates the homology action of any doubled
    monodromy to its inverse.
    """
    return ((1, 0, 0, 0),
            (0, 1, 0, 1),
            (1, 0, -1, 0),
            (0, 0, 0, -1))


def mapping_torus_homology(monodromy: TwistWord) -> AbelianGroup:
    """H1 of the surface bundle over the circle with the given monodromy.

    The fiber is the monodromy's surface.  Computed as coker(M - I) plus
    one free rank for the base circle, where M is the monodromy's homology
    action.
    """
    sig = monodromy.surface
    if sig.boundary != 0:
        raise ValueError("mapping torus homology is computed for closed fibers")
    m = word_matrix(monodromy)
    size = 2 * sig.genus
    cols = [[m[i][j] - (1 if i == j else 0) for i in range(size)] for j in range(size)]
    rank, torsion = abelian_group_from_columns(size, cols)
    return AbelianGroup(rank + 1, tuple(torsion))


def splitting_words(phi: TwistWord, cap: int = DEFAULT_CAP
                    ) -> tuple[Fibration, Fibration]:
    """Split a signed word on a closed fiber into two positive fillings.

    x1 positivizes phi; x2 positivizes the reverse-inverse of x1's word, so
    the concatenation x1.word x2.word acts trivially on homology (and is
    trivial rel nothing by construction).  A positivization verified
    "false" raises; an "unknown" verdict is not reported.  Either
    positivization raises ``ValueError`` on a bounded fiber, and when its
    output, conjugator letters included, would pass
    ``rewriting.OUTPUT_MAX_LETTERS``; x2's is counted once x1 is built and
    verified.
    """
    rep1 = positivize(phi, cap)
    x1 = Fibration("disk", rep1.output)
    rep2 = positivize(x1.word.inverse(), cap)
    x2 = Fibration("disk", rep2.output)
    if "false" in (rep1.verified, rep2.verified):
        raise AssertionError("positivization failed verification")
    return x1, x2
