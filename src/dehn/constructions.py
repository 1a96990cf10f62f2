"""End-to-end constructions: filling families, doublings, covers, bundles.

* ``theorem11_family`` — from the disk fibration with word (chain)^(4n+2)
  on a genus-n one-boundary fiber, repeatedly trade a (chain)^4 block for
  d2 e2 (after a commutation pull), producing n+1 fillings of the same
  open book whose Euler characteristics descend by 10.  The one trade is
  verified once per call, not once per member, and its verdict kept once;
  every member then equals X_0 by substituting it.  Of its two checks, the
  pull (``prop9_factor``) is cached per (n, cap), so a process makes it
  once, and the substitution is decided on every call.
* ``trefoil_completions`` — two sphere-fibration completions of the
  two-letter torus fibration: the algorithmic double (24 letters) and the
  short closure gn(1) = (ab)^6 (12 letters), with the verdict of the
  doubling and of deciding that they agree.
* ``branched_double_cover`` — the closed genus-2 bundle monodromy phi
  followed by a mirrored inverse copy with disjoint support, for a word
  phi on a one-boundary page of genus 1.
* ``mapping_torus_homology`` — H1 of a surface bundle over the circle from
  the monodromy's homology action by the standard long-exact-sequence
  presentation coker(M - I) + Z; the fiber is the monodromy's surface.
* ``splitting_words`` — positive disk fibrations x1, x2 with monodromies
  multiplying to the identity, from an arbitrary signed word on a closed
  fiber, with the verdict of its two positivizations.

Every word carries its surface, so no function here takes a surface
beside a word.  A construction that verifies what it builds returns the
objects, then one (verdict, engine) pair: its ``decide_equal`` verdicts
settled by ``pi1.settle``, so a "false" one raises, and the first
"unknown" one (a resource cap or a necessary-only engine) is passed on.
Invariants of the objects (chi, H1) are left to the functions of
``dehn.fibration`` that compute them.
"""

from __future__ import annotations

from .fibration import (
    AbelianGroup,
    Fibration,
    double_report,
    gn_word,
)
from .homology import Matrix, word_matrix
from .pi1 import DEFAULT_CAP, decide_equal, settle
from .rewriting import _positive_word, chain_substitute, prop9_factor
from .snf import abelian_group_from_columns
from .surface import SurfaceSig, Twist, TwistWord, chain_relator, chain_word


def theorem11_family(n: int, cap: int = DEFAULT_CAP
                     ) -> tuple[tuple[Fibration, ...], tuple[str, str]]:
    """Build the n+1 fillings X_0 ... X_n on the genus-n one-boundary fiber.

    X_0 carries (chain)^(4n+2); step i pulls (a1 b1 a2)^4 to the front of
    the leading (chain)^4 block of the unconsumed power and substitutes
    d2 e2, shortening the word by 10.  Every step trades the same block,
    so the trade is rewritten and verified once per call:
    ``prop9_factor`` decides (chain)^4 = (a1 b1 a2)^4 . psi, once per
    process for each (n, cap), and ``chain_substitute`` decides
    (a1 b1 a2)^4 . psi = S.  X_i is X_0 with i copies of (chain)^4
    replaced by S, so S = (chain)^4 rel boundary gives X_i = X_0 by
    substitution in the group.  Returns the fillings and the trade's
    (verdict, engine), which is every step's: the two rewrites' verdicts
    settled by ``pi1.settle``.
    """
    if n < 2:
        raise ValueError("the family needs genus n >= 2")
    sig = SurfaceSig(n, 1)
    prefix, rest, pulled = prop9_factor(n, cap)
    substituted = chain_substitute(prefix * rest, cap)
    trade = settle("rewriting step failed verification", pulled, substituted.verdict)

    fillings = [Fibration("disk", chain_relator(sig))]
    for i in range(1, n + 1):
        word = TwistWord._trusted(sig, substituted.output.letters * i
                                  + chain_word(sig, 4 * (n - i) + 2).letters)
        fillings.append(Fibration("disk", word))
    return tuple(fillings), trade


def trefoil_completions(cap: int = DEFAULT_CAP
                        ) -> tuple[Fibration, Fibration, tuple[str, str]]:
    """Both sphere completions of the two-letter torus disk fibration.

    The big one doubles the fibration (24 letters); the small one closes it
    with the chain relation, giving gn(1) = (a1 b1)^6 (12 letters).  The two
    words agree as torus mapping classes.  The third value settles the
    verdict of the doubling, which ``double_report`` settles first, and
    that of the one decision that the two agree.
    """
    palf = Fibration("disk", TwistWord.from_names(SurfaceSig(1, 1), "a1 b1"))
    big, doubling = double_report(palf, cap)
    small = gn_word(1)
    verdict = settle("the two completions disagree as mapping classes",
                     doubling, decide_equal(big.word, small.word, "auto", cap))
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
                    ) -> tuple[Fibration, Fibration, tuple[str, str]]:
    """Split a signed word on a closed fiber into two positive fillings.

    x1 positivizes phi; x2 positivizes the reverse-inverse of x1's word, so
    the concatenation x1.word x2.word acts trivially on homology (and is
    trivial rel nothing by construction).  The third value settles the two
    positivizations' verdicts: one verified "false" raises, and an
    "unknown" one is passed on.  Either positivization raises
    ``ValueError`` on a bounded fiber, and when its output, conjugator
    letters included, would pass ``rewriting.OUTPUT_MAX_LETTERS``; both
    outputs are built and counted before either is verified.
    """
    x1, _ = _positive_word(phi)
    back = x1.inverse()
    x2, _ = _positive_word(back)
    verdict = settle("positivization failed verification",
                     decide_equal(phi, x1, "auto", cap), decide_equal(back, x2, "auto", cap))
    return Fibration("disk", x1), Fibration("disk", x2), verdict
