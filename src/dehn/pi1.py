"""Faithful free-group action of twist words on a one-boundary surface.

The fundamental group of a genus-g surface with one boundary component and
a boundary basepoint is free of rank 2g on the chain loops w_1, ..., w_2g:
in the hyperelliptic picture loop j circles the j-th and (j+1)-st branch
points, so w_j runs once around the j-th chain curve (a1, b1, a2, b2, ...
in ``chain_name`` order) and abelianizes to its class.  Words encode w_j as
the signed int j, negatives for inverses.  The boundary is the relator
(``dehn.surface.boundary_word``)

    w_1 w_3 ... w_{2g-1} . w_{2g}^-1 w_{2g-1}^-1 ... w_1^-1 . w_2 w_4 ... w_{2g},

in which every loop occurs once with each sign, so every piece has length
1 and Dehn's algorithm (``dehn_reduce``) applies at genus >= 2.

Twist words act on this free group on the right of nothing and the left of
everything: the rightmost letter acts first.  The action is faithful for
mapping classes fixing the boundary pointwise, so two twist words are equal
rel boundary exactly when all generator images agree.

``decide_equal`` is the one equality entry point, and the surface picks
its engine.  On a one-boundary surface it compares generator images in
the free group (``ENGINE_PI1``).  On a closed surface it decides equality
of the induced automorphisms of the one-relator quotient: genus <= 1 via
the (faithful) homology action (``ENGINE_HOMOLOGY_FAITHFUL``), genus >= 2
by comparing generator images with Dehn's algorithm against the boundary
relator (``dehn_reduce``, ``ENGINE_CLOSED``), which decides the word
problem of the surface group.  At genus >= 2 that is equality of
automorphisms of pi1 with a marked point, i.e. in Mod(S_g, *), not in
Mod(S_g): two words that differ by a point-push are equal on the closed
surface but are reported unequal ("false").  ``engine="homology"`` asks
for the cheap necessary test only.

A word is applied through its stream (``dehn.surface.compile_word``): the
flat sequence of plain (curve, sign) steps in the order they act, with
conjugators expanded and adjacent x^s x^-s pairs cancelled, each step
looked up here as one table.  A comparison of w1 with w2 builds the one
stream of psi = w2^-1 . w1 (``dehn.surface.quotient_stream``) and first
deletes every whole chain relator (``dehn.surface.drop_chain_relators``):
a run of L = 2g(4g+2) steps of one sign s that walks the chain cyclically
in one direction is (c_1 ... c_2g)^(4g+2) = delta^s up to rotation
(Prop. 4.12), so it leaves psi and delta^s, central, is appended on a
one-boundary surface; on a closed surface it is trivial.  By Dehn's
more-than-half rule, a walk of more than L/2 such steps is then replaced
by the inverse of the steps that close it up into a relator, with delta^s
counted the same way.  Then every pair of steps that commutation brings
together is cancelled (``dehn.surface.reduce_stream``): twists about
disjoint curves commute (Farb-Margalit, Fact 3.9), so a pair x^s, x^-s
with only steps about curves disjoint from x between them acts
trivially, and a conjugator around a deleted relator then cancels too.
On a psi still not empty, Dehn's more-than-half rule then runs over the
braid relators x y x y^-1 x^-1 y^-1 of every pair of curves that meet
once (``dehn.surface.braid_reduce``; Farb-Margalit, Prop. 3.11): four
steps of a rotation of one, or of its inverse, become the inverse of its
other two.  Commutation cancels once more after it, if it shortened psi.
The pass order is ``_reduced_psi``'s.  The reduced stream keeps psi's
mapping class, and the twist tables are never read for what these
relations settle.
It is then composed backwards, from its last-acting step to its first,
on the images of all generators at once; each step rewrites only the
images of the generators its table moves.  The word-length cap is
checked on every image built.

The per-curve automorphisms are built once per genus by one rule from the
rows of the one-boundary surface (``dehn.surface.curve_rows``, whose
docstring holds the row table): each row gives the curve's loop l, a word
in the chain loops that runs once around it, and the generators whose own
loop crosses the curve, listed by how it crosses.  A twist inserts its
loop where a generator crosses its curve (the action of a twist on pi1;
Farb-Margalit, *A Primer on Mapping Class Groups*), so t^s maps a
conjugated generator w_k to l^-s w_k l^s, a prefixed one to l^-s w_k and a
suffixed one to w_k l^s, and fixes every other generator; each twist fixes
its own loop.  No table is derived from a relation, so ``RELATOR_CORPUS``
(braid, disjointness and chain relations, with ``CHAIN_TRADE`` among
them) checks every table.  The CLI ``selftest`` and the test suite both
compare each row's two sides on every generator, each side through its
own stream (``decide_equal`` would cancel a disjointness row, and delete
a whole chain row, before any table is read), and both also check that
every twist fixes the boundary word.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .freegroup import (
    FreeAutomorphism,
    Word,
    WordGrowthExceeded,
    dehn_rewrite,
    invert_word,
    substitute,
)
from .homology import is_identity, stream_matrix
from .surface import (
    SurfaceSig,
    Twist,
    TwistWord,
    boundary_word,
    braid_reduce,
    compile_word,
    curve_classes,
    curve_rows,
    drop_chain_relators,
    intersection,
    quotient_stream,
    reduce_stream,
)

DEFAULT_CAP = 10**6

# the 3-chain relation (lhs, rhs): Theorem 11's one trade rests on it, and as a
# corpus row it checks the e2 table, which is built without it
CHAIN_TRADE = (" ".join(["a1 b1 a2"] * 4), "d2 e2")


# ---------------------------------------------------------------------------
# Table construction: one rule for every curve row.
# ---------------------------------------------------------------------------


def _twist_table(genus: int, row, sign: int) -> FreeAutomorphism:
    """The twist t^sign of a row's curve: insert loop^sign where generators cross it."""
    loop, conjugated, prefixed, suffixed = row
    after = loop if sign > 0 else invert_word(loop)
    before = invert_word(after)
    table = {k: before + (k,) + after for k in conjugated}
    table.update({k: before + (k,) for k in prefixed})
    table.update({k: (k,) + after for k in suffixed})
    return FreeAutomorphism.from_map(2 * genus, table)


@lru_cache(maxsize=None)
def twist_tables(genus: int) -> dict[tuple[str, int], FreeAutomorphism]:
    """Automorphism of every standard twist, in the chain-loop basis, per genus."""
    return {(name, sign): _twist_table(genus, row, sign)
            for name, row in curve_rows(SurfaceSig(genus, 1)).items() for sign in (1, -1)}


# ---------------------------------------------------------------------------
# The relator corpus: relations rel boundary that the tables must satisfy.
# CLI ``selftest`` and the test suite both check it.  Curves are named as
# for ``TwistWord.from_names``; pairs live on SurfaceSig(2, 1) and are read
# off the curve table: every pair of distinct curves with intersection
# number +-1 meets once and braids, c d c = d c d, and every pair with
# intersection number 0 is disjoint and commutes, c d = d c.
# ---------------------------------------------------------------------------

_CORPUS_SIG = SurfaceSig(2, 1)
_CORPUS_PAIRS = tuple(combinations(curve_classes(_CORPUS_SIG), 2))
BRAID_PAIRS = tuple(p for p in _CORPUS_PAIRS if abs(intersection(*p, _CORPUS_SIG)) == 1)
COMMUTING_PAIRS = tuple(p for p in _CORPUS_PAIRS if intersection(*p, _CORPUS_SIG) == 0)
# chain relations as (genus, lhs, rhs) on SurfaceSig(genus, 1): (a1 b1)^6,
# (a1 b1 a2 b2)^10 and (a1 b1 a2 b2 a3 b3)^14 are the boundary twist;
# (d2 b2 e2)^4 twists about both boundary curves of its neighbourhood, the
# outer boundary and the curve bounding a1, b1, whose twist is (a1 b1)^6;
# (a1 b1 a2)^4 twists about the two boundary curves of its neighbourhood,
# d2 and e2
CHAIN_RELATIONS = (
    (1, " ".join(["a1 b1"] * 6), "delta"),
    (2, " ".join(["a1 b1 a2 b2"] * 10), "delta"),
    (3, " ".join(["a1 b1 a2 b2 a3 b3"] * 14), "delta"),
    (2, " ".join(["d2 b2 e2"] * 4), " ".join(["delta"] + ["a1 b1"] * 6)),
    (2, *CHAIN_TRADE),
)
RELATOR_CORPUS = (
    tuple((2, f"{c} {d} {c}", f"{d} {c} {d}") for c, d in BRAID_PAIRS)
    + tuple((2, f"{c} {d}", f"{d} {c}") for c, d in COMMUTING_PAIRS)
    + CHAIN_RELATIONS
)


# ---------------------------------------------------------------------------
# Applying streams to elements.  A stream psi = T_n o ... o T_1 is run
# backwards, from its last-acting step to its first, on the images of all
# generators at once: with Q = T_n o ... o T_{j+1}, the composite Q o T_j
# moves only the generators that T_j moves, and the new image of such a
# generator is Q's images substituted into the short word T_j(w_k).  So a
# step costs the length of the few images it rewrites, not of all 2g.  The
# length cap is checked on every image built.
# ---------------------------------------------------------------------------


def _images(genus: int, stream, cap: int) -> list:
    """The stream's images of every generator, as a signed table.

    ``images[k]`` is the image of generator k and ``images[-k]`` its
    inverse, as ``substitute`` reads them.  The images are lists, not
    tuples: the short tuples freed as images are replaced would fill
    CPython's tuple free lists and raise peak memory with no more live
    data.
    """
    tables = twist_tables(genus)
    n = 2 * genus
    images = [None] + [[k] for k in range(1, n + 1)] + [[-k] for k in range(n, 0, -1)]
    for step in reversed(stream):
        auto = tables[step]
        # every new image is built from the old ones before any is replaced
        moved = [(k, substitute(images, auto.images[k - 1], cap)) for k in auto.moved]
        for k, image in moved:
            images[k] = image
            images[-k] = [-x for x in reversed(image)]
    return images


def _check_generators(z: Word, genus: int) -> None:
    """Raise ``ValueError`` naming the first letter of z outside 1..2g and -2g..-1."""
    n = 2 * genus
    if z and (min(z) < -n or max(z) > n or 0 in z):
        bad = next(x for x in z if not 0 < abs(x) <= n)
        raise ValueError(f"letter {bad} is not a generator: letters of genus "
                         f"{genus} lie in 1..{n} and -{n}..-1")


def apply_twist(t: Twist, z: Word, sig: SurfaceSig, cap: int = DEFAULT_CAP) -> Word:
    """Image of the reduced word z under one (possibly conjugated) twist."""
    return apply_word(TwistWord(sig, (t,)), z, cap)


def apply_word(word: TwistWord, z: Word, cap: int = DEFAULT_CAP) -> Word:
    """Image of z under the whole word; the rightmost letter acts first.

    z need not be reduced, but its letters must be generators of the
    surface group (``_check_generators``).
    """
    _check_generators(z, word.surface.genus)
    images = _images(word.surface.genus, compile_word(word), cap)
    return tuple(substitute(images, z, cap))


# ---------------------------------------------------------------------------
# Closed surfaces: Dehn reduction against the boundary relator.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _dehn_rules(genus: int) -> dict[Word, Word]:
    """Every cyclic subword of length 2g+1 of r or r^-1 -> inverse of its complement.

    Every piece of r has length 1 (no two-letter cyclic subword occurs twice
    among r and r^-1), so the 8g keys are distinct.
    """
    need = 2 * genus + 1
    r = boundary_word(genus)
    rotations = (w[s:] + w[:s] for w in (r, invert_word(r)) for s in range(len(w)))
    return {rot[:need]: invert_word(rot[need:]) for rot in rotations}


def dehn_reduce(z: Word, genus: int) -> Word:
    """Dehn's algorithm for the surface group, in time linear in len(z).

    z is a word in the chain loops, and r is ``boundary_word(genus)``.  A
    letter of z that is not a generator raises ``ValueError``
    (``_check_generators``, one scan before the loop); the letters pushed
    back come from r, so the loop needs no check of its own.
    The stack loop is ``freegroup.dehn_rewrite``: letters of z are pushed
    one at a time with free cancellation, and after each push the top 2g+1
    letters are looked up among the cyclic subwords of the relator r and
    of r^-1 that are longer than half of it; on a hit they are popped and
    the inverse of the complement (2g-1 letters) goes back onto the front
    of the pending input.  So the result is freely reduced and contains no
    subword of length 2g+1 of any rotation of r or r^-1.  Each replacement
    shortens the word by 2, so there are O(g len(z)) pushes.  For genus
    >= 2 every piece of the relator has length 1, the presentation is
    C'(1/6), and the result is empty exactly on elements trivial in the
    surface group.
    """
    if genus < 2:
        raise ValueError("Dehn reduction applies to genus >= 2")
    _check_generators(z, genus)
    return tuple(dehn_rewrite(z, _dehn_rules(genus), 2 * genus + 1))


def _fixes_generators(sig: SurfaceSig, psi, cap: int) -> bool:
    """Whether the stream psi fixes every generator of pi1.

    Rel boundary psi(w_k) must equal w_k; on a closed surface of genus >= 2
    psi(w_k) w_k^-1 must Dehn-reduce to the empty word.
    """
    images = _images(sig.genus, psi, cap)
    for k in range(1, 2 * sig.genus + 1):
        z = images[k]
        if sig.boundary:
            if z != [k]:
                return False
        # dehn_reduce cancels freely as it pushes, so z w_k^-1 needs no reduce_word
        elif dehn_reduce(z + [-k], sig.genus):
            return False
    return True


# ---------------------------------------------------------------------------
# Verdict dispatch shared by the CLI and the construction pipelines.
# ---------------------------------------------------------------------------

ENGINE_PI1 = "pi1(rel-boundary,faithful)"
ENGINE_HOMOLOGY_FAITHFUL = "homology(g=1,faithful)"
ENGINE_CLOSED = "closed(dehn,g>=2)"
ENGINE_HOMOLOGY_NECESSARY = "homology(necessary)"


# The values of decide_equal's ``engine``: "auto" runs the exact engine of
# the surface, "homology" only the necessary homology test.
ENGINES = ("auto", "homology")


def _reduced_psi(w1: TwistWord, w2: TwistWord) -> tuple:
    """The stream of psi = w2^-1 . w1 after the stream passes, in their one order.

    ``drop_chain_relators``, then ``reduce_stream``; on a psi still not
    empty, ``braid_reduce``, and ``reduce_stream`` once more if that
    shortened psi (a stream ``reduce_stream`` has left is left alike by a
    second run).  Each pass keeps psi's class in every group an engine
    decides.
    """
    sig = w1.surface
    psi = reduce_stream(sig, drop_chain_relators(sig, quotient_stream(w1, w2)))
    if psi and len(braided := braid_reduce(sig, psi)) < len(psi):
        return reduce_stream(sig, braided)
    return psi


def decide_equal(w1: TwistWord, w2: TwistWord, engine: str = "auto",
                 cap: int = DEFAULT_CAP) -> tuple[str, str]:
    """Compare two twist words; returns (verdict, engine description).

    The one equality entry point.  Verdict is "true", "false", or
    "unknown" (resource cap, or a necessary-only engine that could not
    separate the words).  With ``engine="auto"`` the surface picks the
    exact engine: ENGINE_PI1 with one boundary component, otherwise
    ENGINE_HOMOLOGY_FAITHFUL at genus <= 1 and ENGINE_CLOSED above.  Every
    engine tests whether the stream of psi = w2^-1 . w1 acts trivially.
    ``drop_chain_relators`` first deletes every whole chain relator of the
    stream, delta^s on one boundary and trivial on a closed surface
    (Prop. 4.12), and replaces each chain walk of more than half a
    relator by the inverse of the rest of it, times delta^s (Dehn's
    more-than-half rule); then ``reduce_stream`` cancels the steps that
    the commutation of twists about disjoint curves brings together
    (Farb-Margalit, Fact 3.9).  On a psi still not empty, ``braid_reduce``
    applies the more-than-half rule to every braid relator of two curves
    that meet once (Prop. 3.11), and ``reduce_stream`` runs once more if
    that shortened psi (``_reduced_psi``).  Every pass keeps psi's mapping
    class in every group an engine decides, so only a capped "unknown"
    can become decided.  A pair of words that differ by such moves mostly
    gives an empty stream, though not always: the braid relators are not
    small cancellation.  The engine then rejects on its homology matrix
    before any free-group work; ``cap`` bounds the generator images built
    while psi is composed from its last-acting step, and one that passes
    it gives "unknown".
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    sig = w1.surface
    psi = _reduced_psi(w1, w2)
    acts_on_h1 = not is_identity(stream_matrix(sig, psi))
    if sig.boundary == 0 and sig.genus <= 1:
        return ("false" if acts_on_h1 else "true", ENGINE_HOMOLOGY_FAITHFUL)
    if engine == "homology":
        return ("false" if acts_on_h1 else "unknown", ENGINE_HOMOLOGY_NECESSARY)
    name = ENGINE_PI1 if sig.boundary else ENGINE_CLOSED
    if acts_on_h1:
        return ("false", name)
    try:
        return ("true" if _fixes_generators(sig, psi, cap) else "false", name)
    except WordGrowthExceeded:
        return ("unknown", name)


def settle(fault: str, *verdicts: tuple[str, str]) -> tuple[str, str]:
    """The one (verdict, engine) that a construction passes on for its decisions.

    Each verdict is a pair from ``decide_equal`` on words that the
    construction built equal, so a "false" one means the construction is
    wrong, and raises ``AssertionError(fault)``.  Otherwise the first pair
    that is not "true" (an "unknown") is passed on, or else the last pair.
    """
    if any(verdict == "false" for verdict, _ in verdicts):
        raise AssertionError(fault)
    return next((pair for pair in verdicts if pair[0] != "true"), verdicts[-1])
