"""Word rewriting: commutation pulls, positivization, chain substitution.

Three rewriting algorithms on twist words, each returning a
:class:`RewriteReport` whose output is verified equal to the input by the
strongest applicable engine, holding ``decide_equal``'s (verdict, engine)
pair as it came:

* ``commute_pull`` — move a pattern's letters to the front one adjacent
  transposition at a time; the hopped-over letter picks up a conjugator
  unless the two twists commute (intersection number 0), so the letter
  count never changes.
* ``positivize`` — rewrite every negative letter of a word on a closed
  surface as a product of conjugated positive twists, using the fact that
  the inverse of a nonseparating twist is a positive word
  (``inverse_twist_expansion``) after transporting the curve to a1.  The
  transport (``transport_pairs``) is read off the curve table alone, and
  worked out once per distinct negative curve of a word; from the same
  map positivize counts its output, conjugator letters included, and
  raises ``ValueError`` past ``OUTPUT_MAX_LETTERS`` before it builds any
  of it.
* ``chain_substitute`` — replace a literal (a1 b1 a2)^4 block by d2 e2,
  shortening the word by ten letters.  Both sides are ``pi1.CHAIN_TRADE``,
  the one spelling of the trade, which is also a row of
  ``pi1.CHAIN_RELATIONS``, checked with the rest of the relator corpus.
  Its left side is parsed once, into ``_TRADE_LHS``, and ``prop9_factor``
  is the one commutation pull of it out of (chain)^4, which
  ``constructions.theorem11_family`` builds on.  The pull and its verdict
  are cached per (n, cap), so a process pulls and verifies it once;
  ``chain_substitute`` decides its substitution on every call.

Every output letter is a letter of the input or is built from curve names
standard on its surface, so outputs are built with ``TwistWord._trusted``
and no letter is validated twice; ``positivize`` builds its conjugated
letters with ``Twist._trusted``, one conjugator shared per negative letter,
and ``commute_pull`` builds each hopped letter the same way.
"""

from __future__ import annotations

from functools import lru_cache

from .pi1 import CHAIN_TRADE, DEFAULT_CAP, decide_equal, settle
from .surface import (
    Record,
    SurfaceSig,
    Twist,
    TwistWord,
    chain_relator,
    chain_word,
    crossing_table,
    curve_classes,
    intersection,
    invert_steps,
)

# Largest positivize output built, conjugator letters included: a negative
# letter u t_c^-1 u^-1 becomes the (2g-1) + 2g(4g+1) letters of the
# expansion of a1^-1, each conjugated by u and the transport of c.  One
# b24^-1 at genus 24 gives 446,785 letters.
OUTPUT_MAX_LETTERS = 1_000_000


class RewriteReport(Record):
    """Outcome of one rewriting pass.

    ``verdict`` is the (verdict, engine) pair of ``decide_equal`` comparing
    input and output: "true", "false" or "unknown", and the engine that
    decided it; "unknown" only occurs under a resource cap or a
    necessary-only engine.
    """

    __slots__ = ("output", "steps", "verdict")


def transport_pairs(curve: str, sig: SurfaceSig) -> tuple[tuple[str, int], ...]:
    """Flat word v with  v . t_curve . v^-1  =  t_a1, as (name, sign) pairs.

    Everything is read off the curve table: the chain is its first 2g
    names, and a curve off the chain first hops onto the first chain curve
    it meets (two curves meeting once braid, so t_c t_m carries c onto m).
    A chain curve then rides down the chain one braid hop at a time.  A
    curve that meets no chain curve is separating and has no transport.
    A name off the chain is looked up by ``intersection``, which raises
    the surface's error for a name that is not a curve there.  Validated
    against the faithful engine and on homology classes in the tests.
    """
    chain = tuple(curve_classes(sig))[:2 * sig.genus]
    hop, start = (), curve
    if curve not in chain:
        start = next((c for c in chain if intersection(curve, c, sig)), None)
        if start is None:
            raise ValueError(f"{curve} is separating; no transport to a1 exists")
        hop = ((curve, 1), (start, 1))
    down = []
    for j in range(1, chain.index(start) + 1):
        down += [(chain[j], -1), (chain[j - 1], -1)]
    return tuple(down) + hop


def commute_pull(w: TwistWord, pattern: TwistWord,
                 cap: int = DEFAULT_CAP) -> RewriteReport:
    """Rewrite w as pattern . remainder by adjacent commutation moves.

    Each elementary move swaps an adjacent pair X T into T X', where X' is
    X conjugated by T^-1 (recorded on the conjugator field), except that a
    plain X passes unchanged when its base does not meet T's
    (``crossing_table``: equal or disjoint curves, whose twists commute).  Pattern letters
    are matched leftmost-first against plain letters of w and pulled
    leftward; the letter count is preserved exactly.
    """
    if w.surface != pattern.surface:
        raise ValueError("word and pattern live on different surfaces")
    if any(t.conj for t in pattern.letters):
        raise ValueError("pattern letters must be plain twists")
    crossing = crossing_table(w.surface)
    letters = list(w.letters)
    steps = 0
    for i, pat in enumerate(pattern.letters):
        pos = next((p for p in range(i, len(letters))
                    if letters[p].base == pat.base
                    and letters[p].sign == pat.sign
                    and not letters[p].conj), None)
        if pos is None:
            raise ValueError(
                f"pattern not realizable by commutation alone: no plain "
                f"{pat.base}^{pat.sign} at or after position {i}")
        while pos > i:
            x, t = letters[pos - 1], letters[pos]
            if not x.conj and x.base not in crossing[t.base]:
                x2 = x  # exact commutation, no bookkeeping needed
            else:
                x2 = Twist._trusted(x.base, x.sign, ((t.base, -t.sign),) + x.conj)
            letters[pos - 1], letters[pos] = t, x2
            steps += 1
            pos -= 1
    output = TwistWord._trusted(w.surface, tuple(letters))
    return RewriteReport(output, steps, decide_equal(w, output, "auto", cap))


@lru_cache(maxsize=None)
def prop9_factor(n: int, cap: int = DEFAULT_CAP
                 ) -> tuple[TwistWord, TwistWord, tuple[str, str]]:
    """Factor (chain)^4 on (g=n, b=1) as (a1 b1 a2)^4 . psi.

    psi consists of 8n - 12 conjugated positive twists about nonseparating
    curves; the factorization is verified by the faithful engine, and the
    third value is that (verdict, engine): a "false" one raises, and an
    "unknown" one (a resource cap) is passed on.

    The result is cached per (n, cap), as ``pi1.twist_tables`` is per
    genus, so each process pulls and verifies it once; its words are
    immutable and shared by every caller.  A raise is not cached, so a
    "false" pull raises on every call, and an "unknown" one is passed on
    to each caller with the same cap.
    """
    if n < 2:
        raise ValueError("factorization requires genus >= 2")
    sig = SurfaceSig(n, 1)
    report = commute_pull(chain_word(sig, 4), TwistWord._trusted(sig, _TRADE_LHS), cap)
    verdict = settle("commutation pull failed verification", report.verdict)
    letters, k = report.output.letters, len(_TRADE_LHS)
    return TwistWord._trusted(sig, letters[:k]), TwistWord._trusted(sig, letters[k:]), verdict


def inverse_twist_expansion(sig: SurfaceSig) -> TwistWord:
    """The positive word equal to a1^-1 on a closed surface of genus >= 1.

    Namely ``chain_relator(sig)`` less its first letter,
    (b1 a2 b2 ... ag bg) . (a1 b1 ... ag bg)^(4g+1), of length
    (2g - 1) + 2g(4g + 1); at genus 1 this is b(ab)^5.
    """
    if sig.boundary != 0:
        raise ValueError("the positive expansion of a1^-1 needs a closed surface")
    if sig.genus < 1:
        raise ValueError("genus >= 1 required")
    return TwistWord._trusted(sig, chain_relator(sig).letters[1:])


def _positive_word(w: TwistWord) -> tuple[TwistWord, int]:
    """``positivize``'s output and its count of negative letters, built with no check.

    Raises ``ValueError`` on a bounded surface, and past
    ``OUTPUT_MAX_LETTERS`` before any output is built.  ``positivize`` and
    ``dehn.constructions.splitting_words`` both build their outputs here,
    so a split whose second output is too large raises before either is
    verified.
    """
    sig = w.surface
    if sig.boundary != 0:
        raise ValueError("positivization is defined on closed surfaces")
    # each distinct negative base, in order, with its transport inverted
    transports = {c: invert_steps(transport_pairs(c, sig))
                  for c in dict.fromkeys(t.base for t in w.letters if t.sign < 0)}
    expansion = inverse_twist_expansion(sig).letters if transports else ()
    size = sum(1 + len(t.conj) if t.sign > 0
               else len(expansion) * (1 + len(t.conj) + len(transports[t.base]))
               for t in w.letters)
    if size > OUTPUT_MAX_LETTERS:  # named as the CLI request's field, which it reports
        raise ValueError(f"field 'word' would give {size} output letters counting "
                         f"conjugators, more than {OUTPUT_MAX_LETTERS}")
    out: list[Twist] = []
    steps = 0
    for t in w.letters:
        if t.sign == 1:
            out.append(t)
            continue
        # one conjugator of valid pairs, shared by every letter of the expansion
        conj = t.conj + transports[t.base]
        out.extend(Twist._trusted(e.base, 1, conj) for e in expansion)
        steps += 1
    return TwistWord._trusted(sig, tuple(out)), steps


def positivize(w: TwistWord, cap: int = DEFAULT_CAP,
               engine: str = "auto") -> RewriteReport:
    """Rewrite a signed word on a closed surface as all-positive letters.

    A negative letter with conjugator u and base c becomes the expansion of
    a1^-1 transported back to c: every letter of inverse_twist_expansion,
    conjugated by u . (transport of c)^-1.  Positive letters pass through.
    Output length is P + N * len(expansion) for P positive and N negative
    input letters.  Counting conjugator letters too, an output of more
    than ``OUTPUT_MAX_LETTERS`` raises ``ValueError``, naming its size,
    before any of it is built or verified (``_positive_word``).
    ``engine`` selects the verification tier ("auto" uses the strongest
    applicable engine; "homology" is the cheap necessary check).
    """
    output, steps = _positive_word(w)
    return RewriteReport(output, steps, decide_equal(w, output, engine, cap))


# the two sides of CHAIN_TRADE as plain positive letters, built once
_TRADE_LHS, _TRADE_RHS = (tuple(Twist(name) for name in side.split()) for side in CHAIN_TRADE)


def chain_substitute(w: TwistWord, cap: int = DEFAULT_CAP) -> RewriteReport:
    """Replace the leftmost literal (a1 b1 a2)^4 block by d2 e2 (``CHAIN_TRADE``).

    The block matches only plain positive letters, since ``Twist`` equality
    compares base, sign and conjugator.  The output is ten letters shorter
    and equal to the input as a mapping class (the chain relation);
    equality is verified by the strongest applicable engine.
    """
    if w.surface.genus < 2:
        raise ValueError("the chain relation needs genus >= 2")
    letters, n = w.letters, len(_TRADE_LHS)
    start = next((i for i in range(len(letters) - n + 1) if letters[i:i + n] == _TRADE_LHS),
                 None)
    if start is None:
        raise ValueError(f"no contiguous block {CHAIN_TRADE[0]} found")
    output = TwistWord._trusted(w.surface, letters[:start] + _TRADE_RHS + letters[start + n:])
    return RewriteReport(output, 1, decide_equal(w, output, "auto", cap))
