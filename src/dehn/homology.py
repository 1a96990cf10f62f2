"""Integral homology action of twist words.

H1 of the model surface (the closed surface, or the one-boundary surface,
where it is the same free module) is Z^2g with the standard alternating
intersection pairing on the fixed basis.  A Dehn twist about a curve with
class v acts by the transvection

    T_v(x) = x + <x, v> v          (positive twist)
    T_v^-1(x) = x - <x, v> v       (negative twist)

A word acts through its stream (``dehn.surface.compile_word``), the same
cancelled sequence of plain (curve, sign) steps the free-group engines
apply: each step is the transvection about a standard curve class.  Those
classes have at most two nonzero entries and are read sparse from the one
curve table (``dehn.surface.curve_classes``), so each step costs O(1) per
vector, O(2g) for a whole matrix.  Two words are compared on one matrix,
that of the stream of w2^-1 . w1 (``dehn.surface.quotient_stream``),
against the identity.

For genus 1 closed surfaces this action is a faithful invariant: two twist
words are equal as mapping classes exactly when their matrices agree.  For
higher genus it is necessary but not sufficient.
"""

from __future__ import annotations

from .surface import (
    Sparse,
    SurfaceSig,
    Twist,
    TwistWord,
    check_letters,
    compile_word,
    curve_classes,
    homology_class,
    quotient_stream,
)

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]  # rows


def _steps(sig: SurfaceSig, stream) -> list[tuple[Sparse, int]]:
    """The stream with each curve replaced by its sparse class."""
    classes = curve_classes(sig)
    return [(classes[name], sign) for name, sign in stream]


def _run_stream(x: list[int], steps: list[tuple[Sparse, int]]) -> None:
    """Apply T_v^sign for every (v, sign) step to x in place, in order."""
    for v, sign in steps:
        c = 0
        for _, _, j, p in v:
            c += p * x[j]
        if c:
            c *= sign
            for i, vi, _, _ in v:
                x[i] += c * vi


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transported_class(twist: Twist, sig: SurfaceSig) -> Vector:
    """Homology class of the letter's core curve pushed through its conjugator.

    A plain letter's class is ``homology_class`` of its base.  A conjugated
    letter's curves are checked by ``check_letters``, and that class runs
    through the conjugator's steps; both read the cached curve table.
    """
    v = homology_class(twist.base, sig)
    if not twist.conj:
        return v
    check_letters((twist,), sig)
    x = list(v)
    # the conjugator u acts as its letters, last first; u's cancelling
    # pairs need no removal, as they compose to the identity
    _run_stream(x, _steps(sig, reversed(twist.conj)))
    return tuple(x)


def stream_matrix(sig: SurfaceSig, stream) -> Matrix:
    """Matrix of a stream of (curve, sign) steps on ``sig``, first-acting first.

    Built column by column: each basis vector runs through the stream in
    one ``_run_stream`` call, one sparse transvection per step.
    """
    n = 2 * sig.genus
    steps = _steps(sig, stream)
    cols = []
    for j in range(n):
        x = [0] * n
        x[j] = 1
        _run_stream(x, steps)
        cols.append(x)
    return tuple(zip(*cols))


def word_matrix(word: TwistWord) -> Matrix:
    """Product of the letters' matrices in word order (rightmost acts first)."""
    return stream_matrix(word.surface, compile_word(word))


def is_identity(m: Matrix) -> bool:
    return m == identity_matrix(len(m))


def homology_equal(w1: TwistWord, w2: TwistWord) -> bool:
    """Whether the two words act identically on H1: w2^-1 . w1 acts trivially."""
    return is_identity(stream_matrix(w1.surface, quotient_stream(w1, w2)))
