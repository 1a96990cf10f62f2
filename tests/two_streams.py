"""A reference verdict that runs each word's own stream, with no reduction of psi."""

from dehn import WordGrowthExceeded, dehn_reduce
from dehn.freegroup import invert_word
from dehn.homology import word_matrix
from dehn.pi1 import DEFAULT_CAP, apply_word


def two_stream_verdict(w1, w2, cap=DEFAULT_CAP):
    """Reference: run each word's own stream on every generator and compare.

    Rel boundary the images must be equal, on a closed surface of genus >= 2
    equal modulo the relator, and at closed genus <= 1 the two homology
    matrices decide.  Returns "true" or "false", or None when an image
    passes the cap.  Every step of both words goes through its twist
    table, so a relation checked here checks the tables, even one that
    ``decide_equal`` settles by commutation before any table is read.
    """
    sig = w1.surface
    if sig.boundary == 0 and sig.genus <= 1:
        return "true" if word_matrix(w1) == word_matrix(w2) else "false"
    try:
        for k in range(1, 2 * sig.genus + 1):
            u, v = apply_word(w1, (k,), cap), apply_word(w2, (k,), cap)
            if sig.boundary:
                if u != v:
                    return "false"
            elif dehn_reduce(u + invert_word(v), sig.genus):
                return "false"
    except WordGrowthExceeded:
        return None
    return "true"
