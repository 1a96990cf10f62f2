"""Reduced words and endomorphisms of a finitely generated free group.

A word is a tuple of nonzero ints: ``k`` is the k-th generator, ``-k`` its
inverse, and words are kept freely reduced (no adjacent ``k, -k``).  An
automorphism is represented by the tuple of images of the generators, with
the images of the inverse generators computed once beside them, and is
applied letterwise by ``substitute``, which cancels only at the seams
between consecutive images.  ``dehn_rewrite`` is the stack loop of Dehn's
algorithm, with free cancellation, for any table of rules: the reduction
of ``dehn.pi1.dehn_reduce`` against the surface relator and the braid
pass of ``dehn.surface.braid_reduce`` both run it.
"""

from __future__ import annotations

Word = tuple[int, ...]


class WordGrowthExceeded(Exception):
    """An intermediate free-group word passed the configured length cap."""

    def __init__(self, length: int, cap: int):
        super().__init__(f"word length {length} exceeds cap {cap}")
        self.length = length
        self.cap = cap


def reduce_word(letters) -> Word:
    """Freely reduce: cancel adjacent inverse pairs."""
    out: list[int] = []
    for x in letters:
        if x == 0:
            raise ValueError("0 is not a generator index")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert_word(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def dehn_rewrite(z, rules: dict[Word, Word], need: int) -> list[int]:
    """z freely reduced, with every ``need``-letter key of ``rules`` replaced as it appears.

    The stack loop of Dehn's algorithm (Lyndon-Schupp, *Combinatorial
    Group Theory*, V.4): the letters of z are pushed one at a time onto an
    output stack with free cancellation, and after each push the top
    ``need`` letters are looked up in ``rules``; on a hit they are popped
    and their replacement goes back onto the front of the pending input.
    A pop never creates a key and every push is checked, so the result is
    freely reduced and holds no key.  Each rule must map its key to a
    shorter word equal to it in the group at hand, so the loop ends, after
    at most len(z) replacements, and the result is equal to z there.
    """
    pending = list(reversed(z))
    out: list[int] = []
    while pending:
        x = pending.pop()
        if out and out[-1] == -x:
            out.pop()
            continue
        out.append(x)
        if len(out) >= need:
            replacement = rules.get(tuple(out[-need:]))
            if replacement is not None:
                del out[-need:]
                pending.extend(reversed(replacement))
    return out


def substitute(signed, w, cap: int | None = None) -> list[int]:
    """The word w with every letter x replaced by ``signed[x]``, freely reduced.

    ``signed`` is a signed image table: ``signed[k]`` is the reduced image of
    generator k and, by negative indexing, ``signed[-k]`` the inverse of that
    image.  The images are reduced, so only the prefix of each one can cancel
    against the output so far, and the result is reduced whatever w is.
    Raises WordGrowthExceeded if the result is longer than ``cap``.
    """
    out: list[int] = []
    for x in w:
        img = signed[x]
        i, n = 0, len(img)
        while i < n and out and out[-1] == -img[i]:
            out.pop()
            i += 1
        out += img[i:] if i else img
    if cap is not None and len(out) > cap:
        raise WordGrowthExceeded(len(out), cap)
    return out


class FreeAutomorphism:
    """An endomorphism of F_n given by generator images (assumed invertible).

    ``images[k]`` is the reduced image word of generator k+1, and ``moved``
    lists, in increasing order, the generators whose image is not
    themselves.  The signed table ``_signed`` holds the image of every
    letter at the letter's own index: ``_signed[k]`` is the image of
    generator k and, by negative indexing, ``_signed[-k]`` the inverse of
    that image.  ``apply`` takes letters in 1..n and -n..-1 only.
    """

    __slots__ = ("images", "moved", "_signed")

    def __init__(self, images):
        self.images = tuple(reduce_word(w) for w in images)
        self.moved = tuple(k for k, w in enumerate(self.images, 1) if w != (k,))
        inverses = tuple(invert_word(w) for w in self.images)
        self._signed = (None,) + self.images + inverses[::-1]

    @classmethod
    def from_map(cls, n: int, table: dict[int, Word]) -> "FreeAutomorphism":
        """Identity except on the listed generators."""
        return cls(tuple(tuple(table.get(k, (k,))) for k in range(1, n + 1)))

    def apply(self, w: Word, cap: int | None = None) -> Word:
        """Image of w; raises WordGrowthExceeded if it is longer than ``cap``.

        The cap is checked before the image is copied into a tuple, so an
        oversized image is never held twice.
        """
        return tuple(substitute(self._signed, w, cap))
