"""Lefschetz fibrations over the disk and sphere, and their invariants.

A fibration is a base ("disk" or "sphere") and an all-positive twist
word listing the vanishing cycles (one letter per singular fiber); the
fiber is the surface the word lives on.  Sphere fibrations need a closed
fiber and a word whose homology action is the identity (a necessary
condition for the monodromy to close up; exact closure is checked by the
equality engines where needed).
``gn_word``, ``fiber_sum`` and ``double_report`` build sphere fibrations
whose words are trivial by a theorem or by construction, and skip that
check.  ``double_report`` returns the doubled fibration and the
(verdict, engine) pair of ``decide_equal`` for its positivization, settled
by ``pi1.settle``.

Invariants are computed from the handle decomposition: the Euler
characteristic from the letter count, and first homology of the total
space as H1(fiber) modulo the letters' homology classes (conjugators
applied), by the integer cokernel of ``dehn.snf``.
"""

from __future__ import annotations

from .homology import is_identity, transported_class, word_matrix
from .pi1 import DEFAULT_CAP, settle
from .rewriting import positivize
from .snf import abelian_group_from_columns
from .surface import Record, SurfaceSig, TwistWord, chain_word, curve_classes

BASES = ("disk", "sphere")


class AbelianGroup(Record):
    """Z^rank plus cyclic torsion factors in a divisibility chain."""

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion: tuple[int, ...] = ()):
        torsion = tuple(int(d) for d in torsion)
        if rank < 0:
            raise ValueError("rank must be non-negative")
        # before the chain check, which divides by each order
        if any(d < 2 for d in torsion):
            raise ValueError("torsion orders must be at least 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion orders must form a divisibility chain")
        super().__init__(rank, torsion)

    @property
    def trivial(self) -> bool:
        return self.rank == 0 and not self.torsion


class Fibration(Record):
    """A positive Lefschetz fibration: base and vanishing-cycle word.

    The fiber is the word's surface.
    """

    __slots__ = ("base", "word")

    def __init__(self, base: str, word: TwistWord):
        if base not in BASES:
            raise ValueError(f"base must be one of {BASES}, got {base!r}")
        if not word.all_positive():
            raise ValueError("fibration words must be all-positive")
        if base == "sphere":
            if word.surface.boundary != 0:
                raise ValueError("a sphere fibration needs a closed fiber")
            if not is_identity(word_matrix(word)):
                raise ValueError("sphere fibration word must act trivially on homology")
        super().__init__(base, word)

    @classmethod
    def _certified_sphere(cls, word: TwistWord) -> "Fibration":
        """A sphere fibration whose word is trivial by how it was built; no check runs.

        For a positive word on a closed surface that is trivial by a
        theorem (the chain relation), is a product of words already
        checked, or is the positivization of a trivial word that was not
        decided unequal to it: ``decide_equal`` answers "false" on every
        engine when the two act differently on homology, so an "unknown"
        positivization acts trivially too.  Every other word goes through
        the public constructor.
        """
        return cls._trusted("sphere", word)

    @property
    def fiber(self) -> SurfaceSig:
        return self.word.surface

    @property
    def letter_count(self) -> int:
        return len(self.word)


def euler_characteristic(f: Fibration) -> int:
    """chi of the total space: chi(fiber) x chi(base) + one per letter."""
    g, b, k = f.fiber.genus, f.fiber.boundary, f.letter_count
    if f.base == "disk":
        return (2 - 2 * g - b) + k
    return 2 * (2 - 2 * g) + k


def first_homology(f: Fibration) -> AbelianGroup:
    """H1 of the total space: H1(fiber) modulo the vanishing-cycle classes.

    Each letter contributes its class with the conjugator applied.  A
    letter's class depends only on its base curve and conjugator, so each
    distinct (base, conjugator) pair is transported once, and only as far
    as the cokernel reads: it stops once the classes span H1(fiber), which
    gn(n) does after its first 2n letters.
    """
    sig = f.fiber

    def classes():
        seen = set()
        for t in f.word.letters:
            key = (t.base, t.conj)
            if key not in seen:
                seen.add(key)
                yield transported_class(t, sig)

    rank, torsion = abelian_group_from_columns(2 * sig.genus, classes())
    return AbelianGroup(rank, tuple(torsion))


def is_allowable(f: Fibration) -> bool:
    """True iff every vanishing cycle is homologically essential.

    Reads each letter's base class with no transport: a conjugator acts on
    H1 by a product of transvections, which is invertible, so the
    transported class is zero exactly when the base class is.
    """
    classes = curve_classes(f.fiber)
    return all(any(classes[t.base]) for t in f.word.letters)


def double_report(palf: Fibration, cap: int = DEFAULT_CAP,
                  engine: str = "auto") -> tuple[Fibration, tuple[str, str]]:
    """Double a disk fibration over a one-boundary fiber into a sphere one.

    Caps the fiber, appends the reverse-inverse of the word, and
    positivizes, so the letter count becomes k x (1 + expansion length).
    ``engine`` is the tier that verifies the positivization, as in
    ``positivize``, which raises ``ValueError`` when the doubled word,
    conjugator letters included, would pass
    ``rewriting.OUTPUT_MAX_LETTERS``; the fibration's own faults are
    checked first.  Returns the sphere fibration and the positivization's
    verdict, settled by ``pi1.settle``: a "false" one raises, and an
    "unknown" one is passed on.  The doubled word is trivial, and a
    positivization not decided unequal to it acts trivially on homology,
    so the sphere fibration skips that check.
    """
    if palf.base != "disk" or palf.fiber.boundary != 1:
        raise ValueError("doubling applies to disk fibrations over a one-boundary fiber")
    if not is_allowable(palf):
        raise ValueError("doubling requires an allowable fibration")
    if any(name == "delta" for t in palf.word.letters for name, _ in t.conj):
        raise ValueError("doubling cannot cap delta in a conjugator: delta is the "
                         "boundary curve of the one-boundary page")
    # an allowable letter's base is not delta, and every other curve of the
    # page is a curve of the capped fiber
    closed = SurfaceSig(palf.fiber.genus, 0)
    capped = TwistWord._trusted(closed, palf.word.letters)
    doubled = capped * capped.inverse()
    rep = positivize(doubled, cap, engine)
    verdict = settle("the doubling's positivization failed verification", rep.verdict)
    return Fibration._certified_sphere(rep.output), verdict


def fiber_sum(f1: Fibration, f2: Fibration) -> Fibration:
    """Concatenate the words of two sphere fibrations with the same fiber.

    The concatenation rejects words on different surfaces.
    """
    if f1.base != "sphere" or f2.base != "sphere":
        raise ValueError("fiber sum is defined for sphere fibrations")
    # the product of two trivial words is trivial
    return Fibration._certified_sphere(f1.word * f2.word)


def gn_word(n: int) -> Fibration:
    """The genus-n sphere fibration with word (a1 b1 ... an bn)^(4n+2).

    The word is trivial by the chain relation (c1 ... c2n)^(4n+2) = 1 on the
    closed genus-n surface, so it is not checked again.
    """
    if n < 1:
        raise ValueError("genus must be at least 1")
    return Fibration._certified_sphere(chain_word(SurfaceSig(n, 0), 4 * n + 2))
