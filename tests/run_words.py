"""Seeded words made of runs of letters that share a conjugator, for writers that walk runs."""

from dehn import Twist, TwistWord
from dehn.surface import curve_classes

SHAPES = ("shared", "equal", "alternating", "delta", "cancelling")


def run_shaped_word(rng, sig, runs):
    """``runs`` runs of one to four letters, each in one of ``SHAPES``.

    * shared: every letter holds the same conjugator tuple object;
    * equal: equal conjugators, each letter holding its own tuple;
    * alternating: two conjugators taking turns letter by letter;
    * delta: a shared run with a delta letter, plain or conjugated, inside
      it (plain letters instead on a closed surface);
    * cancelling: a conjugator whose last step is the base letter itself,
      so that it cancels the base in the stream.
    """
    curves = tuple(c for c in curve_classes(sig) if c != "delta")

    def plain():
        return (rng.choice(curves), rng.choice((1, -1)))

    def conjugator():
        return tuple(plain() for _ in range(rng.randrange(4)))

    letters = []
    for _ in range(runs):
        shape = rng.choice(SHAPES)
        size = rng.randint(1, 4)
        conj = conjugator()
        if shape == "shared":
            letters += [Twist._trusted(*plain(), conj) for _ in range(size)]
        elif shape == "equal":
            letters += [Twist._trusted(*plain(), tuple(list(conj))) for _ in range(size)]
        elif shape == "alternating":
            other = conjugator()
            letters += [Twist._trusted(*plain(), (conj, other)[i % 2]) for i in range(size)]
        elif shape == "delta":
            run = [Twist._trusted(*plain(), conj) for _ in range(size + 1)]
            inside = (Twist("delta", rng.choice((1, -1)), rng.choice(((), conj)))
                      if sig.boundary else Twist(*plain()))
            run.insert(rng.randint(1, size), inside)
            letters += run
        else:
            base, sign = plain()
            ending = conj + ((base, sign),)
            letters += [Twist._trusted(base, sign, ending) for _ in range(size)]
    return TwistWord(sig, tuple(letters))
