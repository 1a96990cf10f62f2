"""Surfaces, the standard curve system, and signed Dehn-twist words.

The model is an oriented genus-g surface with b in {0, 1} boundary
components.  Its standard curves are:

* the chain curves ``a1, b1, a2, b2, ..., ag, bg`` — consecutive curves in
  this order meet in one point, all other pairs are disjoint;
* ``d2`` and ``e2`` (genus >= 2 only) — the two boundary circles of a
  regular neighbourhood of the 3-chain ``a1, b1, a2``, each meeting ``b2``
  once and disjoint from every other standard curve;
* ``delta`` (one-boundary surfaces only) — a curve parallel to the boundary.

A :class:`Twist` is a signed Dehn twist about a standard curve, optionally
conjugated by a flat word of signed standard twists (depth one, never
nested): ``(conj=u, base=c, sign=s)`` denotes ``u · t_c^s · u^-1``.  A
:class:`TwistWord` is a finite sequence of twists composed left-to-right,
with the *rightmost* letter acting first on the surface.  The public
constructor validates every letter on the word's surface; words the package
builds from letters already valid there (products, inverses, powers, the
chain word, rewrite outputs) use ``TwistWord._trusted`` and skip the check,
and ``Twist._trusted`` does the same for a letter built from parts already
valid.  Every check of a letter's curves runs in ``check_letters``, which
reads the curve table once for a whole sequence of letters: the public
``TwistWord`` constructor, ``Twist.validate`` and the CLI's word reader
(``dehn.cli.parse_word``, which builds its letters with ``Twist._trusted``
and its word with ``TwistWord._trusted`` after that one check) all call it.
``plain_letters`` holds one shared unconjugated letter per (curve, sign)
on a surface, so the reader's plain letters are those objects and a word
pays for each distinct plain letter once.
``compile_word`` expands a word into the plain (curve, sign) steps in the
order they act, the one stream every engine applies; ``quotient_stream``
builds the stream of w2^-1 . w1 from two compiled words, so that every
equality test asks whether one stream acts trivially; ``reduce_stream``
cancels the steps of a stream that twists about disjoint curves, which
commute, let meet; ``drop_chain_relators`` deletes every whole chain
relator from a stream, a run of L = ``len(chain_relator(sig))`` steps of
one sign that walks the chain cyclically, replaces each walk of more than
L/2 such steps by the inverse of the rest of its relator (in a stream of
at least L steps), and appends the boundary twists these equal on a
one-boundary surface; ``braid_reduce`` applies Dehn's more-than-half
rule to the braid relators of the curves that meet once, through the
stack loop of ``dehn.freegroup.dehn_rewrite``.
``chain_relator`` is the one spelling of (a1 b1 ... ag bg)^(4g+2).

The curves are written down once, in ``curve_rows``: every standard
curve on the surface, in the standard order, with its row (loop,
conjugated, prefixed, suffixed) in the chain loops w_1, ..., w_2g that
generate pi1 of the one-boundary surface (``dehn.pi1``).  Loop w_j runs
once around chain curve j, and words encode w_j as the signed int j,
negatives for inverses.  A row's loop l runs once around its curve; the
other three list the generators whose own loop crosses the curve, by how
it crosses, which is where the twist inserts l (``dehn.pi1``).  The rows
are

    chain curve j   l = w_j                   prefixed j+1, suffixed j-1 (within 1..2g)
    d2              l = w_1 w_3               conjugated 1, 2, 3; prefixed 4
    e2              l = w_2^-1 w_1 w_2 w_3    prefixed 4
    delta           l = boundary_word(g)      conjugated 1..2g

Homology classes live in a fixed ordered basis ``e1, ..., e_2g`` whose
intersection form is the standard block form (``<e_{2i-1}, e_{2i}> = +1``,
all other basis pairings zero).  Chain curve j has the class of w_j:
``a_i -> e_{2i-1}``; ``b_i -> e_{2i} - e_{2i+2}`` for ``i < g`` and
``b_g -> e_{2g}`` (consecutive chain curves must pair +1, so the b-classes
are not bare basis vectors).  Every curve's class is its loop abelianized,
so ``d2`` and ``e2`` both have class ``e1 + e3`` and ``delta`` has class 0.

``curve_classes`` maps every curve name to its class, in the same order,
stored sparse as its at most two nonzero entries.  Validity, the curve
list (``tuple(curve_classes(sig))``), the chain order (its first 2g
names), the classes and who meets whom (``intersection``) are all read
from it; no other module lists the curves or parses their names.  A name
is a curve exactly when the table holds it: a single name is looked up
by ``_class_of`` (behind ``homology_class`` and ``intersection``) and a
sequence of letters by ``check_letters``, and both raise one error text
for any other name.
``crossing_table`` maps every curve name to the names of the curves it
meets, read off ``intersection`` and cached like ``curve_classes``;
``reduce_stream`` and ``dehn.rewriting.commute_pull`` read from it which
twists commute, and ``braid_reduce`` which twists braid.
``chain_name`` is the one place where a chain position becomes a name.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .freegroup import Word, dehn_rewrite, invert_word


class Record:
    """An immutable record whose fields are its ``__slots__``, in order.

    Equality, hash and repr go by field, in field order; assigning or
    deleting an attribute raises ``AttributeError``.  The fields are set
    here and nowhere else: ``Record.__init__`` fills them in order from its
    arguments, and a subclass's ``__init__`` checks its arguments and ends
    in ``super().__init__(...)``.  ``_trusted`` builds a record from values
    already known to be valid, with none of its class's checks.  A copy or
    unpickled record is built again through its class's ``__init__``.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__qualname__} takes {len(self.__slots__)} "
                            f"fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *values):
        record = object.__new__(cls)
        Record.__init__(record, *values)
        return record

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class SurfaceSig(Record):
    """Genus and boundary count of the model surface."""

    __slots__ = ("genus", "boundary")

    def __init__(self, genus: int, boundary: int):
        if type(genus) is not int or genus < 0:
            raise ValueError(f"genus must be a non-negative integer, got {genus!r}")
        if type(boundary) is not int or boundary not in (0, 1):
            raise ValueError(f"boundary must be 0 or 1, got {boundary!r}")
        super().__init__(genus, boundary)

    # hashed on every curve-table lookup: spelled out, these run several
    # times faster than Record's generic pair
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.genus, self.boundary) == (other.genus, other.boundary)
        return NotImplemented

    def __hash__(self):
        return hash((self.genus, self.boundary))


# A curve class as its nonzero entries (i, v_i, j, p): <x, v> is the sum of
# p * x[j], where j = i ^ 1 is the entry paired with i by the form and
# p = v_i for odd i, -v_i for even i.
Sparse = tuple[tuple[int, int, int, int], ...]


def boundary_word(genus: int) -> Word:
    """The boundary relator w_1 w_3 ... w_{2g-1} . w_{2g}^-1 ... w_1^-1 . w_2 w_4 ... w_{2g}.

    Its length is 4g, and every chain loop occurs once with each sign.
    """
    odd, even = tuple(range(1, 2 * genus, 2)), tuple(range(2, 2 * genus + 1, 2))
    return odd + tuple(range(-2 * genus, 0)) + even


@lru_cache(maxsize=None)
def curve_rows(sig: SurfaceSig) -> dict[str, tuple[Word, Word, Word, Word]]:
    """Every standard curve on ``sig`` with its row (loop, conjugated, prefixed, suffixed).

    Chain, then d2/e2, then delta; the rows are those of the module
    docstring.  The table is cached and shared between callers, which only
    read it.
    """
    n = 2 * sig.genus
    rows = {chain_name(j): ((j,), (), (j + 1,) if j < n else (), (j - 1,) if j > 1 else ())
            for j in range(1, n + 1)}
    if sig.genus >= 2:
        rows["d2"] = ((1, 3), (1, 2, 3), (4,), ())
        rows["e2"] = ((-2, 1, 2, 3), (), (4,), ())
    if sig.boundary == 1:
        rows["delta"] = (boundary_word(sig.genus), tuple(range(1, n + 1)), (), ())
    return rows


@lru_cache(maxsize=None)
def curve_classes(sig: SurfaceSig) -> dict[str, Sparse]:
    """Every standard curve on ``sig`` with its sparse class, in ``curve_rows`` order.

    A class is its curve's loop abelianized, w_j mapped to the class of
    chain curve j (module docstring).  The table is cached and shared
    between callers, which only read it.
    """
    n = 2 * sig.genus
    table = {}
    for name, (loop, *_) in curve_rows(sig).items():
        v = Counter()
        for x in loop:
            j, s = abs(x), (1 if x > 0 else -1)
            v[j - 1] += s
            if j % 2 == 0 and j < n:  # b_i -> e_{2i} - e_{2i+2}
                v[j + 1] -= s
        table[name] = tuple((i, vi, i ^ 1, vi if i % 2 else -vi)
                            for i, vi in sorted(v.items()) if vi)
    return table


def _invalid_curve(name, sig: SurfaceSig) -> ValueError:
    return ValueError(f"curve {name!r} is not valid on genus {sig.genus}, "
                      f"boundary {sig.boundary}")


def _class_of(name, sig: SurfaceSig, classes: dict[str, Sparse]) -> Sparse:
    """``classes[name]``, where ``classes`` is ``curve_classes(sig)``; raise on any other name."""
    if isinstance(name, str) and name in classes:
        return classes[name]
    raise _invalid_curve(name, sig)


def check_letters(letters, sig: SurfaceSig) -> None:
    """Check that every letter is a Twist whose curves are standard on ``sig``.

    The letters are read in order, each base before its conjugator, and
    the first fault is raised: a TypeError for a letter that is not a
    Twist, a ValueError naming the first curve not standard on ``sig``.
    The curve table is fetched once for the whole sequence.  Every check
    of a letter's curves runs here.
    """
    classes = curve_classes(sig)
    for t in letters:
        if not isinstance(t, Twist):
            raise TypeError(f"letters must be Twist instances, got {t!r}")
        base = t.base
        if not (isinstance(base, str) and base in classes):
            raise _invalid_curve(base, sig)
        for name, _ in t.conj:
            if name not in classes:
                raise _invalid_curve(name, sig)


def chain_name(j: int) -> str:
    """Name of the chain curve at position j (a1=1, b1=2, ...)."""
    return f"a{(j + 1) // 2}" if j % 2 else f"b{j // 2}"


def homology_class(name: str, sig: SurfaceSig) -> tuple[int, ...]:
    """Class of a standard curve in the fixed basis (length 2g)."""
    v = [0] * (2 * sig.genus)
    for i, vi, _, _ in _class_of(name, sig, curve_classes(sig)):
        v[i] = vi
    return tuple(v)


def intersection(c1: str, c2: str, sig: SurfaceSig) -> int:
    """The algebraic intersection number <c1, c2>; ``intersection("a1", "b1", sig) == 1``.

    Any two standard curves meet in exactly |<c1, c2>| points, all of one
    sign, and that number is 0 or 1.  So 0 means the curves are disjoint
    (or equal) and their twists commute, and +-1 means they meet once and
    their twists braid: t_c t_d t_c = t_d t_c t_d.
    """
    classes = curve_classes(sig)
    v1, v2 = _class_of(c1, sig, classes), _class_of(c2, sig, classes)
    return sum(p * xi for _, _, j, p in v2 for i, xi, _, _ in v1 if i == j)


@lru_cache(maxsize=None)
def crossing_table(sig: SurfaceSig) -> dict[str, tuple[str, ...]]:
    """Every standard curve on ``sig`` with the curves it meets, in ``curve_classes`` order.

    Read off ``intersection``: c meets d when <c, d> is +-1, and is
    disjoint from (or equal to) every other curve, so their twists commute
    with t_c.  No curve meets more than four others (b2 meets a2, a3, d2
    and e2), and delta meets none.  The table is cached and shared between
    callers, which only read it.
    """
    names = tuple(curve_classes(sig))
    return {c: tuple(d for d in names if intersection(c, d, sig)) for c in names}


def is_sign(s) -> bool:
    """Whether s is the int +1 or -1 (not a bool, float or string)."""
    return type(s) is int and s in (1, -1)


class Twist(Record):
    """A signed Dehn twist about a standard curve, optionally conjugated.

    ``conj`` is a flat tuple of (curve name, sign) pairs; the twist denotes
    ``u · t_base^sign · u^-1`` where u is the conjugator word read
    left-to-right with the same composition convention as TwistWord.
    ``_trusted`` fills the slots through their descriptors rather than
    through ``Record``, since it runs once per letter of a rewrite output.
    """

    __slots__ = ("base", "sign", "conj")

    def __init__(self, base: str, sign: int = 1, conj: tuple[tuple[str, int], ...] = ()):
        if not is_sign(sign):
            raise ValueError(f"twist sign must be +1 or -1, got {sign!r}")
        conj = tuple((str(n), s) for n, s in conj)
        for _, s in conj:
            if not is_sign(s):
                raise ValueError(f"conjugator entries must have sign +1 or -1, got {s!r}")
        super().__init__(base, sign, conj)

    @classmethod
    def _trusted(cls, base: str, sign: int, conj: tuple[tuple[str, int], ...]) -> "Twist":
        """A twist from parts already known to be valid, built with no check.

        ``sign`` must be +1 or -1 and ``conj`` a tuple of (str, +1 or -1)
        pairs; it is shared, not copied, so letters with one conjugator
        hold one tuple.  Every other twist goes through the public
        constructor.
        """
        t = object.__new__(cls)
        _set_base(t, base)
        _set_sign(t, sign)
        _set_conj(t, conj)
        return t

    def inverse(self) -> "Twist":
        """The inverse letter; it shares this letter's conjugator tuple."""
        return Twist._trusted(self.base, -self.sign, self.conj)

    def validate(self, sig: SurfaceSig) -> None:
        check_letters((self,), sig)


# the slot setters, looked up once: Record's generic loop finds each
# descriptor by name on every call, about 3x the cost per letter
_set_base, _set_sign, _set_conj = Twist.base.__set__, Twist.sign.__set__, Twist.conj.__set__


@lru_cache(maxsize=None)
def plain_letters(sig: SurfaceSig) -> dict[tuple[str, int], Twist]:
    """One shared unconjugated letter for each (curve, sign) on ``sig``.

    Keys are (name, +1 or -1) for every name of ``curve_classes(sig)``.
    A reader of many plain letters takes them from here, so a word costs
    one object per distinct letter, not one per letter.  The table is
    cached and shared between callers, which only read it.
    """
    return {(name, sign): Twist._trusted(name, sign, ())
            for name in curve_classes(sig) for sign in (1, -1)}


class TwistWord(Record):
    """A word of twists on one surface; the rightmost letter acts first."""

    __slots__ = ("surface", "letters")

    def __init__(self, surface: SurfaceSig, letters: tuple[Twist, ...] = ()):
        letters = tuple(letters)
        check_letters(letters, surface)
        super().__init__(surface, letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __mul__(self, other: "TwistWord") -> "TwistWord":
        if self.surface != other.surface:
            raise ValueError("cannot concatenate words on different surfaces")
        return TwistWord._trusted(self.surface, self.letters + other.letters)

    def inverse(self) -> "TwistWord":
        """Reversed word of inverted letters (the group inverse)."""
        return TwistWord._trusted(self.surface,
                                  tuple(t.inverse() for t in reversed(self.letters)))

    def power(self, k: int) -> "TwistWord":
        if k < 0:
            return self.inverse().power(-k)
        return TwistWord._trusted(self.surface, self.letters * k)

    def all_positive(self) -> bool:
        return all(t.sign == 1 for t in self.letters)

    @classmethod
    def from_names(cls, sig: SurfaceSig, names) -> "TwistWord":
        """Build a word of plain twists from "a1 b1^-1 a2" or an iterable.

        Iterable entries may be names or (name, sign) pairs.
        """
        if isinstance(names, str):
            names = names.split()
        letters = []
        for item in names:
            if isinstance(item, str):
                if item.endswith("^-1"):
                    letters.append(Twist(item[:-3], -1))
                else:
                    letters.append(Twist(item, 1))
            else:
                name, sign = item
                letters.append(Twist(name, sign))
        return cls(sig, tuple(letters))


Step = tuple[str, int]


def compile_word(word: TwistWord) -> tuple[Step, ...]:
    """The word's action stream: plain (curve, sign) steps, first-acting first.

    Within a word the rightmost letter acts first, and a conjugated letter
    u . t . u^-1 acts as u^-1 (its letters in forward order with signs
    flipped), then the base twist, then u (its letters in reverse).  The
    word is walked in runs of letters that share one conjugator: u^-1 is
    pushed when a run opens, each base step of the run follows, and u when
    the run closes, so u is paid for once per run rather than once per
    letter.  Adjacent x^s x^-s pairs compose to the identity and are
    cancelled as the stream is built, which also cancels u against the
    next run's conjugator where they share letters.  The steps pushed
    differ from the letter-by-letter expansion only by the u . u^-1 seams
    inside runs, which are freely trivial, and free reduction is unique,
    so the stream is the same as that expansion's after cancellation.  The
    boundary twist is central (u . delta . u^-1 = delta), so every delta
    letter, conjugated or not, is left out, without closing the run it
    stands in, and delta^e, e their net exponent, acts last: words that
    differ only in where their delta letters stand compile alike.  Every
    engine applies a word through this stream.
    """
    stream: list[Step] = []

    def push(name: str, sign: int) -> None:
        if stream and stream[-1] == (name, -sign):
            stream.pop()
        else:
            stream.append((name, sign))

    delta = 0
    open_conj: tuple[Step, ...] = ()
    for t in reversed(word.letters):
        if t.base == "delta":
            delta += t.sign
            continue
        conj = t.conj
        if conj is not open_conj and conj != open_conj:
            for name, sign in reversed(open_conj):
                push(name, sign)
            for name, sign in conj:
                push(name, -sign)
            open_conj = conj
        push(t.base, t.sign)
    for name, sign in reversed(open_conj):
        push(name, sign)
    stream += [("delta", 1 if delta > 0 else -1)] * abs(delta)
    return tuple(stream)


def quotient_stream(w1: TwistWord, w2: TwistWord) -> tuple[Step, ...]:
    """The stream of psi = w2^-1 . w1, trivial in a group exactly when w1 = w2.

    That is w1's stream, then w2's reversed with signs flipped.  Steps the
    two streams share at their first-acting end only conjugate psi, and
    steps they share at their last-acting end cancel at the seam; both are
    dropped.  The shared ends are maximal, so nothing else cancels.
    """
    if w1.surface != w2.surface:
        raise ValueError("words live on different surfaces")
    s1, s2 = compile_word(w1), compile_word(w2)
    n = min(len(s1), len(s2))
    head = 0
    while head < n and s1[head] == s2[head]:
        head += 1
    tail = 0
    while tail < n - head and s1[-1 - tail] == s2[-1 - tail]:
        tail += 1
    return s1[head:len(s1) - tail] + invert_steps(s2[head:len(s2) - tail])


def reduce_stream(sig: SurfaceSig, stream: tuple[Step, ...]) -> tuple[Step, ...]:
    """The stream with every pair of steps cancelled that commuting twists let meet.

    Twists about disjoint curves commute (Farb-Margalit, *A Primer on
    Mapping Class Groups*, Fact 3.9), so x^s . m . x^-s acts as m whenever
    every step of m is about a curve that does not meet x.  The steps are
    read in order, keeping the positions of the live ones on a stack per
    curve.  A step cancels the last live step of its curve when that step
    has the opposite sign and no live step after it is about a curve that
    meets it (``crossing_table``), which the last positions of those few
    curves tell; otherwise it is pushed.  Each step costs at most one
    table lookup and four stack tops, so the pass is linear in
    len(stream).  The live steps are returned in their order: they act as
    the whole stream does, and no two of them are left that commutation
    could bring together to cancel.
    """
    crossing = crossing_table(sig)
    live: dict[str, list[int]] = {}
    kept = list(stream)
    for i, (name, sign) in enumerate(stream):
        mine = live.get(name)
        if mine is None:
            live[name] = [i]
            continue
        if mine and stream[mine[-1]][1] != sign:
            p = mine[-1]
            for d in crossing[name]:
                theirs = live.get(d)
                if theirs and theirs[-1] > p:
                    break
            else:
                mine.pop()
                kept[p] = kept[i] = None
                continue
        mine.append(i)
    return tuple(filter(None, kept))


def drop_chain_relators(sig: SurfaceSig, stream: tuple[Step, ...]) -> tuple[Step, ...]:
    """The stream with its chain relators deleted, and more than half of one inverted.

    The chain c_1, ..., c_2g (the first 2g names of ``curve_classes``)
    satisfies (t_c1 ... t_c2g)^(4g+2) = t_delta (Farb-Margalit, *A Primer
    on Mapping Class Groups*, Prop. 4.12), and so does the reversed chain,
    which is a chain too.  delta is central, so every cyclic rotation of
    that word is delta as well.  A whole relator is thus a run of
    L = len(``chain_relator(sig)``) consecutive steps of one sign s whose
    curves walk the chain cyclically in one direction, and it acts as
    delta^s.  The steps are pushed onto a stack, each with the length and
    direction of the walk that ends at it; a push that completes a walk of
    L steps pops them, and the step before them continues any walk that
    the next push extends, so a relator that a deletion closes up is found
    too.  Then Dehn's more-than-half rule (Lyndon-Schupp, *Combinatorial
    Group Theory*, V.4) runs over the kept steps from the last: a maximal
    walk W of m steps, L/2 < m < L, and the L - m steps C that continue it
    round the chain make a whole relator, so W acts as delta^s . C^-1, and
    C^-1 (C reversed, signs flipped) replaces W; a walk of exactly L/2
    steps is kept.  Each step is pushed and popped at most once, and each
    replacement writes fewer steps than it removes, so the pass is linear
    in len(stream).  A stream shorter than L is returned at once, also
    when it holds a walk of more than L/2 steps: the scan is the cost, and
    on the bench workloads it shortens no stream of that length.
    On a one-boundary surface delta^e is appended, e the net sign of the
    relators deleted and walks replaced (delta is central, so where it
    acts does not matter); on a closed surface delta is trivial, also with
    a marked point, and nothing is appended.
    """
    if sig.genus < 1 or len(stream) < (size := len(chain_relator(sig))):
        return stream
    half, n = size // 2, 2 * sig.genus
    chain = tuple(curve_classes(sig))[:n]
    position = dict(zip(chain, range(n)))
    kept: list[Step] = []
    walks: list[tuple[int | None, int, int]] = []  # (position, length, direction)
    delta = 0
    for step in stream:
        j = position.get(step[0])
        length, way = 1, 0
        if j is not None and kept and kept[-1][1] == step[1]:
            i, run, turn = walks[-1]
            if i is not None and (up := (j - i) % n) in (1, n - 1):
                # at genus 1 both neighbours are one step up: one direction
                way = 1 if up == 1 else -1
                length = run + 1 if turn != -way else 2
        kept.append(step)
        walks.append((j, length, way))
        if length == size:
            del kept[-size:], walks[-size:]
            delta += step[1]
    # from the last step back, a walk of more than L/2 steps that is still
    # there is maximal: a step after it that extended it would have been
    # in a longer walk, replaced first.  out is built reversed.
    out: list[Step] = []
    i = len(kept) - 1
    while i >= 0:
        j, length, way = walks[i]
        if length > half:
            sign = kept[i][1]
            out += [(chain[(j + way * k) % n], -sign) for k in range(1, size - length + 1)]
            delta += sign
            i -= length
        else:
            out.append(kept[i])
            i -= 1
    out.reverse()
    if sig.boundary:
        out += [("delta", 1 if delta > 0 else -1)] * abs(delta)
    return tuple(out)


@lru_cache(maxsize=None)
def _braid_rules(sig: SurfaceSig) -> tuple[dict[Step, int], list, dict[Word, Word]]:
    """The steps of ``sig`` as signed ints, and the more-than-half rules of its braid relators.

    Step (c, s) is s . k for c the k-th name of ``curve_classes``, so a
    stream is a word of a free group and its inverse steps are negatives;
    ``steps[x]`` turns x back, negative x by negative indexing.  For every
    curve x and curve y that meets it (``crossing_table``), each of the six
    rotations of the braid relator x y x y^-1 x^-1 y^-1 maps its first 4
    steps to the inverse of its other 2.  The table lists y beside x and x
    beside y, and the relator of (y, x) is the inverse of that of (x, y),
    so the rotations of both are read.  The tables are cached and shared
    between callers, which only read them.
    """
    names = tuple(curve_classes(sig))
    codes = {(name, sign): sign * k for k, name in enumerate(names, 1) for sign in (1, -1)}
    steps = [None] + [(name, 1) for name in names] + [(name, -1) for name in reversed(names)]
    rules = {}
    for c, meets in crossing_table(sig).items():
        x = codes[c, 1]
        for y in (codes[d, 1] for d in meets):
            relator = (x, y, x, -y, -x, -y)
            for i in range(6):
                rotation = relator[i:] + relator[:i]
                rules[rotation[:4]] = invert_word(rotation[4:])
    return codes, steps, rules


def braid_reduce(sig: SurfaceSig, stream: tuple[Step, ...]) -> tuple[Step, ...]:
    """The stream with Dehn's more-than-half rule applied to every braid relator.

    Twists about two curves x, y that meet once braid,
    t_x t_y t_x = t_y t_x t_y (Farb-Margalit, *A Primer on Mapping Class
    Groups*, Prop. 3.11), so R = x y x y^-1 x^-1 y^-1 and its inverse
    y x y x^-1 y^-1 x^-1 act trivially, read in either order, and so does
    every rotation of them, a conjugate.  Four consecutive steps of a
    rotation thus act as the inverse of its other two (``_braid_rules``).
    The stream runs as a word through ``freegroup.dehn_rewrite``, the
    loop of ``dehn.pi1.dehn_reduce``: its steps are pushed with free
    cancellation, and four that a rule names are replaced by their two.
    Each replacement shortens the stream by two, so the pass is linear in
    len(stream).  Sound: a braid relator is trivial in Mod(S_g^1) rel
    boundary and so in each quotient an engine decides, Mod(S_g, *) and
    the symplectic group included, so the stream keeps its mapping class
    in every one, and only a verdict the cap left "unknown" can change.
    It keeps the class in Mod(S_g, *), which is finer than Mod(S_g), so it
    cannot mend the closed engine's "false" on a pair that differs by a
    point-push: the bench's ``probe.wrong`` stays 4 until closed verdicts
    decide Mod(S_g).  The presentation is not small cancellation, so a
    stream trivial by braid relators need not reduce to nothing.
    """
    codes, steps, rules = _braid_rules(sig)
    return tuple(map(steps.__getitem__, dehn_rewrite(list(map(codes.__getitem__, stream)),
                                                     rules, 4)))


def invert_steps(steps) -> tuple[Step, ...]:
    """The inverse of a sequence of (curve, sign) steps: reversed, each sign flipped."""
    return tuple((name, -sign) for name, sign in reversed(steps))


def chain_word(sig: SurfaceSig, copies: int = 1) -> TwistWord:
    """(a1 b1 a2 b2 ... ag bg) repeated ``copies`` times, plain positive."""
    if sig.genus < 1:
        raise ValueError("chain word requires genus >= 1")
    once = tuple(Twist._trusted(chain_name(j), 1, ()) for j in range(1, 2 * sig.genus + 1))
    return TwistWord._trusted(sig, once * copies)


@lru_cache(maxsize=None)
def chain_relator(sig: SurfaceSig) -> TwistWord:
    """(a1 b1 ... ag bg)^(4g+2), the chain relator: delta rel boundary, trivial when closed.

    The one place the relator is spelled out: ``dehn.fibration.gn_word``,
    ``dehn.rewriting.inverse_twist_expansion``, X_0 of
    ``dehn.constructions.theorem11_family`` and ``drop_chain_relators``
    all read it.  The word is cached per surface and shared between
    callers; it is immutable.
    """
    return chain_word(sig, 4 * sig.genus + 2)
