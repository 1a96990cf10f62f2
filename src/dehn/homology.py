"""Integral homology action of twist words.

H1 of the model surface (the closed surface, or the one-boundary surface,
where it is the same free module) is Z^2g with the standard alternating
intersection pairing on the fixed basis.  A Dehn twist about a curve with
class v acts by the transvection

    T_v(x) = x + <x, v> v          (positive twist)
    T_v^-1(x) = x - <x, v> v       (negative twist)

and a word acts by the product of its letters' matrices in word order
(rightmost letter acts first, matching function composition).

For genus 1 closed surfaces this action is a faithful invariant: two twist
words are equal as mapping classes exactly when their matrices agree.  For
higher genus it is necessary but not sufficient.
"""

from __future__ import annotations

from .surface import SurfaceSig, Twist, TwistWord, homology_class

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]  # rows


def intersection_pairing(u: Vector, v: Vector) -> int:
    """Standard alternating form: sum of u[2i] v[2i+1] - u[2i+1] v[2i]."""
    if len(u) != len(v) or len(u) % 2:
        raise ValueError("vectors must share an even length")
    total = 0
    for i in range(0, len(u), 2):
        total += u[i] * v[i + 1] - u[i + 1] * v[i]
    return total


def transvect(x: Vector, v: Vector, sign: int = 1) -> Vector:
    """Apply T_v^sign to x."""
    c = sign * intersection_pairing(x, v)
    return tuple(xi + c * vi for xi, vi in zip(x, v))


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transported_class(twist: Twist, sig: SurfaceSig) -> Vector:
    """Homology class of the letter's core curve pushed through its conjugator."""
    v = homology_class(twist.base, sig)
    for name, sign in reversed(twist.conj):
        v = transvect(v, homology_class(name, sig), sign)
    return v


def word_matrix(word: TwistWord) -> Matrix:
    """Product of the letters' matrices in word order (rightmost acts first).

    Built column by column: each letter is a transvection, so its action on
    a vector is linear in the genus rather than cubic, and the whole product
    costs one transvection sweep per basis vector.
    """
    sig = word.surface
    n = 2 * sig.genus
    classes = [(transported_class(t, sig), t.sign) for t in reversed(word.letters)]
    cols = []
    for j in range(n):
        x = tuple(1 if i == j else 0 for i in range(n))
        for v, s in classes:
            x = transvect(x, v, s)
        cols.append(x)
    return tuple(zip(*cols))


def is_identity(m: Matrix) -> bool:
    return m == identity_matrix(len(m))


def homology_equal(w1: TwistWord, w2: TwistWord) -> bool:
    """Whether the two words act identically on H1."""
    if w1.surface != w2.surface:
        raise ValueError("words live on different surfaces")
    return word_matrix(w1) == word_matrix(w2)


def is_symplectic(m: Matrix) -> bool:
    """Whether m preserves the pairing (a sanity check on word matrices)."""
    n = len(m)
    cols = tuple(zip(*m))
    for i in range(n):
        for j in range(n):
            expect = 1 if (j == i + 1 and i % 2 == 0) else (-1 if (i == j + 1 and j % 2 == 0) else 0)
            if intersection_pairing(cols[i], cols[j]) != expect:
                return False
    return True
