"""Seeded CLI request streams for the dehn benchmark, with known answers.

Nothing here imports ``dehn``.  Every expected answer follows from how the
request was built: standard mapping-class-group relations for the
``verify`` pairs, closed formulas for Euler characteristics and word
lengths, the fact that the chain curves a1, b1, ..., ag, bg form a basis of
H1 for homology ranks, and a separate 2x2 integer computation for the
mapping-torus homology of a branched double.

A workload is an endless sequence of rounds.  Round ``r`` of seed ``s`` is
built from its own ``random.Random`` and holds a fixed number of requests
of each kind, shuffled.  Fixed counts per kind keep the cost mix, and so
the latency percentiles and the decided share, the same from seed to seed;
the seed picks the words, sizes and order inside each kind.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

VERDICT_EXIT = {"true": 0, "false": 1, "unknown": 3}

# Outcomes of one checked report.
DECIDED = "decided"  # definite answer that matches the known one
UNKNOWN = "unknown"  # verdict "unknown" (resource cap or necessary-only engine)
WRONG = "wrong"      # wrong verdict, wrong invariant or malformed report
DEFECT = "defect"    # the wrong verdict of a recorded defect; still a failure


@dataclass(frozen=True)
class Request:
    """One CLI call: argv, stdin text, and the check of its report."""

    kind: str
    argv: tuple[str, ...]
    stdin: str
    check: Callable[[int, dict], str]


@dataclass(frozen=True)
class Workload:
    """A named mix of request kinds and what set-up must prepare for it."""

    name: str
    mix: list  # functions make(rng) -> list[Request] that together build one round
    table_genera: tuple[int, ...]  # genera whose pi1 tables requests consult
    warmup: Request
    trace_rounds: int  # rounds in the digest prefix and in each traced pass
    probe: tuple = ()  # requests of a recorded defect, sent once outside the timed stream


# ---------------------------------------------------------------------------
# Words.  A word is a list of JSON letters {"base", "sign"[, "conj"]}.
# ---------------------------------------------------------------------------


def letter(base: str, sign: int = 1, conj=()) -> dict:
    out = {"base": base, "sign": sign}
    if conj:
        out["conj"] = [{"base": n, "sign": s} for n, s in conj]
    return out


def plain(pairs) -> list:
    return [letter(n, s) for n, s in pairs]


def names(text: str) -> list:
    """"a1 b1^-1" -> [(a1, 1), (b1, -1)]."""
    out = []
    for item in text.split():
        out.append((item[:-3], -1) if item.endswith("^-1") else (item, 1))
    return out


def inverse(pairs) -> list:
    return [(n, -s) for n, s in reversed(pairs)]


def chain(g: int) -> list[str]:
    return [f"{c}{i}" for i in range(1, g + 1) for c in "ab"]


def curves(g: int, boundary: int) -> list[str]:
    out = chain(g)
    if g >= 2:
        out += ["d2", "e2"]
    if boundary:
        out.append("delta")
    return out


def surface(g: int, boundary: int) -> dict:
    return {"genus": g, "boundary": boundary}


def random_word(rng: random.Random, alphabet, length: int, signed: bool = True) -> list:
    return [(rng.choice(alphabet), rng.choice((1, -1)) if signed else 1)
            for _ in range(length)]


def relators(g: int, boundary: int) -> list[list]:
    """Words equal to the identity on S_{g,boundary} (Farb-Margalit, ch. 3, 9).

    Braid relations for curves meeting once, commutators for disjoint
    curves, the 3-chain relation (a1 b1 a2)^4 = d2 e2 and the 2g-chain
    relation (a1 b1 ... ag bg)^(4g+2) = delta (= 1 on a closed surface).
    """
    cs = chain(g)
    meet_once = [(cs[i], cs[i + 1]) for i in range(len(cs) - 1)]
    disjoint = [(cs[i], cs[j]) for i in range(len(cs)) for j in range(i + 2, len(cs))]
    if g >= 2:
        meet_once += [("d2", "b2"), ("e2", "b2")]
        disjoint += [(x, y) for x in ("d2", "e2") for y in ("a1", "b1", "a2")]
        disjoint.append(("d2", "e2"))
    if boundary:
        disjoint += [("delta", c) for c in cs]
    out = [names(f"{x} {y} {x} {y}^-1 {x}^-1 {y}^-1") for x, y in meet_once]
    out += [names(f"{x} {y} {x}^-1 {y}^-1") for x, y in disjoint]
    if g >= 2:
        out.append(names("a1 b1 a2 " * 4 + "e2^-1 d2^-1"))
    full = [(c, 1) for c in cs] * (4 * g + 2)
    out.append(full + [("delta", -1)] if boundary else full)
    return out


def insert_relator(rng: random.Random, word: list, g: int, boundary: int,
                   pool=None) -> list:
    """word with a conjugate c R c^-1 of a relator R spliced in at random."""
    rel = rng.choice(pool if pool is not None else relators(g, boundary))
    conj = random_word(rng, chain(g), rng.randint(0, 2))
    at = rng.randint(0, len(word))
    return word[:at] + conj + rel + inverse(conj) + word[at:]


def flip_one(rng: random.Random, word: list) -> list:
    """Invert one nonseparating letter; the result differs on H1 (t_c^2 != 1)."""
    spots = [i for i, (n, _) in enumerate(word) if n != "delta"]
    i = rng.choice(spots)
    out = list(word)
    out[i] = (word[i][0], -word[i][1])
    return out


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Report checks.  Each returns DECIDED, UNKNOWN or WRONG.
# ---------------------------------------------------------------------------

TRIVIAL_H1 = {"rank": 0, "torsion": []}


def _verdict_outcome(code: int, report: dict, expected: str) -> str:
    verdict = report.get("verdict")
    if VERDICT_EXIT.get(verdict) != code:
        return WRONG
    if verdict == expected:
        return DECIDED
    return UNKNOWN if verdict == "unknown" else WRONG


def check_verify(expected: str, defect: str | None = None):
    """``defect`` is a wrong verdict already recorded as a known defect."""
    def check(code: int, report: dict) -> str:
        if report.get("command") != "verify" or not isinstance(report.get("engine"), str):
            return WRONG
        outcome = _verdict_outcome(code, report, expected)
        if outcome == WRONG and report.get("verdict") == defect:
            return DEFECT
        return outcome
    return check


def _all_positive(word_out) -> bool:
    return all(entry.get("sign", 1) == 1 for entry in word_out)


def check_positivize(out_letters: int, steps: int):
    def check(code: int, report: dict) -> str:
        outcome = _verdict_outcome(code, report, "true")
        if outcome != DECIDED:
            return outcome
        word_out = report.get("word_out", [])
        ok = (len(word_out) == out_letters and _all_positive(word_out)
              and report.get("steps") == steps)
        return DECIDED if ok else WRONG
    return check


def check_family(n: int):
    chis = [8 * n * n + 2 * n + 1 - 10 * i for i in range(n + 1)]

    def check(code: int, report: dict) -> str:
        verdicts = [v.get("verdict") for v in report.get("verdicts", [])]
        shape = (report.get("n") == n and report.get("chis") == chis
                 and report.get("h1s") == [TRIVIAL_H1] * (n + 1)
                 and len(verdicts) == n)
        if not shape or any(v not in ("true", "unknown") for v in verdicts):
            return WRONG
        if "unknown" in verdicts:
            return UNKNOWN if code == 3 else WRONG
        return DECIDED if code == 0 else WRONG
    return check


def check_fields(code_expected: int, fields: dict, letters: int | None = None,
                 positive: bool = False):
    """Exact report fields; ``letters`` and ``positive`` constrain word_out."""
    def check(code: int, report: dict) -> str:
        ok = code == code_expected and all(report.get(k) == v for k, v in fields.items())
        if letters is not None:
            word_out = report.get("word_out", [])
            ok = ok and len(word_out) == letters and (not positive or _all_positive(word_out))
        return DECIDED if ok else WRONG
    return check


# ---------------------------------------------------------------------------
# 2x2 integer homology of genus-1 words, for the branched-double oracle.
# ---------------------------------------------------------------------------

_CLASS = {"a1": (1, 0), "b1": (0, 1)}


def _transvect(x, v, sign):
    c = sign * (x[0] * v[1] - x[1] * v[0])
    return (x[0] + c * v[0], x[1] + c * v[1])


def torus_matrix(word: list) -> list:
    """Action on H1(S_1) of a genus-1 word; columns are images of a1, b1.

    A twist about v acts by x -> x + <x, v> v; a conjugated letter twists
    about the image of its core class under the conjugator.  Which sign
    convention is used does not change the cokernel computed below.
    """
    classes = []
    for entry in reversed(word):
        v = _CLASS[entry["base"]]
        for c in reversed(entry.get("conj", [])):
            v = _transvect(v, _CLASS[c["base"]], c["sign"])
        classes.append((v, entry["sign"]))
    cols = []
    for x in ((1, 0), (0, 1)):
        for v, s in classes:
            x = _transvect(x, v, s)
        cols.append(x)
    return cols


def coker2(cols) -> tuple[int, list[int]]:
    """Z^2 / column span of a 2x2 integer matrix as (rank, torsion)."""
    (p, q), (r, s) = cols
    d1 = math.gcd(math.gcd(p, q), math.gcd(r, s))
    det = abs(p * s - q * r)
    if d1 == 0:
        return 2, []
    if det == 0:
        return 1, [d1] if d1 > 1 else []
    return 0, [d for d in (d1, det // d1) if d > 1]


def branched_double_h1(word: list) -> dict:
    """H1 of the genus-2 bundle built by branched-double from a genus-1 word.

    The mirrored half acts on the orthogonal summand spanned by d2, b2 by
    the inverse matrix, so H1 = Z + coker(A - I) + coker(A^-1 - I) and the
    two cokernels are isomorphic.
    """
    a = torus_matrix(word)
    rank, torsion = coker2([(a[0][0] - 1, a[0][1]), (a[1][0], a[1][1] - 1)])
    return {"rank": 1 + 2 * rank, "torsion": sorted(torsion * 2)}


# ---------------------------------------------------------------------------
# Request builders, one per kind.
# ---------------------------------------------------------------------------


def expansion_length(g: int) -> int:
    """Letters in the positive expansion of one inverse twist at genus g."""
    return (2 * g - 1) + 2 * g * (4 * g + 1)


def family_request(n: int) -> Request:
    return Request(f"family.n{n}", ("family", "--n", str(n)), "", check_family(n))


def positivize_request(rng: random.Random, g: int, negative: str) -> Request:
    """A word of 2-8 letters on closed genus g; ``negative`` is its one inverse letter.

    The cost of positivizing is set mostly by the inverse letter's curve,
    through the length of its transport to a1, so rounds hold each curve a
    fixed number of times and the seed draws the rest of the word.
    """
    word = [(rng.choice(curves(g, 0)), 1) for _ in range(rng.randint(1, 7))]
    word.insert(rng.randint(0, len(word)), (negative, -1))
    stdin = dumps({"surface": surface(g, 0), "word": plain(word)})
    out = (len(word) - 1) + expansion_length(g)
    return Request(f"positivize.g{g}.{negative}", ("positivize", "--engine", "auto"),
                   stdin, check_positivize(out, 1))


def verify_request(kind: str, g: int, boundary: int, w1: list, w2: list,
                   expected: str, rng: random.Random, defect: str | None = None) -> Request:
    pair = [plain(w1), plain(w2)]
    if rng.random() < 0.5:
        pair.reverse()
    stdin = dumps({"surface": surface(g, boundary), "words": pair})
    return Request(f"verify.{kind}", ("verify",), stdin, check_verify(expected, defect))


_CLOSED_CHAIN_WORDS = {  # size -> candidate words w; cost grows steeply with size
    "light": ["a1 b1^-1 a2 b2^-1 " * 1, "a1 b1^-1 a2 b2^-1 " * 2,
              "a1 b1^-1 " * 1, "a1 b1^-1 " * 2, "a1 b1^-1 " * 3],
    "mid": ["a1 b1^-1 a2 b2^-1 " * 3],
    "heavy": ["a1 b1^-1 a2 b2^-1 " * 4],
}


def verify_closed_chain(rng: random.Random, size: str) -> Request:
    """(a): w against w1 (chain)^10 w2 on closed genus 2; Dehn reduction.

    w is (a1 b1^-1 a2 b2^-1)^k for k <= 4 or (a1 b1^-1)^k for k <= 3.
    """
    w = names(rng.choice(_CLOSED_CHAIN_WORDS[size]))
    turn = rng.randrange(4)
    block = [(c, 1) for c in chain(2)] * 10
    block = block[turn:] + block[:turn]  # a cyclic rotation of a trivial word
    at = rng.randint(0, len(w))
    return verify_request(f"closed_chain_{size}", 2, 0, w, w[:at] + block + w[at:], "true", rng)


def verify_relator(rng: random.Random) -> Request:
    """(b): a random word against itself with a relator conjugate inserted."""
    g = rng.randint(1, 3)
    w = random_word(rng, curves(g, 1), rng.randint(3, 6))
    return verify_request("relator", g, 1, w, insert_relator(rng, w, g, 1), "true", rng)


def verify_flipped(rng: random.Random) -> Request:
    """(c): as (b) but one letter inverted, so the pair differs on H1."""
    g = rng.randint(1, 3)
    w = random_word(rng, curves(g, 1), rng.randint(3, 6))
    other = flip_one(rng, insert_relator(rng, w, g, 1))
    return verify_request("flipped", g, 1, w, other, "false", rng)


_TORUS_RELATORS = [names("a1 b1 a1 b1^-1 a1^-1 b1^-1"), names("a1 b1 " * 6 + "delta^-1"),
                   names("delta a1 delta^-1 a1^-1")]


def verify_pseudo_anosov(rng: random.Random) -> Request:
    """(d): (a1 b1^-1)^k on S_{1,1}, k = 6..10, against a relator-inserted copy."""
    w = names("a1 b1^-1 " * rng.randint(6, 10))
    other = insert_relator(rng, w, 1, 1, _TORUS_RELATORS)
    return verify_request("pseudo_anosov", 1, 1, w, other, "true", rng)


# (d) at k = 16: the images pass the 10^6 cap and the verdict is "unknown".
# One fixed pair, because the peak memory depends on which image is built
# first and how long it gets.
_W16 = names("a1 b1^-1 " * 16)
CAPPED_PSEUDO_ANOSOV = Request(
    "verify.pseudo_anosov_cap", ("verify",),
    dumps({"surface": surface(1, 1), "words": [plain(_W16), plain(_W16 + _TORUS_RELATORS[0])]}),
    check_verify("true"))


def verify_torus(rng: random.Random) -> Request:
    """(e): closed genus 1, decided by the faithful homology engine."""
    w = random_word(rng, chain(1), rng.randint(3, 8))
    other = insert_relator(rng, w, 1, 0)
    if rng.random() < 0.5:
        return verify_request("torus", 1, 0, w, other, "true", rng)
    return verify_request("torus", 1, 0, w, flip_one(rng, other), "false", rng)


def verify_point_push(rng: random.Random) -> Request:
    """(f): u d2 v against u e2 v on closed genus 2.

    d2 and e2 are isotopic on the closed genus-2 surface, so the answer is
    "true"; the closed engine compares automorphisms of pi1 with a marked
    point and answers "false" (ROADMAP item 1).  These pairs are a recorded
    defect: they are sent as ``POINT_PUSH_PROBE``, outside the timed stream.
    """
    u = random_word(rng, chain(2), rng.randint(0, 3))
    v = random_word(rng, chain(2), rng.randint(0, 3))
    if rng.random() < 0.5:
        left, right = [("d2", 1)], [("e2", 1)]
    else:
        left, right = names("a1 b1 a2 " * 4), [("d2", 1), ("d2", 1)]
    return verify_request("point_push", 2, 0, u + left + v, u + right + v, "true", rng,
                          defect="false")


def gn_request(n: int) -> Request:
    chi = 2 * (2 - 2 * n) + 2 * n * (4 * n + 2)
    return Request(f"gn.n{n}", ("gn", "--n", str(n)), "",
                   check_fields(0, {"command": "gn", "chi": chi, "h1": TRIVIAL_H1},
                                2 * n * (4 * n + 2), positive=True))


def invariants_request(rng: random.Random) -> Request:
    """Disk fibration on plain chain letters: H1 = Z^(2g - distinct curves)."""
    g, boundary = rng.randint(1, 3), rng.randint(0, 1)
    used = rng.sample(chain(g), rng.randint(1, 2 * g))
    word = used + [rng.choice(used) for _ in range(rng.randint(0, 6))]
    deltas = rng.randint(0, 1) if boundary else 0
    word += ["delta"] * deltas
    rng.shuffle(word)
    chi = 2 - 2 * g - boundary + len(word)
    h1 = {"rank": 2 * g - len(used), "torsion": []}
    stdin = dumps({"surface": surface(g, boundary), "word": plain((n, 1) for n in word),
                   "base": "disk"})
    allowable = deltas == 0  # delta is null-homologous, chain curves are not
    return Request("invariants", ("invariants",), stdin,
                   check_fields(0 if allowable else 1,
                                {"command": "invariants", "verdict": str(allowable).lower(),
                                 "chi": chi, "h1": h1}))


def double_request(rng: random.Random) -> Request:
    """Double of a positive genus-1 disk fibration: 12 letters per input letter."""
    k = rng.randint(1, 6)
    word = random_word(rng, chain(1), k, signed=False)
    stdin = dumps({"surface": surface(1, 1), "word": plain(word)})
    return Request("double", ("double",), stdin,
                   check_fields(0, {"command": "double", "verdict": "true", "chi": 12 * k,
                                    "h1": TRIVIAL_H1}, 12 * k, positive=True))


def fibersum_request(rng: random.Random) -> Request:
    """Two rotated chain relators (a1 b1 ... bg)^(4g+2) on a closed fiber."""
    g = rng.randint(1, 3)
    words = []
    for _ in range(2):
        w = [(c, 1) for c in chain(g)] * (4 * g + 2)
        turn = rng.randrange(len(w))
        words.append(plain(w[turn:] + w[:turn]))
    total = sum(len(w) for w in words)
    stdin = dumps({"surface": surface(g, 0), "words": words})
    return Request("fibersum", ("fibersum",), stdin,
                   check_fields(0, {"command": "fibersum", "chi": 2 * (2 - 2 * g) + total,
                                    "h1": TRIVIAL_H1}, total, positive=True))


def branched_double_request(rng: random.Random) -> Request:
    word = []
    for _ in range(rng.randint(1, 6)):
        conj = random_word(rng, chain(1), rng.choice((0, 0, 1, 2)))
        word.append(letter(rng.choice(chain(1)), rng.choice((1, -1)), conj))
    stdin = dumps({"surface": surface(1, 1), "word": word})
    return Request("branched_double", ("branched-double",), stdin,
                   check_fields(0, {"command": "branched-double", "fiber": surface(2, 0),
                                    "h1": branched_double_h1(word)}, 2 * len(word)))


# ---------------------------------------------------------------------------
# Rounds.
# ---------------------------------------------------------------------------


def _round(rng: random.Random, mix) -> list[Request]:
    """The requests of every ``make(rng)`` of the mix, shuffled."""
    out = [request for make in mix for request in make(rng)]
    rng.shuffle(out)
    return out


def _times(count: int, make):
    return lambda rng: [make(rng) for _ in range(count)]


def _fixed(count: int, request: Request):
    return lambda rng: [request] * count


# Each mix puts the median and the 90th latency percentile inside a block of
# requests of similar cost rather than on the edge between two blocks,
# where they would jump between the blocks' costs from seed to seed.  In
# ``verify`` the sub-millisecond kinds (b), (c) and (e) are 78 of 100
# requests, so that its median rests on many samples, and the twelve mid
# (a) pairs hold its 90th percentile.

FAMILY_MIX = [_fixed(12, family_request(2)), _fixed(8, family_request(3)),
              _fixed(9, family_request(4)), _fixed(1, family_request(5))]

POSITIVIZE_MIX = [
    lambda rng: [positivize_request(rng, 2, c) for c in curves(2, 0) for _ in range(2)],
    lambda rng: [positivize_request(rng, 3, c) for c in curves(3, 0)],
]

VERIFY_MIX = [
    _times(27, verify_relator),
    _times(27, verify_flipped),
    _times(24, verify_torus),
    _times(4, lambda rng: verify_closed_chain(rng, "light")),
    _times(4, verify_pseudo_anosov),
    _times(12, lambda rng: verify_closed_chain(rng, "mid")),
    _times(1, lambda rng: verify_closed_chain(rng, "heavy")),
    _fixed(1, CAPPED_PSEUDO_ANOSOV),
]

INVARIANTS_MIX = [
    _times(6, invariants_request), _times(6, branched_double_request),
    _times(2, double_request), _times(2, fibersum_request),
    _times(1, lambda rng: gn_request(rng.randint(1, 6))),
    _fixed(2, gn_request(14)), _fixed(1, gn_request(16)),
]


# The point-push sentinels (f), sent once per run and counted on their own:
# their wrong verdict is a known defect, and the timed stream holds only
# requests that are answered correctly.
_PROBE_RNG = random.Random("point_push")
POINT_PUSH_PROBE = tuple(verify_point_push(_PROBE_RNG) for _ in range(4))

WORKLOADS = {
    w.name: w for w in (
        Workload("family", FAMILY_MIX, (2, 3, 4, 5), family_request(2), 1),
        Workload("positivize", POSITIVIZE_MIX, (2, 3),
                 positivize_request(random.Random(0), 2, "a1"), 3),
        Workload("verify", VERIFY_MIX, (1, 2, 3), verify_relator(random.Random(0)), 2,
                 POINT_PUSH_PROBE),
        Workload("invariants", INVARIANTS_MIX, (), gn_request(1), 5),
    )
}


def round_requests(workload: Workload, seed: int, index: int) -> list[Request]:
    """Round ``index`` of the workload's stream for ``seed``."""
    return _round(random.Random(f"{workload.name}/{seed}/{index}"), workload.mix)
