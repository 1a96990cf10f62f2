"""Seeded hostile requests to every CLI command, run in-process through ``cli.run``.

Each command gets ``REQUESTS`` requests, each a valid request with up to
three mutations: a dropped field, a value swapped for one of another type,
a huge int, an unknown curve name, a nested or ``delta``-bearing
conjugator, a sign that hashes like 1 or -1 (``true``, ``1.0``), an empty
or non-list conjugator, or an odd ``--n``, ``--cap`` or ``--engine``.  Words hold at
most ``MAX_LETTERS`` letters, conjugator letters included, at genus <= 3.
Every request must end in an exit code 0-3 with one JSON object on stdout
that has an ``error`` field exactly on exit 2; an argv that argparse
rejects may instead end in ``SystemExit(2)`` with nothing on stdout.
"""

import copy
import io
import json
import random

import pytest

from dehn.cli import _COMMANDS, EXIT_INPUT, run
from dehn.surface import SurfaceSig, curve_classes

REQUESTS = 60
MAX_LETTERS = 12
MAX_GENUS = 3

HUGE = 10**30
# values that replace a field: every JSON type, huge and out-of-range ints
SWAPS = (None, True, False, 0, -1, 2, HUGE, -HUGE, 1.0, 1.5, "", "a1", "x",
         [], [1], {}, {"base": "a1"})
BAD_NAMES = ("a0", "a9", "b4", "c1", "", "A1", "a1\n", " a1", "a01", "delta", "d2", "e2", "d3")
ODD_N = ("-1", "0", "1", "2", "25", str(HUGE), "x", "1.5", "")
ODD_CAP = ("0", "-5", "1", "3", str(HUGE), "x", "")
ODD_ENGINE = ("auto", "homology", "pi1", "", "AUTO")
# signs equal to 1 or -1 as dict keys, and conjugators that are empty or no list
LOOKALIKE_SIGNS = (True, False, 1.0, -1.0)
ODD_CONJ = ([], None, {})

# the JSON each command reads: none, one word, or two words
NO_INPUT = ("family", "trefoil", "gn", "selftest")
TWO_WORDS = ("verify", "fibersum")
# so that most valid requests pass a command's first checks: the surface it
# needs, and positive words where it takes fibrations
BOUNDARY = {"positivize": 0, "fibersum": 0, "double": 1, "branched-double": 1}
POSITIVE = ("double", "fibersum", "invariants", "branched-double")
# (a1 b1)^6 on the closed torus acts trivially on homology: a sphere fibration
SPHERE_WORD = [{"base": name} for name in ("a1", "b1") * 6]


def random_word(rng, sig, positive):
    """Seeded letters on ``sig``, at most MAX_LETTERS counting conjugator letters."""
    names = list(curve_classes(sig))
    if not names:
        return []
    budget = rng.randint(0, MAX_LETTERS)
    letters = []
    while budget > 0:
        letter = {"base": rng.choice(names)}
        if rng.random() < 0.5:
            letter["sign"] = 1 if positive else rng.choice((1, -1))
        budget -= 1
        if budget > 0 and rng.random() < 0.3:
            k = rng.randint(1, min(2, budget))
            letter["conj"] = [{"base": rng.choice(names), "sign": rng.choice((1, -1))}
                              for _ in range(k)]
            budget -= k
        letters.append(letter)
    return letters


def valid_request(rng, command):
    genus = 1 if command == "branched-double" else rng.randint(0, MAX_GENUS)
    sig = SurfaceSig(genus, BOUNDARY.get(command, rng.choice((0, 1))))
    positive = command in POSITIVE and rng.random() < 0.8
    req = {"surface": {"genus": sig.genus, "boundary": sig.boundary}}
    if command == "fibersum" and rng.random() < 0.5:
        req = {"surface": {"genus": 1, "boundary": 0}, "words": [SPHERE_WORD, SPHERE_WORD]}
    elif command in TWO_WORDS:
        req["words"] = [random_word(rng, sig, positive) for _ in range(2)]
    else:
        req["word"] = random_word(rng, sig, positive)
    if command == "invariants":
        req["base"] = rng.choice(("disk", "sphere"))
    return req


def containers(obj):
    """Every dict and list inside ``obj``, itself included."""
    out = [obj]
    for child in (obj.values() if isinstance(obj, dict) else obj):
        if isinstance(child, (dict, list)):
            out += containers(child)
    return out


def mutate(rng, req):
    """One hostile edit of the request object, in place."""
    kind = rng.randrange(8)
    spots = [c for c in containers(req) if c]
    if not spots:
        return
    spot = rng.choice(spots)
    key = rng.choice(list(spot)) if isinstance(spot, dict) else rng.randrange(len(spot))
    if kind == 0:  # drop a field or a list entry
        del spot[key]
    elif kind == 1:  # swap a value for one of another type
        spot[key] = copy.deepcopy(rng.choice(SWAPS))
    elif kind == 2:  # a huge int
        spot[key] = rng.choice((HUGE, -HUGE, 2**63, -(2**63)))
    else:
        letters = [c for c in containers(req) if isinstance(c, dict) and "base" in c]
        if not letters:
            return
        letter = rng.choice(letters)
        if kind == 3:  # an unknown curve name
            letter["base"] = rng.choice(BAD_NAMES)
        elif kind == 4:  # a nested conjugator
            letter["conj"] = [{"base": "a1", "conj": [{"base": "b1"}]}]
        elif kind == 5:  # delta in a conjugator
            letter["conj"] = [{"base": "delta", "sign": rng.choice((1, -1))}]
        elif kind == 6:  # a sign that hashes like 1 or -1
            letter["sign"] = rng.choice(LOOKALIKE_SIGNS)
        else:  # an empty conjugator, or one that is no list
            letter["conj"] = copy.deepcopy(rng.choice(ODD_CONJ))


def hostile_case(rng, command):
    """argv and stdin text of one mutated request for ``command``."""
    argv = [command]
    if command in ("family", "gn"):
        argv += ["--n", rng.choice(ODD_N)]
    elif rng.random() < 0.3:
        argv += ["--n", rng.choice(ODD_N)]
    if rng.random() < 0.3:
        argv += ["--cap", rng.choice(ODD_CAP)]
    if rng.random() < 0.3:
        argv += ["--engine", rng.choice(ODD_ENGINE)]
    if command in NO_INPUT:
        return argv, rng.choice(("", "{}", "[1]", "not json"))
    req = valid_request(rng, command)
    for _ in range(rng.randint(0, 3)):
        mutate(rng, req)
    if rng.random() < 0.05:
        return argv, rng.choice(("", "[]", "null", "{", '"word"', json.dumps(req)[:-1]))
    return argv, json.dumps(req)


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_hostile_requests_get_one_report_and_a_known_exit(command):
    rng = random.Random(f"hostile-{command}")
    for _ in range(REQUESTS):
        argv, text = hostile_case(rng, command)
        stdout = io.StringIO()
        try:
            code = run(argv, stdin=io.StringIO(text), stdout=stdout)
        except SystemExit as exc:  # argparse rejected the argv
            assert exc.code == EXIT_INPUT, (argv, text)
            assert stdout.getvalue() == "", (argv, text)
            continue
        out = stdout.getvalue()
        assert code in (0, 1, 2, 3), (argv, text)
        assert out.endswith("\n"), (argv, text)
        report = json.loads(out)
        assert isinstance(report, dict), (argv, text)
        assert ("error" in report) == (code == EXIT_INPUT), (argv, text, report)
