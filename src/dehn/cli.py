"""JSON command-line interface.

Commands read a single JSON document from stdin (where input is needed)
and write one JSON report to stdout.  Exit codes: 0 = success or verdict
true, 1 = verified false, 2 = input error, 3 = verdict unknown (a
resource cap, or the necessary-only engine that could not separate the
words).  ``_verdict`` writes a report's ``"verdict"`` and ``"engine"``
fields and its exit code from the (verdict, engine) pair that the
library returns.  Reports omit absent fields rather than emitting null,
and are byte-identical across repeated runs of the same request;
``--timing`` appends a runtime_ms field for humans, off by default to
keep reports deterministic.  Every report opens with a ``"command"`` field, which
``run`` writes for a command's report and for an error report alike; the
commands return the rest.  The output of positivize and double is bounded
by ``rewriting.OUTPUT_MAX_LETTERS``: ``positivize`` counts it before any
of it is built and raises ``rewriting.OutputTooLarge``, which ``run``
reports as an input error naming the request's field ``'word'``; every
other library rejection is a ``ValueError`` reported with its own text.

Every report is written as ``json.dumps(report, indent=2)`` would write
it.  Reports that carry a word (``word_out``) hold it as a TwistWord, and
``report_text`` formats each conjugator once per run of letters that
share it, and each distinct letter (base and sign) once per run, as its
base and sign plus the conjugator's text, and splices the letters into
the rest of the report, so a word of thousands of letters does not go
through the indented encoder, which runs in pure Python.  A word that is
k copies of one block of shared letter objects, as gn(n) is, has only
its block formatted, and the block's text is joined k times; the bytes
are unchanged.

Word schema::

    {"surface": {"genus": 1, "boundary": 0},
     "word": [{"base": "a1", "sign": 1,
               "conj": [{"base": "b1", "sign": -1}]}]}

``sign`` defaults to 1 and ``conj`` (a flat list, never nested) to empty.
Two-word commands (verify, fibersum) take ``"words": [[...], [...]]``
instead of ``"word"``.

Stdin is read up to ``REQUEST_MAX_CHARS`` characters, and a longer
request is an input error before any of it is parsed.  A word is read
in one pass (``parse_word``), and the first fault found
is the one reported, so errors take precedence in this order:

1. the shape and sign of every letter, in order, each letter's base, sign
   and conjugator entries in that order, named by field path
   (``word[1].sign must be 1 or -1``);
2. the size bound, letters plus conjugator letters;
3. every curve name, base before conjugator, letter by letter, against
   the surface's curve table, fetched once per word
   (``word: curve 'x' is not valid on genus g, boundary b``).

Conjugator names may be any JSON value and are read as their ``str``.  Of
two words, the first is built, and its faults reported, before the
second is read.  A letter with no conjugator whose name is standard is
not built: it is the surface's shared letter for its (name, sign)
(``surface.plain_letters``), so a word costs one object per distinct
plain letter.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import indexOf

from .constructions import (
    branched_double_cover,
    mapping_torus_homology,
    theorem11_family,
    trefoil_completions,
)
from .fibration import (
    AbelianGroup,
    Fibration,
    double_report,
    euler_characteristic,
    fiber_sum,
    first_homology,
    gn_word,
    is_allowable,
)
from .pi1 import (
    DEFAULT_CAP,
    ENGINES,
    RELATOR_CORPUS,
    apply_twist,
    apply_word,
    decide_equal,
)
from .rewriting import OUTPUT_MAX_LETTERS, OutputTooLarge, positivize
from .surface import (
    SurfaceSig,
    Twist,
    TwistWord,
    boundary_word,
    check_letters,
    curve_classes,
    is_sign,
    plain_letters,
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3

_VERDICT_EXIT = {"true": EXIT_TRUE, "false": EXIT_FALSE, "unknown": EXIT_UNKNOWN}

# Largest --n each command accepts.  At the bound, the first family request
# of a fresh process, which decides the Theorem 11 trade, takes about 8-13 ms
# and a second one, which finds it kept, 2-5 ms; gn takes about 2 ms
# (medians of 11 and 21 processes, Python 3.11 on a 2-core machine).
FAMILY_MAX_N = 10
GN_MAX_N = 24

# Largest JSON request accepted, checked before any table is built: the
# twist tables of genus g hold O(g^2) image letters, and the size of a word
# counts every conjugator letter.  The gn word at GN_MAX_N has 4,704 letters.
JSON_MAX_GENUS = GN_MAX_N
WORD_MAX_LETTERS = 10_000
# Longest stdin read, in characters, checked before the JSON is parsed.
# Two words at WORD_MAX_LETTERS are 0.5-0.7 MB compact and 1.7-2.5 MB at
# indent 4; parsing 8 MB of the densest JSON (empty objects) peaks near
# 0.2 GB.
REQUEST_MAX_CHARS = 8_000_000


class InputError(Exception):
    """Bad request payload; the message names the offending field."""


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------


_KIND_NOUN = {int: "an integer", list: "a list", dict: "an object", str: "a string"}


def _require(obj: dict, field: str, kind, where: str):
    if field not in obj:
        raise InputError(f"missing field {where}{field!r}")
    value = obj[field]
    # JSON true and false load as bool, a subclass of int
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InputError(f"field {where}{field!r} must be {_KIND_NOUN[kind]}")
    return value


def parse_surface(obj: dict) -> SurfaceSig:
    surf = _require(obj, "surface", dict, "")
    genus = _require(surf, "genus", int, "surface.")
    boundary = _require(surf, "boundary", int, "surface.")
    if genus > JSON_MAX_GENUS:
        raise InputError(f"field surface.'genus' must be at most {JSON_MAX_GENUS}")
    try:
        return SurfaceSig(genus, boundary)
    except ValueError as exc:
        raise InputError(f"surface: {exc}") from exc


def _read_letter(entry, where: str, i: int, plain: dict) -> Twist:
    """Letter i of word ``where``, checked for shape and sign but not for curves.

    Its field path is written only into an error.  A letter with no
    conjugator is the shared letter of ``plain`` (``surface.plain_letters``)
    when its name is there; any other is built, and an unknown name is left
    for ``check_letters``.  The sign is checked before the lookup, since
    ``true`` and ``1.0`` hash like 1.  Conjugator names go through ``str``
    as the public ``Twist`` constructor sends them.
    """
    if not isinstance(entry, dict):
        raise InputError(f"{where}[{i}] must be an object with a 'base' field")
    base = entry.get("base")
    if not isinstance(base, str):
        _require(entry, "base", str, f"{where}[{i}].")  # raises the field's error
    sign = entry.get("sign", 1)
    if not is_sign(sign):
        raise InputError(f"{where}[{i}].sign must be 1 or -1")
    conj_entries = entry.get("conj", [])
    if not isinstance(conj_entries, list):
        raise InputError(f"{where}[{i}].conj must be a list")
    if not conj_entries:
        letter = plain.get((base, sign))
        if letter is not None:
            return letter
    conj = []
    for j, c in enumerate(conj_entries):
        if not isinstance(c, dict) or "base" not in c:
            raise InputError(f"{where}[{i}].conj[{j}] must be an object with a 'base' field")
        if "conj" in c:
            raise InputError(f"{where}[{i}].conj[{j}] must not be nested")
        s = c.get("sign", 1)
        if not is_sign(s):
            raise InputError(f"{where}[{i}].conj[{j}].sign must be 1 or -1")
        conj.append((str(c["base"]), s))
    return Twist._trusted(base, sign, tuple(conj))


def parse_word(sig: SurfaceSig, letters, where: str = "word") -> TwistWord:
    """Read a word in one pass over its letters; the first fault is an InputError.

    The read order, which is also the order of precedence of the errors:
    every letter's shape and sign, then the size bound, then every curve
    name against the surface's one curve table (``surface.check_letters``).
    """
    if not isinstance(letters, list):
        raise InputError(f"field {where!r} must be a list of letters")
    plain = plain_letters(sig)
    twists = tuple([_read_letter(e, where, i, plain) for i, e in enumerate(letters)])
    size = len(twists) + sum(len(t.conj) for t in twists)
    if size > WORD_MAX_LETTERS:
        raise InputError(f"field {where!r} has {size} letters counting conjugators, "
                         f"more than {WORD_MAX_LETTERS}")
    try:
        check_letters(twists, sig)
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from exc
    return TwistWord._trusted(sig, twists)


# Stands in for the word_out word while the rest of the report is encoded.
_WORD_OUT = "\u0000word_out"
_WORD_OUT_JSON = json.dumps(_WORD_OUT)


def _conj_tail(conj) -> str:
    """The text of a letter in word_out after its sign, for conjugator ``conj``.

    Indent-2 JSON nested two levels, as the indented encoder writes it:
    the ``"conj"`` list when there is one, then the closing brace.
    """
    if not conj:
        return "\n    }"
    entries = ",\n".join(f'        {{\n          "base": {encode_basestring_ascii(name)},'
                         f'\n          "sign": {sign}\n        }}' for name, sign in conj)
    return f',\n      "conj": [\n{entries}\n      ]\n    }}'


def _period(letters: tuple) -> int:
    """The length of a block whose copies make up ``letters``, else ``len(letters)``.

    The block ends where ``letters[0]`` recurs first, as the same object,
    within the first half; one tuple comparison confirms the copies.  On
    a power of shared letters, as ``chain_word`` builds, every pair it
    compares is one object, so no ``Twist.__eq__`` runs, and on any other
    word the search is one C-level pass over half the letters' ids.  A
    block found is a true one: equal letters write equal text.
    """
    n = len(letters)
    if n < 2:
        return n
    try:
        p = indexOf(map(id, islice(letters, 1, n // 2 + 1)), id(letters[0])) + 1
    except ValueError:  # letters[0] does not recur
        return n
    return p if n % p == 0 and letters[p:] == letters[:-p] else n


def report_text(report: dict) -> str:
    """The report as ``json.dumps(report, indent=2)``, with word_out written fast.

    A top-level ``word_out`` holds a TwistWord.  The rest of the report is
    encoded with the word replaced by a sentinel, and the letters, written
    directly, are spliced in its place.  Only one block of the word, of
    ``_period`` letters, is formatted, and its text is joined once per
    copy.  The block is walked in runs of letters that share one
    conjugator: the conjugator's text is formatted once per run, and each
    distinct (base, sign) is written once per run, as its base and sign
    followed by that text.  The bytes are those of encoding the word as a
    list of letter objects, which the indented encoder would write in pure
    Python, one letter at a time.
    """
    word = report.get("word_out")
    if word is None:
        return json.dumps(report, indent=2)
    letters = word.letters
    period = _period(letters)
    conj, tail, texts = (), _conj_tail(()), {}
    parts = []
    for t in islice(letters, period):
        if t.conj is not conj and t.conj != conj:
            conj, tail, texts = t.conj, _conj_tail(t.conj), {}
        key = (t.base, t.sign)
        text = texts.get(key)
        if text is None:
            text = texts[key] = (f'{{\n      "base": {encode_basestring_ascii(t.base)},'
                                 f'\n      "sign": {t.sign}{tail}')
        parts.append(text)
    block = ",\n    ".join(parts)
    body = ("[\n    " + ",\n    ".join([block] * (len(letters) // period)) + "\n  ]"
            if parts else "[]")
    text = json.dumps({**report, "word_out": _WORD_OUT}, indent=2)
    return text.replace(_WORD_OUT_JSON, body, 1)


def group_json(group: AbelianGroup) -> dict:
    return {"rank": group.rank, "torsion": list(group.torsion)}


def _chi_h1(f: Fibration) -> dict:
    """The ``chi`` and ``h1`` fields of a report on ``f``."""
    return {"chi": euler_characteristic(f), "h1": group_json(first_homology(f))}


def _read_request(stdin) -> dict:
    text = stdin.read(REQUEST_MAX_CHARS + 1)
    if len(text) > REQUEST_MAX_CHARS:
        raise InputError(f"request on stdin is longer than {REQUEST_MAX_CHARS} characters")
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"malformed JSON on stdin: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("request must be a JSON object")
    return obj


def _read_word(stdin) -> tuple[dict, TwistWord]:
    """A one-word request and its word."""
    req = _read_request(stdin)
    return req, parse_word(parse_surface(req), _require(req, "word", list, ""))


def _read_words(stdin, build=lambda word: word) -> tuple:
    """The two words of a two-word request, each built before the next is read."""
    req = _read_request(stdin)
    sig = parse_surface(req)
    words = _require(req, "words", list, "")
    if len(words) != 2:
        raise InputError("field 'words' must hold exactly two words")
    return tuple(build(parse_word(sig, w, f"words[{i}]")) for i, w in enumerate(words))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _read_n(args, most: int) -> int:
    """--n, which family and gn require, bounded above by ``most``."""
    if args.n is None:
        raise InputError(f"{args.command} requires --n")
    if args.n > most:
        raise InputError(f"{args.command} --n must be at most {most}")
    return args.n


def _verdict(pair: tuple[str, str]) -> tuple[dict, int]:
    """The ``verdict`` and ``engine`` fields of a report, and its exit code."""
    verdict, engine = pair
    return {"verdict": verdict, "engine": engine}, _VERDICT_EXIT[verdict]


def _cmd_verify(args, stdin) -> tuple[dict, int]:
    w1, w2 = _read_words(stdin)
    return _verdict(decide_equal(w1, w2, args.engine, args.cap))


def _cmd_positivize(args, stdin) -> tuple[dict, int]:
    rep = positivize(_read_word(stdin)[1], args.cap, args.engine)
    fields, code = _verdict(rep.verdict)
    return {**fields, "word_out": rep.output, "steps": rep.steps}, code


def _cmd_double(args, stdin) -> tuple[dict, int]:
    _, word = _read_word(stdin)
    f, verdict = double_report(Fibration("disk", word), args.cap, args.engine)
    fields, code = _verdict(verdict)
    return {**fields, **_chi_h1(f), "word_out": f.word}, code


def _cmd_invariants(args, stdin) -> tuple[dict, int]:
    req, word = _read_word(stdin)
    f = Fibration(req.get("base", "disk"), word)
    allowable = is_allowable(f)
    return ({"verdict": "true" if allowable else "false", **_chi_h1(f)},
            EXIT_TRUE if allowable else EXIT_FALSE)


def _cmd_family(args, stdin) -> tuple[dict, int]:
    n = _read_n(args, FAMILY_MAX_N)
    fillings, trade = theorem11_family(n, args.cap)
    fields, code = _verdict(trade)
    report = {
        "n": n,
        "chis": [euler_characteristic(f) for f in fillings],
        "verdicts": [fields] * n,
        "h1s": [group_json(first_homology(f)) for f in fillings],
    }
    return report, code


def _cmd_trefoil(args, stdin) -> tuple[dict, int]:
    big, small, verdict = trefoil_completions(args.cap)
    fields, code = _verdict(verdict)
    report = {
        **fields,
        "chis": [euler_characteristic(big), euler_characteristic(small)],
        "letters": [big.letter_count, small.letter_count],
    }
    return report, code


def _cmd_branched_double(args, stdin) -> tuple[dict, int]:
    _, word = _read_word(stdin)
    monodromy = branched_double_cover(word)
    fiber = monodromy.surface
    report = {
        "fiber": {"genus": fiber.genus, "boundary": fiber.boundary},
        "word_out": monodromy,
        "h1": group_json(mapping_torus_homology(monodromy)),
    }
    return report, EXIT_TRUE


def _cmd_fibersum(args, stdin) -> tuple[dict, int]:
    # each summand is checked before the next word is read
    f1, f2 = _read_words(stdin, lambda word: Fibration("sphere", word))
    f = fiber_sum(f1, f2)
    return {**_chi_h1(f), "word_out": f.word}, EXIT_TRUE


def _cmd_gn(args, stdin) -> tuple[dict, int]:
    f = gn_word(_read_n(args, GN_MAX_N))
    return {**_chi_h1(f), "word_out": f.word}, EXIT_TRUE


def _selftest_relator_corpus() -> bool:
    # each side through its own stream, on every generator: decide_equal
    # cancels a disjointness row's steps before any twist table is read
    for genus, lhs, rhs in RELATOR_CORPUS:
        sig = SurfaceSig(genus, 1)
        u, v = TwistWord.from_names(sig, lhs), TwistWord.from_names(sig, rhs)
        if any(apply_word(u, (k,)) != apply_word(v, (k,)) for k in range(1, 2 * genus + 1)):
            return False
    # the boundary word is fixed by every generator
    sig = SurfaceSig(2, 1)
    bw = boundary_word(2)
    for name in curve_classes(sig):
        if apply_twist(Twist(name), bw, sig) != bw:
            return False
    return True


def _cmd_selftest(args, stdin) -> tuple[dict, int]:
    ok = _selftest_relator_corpus()
    return {"verdict": "true" if ok else "false"}, EXIT_TRUE if ok else EXIT_FALSE


# Each command returns its report, less the "command" field that ``run``
# puts first, and its exit code.
_COMMANDS = {
    "verify": _cmd_verify,
    "positivize": _cmd_positivize,
    "double": _cmd_double,
    "invariants": _cmd_invariants,
    "family": _cmd_family,
    "trefoil": _cmd_trefoil,
    "branched-double": _cmd_branched_double,
    "fibersum": _cmd_fibersum,
    "gn": _cmd_gn,
    "selftest": _cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dehn",
        description="Exact Dehn-twist word verification, rewriting, and "
                    "Lefschetz-fibration invariants (JSON in, JSON out).",
        epilog=f"JSON requests are limited to {REQUEST_MAX_CHARS} characters on stdin, "
               f"surface genus {JSON_MAX_GENUS} and "
               f"{WORD_MAX_LETTERS} letters per word, conjugator letters included, "
               f"and positivize and double to {OUTPUT_MAX_LETTERS} output letters, "
               f"counted the same way; larger requests are input errors (exit 2).")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--n", type=int, default=None,
                        help=f"genus parameter for family (2..{FAMILY_MAX_N}) "
                             f"and gn (1..{GN_MAX_N})")
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP,
                        help="free-group word-length cap, at least 1 (default 10^6)")
    parser.add_argument("--engine", choices=ENGINES,
                        default="auto", help="equality engine tier")
    parser.add_argument("--out", default=None,
                        help="also write the report to this path")
    parser.add_argument("--timing", action="store_true",
                        help="append runtime_ms (breaks byte-determinism)")
    return parser


def run(argv=None, stdin=None, stdout=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        if args.cap < 1:
            raise InputError("--cap must be at least 1")
        body, code = _COMMANDS[args.command](args, stdin)
    # positivize and double expand the word of the request's field 'word'
    except OutputTooLarge as exc:
        body, code = {"error": f"field 'word' would give {exc.size} output letters "
                               f"counting conjugators, more than {exc.limit}"}, EXIT_INPUT
    # the library raises ValueError on requests it rejects; both are input errors
    except (InputError, ValueError) as exc:
        body, code = {"error": str(exc)}, EXIT_INPUT
    report = {"command": args.command, **body}
    if args.timing:
        report["runtime_ms"] = int((time.monotonic() - started) * 1000)
    text = report_text(report) + "\n"
    # --out is written first, so that a path it cannot write yields one report
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            report = {"command": args.command,
                      "error": f"cannot write --out {args.out!r}: {exc.strerror or exc}"}
            text, code = report_text(report) + "\n", EXIT_INPUT
    stdout.write(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
