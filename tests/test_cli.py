"""CLI protocol: JSON in, JSON report out, verdict-coded exits."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dehn.cli import run


def run_cli(argv, payload=None):
    stdin = io.StringIO("" if payload is None else json.dumps(payload))
    stdout = io.StringIO()
    code = run(argv, stdin=stdin, stdout=stdout)
    text = stdout.getvalue()
    return code, json.loads(text), text


def letters(*names):
    out = []
    for n in names:
        if n.endswith("^-1"):
            out.append({"base": n[:-3], "sign": -1})
        else:
            out.append({"base": n})
    return out


def surface(genus, boundary):
    return {"genus": genus, "boundary": boundary}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_true():
    payload = {
        "surface": surface(1, 1),
        "words": [letters("a1", "b1", "a1"), letters("b1", "a1", "b1")],
    }
    code, rep, _ = run_cli(["verify"], payload)
    assert code == 0
    assert rep == {"command": "verify", "verdict": "true",
                   "engine": "pi1(rel-boundary,faithful)"}


def test_verify_false():
    payload = {"surface": surface(1, 1), "words": [letters("a1"), letters("b1")]}
    code, rep, _ = run_cli(["verify"], payload)
    assert code == 1
    assert rep["verdict"] == "false"


def test_verify_unknown_on_tiny_cap():
    # (a1 b1 a1)^4 = delta walks no chain run, so its images meet the cap
    payload = {
        "surface": surface(1, 1),
        "words": [letters(*["a1", "b1", "a1"] * 4), letters("delta")],
    }
    code, rep, _ = run_cli(["verify", "--cap", "3"], payload)
    assert code == 3
    assert rep["verdict"] == "unknown"
    # (a1 b1)^6 is one whole chain relator, deleted before any image is built
    payload["words"][0] = letters(*["a1", "b1"] * 6)
    code, rep, _ = run_cli(["verify", "--cap", "3"], payload)
    assert (code, rep["verdict"]) == (0, "true")


def test_verify_forced_homology_is_only_necessary():
    payload = {
        "surface": surface(2, 1),
        "words": [letters("a1", "a2"), letters("a2", "a1")],
    }
    code, rep, _ = run_cli(["verify", "--engine", "homology"], payload)
    assert code == 3
    assert rep == {"command": "verify", "verdict": "unknown",
                   "engine": "homology(necessary)"}


def test_verify_engine_choices():
    # the surface picks the exact engine, so only auto and homology remain
    from dehn.cli import build_parser

    assert "--engine {auto,homology}" in build_parser().format_usage()


def test_verify_engine_surface_mismatch():
    # naming an exact engine, even one that does not fit the surface, is an input error
    payload = {"surface": surface(1, 0), "words": [letters("a1"), letters("a1")]}
    for engine in ("pi1", "closed"):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--engine", engine], payload)
        assert exc.value.code == 2


def test_verify_conjugated_letters():
    # t and its conjugate by a disjoint curve are the same twist
    t = {"base": "a1", "sign": 1, "conj": [{"base": "a2", "sign": -1}]}
    payload = {"surface": surface(2, 1), "words": [[t], letters("a1")]}
    code, rep, _ = run_cli(["verify"], payload)
    assert code == 0


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------


def test_malformed_json():
    # past its depth limit json.loads raises RecursionError, not JSONDecodeError
    for text in ("{nope", "[" * 100000):
        stdout = io.StringIO()
        code = run(["verify"], stdin=io.StringIO(text), stdout=stdout)
        assert code == 2
        assert json.loads(stdout.getvalue())["error"].startswith("malformed JSON on stdin: ")


def test_request_must_be_object():
    stdout = io.StringIO()
    code = run(["verify"], stdin=io.StringIO("[1, 2]"), stdout=stdout)
    assert code == 2


def test_missing_and_mistyped_fields():
    code, rep, _ = run_cli(["verify"], {"words": []})
    assert code == 2 and "'surface'" in rep["error"]
    code, rep, _ = run_cli(["verify"], {"surface": {"genus": 1}, "words": []})
    assert code == 2 and "surface.'boundary'" in rep["error"]
    code, rep, _ = run_cli(
        ["verify"], {"surface": {"genus": True, "boundary": 1}, "words": []})
    assert code == 2 and "integer" in rep["error"]
    code, rep, _ = run_cli(["verify"], {"surface": surface(1, 1), "words": [[]]})
    assert code == 2 and "exactly two" in rep["error"]
    code, rep, _ = run_cli(["positivize"], {"surface": surface(1, 0)})
    assert code == 2 and "'word'" in rep["error"]


@pytest.mark.parametrize("command, payload, error", [
    ("verify", {"surface": [], "words": []}, "field 'surface' must be an object"),
    ("verify", {"surface": surface(1, 1), "words": {}}, "field 'words' must be a list"),
    ("positivize", {"surface": surface(1, 0), "word": [{"base": 7}]},
     "field word[0].'base' must be a string"),
    ("verify", {"surface": {"genus": True, "boundary": 1}, "words": []},
     "field surface.'genus' must be an integer"),
    ("verify", {"surface": {"genus": 1.5, "boundary": 1}, "words": []},
     "field surface.'genus' must be an integer"),
])
def test_mistyped_field_names_the_kind(command, payload, error):
    code, rep, _ = run_cli([command], payload)
    assert code == 2
    assert rep["error"] == error


def test_letter_validation():
    bad_sign = {"surface": surface(1, 0), "word": [{"base": "a1", "sign": 2}]}
    code, rep, _ = run_cli(["positivize"], bad_sign)
    assert code == 2 and "sign" in rep["error"]

    nested = {"surface": surface(1, 0),
              "word": [{"base": "a1",
                        "conj": [{"base": "b1", "conj": []}]}]}
    code, rep, _ = run_cli(["positivize"], nested)
    assert code == 2 and "nested" in rep["error"]

    unknown_curve = {"surface": surface(1, 0), "word": [{"base": "q7"}]}
    code, rep, _ = run_cli(["positivize"], unknown_curve)
    assert code == 2

    for base in ("a1\n", "d2\n"):
        trailing = {"surface": surface(2, 1), "words": [[{"base": base}], letters("a1")]}
        code, rep, _ = run_cli(["verify"], trailing)
        assert code == 2 and "is not valid" in rep["error"]

    not_an_object = {"surface": surface(1, 0), "word": ["a1"]}
    code, rep, _ = run_cli(["positivize"], not_an_object)
    assert code == 2 and "word[0]" in rep["error"]


@pytest.mark.parametrize("sign", [True, 1.0, "1"])
def test_sign_must_be_an_integer(sign):
    # JSON true and 1.0 compare equal to 1 in Python; both are rejected
    letter = {"surface": surface(1, 0), "word": [{"base": "b1"}, {"base": "a1", "sign": sign}]}
    code, rep, _ = run_cli(["positivize"], letter)
    assert code == 2
    assert rep["error"] == "word[1].sign must be 1 or -1"

    conj = {"surface": surface(1, 0),
            "word": [{"base": "a1", "conj": [{"base": "b1"}, {"base": "b1", "sign": sign}]}]}
    code, rep, _ = run_cli(["positivize"], conj)
    assert code == 2
    assert rep["error"] == "word[0].conj[1].sign must be 1 or -1"


def test_multi_fault_words_report_the_first_fault_in_read_order():
    # every letter's shape and sign, then the size bound, then the curves in
    # letter order (base before conjugator); each word before the next is read
    from dehn.cli import WORD_MAX_LETTERS

    g2 = surface(2, 0)
    cases = [
        (["positivize"], {"surface": g2, "word": [{"base": "zz"}, {"base": "a1", "sign": 2}]},
         "word[1].sign must be 1 or -1"),
        (["positivize"], {"surface": g2, "word": [{"base": "zz"}, {"base": "a1", "conj": 3}]},
         "word[1].conj must be a list"),
        (["positivize"], {"surface": g2, "word": [{"base": "a1", "conj": [{"base": 5}]}]},
         "word: curve '5' is not valid on genus 2, boundary 0"),
        (["positivize"], {"surface": g2, "word": [{"base": "a1", "conj": [{"base": None}]}]},
         "word: curve 'None' is not valid on genus 2, boundary 0"),
        (["positivize"], {"surface": g2, "word": [{"base": "q1", "conj": [{"base": "zz"}]}]},
         "word: curve 'q1' is not valid on genus 2, boundary 0"),
        (["positivize"], {"surface": g2, "word": [{"base": "a1", "conj": [{"base": "zz"}]},
                                                   {"base": "q1"}]},
         "word: curve 'zz' is not valid on genus 2, boundary 0"),
        (["positivize"], {"surface": g2, "word": [{"base": "delta"}]},
         "word: curve 'delta' is not valid on genus 2, boundary 0"),
        (["verify"], {"surface": g2, "words": [[{"base": "zz"}],
                                               [{"base": "a1", "sign": True}]]},
         "words[0]: curve 'zz' is not valid on genus 2, boundary 0"),
        (["verify"], {"surface": g2, "words": [[{"base": "a1"}], [{"base": "a3"}]]},
         "words[1]: curve 'a3' is not valid on genus 2, boundary 0"),
        (["verify"], {"surface": g2, "words": [[{"base": "zz"}] * (WORD_MAX_LETTERS + 1),
                                               [{"base": "a1", "sign": 0}]]},
         f"field 'words[0]' has {WORD_MAX_LETTERS + 1} letters counting conjugators, "
         f"more than {WORD_MAX_LETTERS}"),
        (["invariants"], {"surface": g2, "word": [{"base": "a1"}] * WORD_MAX_LETTERS
                                                 + [{"base": "zz"}]},
         f"field 'word' has {WORD_MAX_LETTERS + 1} letters counting conjugators, "
         f"more than {WORD_MAX_LETTERS}"),
    ]
    for argv, payload, error in cases:
        code, rep, _ = run_cli(argv, payload)
        assert (code, rep) == (2, {"command": argv[0], "error": error}), payload


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit):
        run_cli(["frobnicate"], {})


# ---------------------------------------------------------------------------
# rewriting and fibration commands
# ---------------------------------------------------------------------------


def test_positivize_roundtrip():
    payload = {"surface": surface(1, 0), "word": letters("a1", "a1^-1")}
    code, rep, _ = run_cli(["positivize"], payload)
    assert code == 0
    assert rep["verdict"] == "true"
    assert rep["steps"] == 1
    assert len(rep["word_out"]) == 12
    assert all(e["sign"] == 1 for e in rep["word_out"])


def test_positivize_needs_closed_surface():
    payload = {"surface": surface(1, 1), "word": letters("a1^-1")}
    code, rep, _ = run_cli(["positivize"], payload)
    assert code == 2 and "closed" in rep["error"]


def test_double():
    payload = {"surface": surface(1, 1), "word": letters("a1", "b1")}
    code, rep, _ = run_cli(["double"], payload)
    assert code == 0
    assert rep["verdict"] == "true"
    assert rep["chi"] == 24
    assert rep["h1"] == {"rank": 0, "torsion": []}
    assert len(rep["word_out"]) == 24


def test_double_passes_engine_to_positivize():
    # homology forces the necessary-only engine, which cannot say "true"
    payload = {"surface": surface(2, 1), "word": letters("a1", "b2")}
    code, rep, _ = run_cli(["double", "--engine", "homology"], payload)
    assert code == 3
    assert (rep["verdict"], rep["engine"]) == ("unknown", "homology(necessary)")
    code, auto, _ = run_cli(["double"], payload)
    assert code == 0
    assert (auto["verdict"], auto["engine"]) == ("true", "closed(dehn,g>=2)")
    assert auto["word_out"] == rep["word_out"]


def test_double_rejects_delta_in_a_conjugator():
    # the error names the one-boundary page's delta, not the capped surface
    word = [{"base": "b1"},
            {"base": "a1", "conj": [{"base": "b1"}, {"base": "delta", "sign": -1}]},
            {"base": "b1", "conj": [{"base": "b1"}]},
            {"base": "a1"}]
    code, rep, _ = run_cli(["double"], {"surface": surface(1, 1), "word": word})
    assert code == 2
    assert "delta" in rep["error"] and "boundary 0" not in rep["error"]


def test_invariants():
    payload = {"surface": surface(2, 1),
               "word": letters(*["a1", "b1", "a2", "b2"] * 10)}
    code, rep, _ = run_cli(["invariants"], payload)
    assert code == 0
    assert rep["verdict"] == "true"
    assert rep["chi"] == 37
    assert rep["h1"] == {"rank": 0, "torsion": []}

    # a null-homologous vanishing cycle flips the verdict
    payload = {"surface": surface(1, 1), "word": letters("delta")}
    code, rep, _ = run_cli(["invariants"], payload)
    assert code == 1 and rep["verdict"] == "false"

    # sphere base enforces its closure conditions at parse time
    payload = {"surface": surface(1, 0), "word": letters("a1"), "base": "sphere"}
    code, rep, _ = run_cli(["invariants"], payload)
    assert code == 2 and "homology" in rep["error"]


def test_family():
    code, rep, _ = run_cli(["family", "--n", "2"])
    assert code == 0
    assert rep["chis"] == [37, 27, 17]
    assert all(v["verdict"] == "true" for v in rep["verdicts"])
    assert rep["h1s"] == [{"rank": 0, "torsion": []}] * 3

    code, rep, _ = run_cli(["family"])
    assert code == 2 and "--n" in rep["error"]


def test_family_n_upper_bound():
    from dehn.cli import FAMILY_MAX_N, build_parser

    code, rep, _ = run_cli(["family", "--n", str(FAMILY_MAX_N + 1)])
    assert code == 2 and "--n" in rep["error"] and str(FAMILY_MAX_N) in rep["error"]
    assert f"family (2..{FAMILY_MAX_N})" in " ".join(build_parser().format_help().split())


def test_gn_n_upper_bound():
    from dehn.cli import GN_MAX_N, build_parser

    code, rep, _ = run_cli(["gn", "--n", str(GN_MAX_N + 1)])
    assert code == 2 and "--n" in rep["error"] and str(GN_MAX_N) in rep["error"]
    assert f"gn (1..{GN_MAX_N})" in " ".join(build_parser().format_help().split())


def test_cap_must_be_positive():
    payload = {"surface": surface(1, 1), "words": [letters("a1"), letters("a1")]}
    for cap in ("0", "-5"):
        code, rep, _ = run_cli(["verify", "--cap", cap], payload)
        assert code == 2 and "--cap" in rep["error"]
    code, rep, _ = run_cli(["family", "--n", "2", "--cap", "0"])
    assert code == 2 and "--cap" in rep["error"]


def test_json_genus_upper_bound():
    from dehn.pi1 import twist_tables
    from dehn.cli import JSON_MAX_GENUS, build_parser

    payload = {"surface": surface(JSON_MAX_GENUS + 1, 1),
               "words": [letters("a1"), letters("b1")]}
    misses = twist_tables.cache_info().misses
    code, rep, _ = run_cli(["verify"], payload)
    assert code == 2 and "genus" in rep["error"] and str(JSON_MAX_GENUS) in rep["error"]
    assert twist_tables.cache_info().misses == misses  # rejected before any table
    code, _, _ = run_cli(["invariants"], {"surface": surface(JSON_MAX_GENUS, 0),
                                          "word": letters("a1")})
    assert code == 0
    assert f"genus {JSON_MAX_GENUS}" in " ".join(build_parser().format_help().split())


def test_word_letter_upper_bound():
    from dehn.cli import WORD_MAX_LETTERS, build_parser

    # each letter counts once for its base and once per conjugator letter
    at_bound = [{"base": "a1", "conj": [{"base": "b1"}]}] * (WORD_MAX_LETTERS // 2)
    code, _, _ = run_cli(["invariants"], {"surface": surface(1, 0), "word": at_bound})
    assert code == 0
    over = at_bound + letters("a1")
    code, rep, _ = run_cli(["invariants"], {"surface": surface(1, 0), "word": over})
    assert code == 2 and "'word'" in rep["error"] and str(WORD_MAX_LETTERS) in rep["error"]
    payload = {"surface": surface(1, 1), "words": [letters("a1"), over]}
    code, rep, _ = run_cli(["verify"], payload)
    assert code == 2 and "'words[1]'" in rep["error"]
    assert f"{WORD_MAX_LETTERS} letters per word" in " ".join(
        build_parser().format_help().split())


def test_stdin_length_is_bounded_before_the_json_is_parsed(monkeypatch):
    import dehn.cli

    request = json.dumps({"surface": surface(1, 0), "word": letters("a1", "b1")})
    loads, real_loads = [], json.loads

    def spy(text):
        loads.append(len(text))
        return real_loads(text)

    def send(text):
        stdout = io.StringIO()
        code = run(["invariants"], stdin=io.StringIO(text), stdout=stdout)
        return code, real_loads(stdout.getvalue())

    monkeypatch.setattr(dehn.cli, "REQUEST_MAX_CHARS", len(request))
    monkeypatch.setattr(dehn.cli.json, "loads", spy)
    # exactly at the bound: read whole and parsed
    code, rep = send(request)
    assert code == 0 and rep["verdict"] == "true" and loads == [len(request)]
    # one character over: an input error, and the JSON is never parsed
    code, rep = send(request + " ")
    assert code == 2 and loads == [len(request)]
    assert rep == {"command": "invariants",
                   "error": f"request on stdin is longer than {len(request)} characters"}
    monkeypatch.undo()
    from dehn.cli import REQUEST_MAX_CHARS, WORD_MAX_LETTERS, build_parser
    # two words at the letter bound, at indent 4, fit well inside the bound
    word = [{"base": "a1", "sign": -1, "conj": [{"base": "b1", "sign": -1}]}] * (
        WORD_MAX_LETTERS // 2)
    widest = json.dumps({"surface": surface(1, 0), "words": [word, word]}, indent=4)
    assert 3 * len(widest) < REQUEST_MAX_CHARS
    assert f"{REQUEST_MAX_CHARS} characters on stdin" in " ".join(
        build_parser().format_help().split())


def output_letters(rep):
    return sum(1 + len(t.get("conj", [])) for t in rep["word_out"])


def test_output_size_is_worked_out_exactly(monkeypatch):
    import dehn.rewriting
    from dehn.surface import SurfaceSig, curve_classes

    def at_the_bound(argv, payload):
        # one letter under the output's size, the request is rejected naming
        # that size; at the size, its report is unchanged
        code, rep, text = run_cli(argv, payload)
        size = output_letters(rep)
        error = (f"field 'word' would give {size} output letters counting conjugators, "
                 f"more than {size - 1}")
        with monkeypatch.context() as m:
            m.setattr(dehn.rewriting, "OUTPUT_MAX_LETTERS", size - 1)
            assert run_cli(argv, payload)[:2] == (2, {"command": argv[0], "error": error})
            m.setattr(dehn.rewriting, "OUTPUT_MAX_LETTERS", size)
            assert run_cli(argv, payload) == (code, rep, text)
        return code

    rng = random.Random("output-size")
    for genus in (1, 2, 3):
        curves = list(curve_classes(SurfaceSig(genus, 0)))
        for _ in range(5):
            word = [{"base": rng.choice(curves), "sign": rng.choice((1, -1)),
                     "conj": [{"base": rng.choice(curves), "sign": rng.choice((1, -1))}
                              for _ in range(rng.randrange(3))]} for _ in range(4)]
            assert at_the_bound(["positivize", "--engine", "homology"],
                                {"surface": surface(genus, 0), "word": word}) in (0, 3)
            positive = [dict(t, sign=1) for t in word]
            assert at_the_bound(["double"], {"surface": surface(genus, 1), "word": positive}) == 0
    # one b24^-1 at genus 24, the largest plain negative letter, is under the
    # bound; its 446,785 letters are counted, not built
    assert dehn.rewriting.OUTPUT_MAX_LETTERS >= 446_785
    monkeypatch.setattr(dehn.rewriting, "OUTPUT_MAX_LETTERS", 446_784)
    code, rep, _ = run_cli(["positivize"], {"surface": surface(24, 0), "word": letters("b24^-1")})
    assert code == 2 and "446785 output letters" in rep["error"]


def test_output_letter_upper_bound():
    from dehn.cli import build_parser
    from dehn.pi1 import twist_tables
    from dehn.rewriting import OUTPUT_MAX_LETTERS

    # three b24^-1 positivize to 3 x 446,785 letters, past the bound
    over = {"surface": surface(24, 0), "word": letters("b24^-1") * 3}
    misses = twist_tables.cache_info().misses
    started = time.monotonic()
    code, rep, _ = run_cli(["positivize"], over)
    assert code == 2 and "1340355 output letters" in rep["error"]
    assert str(OUTPUT_MAX_LETTERS) in rep["error"]
    # doubling three b24 gives 3 + 3 x 446,785
    code, rep, _ = run_cli(["double"], {"surface": surface(24, 1), "word": letters("b24") * 3})
    assert code == 2 and "1340358 output letters" in rep["error"]
    assert time.monotonic() - started < 1.0
    assert twist_tables.cache_info().misses == misses  # rejected before any table
    assert f"{OUTPUT_MAX_LETTERS} output letters" in " ".join(
        build_parser().format_help().split())


def test_output_bound_errors_name_the_word_field(monkeypatch):
    # the library's error names no field; a positivize or double report
    # names the request's, in the same bytes as before the library's changed
    import dehn.rewriting

    monkeypatch.setattr(dehn.rewriting, "OUTPUT_MAX_LETTERS", 10)
    for command, boundary, names, size in (("positivize", 0, ("a1^-1",), 11),
                                            ("double", 1, ("a1", "b1"), 46)):
        code, _, text = run_cli([command], {"surface": surface(1, boundary),
                                            "word": letters(*names)})
        assert code == 2 and text == (
            f'{{\n  "command": "{command}",\n  "error": "field \'word\' would give {size} '
            f'output letters counting conjugators, more than 10"\n}}\n')


def test_output_at_the_bound_passes(monkeypatch):
    import dehn.rewriting

    # a1^-1 b1 on the closed genus-2 surface positivizes to 40 letters
    payload = {"surface": surface(2, 0), "word": letters("a1^-1", "b1")}
    monkeypatch.setattr(dehn.rewriting, "OUTPUT_MAX_LETTERS", 40)
    code, rep, _ = run_cli(["positivize"], payload)
    assert code == 0 and output_letters(rep) == 40
    monkeypatch.setattr(dehn.rewriting, "OUTPUT_MAX_LETTERS", 39)
    code, rep, _ = run_cli(["positivize"], payload)
    assert code == 2 and "40 output letters" in rep["error"] and "39" in rep["error"]
    # a1 b1 on the genus-1 one-boundary surface doubles to 24 letters, 46
    # counting the two-letter transport of b1 on each letter of its expansion
    payload = {"surface": surface(1, 1), "word": letters("a1", "b1")}
    monkeypatch.setattr(dehn.rewriting, "OUTPUT_MAX_LETTERS", 46)
    code, rep, _ = run_cli(["double"], payload)
    assert code == 0 and output_letters(rep) == 46
    monkeypatch.setattr(dehn.rewriting, "OUTPUT_MAX_LETTERS", 45)
    code, rep, _ = run_cli(["double"], payload)
    assert code == 2 and "46 output letters" in rep["error"]


def test_double_names_delta_in_a_conjugator_before_the_output_bound():
    from dehn.pi1 import twist_tables

    # double_report checks the page before positivize counts the doubled
    # word, so of these two faults the delta in a conjugator is named
    over = letters("b24") * 3
    misses = twist_tables.cache_info().misses
    code, rep, _ = run_cli(["double"], {"surface": surface(24, 1), "word": over})
    assert code == 2 and "output letters" in rep["error"]
    over[0] = {"base": "b24", "conj": [{"base": "delta"}]}
    code, rep, _ = run_cli(["double"], {"surface": surface(24, 1), "word": over})
    assert code == 2 and rep["error"] == ("doubling cannot cap delta in a conjugator: delta "
                                          "is the boundary curve of the one-boundary page")
    assert twist_tables.cache_info().misses == misses


def test_each_request_transports_each_negative_curve_once(monkeypatch):
    import dehn.rewriting

    calls = []
    transport_pairs = dehn.rewriting.transport_pairs
    monkeypatch.setattr(dehn.rewriting, "transport_pairs",
                        lambda curve, sig: calls.append(curve) or transport_pairs(curve, sig))
    # b2^-1 (a1 b2^-1 a1^-1): b2 is negative twice, and transported once for
    # the output; the first request also transports it for b2's inverse-twist
    # lemma, which later requests find kept
    word = [{"base": "b2", "sign": -1}, {"base": "b2", "sign": -1, "conj": [{"base": "a1"}]}]
    for expected in (["b2", "b2"], ["b2"]):
        calls.clear()
        code, _, _ = run_cli(["positivize"], {"surface": surface(2, 0), "word": word})
        assert code == 0 and calls == expected
    # double positivizes a1 b2 d2 b2 . b2^-1 d2^-1 b2^-1 a1^-1, and decides
    # the lemmas of d2 and a1, b2's being kept
    calls.clear()
    code, _, _ = run_cli(["double"], {"surface": surface(2, 1),
                                      "word": letters("a1", "b2", "d2", "b2")})
    assert code == 0 and calls == ["b2", "d2", "a1", "d2", "a1"]


def test_trefoil():
    code, rep, _ = run_cli(["trefoil"])
    assert code == 0
    assert (rep["verdict"], rep["engine"]) == ("true", "homology(g=1,faithful)")
    assert rep["chis"] == [24, 12]
    assert rep["letters"] == [24, 12]


def test_trefoil_reports_the_engine_verdict(monkeypatch):
    import dehn.constructions

    monkeypatch.setattr(dehn.constructions, "decide_equal",
                        lambda w1, w2, engine, cap: ("unknown", "homology(g=1,faithful)"))
    code, rep, _ = run_cli(["trefoil"])
    assert code == 3
    assert rep["verdict"] == "unknown"


def test_trefoil_decides_each_pair_once(monkeypatch):
    # the positivization inside the double, a1 b1 b1^-1 a1^-1, by the
    # inverse-twist lemmas of b1 and a1 (1 letter against 11), then big
    # against small; the report writes the second verdict and does not
    # decide it again, and a second request finds both lemmas kept
    import dehn.cli
    import dehn.constructions
    import dehn.rewriting

    calls = []
    for module in (dehn.cli, dehn.constructions, dehn.rewriting):
        real = module.decide_equal

        def spy(w1, w2, *args, real=real):
            calls.append((len(w1), len(w2)))
            return real(w1, w2, *args)

        monkeypatch.setattr(module, "decide_equal", spy)
    code, rep, _ = run_cli(["trefoil"])
    assert code == 0 and rep["verdict"] == "true"
    assert calls == [(1, 11), (1, 11), (24, 12)]
    calls.clear()
    assert run_cli(["trefoil"])[:2] == (code, rep)
    assert calls == [(24, 12)]


def test_branched_double():
    payload = {"surface": surface(1, 1), "word": letters("a1", "b1")}
    code, rep, _ = run_cli(["branched-double"], payload)
    assert code == 0
    assert rep["fiber"] == {"genus": 2, "boundary": 0}
    assert [e["base"] for e in rep["word_out"]] == ["a1", "b1", "b2", "d2"]
    assert [e["sign"] for e in rep["word_out"]] == [1, 1, -1, -1]
    assert rep["h1"]["rank"] >= 1  # the base circle always survives


def test_branched_double_rejects_delta_in_a_conjugator():
    payload = {"surface": surface(1, 1),
               "word": [{"base": "a1", "conj": [{"base": "delta"}]}]}
    code, rep, _ = run_cli(["branched-double"], payload)
    assert code == 2
    assert "boundary-parallel letters" in rep["error"]


def test_fibersum():
    word6 = letters(*["a1", "b1"] * 6)
    payload = {"surface": surface(1, 0), "words": [word6, word6]}
    code, rep, _ = run_cli(["fibersum"], payload)
    assert code == 0
    assert rep["chi"] == 24
    assert rep["h1"] == {"rank": 0, "torsion": []}
    assert len(rep["word_out"]) == 24

    # each summand keeps its sphere check; only the sum is certified
    for words in ([letters("a1"), word6], [word6, letters("b1", "b1")]):
        bad = {"surface": surface(1, 0), "words": words}
        code, rep, _ = run_cli(["fibersum"], bad)
        assert code == 2 and "homology" in rep["error"]
    # the first summand is checked before the second word is read
    bad = {"surface": surface(1, 0), "words": [letters("a1"), [{"base": "zz"}]]}
    code, rep, _ = run_cli(["fibersum"], bad)
    assert code == 2 and "homology" in rep["error"]


def test_gn():
    code, rep, _ = run_cli(["gn", "--n", "1"])
    assert code == 0
    assert rep["chi"] == 12
    assert len(rep["word_out"]) == 12
    code, rep, _ = run_cli(["gn", "--n", "0"])
    assert code == 2
    code, rep, _ = run_cli(["gn"])
    assert code == 2


def test_selftest():
    code, rep, _ = run_cli(["selftest"])
    assert code == 0
    assert rep == {"command": "selftest", "verdict": "true"}


def test_selftest_decides_the_relator_corpus(monkeypatch):
    import dehn.cli
    from dehn.pi1 import RELATOR_CORPUS

    # a relation that does not hold turns the verdict
    monkeypatch.setattr(dehn.cli, "RELATOR_CORPUS", RELATOR_CORPUS + ((2, "a1 b1", "b1 a1"),))
    code, rep, _ = run_cli(["selftest"])
    assert code == 1
    assert rep == {"command": "selftest", "verdict": "false"}


def test_selftest_reads_the_tables_of_a_commuting_row(monkeypatch):
    import dehn.cli
    import dehn.pi1
    from dehn.pi1 import twist_tables

    # a1 and d2 are disjoint, so decide_equal cancels "a1 d2" against
    # "d2 a1" unread; the selftest runs both sides through the tables
    monkeypatch.setattr(dehn.cli, "RELATOR_CORPUS", ((2, "a1 d2", "d2 a1"),))
    assert run_cli(["selftest"])[1]["verdict"] == "true"
    # d2 given b1's tables, which do not commute with a1's
    tables = dict(twist_tables(2))
    for sign in (1, -1):
        tables["d2", sign] = tables["b1", sign]
    monkeypatch.setattr(dehn.pi1, "twist_tables", lambda genus: tables)
    code, rep, _ = run_cli(["selftest"])
    assert code == 1
    assert rep == {"command": "selftest", "verdict": "false"}


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def test_out_file_matches_stdout(tmp_path):
    target = tmp_path / "report.json"
    for command, payload in (
        ("verify", {"surface": surface(1, 1), "words": [letters("a1"), letters("a1")]}),
        # a report with a word_out, which the writer splices in
        ("positivize", {"surface": surface(2, 0),
                        "word": [{"base": "b2", "sign": -1, "conj": letters("a1")}]}),
    ):
        stdin = io.StringIO(json.dumps(payload))
        stdout = io.StringIO()
        code = run([command, "--out", str(target)], stdin=stdin, stdout=stdout)
        assert code == 0
        assert target.read_bytes() == stdout.getvalue().encode("utf-8")


def test_unwritable_out_is_an_input_error(tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, rep, _ = run_cli(["selftest", "--out", str(target)])
    assert code == 2
    assert rep["command"] == "selftest"
    assert str(target) in rep["error"]
    assert not target.exists()


def test_timing_flag_adds_runtime():
    code, rep, _ = run_cli(["trefoil", "--timing"])
    assert code == 0
    assert isinstance(rep["runtime_ms"], int)


# One request per command, then one error report per read phase of a word
# (shape and sign, size bound, curve name) and per --n and --cap check.
_GOLDEN_REQUESTS = [
    (["verify"], {"surface": surface(2, 1),
                  "words": [letters(*["a1", "b1", "a2", "b2"] * 3),
                            [{"base": "a1", "conj": [{"base": "b2", "sign": -1}]}]]}),
    (["positivize"], {"surface": surface(2, 0),
                      "word": [{"base": "b2", "sign": -1, "conj": [{"base": "a1"}]},
                               {"base": "d2"}, {"base": "a1", "sign": -1}]}),
    (["double"], {"surface": surface(1, 1), "word": letters("a1", "b1")}),
    (["invariants"], {"surface": surface(2, 1), "word": letters("a1", "b1", "a2", "d2")}),
    (["family", "--n", "2"], None),
    (["trefoil"], None),
    (["branched-double"], {"surface": surface(1, 1), "word": letters("a1", "b1")}),
    (["fibersum"], {"surface": surface(1, 0), "words": [letters(*["a1", "b1"] * 6)] * 2}),
    (["gn", "--n", "2"], None),
    (["selftest"], None),
    (["verify"], {"surface": surface(1, 1), "words": [letters("a1"), [{"base": "a1", "sign": 2}]]}),
    (["invariants"], {"surface": surface(1, 0), "word": letters("a1") * 10_001}),
    (["positivize"], {"surface": surface(1, 0), "word": letters("a1", "c1")}),
    (["family"], None),
    (["gn", "--n", "25"], None),
    (["trefoil", "--cap", "0"], None),
]
# SHA-256 of the concatenated reports of _GOLDEN_REQUESTS, in order.
_GOLDEN_SHA256 = "d5cef1145028cd9c13a3d0588abea33fc60761542f1c3ff0033c5fde25585d28"


def test_reports_are_byte_deterministic():
    payload = {
        "surface": surface(2, 1),
        "words": [letters(*["a1", "b1", "a2", "b2"] * 10), letters("delta")],
    }
    runs = [run_cli(["verify"], payload) for _ in range(2)]
    assert runs[0][2] == runs[1][2]
    assert runs[0][0] == runs[1][0] == 0

    texts = {run_cli(["gn", "--n", "2"])[2] for _ in range(2)}
    assert len(texts) == 1

    digest, codes = hashlib.sha256(), []
    for argv, payload in _GOLDEN_REQUESTS:
        code, _, text = run_cli(argv, payload)
        digest.update(text.encode())
        codes.append(code)
    assert codes == [1] + [0] * 9 + [2] * 6
    assert digest.hexdigest() == _GOLDEN_SHA256


def _module_run(module, argv, stdin_text=""):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", module, *argv], input=stdin_text,
                          capture_output=True, text=True, env=env, timeout=120)


def test_importing_the_cli_generates_no_code():
    # a one-shot CLI process pays for every import; dataclasses, and the
    # inspect it imports, cost more than a request, so no record is a dataclass
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = "import sys, dehn.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_python_m_dehn_runs_selftest():
    proc = _module_run("dehn", ["selftest"])
    assert proc.returncode == 0, proc.stderr
    assert '"verdict": "true"' in proc.stdout


def test_python_m_dehn_cli_reports_input_errors():
    proc = _module_run("dehn.cli", ["verify"], "{}")
    assert proc.returncode == 2, proc.stderr
    assert '"error"' in proc.stdout
