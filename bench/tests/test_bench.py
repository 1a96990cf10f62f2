"""Tests of the benchmark's own code: generators, known answers, wrappers.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import contextlib
import io
import json
import random
import signal
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402

import dehn.cli  # noqa: E402,F401  (run.main re-imports dehn; tests read sys.modules)


def fingerprint(requests):
    return [(r.kind, r.argv, r.stdin) for r in requests]


def first_of_each_kind(workload, seed=0, rounds=1):
    seen = {}
    for index in range(rounds):
        for request in W.round_requests(workload, seed, index):
            seen.setdefault(request.kind, request)
    return seen


def send(request):
    out = io.StringIO()
    code = sys.modules["dehn.cli"].run(list(request.argv), stdin=io.StringIO(request.stdin),
                                       stdout=out)
    return code, json.loads(out.getvalue())


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_rounds_are_a_function_of_seed_and_index(name):
    workload = W.WORKLOADS[name]
    a = fingerprint(W.round_requests(workload, 3, 2))
    assert a == fingerprint(W.round_requests(workload, 3, 2))
    assert a != fingerprint(W.round_requests(workload, 4, 2))
    assert a != fingerprint(W.round_requests(workload, 3, 1))


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_every_round_has_the_same_mix_of_kinds(name):
    workload = W.WORKLOADS[name]

    def mix(seed, index):
        kinds = [r.kind.split(".n")[0] if r.kind.startswith("gn.") else r.kind
                 for r in W.round_requests(workload, seed, index)]
        return sorted(kinds)

    assert len({tuple(mix(seed, index)) for seed in range(3) for index in range(3)}) == 1


def test_relators_use_only_curves_of_the_surface():
    for g in (1, 2, 3):
        for boundary in (0, 1):
            allowed = set(W.curves(g, boundary))
            for rel in W.relators(g, boundary):
                assert {n for n, _ in rel} <= allowed


# ---------------------------------------------------------------------------
# known answers
# ---------------------------------------------------------------------------

EXPECTED = {  # kinds whose answer at this commit is not DECIDED
    "verify.pseudo_anosov_cap": W.UNKNOWN,
}


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_every_request_kind_gets_its_known_answer(name):
    for kind, request in first_of_each_kind(W.WORKLOADS[name], rounds=2).items():
        code, report = send(request)
        assert request.check(code, report) == EXPECTED.get(kind, W.DECIDED), kind


def test_point_push_probe_gets_the_recorded_defect():
    probe = W.WORKLOADS["verify"].probe
    assert {r.kind for r in probe} == {"verify.point_push"}
    assert len({r.stdin for r in probe}) == len(probe)
    for request in probe:
        code, report = send(request)
        assert request.check(code, report) == W.DEFECT


def test_no_timed_stream_holds_the_point_push_sentinels():
    for workload in W.WORKLOADS.values():
        kinds = {r.kind for index in range(3) for r in W.round_requests(workload, 0, index)}
        assert "verify.point_push" not in kinds


def corrupt(report):
    """A copy of the report with one answer changed."""
    bad = json.loads(json.dumps(report))
    if "verdict" in bad:
        bad["verdict"] = {"true": "false", "false": "true", "unknown": "false"}[bad["verdict"]]
    elif "chi" in bad:
        bad["chi"] += 1
    elif "chis" in bad:
        bad["chis"][-1] -= 10
    else:
        bad["h1"]["rank"] += 1
    return bad


@pytest.mark.parametrize("name", ["family", "invariants", "positivize"])
def test_checks_reject_a_wrong_answer(name):
    for kind, request in first_of_each_kind(W.WORKLOADS[name]).items():
        code, report = send(request)
        assert request.check(code, corrupt(report)) == W.WRONG, kind


def test_verify_checks_reject_wrong_verdicts():
    rng = random.Random(5)
    true_pair = W.verify_relator(rng)
    false_pair = W.verify_flipped(rng)
    report = {"command": "verify", "engine": "x"}
    assert true_pair.check(1, dict(report, verdict="false")) == W.WRONG
    assert true_pair.check(3, dict(report, verdict="unknown")) == W.UNKNOWN
    assert false_pair.check(0, dict(report, verdict="true")) == W.WRONG
    assert false_pair.check(0, dict(report, verdict="false")) == W.WRONG  # exit code
    sentinel = W.verify_point_push(rng)
    assert sentinel.check(1, dict(report, verdict="false")) == W.DEFECT
    assert sentinel.check(0, dict(report, verdict="true")) == W.DECIDED


def test_positivize_length_formula():
    # a1^-1 = b1 (a1 b1)^5 at genus 1; the expansion at genus 2 has 39 letters
    assert W.expansion_length(1) == 11
    assert W.expansion_length(2) == 3 + 4 * 9


@pytest.mark.parametrize("word, h1", [
    (["a1"], {"rank": 3, "torsion": []}),
    (["a1", "b1"] * 6, {"rank": 5, "torsion": []}),     # (a1 b1)^6 acts trivially
    (["a1", "b1"] * 3, {"rank": 1, "torsion": [2, 2, 2, 2]}),  # acts as -I
    (["a1", "b1"], {"rank": 1, "torsion": []}),         # order 6, A - I unimodular
])
def test_branched_double_oracle(word, h1):
    assert W.branched_double_h1(W.plain((n, 1) for n in word)) == h1


# ---------------------------------------------------------------------------
# wrappers and runs
# ---------------------------------------------------------------------------


def dehn_modules():
    mods = {name: sys.modules[f"dehn.{name}"] for name in run.DEHN_MODULES}
    mods["dehn"] = sys.modules["dehn"]
    return mods


def bindings(mods):
    out = {}
    for mod in mods.values():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[(mod.__name__, name, attr)] = member
    return out


def test_install_wraps_every_layer_and_restore_puts_originals_back():
    mods = dehn_modules()
    before = bindings(mods)
    t = tracer.Tracer()
    t.install(mods)
    try:
        wrapped = set(tracer.find_wrappers(mods))
        assert "dehn.pi1.dehn_reduce" in wrapped
        assert "dehn.rewriting.decide_equal" in wrapped
        assert "dehn.freegroup.FreeAutomorphism.apply" in wrapped
        t.begin(0, "probe")
        code, report = send(W.verify_closed_chain(random.Random(1), "light"))
        assert report["verdict"] == "true"
    finally:
        t.restore()
    assert tracer.find_wrappers(mods) == []
    after = bindings(mods)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    sums = t.layer_sums()
    assert sums["pi1.dehn_reduce"][0] > 0
    for calls, total, own in sums.values():
        assert 0 <= own <= total + 1e-9


def tiny_workload():
    mix = [W._fixed(2, W.gn_request(2)), W._times(2, W.verify_torus)]
    return W.Workload("tiny", mix, (), W.gn_request(1), 2, W.POINT_PUSH_PROBE[:2])


def run_main(monkeypatch, trace):
    monkeypatch.setitem(run.WORKLOADS, "tiny", tiny_workload())
    monkeypatch.setattr(run, "MIN_REQUESTS", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0",
                         "--trace", str(trace)]) == 0
    lines = out.getvalue().splitlines()
    return [json.loads(line) for line in lines]


def test_untraced_and_traced_runs_agree_and_leave_no_wrappers(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    plain = run_main(monkeypatch, 0)
    traced = run_main(monkeypatch, 1)
    assert plain[-1]["correct"] and traced[-1]["correct"]
    digests = {line["digest"] for line in plain[:-1] + traced[:-1] if "digest" in line}
    assert digests == {plain[-2]["digest"]}
    assert plain[-1]["failed"] == 0
    assert {"outcomes": {"defect": 2}, "probe": "verify.point_push"} in plain
    assert traced[-1]["metrics"]["probe.wrong"]["value"] == 2
    assert [m for m, _ in run.END_TO_END] == list(plain[-1]["metrics"])
    assert [m for m, _ in tracer.PER_LAYER] == list(traced[-1]["metrics"])
    assert tracer.find_wrappers(dehn_modules()) == []


def test_pace_scales_by_the_samples_around_a_mark(monkeypatch):
    pace = run.Pace()
    pace.samples = [0.001, 0.001, 0.001, 0.004, 0.004, 0.004]
    assert pace.scale(3) == pytest.approx(run.REF_NOMINAL_S / 0.0025)
    assert pace.scale(0) == pytest.approx(run.REF_NOMINAL_S / 0.001)
    assert pace.scale(6) == pytest.approx(run.REF_NOMINAL_S / 0.004)
    pace.sample(2)
    assert pace.mark() == 8 and all(t > 0 for t in pace.samples[-2:])


def test_a_hung_request_ends_as_a_timeout(monkeypatch):
    class Hang:
        @staticmethod
        def run(argv, stdin, stdout):
            while True:
                pass

    monkeypatch.setattr(run, "REQUEST_TIMEOUT_S", 0.05)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        outcome, latency, _ = run.send(Hang, W.gn_request(1))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert outcome == "timeout" and latency < 5


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.PER_LAYER
