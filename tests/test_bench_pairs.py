"""tools/bench_pairs.py: pairs run in turn, and a summary pinned on canned bench output."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

DIGEST = "4112b2c5" + "0" * 56

# a stand-in for bench/run.py: it prints the next canned output of its
# checkout and logs the order of the runs
FAKE_RUN = """\
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent
count = here / "count"
i = int(count.read_text()) if count.exists() else 0
count.write_text(str(i + 1))
with open(here.parent.parent / "order", "a") as fh:
    fh.write(here.parent.name + " " + " ".join(sys.argv[1:]) + "\\n")
sys.stdout.write(json.loads((here / "outputs.json").read_text())[i])
"""


def canned(p90, rate, correct=True, digest=DIGEST, attempted=1500):
    """The output lines of one untraced bench run."""
    metrics = {"setup_s": 0.02, "requests_per_s": rate, "latency_p50_ms": 0.4,
               "latency_p90_ms": p90, "decided_ratio": 1.0, "peak_rss_mb": 30.0}
    lines = [
        {"raw_wall_clock": {"latencies": 1500, "requests_per_s": rate}},
        {"digest": digest, "digest_rounds": 5, "outcomes": {}, "whole_rounds": 75},
        {"correct": correct, "attempted": attempted, "failed": 0,
         "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}},
    ]
    return "".join(json.dumps(line) + "\n" for line in lines)


def checkouts(tmp_path, parent_outputs, change_outputs):
    for side, outputs in (("parent", parent_outputs), ("change", change_outputs)):
        bench = tmp_path / side / "bench"
        bench.mkdir(parents=True)
        (bench / "run.py").write_text(FAKE_RUN)
        (bench / "outputs.json").write_text(json.dumps(outputs))
    return [str(tmp_path / "parent"), str(tmp_path / "change")]


def run_tool(tmp_path, sides, pairs, out="BENCH_x.json"):
    argv = sides + ["--workload", "invariants", "--seed", "1", "--pairs", str(pairs),
                    "--seconds", "1", "--out", str(tmp_path / out)]
    return bench_pairs.main(argv)


def test_pairs_alternate_and_the_summary_is_pinned(tmp_path, capsys):
    sides = checkouts(tmp_path,
                      [canned(0.70, 1600, attempted=48_000), canned(0.69, 1600, attempted=47_000),
                       canned(0.71, 1600, attempted=49_000)],
                      [canned(0.52, 1700, attempted=51_000), canned(0.53, 1700, attempted=52_000),
                       canned(0.72, 1700, attempted=50_000)])
    assert run_tool(tmp_path, sides, 3) == 0
    order = [line.split()[0] for line in (tmp_path / "order").read_text().splitlines()]
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    assert (tmp_path / "order").read_text().splitlines()[0] == (
        "parent --workload invariants --seed 1 --seconds 1.0 --trace 0")
    record = json.loads((tmp_path / "BENCH_x.json").read_text())
    summary = record["summary"]["invariants.seed1"]
    assert summary["latency_p90_ms"] == {
        "parent": {"median": 0.7, "q1": 0.695, "q3": 0.705},
        "change": {"median": 0.53, "q1": 0.525, "q3": 0.625},
        "pairs_won_by_change": "2 of 3",
        "median_change": -0.2429,
        "parent_iqr": 0.01,
        "bound": 0.25,
        "reading": "within bound",
    }
    assert summary["requests_per_s"]["pairs_won_by_change"] == "3 of 3"
    assert summary["requests_per_s"]["median_change"] == 0.0625
    # equal values are ties, which count for neither side
    assert summary["decided_ratio"]["pairs_won_by_change"] == "0 of 3"
    assert set(summary) == set(bench_pairs.end_to_end_metrics()) | {
        "attempted", "digests", "digests_equal", "correct"}
    # each side's requests attempted, to read peak_rss_mb against
    assert summary["attempted"] == {
        "parent": {"median": 48_000, "q1": 47_500, "q3": 48_500},
        "change": {"median": 51_000, "q1": 50_500, "q3": 51_500}}
    assert record["no_regression"] is True
    assert summary["digests"] == {"parent": [DIGEST], "change": [DIGEST]}
    assert summary["digests_equal"] is True and summary["correct"] is True
    runs = record["runs"]["invariants.seed1"]["pairs"]
    assert [p["first"] for p in runs] == ["parent", "change", "parent"]
    assert runs[1]["change"]["result"]["metrics"]["latency_p90_ms"]["value"] == 0.53
    assert record["parent"] == record["change"] == {"commit": None}
    assert '"pairs_won_by_change": "2 of 3"' in capsys.readouterr().out


def test_an_existing_file_is_extended(tmp_path):
    sides = checkouts(tmp_path, [canned(0.7, 1600)] * 3, [canned(0.5, 1700)] * 3)
    assert run_tool(tmp_path, sides, 1) == 0
    argv = sides + ["--workload", "verify", "--seed", "20011", "--pairs", "1",
                    "--seconds", "1", "--out", str(tmp_path / "BENCH_x.json")]
    assert bench_pairs.main(argv) == 0
    # more pairs of a workload and seed follow the earlier ones, alternating on
    assert run_tool(tmp_path, sides, 1) == 0
    record = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert sorted(record["summary"]) == ["invariants.seed1", "verify.seed20011"]
    pairs = record["runs"]["invariants.seed1"]["pairs"]
    assert [p["first"] for p in pairs] == ["parent", "change"]
    assert record["summary"]["invariants.seed1"]["latency_p90_ms"]["pairs_won_by_change"] == (
        "2 of 2")
    # a single pair has its value as median and both quartiles
    assert record["summary"]["verify.seed20011"]["latency_p90_ms"]["change"] == {
        "median": 0.5, "q1": 0.5, "q3": 0.5}
    # runs of another length are not mixed in
    argv = sides + ["--workload", "invariants", "--pairs", "1", "--seconds", "30",
                    "--out", str(tmp_path / "BENCH_x.json")]
    assert bench_pairs.main(argv) == 2


@pytest.mark.parametrize("parent_p90, change_p90, reading", [
    ((0.70, 0.69, 0.71), (0.52, 0.53, 0.72), "within bound"),
    # a 24% worse median stays inside the 0.25 bound, a 27% worse one passes it
    ((0.70, 0.69, 0.71), (0.86, 0.87, 0.88), "within bound"),
    ((0.70, 0.69, 0.71), (0.88, 0.89, 0.90), "worse than bound"),
    # the parent's runs spread by 0.3 / 0.7 of its median, wider than the bound
    ((0.40, 0.70, 1.00), (0.75, 0.70, 0.80), "unresolved"),
    ((0.40, 0.70, 1.00), (0.60, 0.35, 0.38), "unresolved"),
    # ... unless every run of the change reads better than every parent run
    ((0.40, 0.70, 1.00), (0.30, 0.35, 0.38), "within bound"),
])
def test_each_metric_reads_against_its_bound(parent_p90, change_p90, reading):
    pairs = [{"parent": bench_pairs.parse_run(canned(p, 1600)),
              "change": bench_pairs.parse_run(canned(c, 1600))}
             for p, c in zip(parent_p90, change_p90)]
    summary = bench_pairs.summarize(pairs, bench_pairs.end_to_end_metrics())
    assert summary["latency_p90_ms"]["bound"] == 0.25
    assert summary["latency_p90_ms"]["reading"] == reading
    # every other metric reads the same on both sides
    others = set(bench_pairs.end_to_end_metrics()) - {"latency_p90_ms"}
    assert {summary[m]["reading"] for m in others} == {"within bound"}
    verdict = {"within bound": True, "worse than bound": False, "unresolved": "unresolved"}
    assert bench_pairs.no_regression({"invariants.seed1": summary}) == verdict[reading]


def test_no_regression_reads_every_summary():
    def summary(*readings):
        return {f"m{i}": {"reading": r} for i, r in enumerate(readings)} | {"correct": True}

    ok, wide = summary("within bound"), summary("unresolved")
    worse = summary("within bound", "worse than bound")
    assert bench_pairs.no_regression({"a": ok, "b": ok}) is True
    assert bench_pairs.no_regression({"a": ok, "b": wide}) == "unresolved"
    assert bench_pairs.no_regression({"a": wide, "b": worse}) is False


@pytest.mark.parametrize("change_output", [
    canned(0.5, 1700, correct=False),
    canned(0.5, 1700, digest="f" * 64),
    "Traceback (most recent call last):\n",
])
def test_a_wrong_run_or_a_digest_mismatch_exits_nonzero(tmp_path, change_output):
    sides = checkouts(tmp_path, [canned(0.7, 1600)], [change_output])
    assert run_tool(tmp_path, sides, 1) == 1


def test_runs_of_other_commits_are_not_mixed(tmp_path):
    sides = checkouts(tmp_path, [], [])
    (tmp_path / "BENCH_x.json").write_text(json.dumps({"parent": {"commit": "abc"}}))
    assert run_tool(tmp_path, sides, 1) == 2
    assert not (tmp_path / "order").exists()

