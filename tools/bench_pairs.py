"""Run the bench on two checkouts in alternating pairs and summarise the runs.

Run from the root of a checkout::

    python3 tools/bench_pairs.py PARENT CHANGE --workload invariants --seed 1 \\
        --pairs 10 --seconds 30 --out BENCH_name.json

PARENT and CHANGE are two checkouts of the repository.  Each run is
``bench/run.py --workload W --seed S --seconds T --trace 0``, started with
the interpreter that runs this tool in the checkout's root, one run at a
time.  Pair i runs the parent first when i is even and the change first
when i is odd, so that a drift of the machine's speed falls on both sides.

The file ``--out`` holds every run's output lines and, under
``"<workload>.seed<seed>"``, a summary.  For each end-to-end metric of
``BENCHMARK.json`` (read from this tool's checkout, never written) the
summary gives each side's median and quartiles
(``statistics.quantiles(..., method="inclusive")``), the pairs the change
won in the metric's direction (ties count for neither), the median change
relative to the parent's median, the parent's interquartile range, the
metric's bound and a reading against it, and then each side's report
digests.  The reading is ``"worse than bound"`` when the median change in
the worse direction passes the bound, ``"unresolved"`` when the parent's
interquartile range relative to its median passes the bound and not every
change run reads better than every parent run, and ``"within bound"``
otherwise.  The file's top-level ``"no_regression"`` is false when any
metric of any summary reads worse than its bound, ``"unresolved"`` when
none does but some metric is unresolved, and true otherwise.

An existing file is extended: its other workloads and seeds are kept, so
one file can hold several, and new pairs of the same workload and seed
follow its earlier ones, alternating on.  The summary covers every pair
of its entry, and the file is rewritten after every pair.

Exit status: 0 when every run reads ``"correct": true`` and all runs share
one report digest, 1 otherwise, 2 when ``--out`` holds runs of other
commits or of another ``--seconds``.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 600  # bench/run.py ends its own runs within 180 s


def end_to_end_metrics(benchmark: Path = ROOT / "BENCHMARK.json") -> dict[str, dict]:
    """Each end-to-end metric's name and its entry: the direction that reads better and the bound."""
    spec = json.loads(benchmark.read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def parse_run(text: str) -> dict:
    """A run's output lines, by kind: result, digests, raw wall clock and probe."""
    run = {"result": None, "digests": []}
    for line in text.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if not isinstance(obj, dict):
            continue
        if "correct" in obj:
            run["result"] = obj
        elif "digest" in obj:
            run["digests"].append(obj["digest"])
        elif "raw_wall_clock" in obj:
            run["raw_wall_clock"] = obj["raw_wall_clock"]
        elif "probe" in obj:
            run["probe"] = obj
    return run


def _correct(run: dict) -> bool:
    return run["result"] is not None and run["result"].get("correct") is True


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:  # quantiles needs two points before Python 3.13
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def _reading(parent: list[float], change: list[float], better: str, bound: float,
             iqr: float) -> str:
    """One metric's reading against its bound (module docstring); ``iqr`` is the parent's."""
    worse = 1 if better == "lower" else -1  # the sign of a change for the worse
    base = statistics.median(parent)
    if worse * (statistics.median(change) - base) > bound * abs(base):
        return "worse than bound"
    all_better = max(worse * c for c in change) < min(worse * p for p in parent)
    if iqr > bound * abs(base) and not all_better:
        return "unresolved"
    return "within bound"


def no_regression(summaries: dict):
    """The file's verdict over every metric of ``summaries`` (module docstring)."""
    readings = {entry["reading"] for summary in summaries.values()
                for entry in summary.values() if isinstance(entry, dict) and "reading" in entry}
    if "worse than bound" in readings:
        return False
    return "unresolved" if "unresolved" in readings else True


def summarize(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """The summary of ``pairs``, each {"parent": run, "change": run} of ``parse_run``.

    ``metrics`` is ``end_to_end_metrics()``.  A metric missing from a run
    that is not correct leaves that pair out of the metric's figures.
    """
    summary = {}
    for name, metric in metrics.items():
        better, bound = metric["better"], metric["bound"]
        values = [(p["parent"]["result"]["metrics"][name]["value"],
                   p["change"]["result"]["metrics"][name]["value"])
                  for p in pairs if _correct(p["parent"]) and _correct(p["change"])]
        if not values:
            continue
        parent, change = [v[0] for v in values], [v[1] for v in values]
        won = sum((c < p) if better == "lower" else (c > p) for p, c in values)
        base = statistics.median(parent)
        side = {"parent": _quartiles(parent), "change": _quartiles(change)}
        iqr = side["parent"]["q3"] - side["parent"]["q1"]
        summary[name] = {
            **side,
            "pairs_won_by_change": f"{won} of {len(values)}",
            "median_change": round(statistics.median(change) / base - 1, 4) if base else None,
            "parent_iqr": round(iqr, 6),
            "bound": bound,
            "reading": _reading(parent, change, better, bound, iqr),
        }
    digests = {s: sorted({d for p in pairs for d in p[s]["digests"]}) for s in SIDES}
    summary["digests"] = digests
    summary["digests_equal"] = len(set(digests["parent"]) | set(digests["change"])) == 1
    summary["correct"] = all(_correct(p[s]) for p in pairs for s in SIDES)
    return summary


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced bench run in ``checkout``; its output by kind, plus its exit status."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {**parse_run(""), "exit": None}
    run = parse_run(proc.stdout)
    run["exit"] = proc.returncode
    if proc.returncode != 0:
        run["stderr_tail"] = proc.stderr.splitlines()[-5:]
    return run


def commit_of(checkout: Path):
    """The checkout's git commit, or None where it is no git checkout."""
    try:
        proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = end_to_end_metrics()
    checkouts = {"parent": args.parent, "change": args.change}
    commits = {side: commit_of(path) for side, path in checkouts.items()}
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    if any(record.get(side, {}).get("commit", commits[side]) != commits[side]
           for side in SIDES):
        print(f"error: {args.out} holds runs of other commits", file=sys.stderr)
        return 2
    record.update({
        "command": "python3 bench/run.py --workload <workload> --seed <seed> "
                   "--seconds <seconds> --trace 0",
        "method": "tools/bench_pairs.py: pairs of parent and change, one run at a time, "
                  "the parent first in even pairs; quartiles are statistics.quantiles("
                  "method='inclusive'); pairs_won_by_change counts pairs where the change "
                  "reads better, ties for neither; median_change is change / parent - 1 "
                  "of the medians; reading compares the median change and the parent's "
                  "interquartile range, each relative to the parent's median, with the "
                  "metric's BENCHMARK.json bound.",
        "machine": f"{os.cpu_count()}-core {platform.system()}, "
                   f"Python {platform.python_version()}",
        **{side: {"commit": commits[side]} for side in SIDES},
    })
    key = f"{args.workload}.seed{args.seed}"
    entry = record.setdefault("runs", {}).setdefault(key, {"seconds": args.seconds, "pairs": []})
    if entry["seconds"] != args.seconds:
        print(f"error: {args.out} holds {key} runs of {entry['seconds']} s", file=sys.stderr)
        return 2
    pairs = entry["pairs"]
    for _ in range(args.pairs):
        i = len(pairs)
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_bench(checkouts[side], args.workload, args.seed, args.seconds)
        pairs.append(pair)
        summary = summarize(pairs, metrics)
        record.setdefault("summary", {})[key] = summary
        record["no_regression"] = no_regression(record["summary"])
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(json.dumps({"pair": i, **{s: pair[s]["result"] for s in SIDES}}), flush=True)
    print(json.dumps({key: summary}, indent=1))
    return 0 if summary["correct"] and summary["digests_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
