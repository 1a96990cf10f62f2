"""CLI-request benchmark for dehn.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop with a single client: each
request goes through ``dehn.cli.run(argv, stdin=StringIO, stdout=StringIO)``,
the path of the ``dehn`` entry point, and the next one is sent when its
report has been checked against the answer known from how the request was
built (``workloads.py``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics.  After set-up, requests run
for ``--seconds`` seconds, and for at least ``trace_rounds`` whole rounds and
``MIN_REQUESTS`` requests.  Times are scaled to a reference speed of the
machine, measured by a fixed pure-Python loop between requests (``Pace``),
because the speed of the shared machine drifts while a run lasts; the raw
wall-clock figures are printed on a line of their own.  A workload's
``probe`` requests, a recorded defect, are sent once after set-up, outside
the timed stream, and reported on their own.  ``--trace 1`` runs the first ``trace_rounds``
rounds twice, untraced and then with the wrappers of ``tracer.py``
installed, and reports the per-layer metrics of the traced pass.  Both
modes print the SHA-256 of the reports of those first rounds, which must
not depend on the mode.  Exit status is 2, with no result, when the
checkout holds no ``src/dehn``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import Tracer, find_wrappers
from workloads import DECIDED, DEFECT, UNKNOWN, WORKLOADS, WRONG, round_requests

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"  # per-request layer sums of traced runs
DEFAULT_SEED = 1
HELD_OUT_SEED = 20011  # not run while the benchmark and its workloads were tuned
SETUP_REPEATS = 7
MIN_REQUESTS = 100        # so that at least 10 latencies lie beyond p90
REQUEST_TIMEOUT_S = 20.0  # a hang ends as one failed request
DEADLINE_S = 140.0        # no request starts later, so a run ends within 180 s
PACE_EVERY_S = 0.06       # the reference loop runs before a request this long after the last
PACE_WINDOW = 3           # reference samples taken on each side of a timed interval
REF_NOMINAL_S = 0.002     # reference_work time at the speed times are scaled to
DEHN_MODULES = ("cli", "constructions", "fibration", "freegroup", "homology",
                "pi1", "rewriting", "snf", "surface")

END_TO_END = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("decided_ratio", "1"),
    ("peak_rss_mb", "MB"),
]


def reference_work(n: int = 100) -> int:
    """Fixed pure-Python work that never calls dehn.

    Small dicts, lists, tuples and strings, JSON both ways and a sort: the
    kinds of interpreter work a request does, so that a change of the
    machine's speed slows both alike.
    """
    acc = 0
    for i in range(n):
        letters = [{"base": f"a{(i + j) % 5}", "sign": 1 - 2 * (j & 1)} for j in range(8)]
        text = json.dumps({"word": letters})
        back = json.loads(text)["word"]
        pairs = sorted((e["base"], -e["sign"]) for e in reversed(back))
        acc += len(text) + sum(sign for _, sign in pairs) + (i * 7919) % 1023
    return acc


class Pace:
    """The machine's current speed, from timings of ``reference_work``.

    A timed interval that begins when ``mark()`` is j is scaled by
    ``scale(j)``: the nominal reference time over the median of the
    PACE_WINDOW samples taken before it and the PACE_WINDOW taken after.
    """

    def __init__(self):
        self.samples = []
        self.last = float("-inf")

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = perf_counter()
            reference_work()
            self.last = perf_counter()
            self.samples.append(self.last - start)

    def tick(self, now: float) -> None:
        if now - self.last >= PACE_EVERY_S:
            self.sample()

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, mark: int) -> float:
        around = self.samples[max(0, mark - PACE_WINDOW):mark + PACE_WINDOW]
        return REF_NOMINAL_S / statistics.median(around)


class RequestTimeout(Exception):
    """Raised by SIGALRM inside a request that ran past REQUEST_TIMEOUT_S."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


class Tally:
    """Outcomes, latencies and the report digest of one pass over requests."""

    def __init__(self, digest_rounds: int):
        self.digest_rounds = digest_rounds
        self.digest = hashlib.sha256()
        self.attempted = 0
        self.completed = 0  # requests that returned a report
        self.failed = 0
        self.outcomes = {}  # kind -> {outcome: count}
        self.latencies = []
        self.cycles = []  # per request: send, check and record
        self.marks = []   # per request: Pace.mark() when it was sent
        self.rounds = []  # [requests, decided] per round begun

    def record(self, round_index, request, outcome, latency, text) -> None:
        if round_index == len(self.rounds):
            self.rounds.append([0, 0])
        self.rounds[round_index][0] += 1
        self.attempted += 1
        self.completed += outcome not in ("timeout", "exception")
        self.latencies.append(latency)
        if outcome == DECIDED:
            self.rounds[round_index][1] += 1
        elif outcome != UNKNOWN:
            self.failed += 1
        if round_index < self.digest_rounds:
            self.digest.update(text.encode())
        by_kind = self.outcomes.setdefault(request.kind, {})
        by_kind[outcome] = by_kind.get(outcome, 0) + 1

    def decided_ratio(self, complete: int) -> float:
        """Decided share over whole rounds, whose mix of kinds is fixed."""
        rounds = self.rounds[:complete]
        return sum(d for _, d in rounds) / max(1, sum(n for n, _ in rounds))


def send(cli, request):
    """Send one request; returns (outcome, latency_s, report text)."""
    stdout = io.StringIO()
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
    try:
        code = cli.run(list(request.argv), stdin=io.StringIO(request.stdin), stdout=stdout)
    except RequestTimeout:
        return "timeout", perf_counter() - start, ""
    except SystemExit as exc:  # argparse rejects argv with exit status 2
        code = exc.code
    except Exception:  # one failed request must not end the run
        traceback.print_exc(file=sys.stderr)
        return "exception", perf_counter() - start, ""
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    latency = perf_counter() - start
    text = stdout.getvalue()
    if code == 2:
        return "input_error", latency, text
    try:
        report = json.loads(text)
    except ValueError:
        return WRONG, latency, text
    return request.check(code, report), latency, text


def set_up(workload):
    """Import dehn afresh, build its twist tables and send a warm-up request."""
    for name in [m for m in sys.modules if m == "dehn" or m.startswith("dehn.")]:
        del sys.modules[name]
    start = perf_counter()
    cli = importlib.import_module("dehn.cli")
    pi1 = sys.modules["dehn.pi1"]
    for genus in workload.table_genera:
        pi1.twist_tables(genus)
    send(cli, workload.warmup)
    return perf_counter() - start, cli


def set_ups(workload, count, pace):
    """``count`` set-ups, each timed and scaled by ``pace``; returns (times, cli)."""
    marked = []
    for _ in range(count):
        pace.sample(PACE_WINDOW)
        mark = pace.mark()
        elapsed, cli = set_up(workload)
        marked.append((elapsed, mark))
    pace.sample(PACE_WINDOW)
    return [elapsed * pace.scale(mark) for elapsed, mark in marked], cli


def send_probe(cli, workload) -> dict:
    """Send the workload's probe requests once; returns {outcome: count}."""
    counts = {}
    for request in workload.probe:
        outcome = send(cli, request)[0]
        counts[outcome] = counts.get(outcome, 0) + 1
    return counts


def run_pass(cli, workload, seed, tally, until, deadline, tracer=None, pace=None) -> int:
    """Closed loop over rounds until ``until(elapsed, whole_rounds, attempted)``.

    No request starts after ``deadline`` (a perf_counter value).  With a
    ``pace``, the reference loop runs between requests as ``Pace.tick``
    decides.  Returns the number of whole rounds run.
    """
    start = perf_counter()
    index = 0
    while True:
        for request in round_requests(workload, seed, index):
            now = perf_counter()
            if until(now - start, index, tally.attempted) or now > deadline:
                return index
            if pace is not None:
                pace.tick(now)
                tally.marks.append(pace.mark())
            if tracer is not None:
                tracer.begin(tally.attempted, request.kind)
            began = perf_counter()
            outcome, latency, text = send(cli, request)
            if tracer is not None:
                tracer.counters["cli.report_bytes"] += len(text)
            tally.record(index, request, outcome, latency, text)
            tally.cycles.append(perf_counter() - began)
        index += 1


def percentile(samples, q):
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def timed_run(cli, workload, seed, seconds, deadline, pace):
    """The timed phase; returns (tally, whole rounds, metrics, raw wall-clock figures)."""
    tally = Tally(workload.trace_rounds)
    pace.sample(PACE_WINDOW)
    start = perf_counter()
    whole = run_pass(cli, workload, seed, tally,
                     lambda elapsed, index, n: (elapsed >= seconds and n >= MIN_REQUESTS
                                                and index >= workload.trace_rounds),
                     deadline, pace=pace)
    wall = perf_counter() - start
    pace.sample(PACE_WINDOW)
    scales = [pace.scale(mark) for mark in tally.marks]
    latencies = [t * k for t, k in zip(tally.latencies, scales)]
    metrics = {
        "requests_per_s": tally.completed / sum(t * k for t, k in zip(tally.cycles, scales)),
        "latency_p50_ms": 1000 * percentile(latencies, 50),
        "latency_p90_ms": 1000 * percentile(latencies, 90),
        "decided_ratio": tally.decided_ratio(whole),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "requests_per_s": tally.completed / wall,
        "latency_p50_ms": 1000 * percentile(tally.latencies, 50),
        "latency_p90_ms": 1000 * percentile(tally.latencies, 90),
        "reference_ms": 1000 * statistics.median(pace.samples),
        "latencies": len(latencies),
    }
    return tally, whole, metrics, raw


def traced_run(cli, workload, seed, modules, deadline, probe):
    rounds = workload.trace_rounds
    until = lambda elapsed, index, n: index >= rounds  # noqa: E731
    plain = Tally(rounds)
    start = perf_counter()
    plain_whole = run_pass(cli, workload, seed, plain, until, deadline)
    plain_wall = perf_counter() - start

    tracer = Tracer()
    misses = modules["pi1"].twist_tables.cache_info().misses
    tracer.install(modules)
    try:
        traced = Tally(rounds)
        start = perf_counter()
        whole = min(plain_whole, run_pass(cli, workload, seed, traced, until, deadline, tracer))
        traced_wall = perf_counter() - start
    finally:
        tracer.restore()
    extra = {
        "pi1.twist_tables.misses": modules["pi1"].twist_tables.cache_info().misses - misses,
        "cli.report_bytes": tracer.counters["cli.report_bytes"],
        "failed_ratio": traced.failed / max(1, traced.attempted),
        "probe.wrong": sum(n for outcome, n in probe.items() if outcome != DECIDED),
        "trace.overhead_ratio": traced_wall / plain_wall,
    }
    return plain, traced, whole, tracer, tracer.metrics(extra)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
                             "to confirm a gain measured on other seeds)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    deadline = perf_counter() + DEADLINE_S
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "dehn" / "cli.py").is_file():
        print(f"error: no dehn package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    signal.signal(signal.SIGALRM, _on_alarm)
    workload = WORKLOADS[args.workload]

    pace = Pace()
    setups, cli = set_ups(workload, SETUP_REPEATS, pace)
    modules = {name: sys.modules[f"dehn.{name}"] for name in DEHN_MODULES}
    modules["dehn"] = sys.modules["dehn"]
    probe = send_probe(cli, workload)

    if args.trace:
        plain, traced, whole, tracer, metrics = traced_run(cli, workload, args.seed, modules,
                                                             deadline, probe)
        passes = [plain, traced]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_csv(OUT_DIR / f"layers-{args.workload}-seed{args.seed}.csv")
    else:
        tally, whole, measured, raw = timed_run(cli, workload, args.seed, args.seconds,
                                                deadline, pace)
        passes = [tally]
    leftover = find_wrappers(modules)
    if not args.trace:
        # set up again after the timed phase, so that the median spans two
        # moments of a machine whose speed drifts
        setups += set_ups(workload, SETUP_REPEATS, pace)[0]
        measured["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in END_TO_END}
        print(json.dumps({"raw_wall_clock": raw}, sort_keys=True))
    digests = {tally.digest.hexdigest() for tally in passes}
    correct = (len(digests) == 1 and not leftover and whole >= workload.trace_rounds
               and all(tally.failed == 0 for tally in passes)
               and set(probe) <= {DEFECT, DECIDED})
    if workload.probe:
        print(json.dumps({"probe": workload.probe[0].kind, "outcomes": probe}, sort_keys=True))
    for tally in passes:
        print(json.dumps({"digest": tally.digest.hexdigest(),
                          "digest_rounds": workload.trace_rounds,
                          "whole_rounds": whole, "outcomes": tally.outcomes},
                         sort_keys=True))
    if leftover:
        print(f"wrappers left installed: {leftover}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
