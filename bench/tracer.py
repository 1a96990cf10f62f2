"""Per-layer tracing of dehn from outside the package.

``install`` replaces the public functions of each layer (module of
``src/dehn``) with timing wrappers at every binding a caller looks up: a
module-level function is rebound in every dehn module that imported it
(``pi1.closed_equal`` reads ``dehn.pi1.dehn_reduce``, ``rewriting`` holds
its own ``decide_equal``), and a method is replaced on its class.  No file
of the package changes, and ``restore`` puts every original back.

A wrapper records a span: its duration, and the time covered by the spans
it caused, so that ``self_s`` is the duration minus its children.  Spans
are folded into per-request, per-layer sums as they end and kept in memory;
``write_csv`` writes them out when the run ends.  Per-letter helpers
(``invert_word``, ``transvect``) are not wrapped: with millions of calls the
wrapper would measure itself.  ``Twist.validate`` is only counted, so its
time stays in the layer that calls it (``pi1.apply_twist``).
"""

from __future__ import annotations

import csv
import functools
from collections import defaultdict
from time import perf_counter


def _apply_counts(c, args, result):
    c["freegroup.apply.letters_in"] += len(args[1])
    c["freegroup.apply.letters_out"] += len(result)
    c["freegroup.apply.peak_len"] = max(c["freegroup.apply.peak_len"], len(result))


def _apply_twist_counts(c, args, result):
    # one table application for the base, two per conjugator letter
    c["pi1.apply_twist.table_applications"] += 2 * len(args[0].conj) + 1


def _dehn_reduce_counts(c, args, result):
    c["pi1.dehn_reduce.letters_in"] += len(args[0])
    c["pi1.dehn_reduce.letters_out"] += len(result)


def _decide_equal_counts(c, args, result):
    verdict, engine = result
    if verdict != "unknown":
        c[f"pi1.decide_equal.verdict_{verdict}"] += 1
    elif engine == "homology(necessary)":
        c["pi1.decide_equal.unknown_necessary"] += 1
    else:  # the exact engines answer "unknown" only when a word passes the cap
        c["pi1.decide_equal.unknown_cap"] += 1


def _word_matrix_counts(c, args, result):
    word = args[0]
    n = 2 * word.surface.genus
    # transported_class: one transvection per conjugator letter; then one
    # sweep of every letter over each of the n basis vectors
    c["homology.word_matrix.transvections"] += sum(len(t.conj) + n for t in word.letters)


def _snf_counts(c, args, result):
    rows = args[0]
    c["snf.smith_normal_form.entries"] += len(rows) * (len(rows[0]) if rows else 0)


def _commute_pull_counts(c, args, result):
    c["rewriting.commute_pull.steps"] += result.steps


# Spans: (module, attribute, layer, counter hook or None).
LAYERS = [
    ("cli", "run", "cli.run", None),
    ("constructions", "theorem11_family", "constructions.theorem11_family", None),
    ("fibration", "first_homology", "fibration.first_homology", None),
    ("fibration", "double_report", "fibration.double_report", None),
    ("rewriting", "commute_pull", "rewriting.commute_pull", _commute_pull_counts),
    ("rewriting", "positivize", "rewriting.positivize", None),
    ("rewriting", "chain_substitute", "rewriting.chain_substitute", None),
    ("pi1", "decide_equal", "pi1.decide_equal", _decide_equal_counts),
    ("pi1", "dehn_reduce", "pi1.dehn_reduce", _dehn_reduce_counts),
    ("pi1", "apply_twist", "pi1.apply_twist", _apply_twist_counts),
    ("freegroup", "FreeAutomorphism.apply", "freegroup.apply", _apply_counts),
    ("homology", "homology_equal", "homology.homology_equal", None),
    ("homology", "word_matrix", "homology.word_matrix", _word_matrix_counts),
    ("snf", "smith_normal_form", "snf.smith_normal_form", _snf_counts),
    ("surface", "TwistWord.__init__", "surface.TwistWord.init", None),
]

# Call counts only: (module, attribute, counter).
COUNTED = [
    ("surface", "Twist.validate", "surface.Twist.validate.calls"),
]

# Per-layer metrics of a traced run, in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("freegroup.apply.calls", "count"),
    ("freegroup.apply.self_s", "s"),
    ("freegroup.apply.letters_in", "count"),
    ("freegroup.apply.letters_out", "count"),
    ("freegroup.apply.peak_len", "count"),
    ("pi1.apply_twist.calls", "count"),
    ("pi1.apply_twist.self_s", "s"),
    ("pi1.apply_twist.table_applications", "count"),
    ("pi1.dehn_reduce.calls", "count"),
    ("pi1.dehn_reduce.self_s", "s"),
    ("pi1.dehn_reduce.letters_in", "count"),
    ("pi1.dehn_reduce.letters_out", "count"),
    ("pi1.decide_equal.calls", "count"),
    ("pi1.decide_equal.total_s", "s"),
    ("pi1.decide_equal.verdict_true", "count"),
    ("pi1.decide_equal.verdict_false", "count"),
    ("pi1.decide_equal.unknown_cap", "count"),
    ("pi1.decide_equal.unknown_necessary", "count"),
    ("pi1.twist_tables.misses", "count"),
    ("homology.word_matrix.calls", "count"),
    ("homology.word_matrix.self_s", "s"),
    ("homology.word_matrix.transvections", "count"),
    ("homology.homology_equal.calls", "count"),
    ("snf.smith_normal_form.calls", "count"),
    ("snf.smith_normal_form.self_s", "s"),
    ("snf.smith_normal_form.entries", "count"),
    ("rewriting.commute_pull.calls", "count"),
    ("rewriting.commute_pull.self_s", "s"),
    ("rewriting.commute_pull.steps", "count"),
    ("rewriting.positivize.calls", "count"),
    ("rewriting.positivize.self_s", "s"),
    ("rewriting.chain_substitute.calls", "count"),
    ("rewriting.chain_substitute.self_s", "s"),
    ("fibration.first_homology.self_s", "s"),
    ("fibration.double_report.self_s", "s"),
    ("constructions.theorem11_family.self_s", "s"),
    ("surface.Twist.validate.calls", "count"),
    ("surface.TwistWord.init.calls", "count"),
    ("surface.TwistWord.init.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.report_bytes", "count"),
    ("failed_ratio", "1"),
    ("probe.wrong", "count"),
    ("trace.overhead_ratio", "1"),
]

MARK = "__bench_layer__"


class Tracer:
    """Span sums per request and layer, plus whole-run counters."""

    def __init__(self):
        self.counters = defaultdict(int)
        self.requests = []  # (request index, kind, {layer: [calls, total_s, self_s]})
        self.current = {}
        self.stack = []
        self._patched = []

    def begin(self, index: int, kind: str) -> None:
        self.current = {}
        self.stack.clear()  # a timed-out request may have left frames behind
        self.requests.append((index, kind, self.current))

    def _span(self, layer, fn, hook):
        stack = self.stack
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                sums = self.current.get(layer)
                if sums is None:
                    sums = self.current[layer] = [0, 0.0, 0.0]
                sums[0] += 1
                sums[1] += elapsed
                sums[2] += elapsed - frame[0]
            if hook is not None:
                hook(counters, args, result)
            return result

        setattr(wrapper, MARK, layer)
        return wrapper

    def _count(self, layer, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[layer] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, layer)
        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every layer; ``modules`` maps short names to dehn modules."""
        for module, attr, layer, hook in LAYERS:
            self._replace(modules, module, attr, lambda fn: self._span(layer, fn, hook))
        for module, attr, counter in COUNTED:
            self._replace(modules, module, attr, lambda fn: self._count(counter, fn))

    def _replace(self, modules, module, attr, wrap) -> None:
        """Rebind ``module.attr`` wherever callers look it up."""
        owner = modules[module]
        if "." in attr:  # a method: replace it on its class
            cls_name, method = attr.split(".")
            owner = getattr(owner, cls_name)
            original = owner.__dict__[method]
            self._patched.append((owner, method, original))
            setattr(owner, method, wrap(original))
            return
        original = getattr(owner, attr)
        wrapper = wrap(original)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def layer_sums(self) -> dict:
        """{layer: [calls, total_s, self_s]} over every traced request."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for _, _, layers in self.requests:
            for layer, (calls, total, own) in layers.items():
                acc = out[layer]
                acc[0] += calls
                acc[1] += total
                acc[2] += own
        return out

    def metrics(self, extra: dict) -> dict:
        """Every PER_LAYER metric; ``extra`` supplies values measured elsewhere."""
        sums = self.layer_sums()
        values = {}
        for name, unit in PER_LAYER:
            layer, _, field = name.rpartition(".")
            if name in extra:
                value = extra[name]
            elif field in ("calls", "total_s", "self_s") and layer in sums:
                value = sums[layer][("calls", "total_s", "self_s").index(field)]
            else:
                value = self.counters.get(name, 0)
            values[name] = {"value": value, "unit": unit}
        return values

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["request", "kind", "layer", "calls", "total_s", "self_s"])
            for index, kind, layers in self.requests:
                for layer, (calls, total, own) in sorted(layers.items()):
                    out.writerow([index, kind, layer, calls, repr(total), repr(own)])


def find_wrappers(modules: dict) -> list[str]:
    """Names of installed wrappers still reachable from the dehn modules."""
    found = []
    for mod in modules.values():
        for name, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{name}.{attr}" for attr, member in vars(value).items()
                          if hasattr(member, MARK)]
    return found
