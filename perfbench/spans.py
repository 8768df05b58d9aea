"""Span tracer for the traced run: wraps qwp's public functions from outside.

`Tracer.install` replaces each target function with a timing wrapper in the
module that defines it and in every qwp module (or module-level dict, such
as `campaigns.SUITES`) that holds the same object, and wraps the click
callbacks of the CLI commands. `Tracer.restore` puts every original back.
Spans live in flat arrays (name, parent, dim, start, end) until the run
ends; self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

WRAPPED_MARK = "__perfbench_span__"

# (module, function, span name); span names are the per-layer metric stems.
FUNCTION_SPANS = (
    ("qwp.wp", "wp", "wp.wp"),
    ("qwp.wp", "weakest_check", "wp.weakest_check"),
    ("qwp.wp", "duality_residual_sweep", "wp.duality_residual_sweep"),
    ("qwp.wp", "is_precondition", "wp.is_precondition"),
    ("qwp.programs", "apply_matrix", "programs.apply_matrix"),
    ("qwp.programs", "to_choi", "programs.to_choi"),
    ("qwp.programs", "is_completely_positive", "programs.is_completely_positive"),
    ("qwp.programs", "is_positive_sampled", "programs.is_positive_sampled"),
    ("qwp.programs", "from_kraus", "programs.from_kraus"),
    ("qwp.programs", "seq", "programs.seq"),
    ("qwp.programs", "mix", "programs.mix"),
    ("qwp.predicates", "predicate_leq", "predicates.predicate_leq"),
    ("qwp.predicates", "validate_predicate", "predicates.validate_predicate"),
    ("qwp.predicates", "random_predicate", "predicates.random_predicate"),
    ("qwp.linalg", "as_complex_matrix", "linalg.as_complex_matrix"),
    ("qwp.linalg", "min_eigenvalue", "linalg.min_eigenvalue"),
    ("qwp.linalg", "hermitian_eig", "linalg.hermitian_eig"),
    ("qwp.linalg", "loewner_leq", "linalg.loewner_leq"),
    ("qwp.linalg", "random_density", "linalg.random_density"),
    ("qwp.linalg", "random_effect", "linalg.random_effect"),
    ("qwp.campaigns", "duality_campaign", "campaigns.duality"),
    ("qwp.campaigns", "weakest_campaign", "campaigns.weakest"),
    ("qwp.campaigns", "compose_campaign", "campaigns.compose"),
    ("qwp.campaigns", "orders_campaign", "campaigns.orders"),
    # JSON text in and out of the CLI plus the document <-> object codecs
    ("qwp.cli", "_load", "serialize.parse"),
    ("qwp.serialize", "predicate_from_json", "serialize.parse"),
    ("qwp.serialize", "program_from_json", "serialize.parse"),
    ("qwp.serialize", "triple_from_json", "serialize.parse"),
    ("qwp.serialize", "state_from_json", "serialize.parse"),
    ("qwp.cli", "_dump", "serialize.emit"),
    ("qwp.serialize", "predicate_to_json", "serialize.emit"),
    ("qwp.serialize", "sat_to_json", "serialize.emit"),
    ("qwp.serialize", "validation_report_to_json", "serialize.emit"),
    ("qwp.serialize", "verification_report_to_json", "serialize.emit"),
    ("qwp.serialize", "campaign_result_to_json", "serialize.emit"),
)
CLI_COMMANDS = ("validate", "wp", "verify", "sat", "properties")
# spans whose self time is also split by the program's dimension
SPLIT_BY_DIM = ("wp.wp", "programs.to_choi", "programs.is_completely_positive", "programs.is_positive_sampled")
SPLIT_DIMS = (8, 16, 32)


def _kraus_ops(counters, args, result):
    counters["programs.kraus_ops"] += len(result.kraus) if result.kraus is not None else 0


def _campaign_trials(counters, args, result):
    counters["campaigns.trials"] += result.trials


def _weakest(counters, args, result):
    counters["wp.weakest_check.trials"] += result.trials
    counters["wp.weakest_check.confirmed"] += result.confirmed_preconditions


def _positivity(counters, args, result):
    counters["programs.positivity_states"] += result.samples


def _parse_bytes(counters, args, result):
    counters["serialize.parse.bytes"] += os.path.getsize(args[0])


def _emit_bytes(counters, args, result):
    counters["serialize.emit.bytes"] += len(result.encode("utf-8"))


RESULT_HOOKS = {
    "programs.from_kraus": _kraus_ops,
    "programs.seq": _kraus_ops,
    "programs.mix": _kraus_ops,
    "campaigns.duality": _campaign_trials,
    "campaigns.weakest": _campaign_trials,
    "campaigns.compose": _campaign_trials,
    "campaigns.orders": _campaign_trials,
    "wp.weakest_check": _weakest,
    "programs.is_positive_sampled": _positivity,
}
CALL_HOOKS = {("qwp.cli", "_load"): _parse_bytes, ("qwp.cli", "_dump"): _emit_bytes}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.dim = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, dim: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.dim.append(dim)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. the root of one operation."""
        idx = self._open(self._id(name), 0)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, span_name: str, fn, hook=None):
        nid = self._id(span_name)
        split = span_name in SPLIT_BY_DIM

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid, getattr(args[0], "dim", 0) if split and args else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.counters, args, result)
            return result

        setattr(wrapper, WRAPPED_MARK, span_name)
        return wrapper

    def _patch(self, holder, key, new, is_dict: bool) -> None:
        old = holder[key] if is_dict else getattr(holder, key)
        self._patches.append((holder, key, old, is_dict))
        if is_dict:
            holder[key] = new
        else:
            setattr(holder, key, new)

    def install(self) -> None:
        """Wrap every target everywhere qwp holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "qwp" or n.startswith("qwp.")]
        for mod_name, attr, span_name in FUNCTION_SPANS:
            original = getattr(sys.modules[mod_name], attr)
            hook = RESULT_HOOKS.get(span_name) or CALL_HOOKS.get((mod_name, attr))
            wrapper = self.wrap(span_name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper, False)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patch(value, dkey, wrapper, True)
        commands = sys.modules["qwp.cli"].main.commands
        for name in CLI_COMMANDS:
            cmd = commands[name]
            self._patch(cmd, "callback", self.wrap(f"cli.{name}", cmd.callback), False)

    def restore(self) -> None:
        while self._patches:
            holder, key, old, is_dict = self._patches.pop()
            if is_dict:
                holder[key] = old
            else:
                setattr(holder, key, old)

    def aggregate(self):
        """calls[name], self seconds[name] and self seconds[(name, dim)]."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        by_dim: defaultdict = defaultdict(float)
        for i in range(n):
            name = self.names[self.name[i]]
            own = self.end[i] - self.start[i] - child[i]
            calls[name] += 1
            self_s[name] += own
            if self.dim[i]:
                by_dim[(name, self.dim[i])] += own
        return calls, self_s, by_dim

    def write(self, path: str) -> None:
        """All spans as gzipped TSV: index, parent, name, dim, start, end (seconds)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("index\tparent\tname\tdim\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t{self.dim[i]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


# spans reported as <stem>.calls and <stem>.self_s (serialize reports self time and bytes)
CALL_STEMS = tuple(dict.fromkeys(
    [s for _, _, s in FUNCTION_SPANS if not s.startswith("serialize.")] + [f"cli.{c}" for c in CLI_COMMANDS]
))


# Every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    [("import.interpreter_s", "s"), ("import.qwp_cli_s", "s"),
     ("serialize.parse.self_s", "s"), ("serialize.parse.bytes", "B"),
     ("serialize.emit.self_s", "s"), ("serialize.emit.bytes", "B")]
    + [(f"{stem}.{leaf}", unit) for stem in CALL_STEMS for leaf, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"{stem}.d{d}.self_s", "s") for stem in SPLIT_BY_DIM for d in SPLIT_DIMS]
    + [("campaigns.trials", "count"), ("wp.weakest_check.confirmed_ratio", "ratio"),
       ("programs.positivity_states", "count"), ("programs.kraus_ops", "count"),
       ("trace.spans", "count"), ("trace.overhead_s", "s")]
)


def layer_values(tracer: Tracer) -> dict:
    """Per-layer values the spans give; import and overhead come from the caller."""
    calls, self_s, by_dim = tracer.aggregate()
    c = tracer.counters
    values = {}
    for name, _unit in PER_LAYER:
        stem, _, leaf = name.rpartition(".")
        if leaf == "calls":
            values[name] = calls[stem]
        elif leaf == "self_s":
            head, _, d = stem.rpartition(".")
            split = d.startswith("d") and d[1:].isdigit() and head in SPLIT_BY_DIM
            values[name] = by_dim[(head, int(d[1:]))] if split else self_s[stem]
        elif name in ("serialize.parse.bytes", "serialize.emit.bytes", "campaigns.trials",
                      "programs.positivity_states", "programs.kraus_ops"):
            values[name] = c[name]
    trials = c["wp.weakest_check.trials"]
    values["wp.weakest_check.confirmed_ratio"] = c["wp.weakest_check.confirmed"] / trials if trials else 0.0
    values["trace.spans"] = len(tracer.start)
    return values
