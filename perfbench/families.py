"""The three load families the workloads are made of.

Each family generates its inputs in `setup` and runs one round of
operations in `run_round`, recording timings and checked outcomes in the
context's ledger. A workload runs one family at full size and the other two
as small probes, so every end-to-end metric is measured on every workload.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs
from checks import CRASH, WRONG, Ledger, Request, check_request, close, verdict_problems
from execute import Outcome
from speed import unscaled_window

LIBRARY_METRICS = (
    "library.build_s",
    "library.wp_s",
    "library.verify_s",
    "library.cp_check_s",
    "library.positivity_s",
    "library.chain_s",
)


@dataclass
class Context:
    """Where a round runs: the work directory, the ledger, and how to call the CLI."""

    workdir: str
    ledger: Ledger
    cli: Callable[[tuple, Callable | None], Outcome]  # (args, tick)
    span: Callable[[str], contextlib.AbstractContextManager] = lambda name: contextlib.nullcontext()
    window: Callable[..., contextlib.AbstractContextManager] = unscaled_window


def _cli_op(ctx: Context, family: str, req: Request, metric: str, unit: float = 1.0, sampled: bool = False) -> None:
    with ctx.window(sampled) as w:
        with ctx.span("op." + family):
            outcome = ctx.cli(req.args, w.tick if sampled else None)
        w.add(metric, outcome.seconds * unit)
    for key, raw, scaled in w.items():
        ctx.ledger.add(key, raw, scaled)
    problems = check_request(req, outcome, ctx.workdir) + ctx.ledger.same_report(req.rid, outcome.stdout)
    ctx.ledger.op(family, req.rid, problems)


# ---------------------------------------------------------------------------
# campaigns: `qwp properties <suite>` runs
# ---------------------------------------------------------------------------


class CampaignsFamily:
    """One `qwp properties` run per (suite, dims, samples) spec per round.

    Each round passes qwp a seed of its own, drawn from the workload seed: a
    suite's cost depends on what its seed draws (`weakest` at d = 2 takes from
    3.0 to 4.1 s across seeds), so a run's median over rounds spans several
    draws instead of resting on one.
    """

    def __init__(self, specs):
        self.specs = tuple(specs)
        self.seed = 0
        self.rounds_run = 0

    def setup(self, workdir: str, seed: int) -> None:
        self.seed = seed
        self.rounds_run = 0

    def requests(self, round_index: int) -> list[Request]:
        qseed = str(int(np.random.default_rng([self.seed, 0xCA4, round_index]).integers(2**31)))
        return [
            Request(
                rid=f"properties.{suite}.{dims}.{samples}.s{qseed}",
                args=("properties", suite, "--dims", dims, "--samples", str(samples), "--seed", qseed),
                kind="properties",
                expect={"suite": suite, "trials": len(dims.split(",")) * samples},
            )
            for suite, dims, samples in self.specs
        ]

    def run_round(self, ctx: Context) -> None:
        reqs = self.requests(self.rounds_run)
        self.rounds_run += 1
        for req in reqs:
            # seconds long: machine speed is sampled during the child, not only around it
            _cli_op(ctx, "campaigns", req, f"properties.{req.args[1]}_s", sampled=True)


# ---------------------------------------------------------------------------
# large_dim: in-process library calls at large dimension
# ---------------------------------------------------------------------------


@dataclass
class _DimCase:
    dim: int
    kraus: list
    weight: float
    mix_kraus: list
    want_super: dict
    post: object
    triples: list  # (program key, pre predicate, expectation)
    want_wp: dict
    nonpos_super: np.ndarray
    positivity_seed: int


class LibraryFamily:
    """Build, transform, verify and audit programs at each dim; build depolarizing chains.

    Kraus-built CPTP programs and superoperator-only transpose mixtures sit
    side by side, so a change that favours one representation shows on the
    other.
    """

    KRAUS_COUNT = 4
    ATOMS = 3
    SHRINK = 0.8  # post effects sum to at most 0.8 I, leaving room for the failing pre
    HOLD_SCALE = 0.9
    FAIL_BUMP = 0.05
    NONPOS_EPS = 0.5
    # A single build or wp call takes milliseconds and its time varies by about
    # 10% from call to call; repeating them in every round, in one speed window
    # so that the reference job does not repeat too, steadies their totals.
    BUILD_REPEATS = 3
    WP_REPEATS = 5

    def __init__(self, dims, chain_depths):
        self.dims = tuple(dims)
        self.chain_depths = tuple(chain_depths)
        self.cases: list[_DimCase] = []
        self.chains: list[tuple] = []

    def setup(self, workdir: str, seed: int) -> None:
        self.P = importlib.import_module("qwp.programs")
        self.W = importlib.import_module("qwp.wp")
        pred = importlib.import_module("qwp.predicates")
        rng = np.random.default_rng([seed, 0x1A7])
        self.cases = []
        for d in self.dims:
            kraus = inputs.isometry_kraus(rng, d, self.KRAUS_COUNT)
            weight = float(rng.uniform(0.2, 0.8))
            # two Kraus operators: the Choi rank stays below the d(d-1)/2 negative
            # eigenvalues of the transpose part, so the mixture is never CP
            mix_kraus = inputs.isometry_kraus(rng, d, 2)
            post_effects = inputs.effects(rng, d, self.ATOMS, self.SHRINK)
            space = pred.OutcomeSpace(tuple(f"a{i}" for i in range(self.ATOMS)))
            post = pred.Predicate(space, post_effects)
            want_wp = {
                "cptp": [inputs.dual_kraus(kraus, f) for f in post_effects],
                "mix": [inputs.dual_transpose_mix(weight, mix_kraus, f) for f in post_effects],
            }
            triples = []
            for key, dual in want_wp.items():
                triples.append((key, pred.Predicate(space, [self.HOLD_SCALE * g for g in dual]), {"verdict": "holds"}))
                atom = int(rng.integers(self.ATOMS))
                bumped = [g + self.FAIL_BUMP * np.eye(d) if i == atom else g for i, g in enumerate(dual)]
                triples.append((key, pred.Predicate(space, bumped), {"verdict": "fails", "atom": f"a{atom}"}))
            self.cases.append(_DimCase(
                dim=d,
                kraus=kraus,
                weight=weight,
                mix_kraus=mix_kraus,
                want_super={
                    "cptp": inputs.kraus_super(kraus),
                    "mix": weight * inputs.transpose_super(d) + (1.0 - weight) * inputs.kraus_super(mix_kraus),
                },
                post=post,
                triples=triples,
                want_wp=want_wp,
                nonpos_super=inputs.nonpositive_super(d, self.NONPOS_EPS),
                positivity_seed=int(rng.integers(2**31)),
            ))
        self.chains = []
        for depth in self.chain_depths:
            ps = [float(p) for p in rng.uniform(0.05, 0.3, size=depth)]
            self.chains.append((ps, inputs.depolarizing_super(1.0 - float(np.prod([1.0 - p for p in ps])))))

    def _call(self, ctx, totals, metric, name, fn, check, repeats=1):
        """Time `repeats` calls in one speed window, add them to the round's totals, check each.

        Returns the last call's result.
        """
        outcomes = []
        with ctx.window() as w, ctx.span("op.library"):
            for _ in range(repeats):
                start = time.perf_counter()
                try:
                    outcomes.append((fn(), None))
                except Exception as exc:  # a raising call is a failed operation, not a benchmark crash
                    outcomes.append((None, [(CRASH, repr(exc))]))
                w.add(metric, time.perf_counter() - start)
        for key, raw, scaled in w.items():
            totals[key][0] += raw
            totals[key][1] += scaled
        for result, problems in outcomes:
            ctx.ledger.op("library", name, check(result) if problems is None else problems)
        return outcomes[-1][0]

    def run_round(self, ctx: Context) -> None:
        P, W = self.P, self.W
        totals = {metric: [0.0, 0.0] for metric in LIBRARY_METRICS}  # raw, scaled

        def call(metric, name, fn, check, repeats=1):
            return self._call(ctx, totals, metric, name, fn, check, repeats)

        for c in self.cases:
            d = c.dim
            reps = self.BUILD_REPEATS
            progs = {
                "cptp": call("library.build_s", f"from_kraus.d{d}", lambda: P.from_kraus(c.kraus),
                             lambda r: close("built superoperator", r.super, c.want_super["cptp"]), reps),
                "mix": call("library.build_s", f"transpose_mix.d{d}",
                            lambda: P.mix(c.weight, P.transpose_program(d), P.from_kraus(c.mix_kraus)),
                            lambda r: close("built superoperator", r.super, c.want_super["mix"]), reps),
            }
            nonpos = call("library.build_s", f"from_super.d{d}", lambda: P.from_super(c.nonpos_super),
                          lambda r: [] if r.dim == d else [(WRONG, f"dim {r.dim}")], reps)
            for key, prog in progs.items():
                call("library.wp_s", f"wp.{key}.d{d}", lambda: W.wp(prog, c.post),
                     lambda r: sum((close(f"wp effect a{i}", r.effect(f"a{i}"), want)
                                    for i, want in enumerate(c.want_wp[key])), []), self.WP_REPEATS)
            for key, pre, exp in c.triples:
                call("library.verify_s", f"verify.{key}.{exp['verdict']}.d{d}",
                     lambda: W.verify_triple(W.HoareTriple(pre, progs[key], c.post)),
                     lambda r: verdict_problems(_verdict_json(r), exp))
            for key, want in (("cptp", True), ("mix", False)):
                call("library.cp_check_s", f"is_completely_positive.{key}.d{d}",
                     lambda: P.is_completely_positive(progs[key]),
                     lambda r: [] if r is want else [(WRONG, f"CP verdict {r}, built {want}")])
            call("library.positivity_s", f"is_positive_sampled.mix.d{d}",
                 lambda: P.is_positive_sampled(progs["mix"], seed=c.positivity_seed),
                 lambda r: [] if r.status == "no_counterexample"
                 else [(WRONG, f"positive non-CP map audited as {r.status}")])
            call("library.positivity_s", f"is_positive_sampled.nonpos.d{d}",
                 lambda: P.is_positive_sampled(nonpos, seed=c.positivity_seed),
                 lambda r: _counterexample_problems(r, c.nonpos_super))
        for ps, want in self.chains:
            call("library.chain_s", f"depolarizing_chain.{len(ps)}", lambda: _chain(P, ps),
                 lambda r: close("chain superoperator", r.super, want))
        for metric, (raw, scaled) in totals.items():
            ctx.ledger.add(metric, raw, scaled)


def _chain(P, ps):
    prog = P.depolarizing(ps[0])
    for p in ps[1:]:
        prog = P.seq(prog, P.depolarizing(p))
    return prog


def _verdict_json(r) -> dict:
    wit = r.witness
    return {
        "verdict": r.verdict,
        "witness": None if wit is None else {"atom": wit.atom, "lhs": wit.lhs, "rhs": wit.rhs},
    }


def _counterexample_problems(verdict, super_matrix) -> list:
    if verdict.status != "counterexample" or verdict.witness is None:
        return [(WRONG, f"non-positive map audited as {verdict.status}")]
    psi = np.asarray(verdict.witness).reshape(-1)
    psi = psi / np.linalg.norm(psi)
    d = psi.size
    out = (super_matrix @ np.outer(psi, psi.conj()).reshape(-1, order="F")).reshape(d, d, order="F")
    lowest = float(np.linalg.eigvalsh((out + out.conj().T) / 2.0).min())
    return [] if lowest < -1e-9 else [(WRONG, f"witness output has min eigenvalue {lowest:.3e}")]


# ---------------------------------------------------------------------------
# cli_requests: one `qwp` child per request, closed loop
# ---------------------------------------------------------------------------

# A block is one pass over these slots: (command, dim). "super" validates a
# multi-MB superoperator-only document; "super_or_wp" does too, except in
# block 1, where it transforms one. So 6 of the 27 requests of a round are
# multi-MB, 5 of them alike. The tail metric reads the eleventh-slowest of
# two rounds' 54 requests: one of their 12 multi-MB requests, not a boundary
# between classes. "malformed" cycles through the documents the seed is known
# to mishandle.
MAIN_BLOCK = (
    ("validate_program", 4),
    ("validate_triple", 2),
    ("wp", 8),
    ("verify_holds", 3),
    ("verify_fails", 6),
    ("sat", 16),
    ("super", 16),
    ("super_or_wp", 16),
    ("malformed", 3),
)
PROBE_BLOCK = (
    ("validate_program", 4),
    ("wp", 4),
    ("verify_fails", 3),
    ("sat", 8),
    ("malformed", 3),
)
MALFORMED_KINDS = ("effects_list", "dim_inf", "depolarizing_without_p")


class CliFamily:
    """Seeded request mix over documents written at set-up.

    Every document stays small enough that qwp allocates nothing large: the
    largest is a d = 16 superoperator (about 2.6 MB of JSON). A named
    program with a large dim would make the seed allocate a d^2 x d^2 array
    of gigabytes before any check; that defect belongs to an input-boundary
    fuzzer, not to a timing workload.
    """

    def __init__(self, block, blocks):
        self.block = tuple(block)
        self.blocks = blocks
        self.requests: list[Request] = []

    def setup(self, workdir: str, seed: int) -> None:
        rng = np.random.default_rng([seed, 0xC11])
        order_rng = np.random.default_rng([seed, 0x0DE])
        self.requests = []
        for b in range(self.blocks):
            block = [self._request(workdir, rng, b, i, cmd, d) for i, (cmd, d) in enumerate(self.block)]
            self.requests += [block[i] for i in order_rng.permutation(len(block))]

    def run_round(self, ctx: Context) -> None:
        for req in self.requests:
            _cli_op(ctx, "cli", req, "cli.request_ms", unit=1e3)

    def _request(self, workdir, rng, b, i, cmd, d) -> Request:
        tag = f"b{b}s{i}.{cmd}.d{d}"
        seed = str(int(rng.integers(2**31)))

        def write(suffix, doc) -> str:
            name = f"{tag}.{suffix}.json"
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(doc if isinstance(doc, str) else json.dumps(doc))
            return name

        def program(count=3):
            kraus = inputs.isometry_kraus(rng, d, count)
            return kraus, inputs.kraus_doc(kraus, f"cptp{count}")

        def post(atoms=3):
            return inputs.effects(rng, d, atoms, 0.8)

        if cmd == "validate_program":
            _, doc = program()
            return Request(tag, ("validate", write("prog", doc), "--seed", seed), "validate_program",
                           {"cp": True, "positivity": "certified_cp"})
        if cmd in ("validate_triple", "verify_holds", "verify_fails"):
            kraus, prog = program()
            fs = post()
            dual = [inputs.dual_kraus(kraus, f) for f in fs]
            exp = {"verdict": "holds"}
            pre = [0.9 * g for g in dual]
            if cmd == "verify_fails":
                atom = int(rng.integers(len(fs)))
                pre = [g + 0.05 * np.eye(d) if k == atom else g for k, g in enumerate(dual)]
                exp = {"verdict": "fails", "atom": f"a{atom}", "status": 3}
            path = write("triple", {"pre": inputs.predicate_doc(pre), "prog": prog, "post": inputs.predicate_doc(fs)})
            if cmd == "validate_triple":
                return Request(tag, ("validate", path, "--seed", seed), "validate_triple", {})
            return Request(tag, ("verify", path, "--seed", seed), "verify", exp)
        if cmd == "wp":
            kraus, prog = program()
            fs = post()
            out = f"{tag}.out.json"
            return Request(tag, ("wp", write("prog", prog), write("post", inputs.predicate_doc(fs)), "--out", out,
                                 "--seed", seed), "wp",
                           {"out": out, "cp": True, "effects": [inputs.dual_kraus(kraus, f) for f in fs]})
        if cmd == "sat":
            rho = inputs.density(rng, d)
            fs = post()
            return Request(tag, ("sat", write("state", inputs.matrix_doc(rho)), write("post", inputs.predicate_doc(fs)),
                                 "--seed", seed), "sat",
                           {"atoms": [f"a{k}" for k in range(len(fs))],
                            "weights": [float(np.trace(rho @ f).real) for f in fs]})
        if cmd in ("super", "super_or_wp"):
            weight = float(rng.uniform(0.2, 0.8))
            kraus = inputs.isometry_kraus(rng, d, 2)
            s = weight * inputs.transpose_super(d) + (1.0 - weight) * inputs.kraus_super(kraus)
            path = write("prog", inputs.super_doc(s, d, "transpose_mix"))
            if cmd == "super" or b != 1:
                return Request(tag, ("validate", path, "--seed", seed), "validate_program",
                               {"cp": False, "positivity": "no_counterexample"})
            fs = post()
            out = f"{tag}.out.json"
            return Request(tag, ("wp", path, write("post", inputs.predicate_doc(fs)), "--out", out, "--seed", seed),
                           "wp", {"out": out, "cp": False,
                                  "effects": [inputs.dual_transpose_mix(weight, kraus, f) for f in fs]})
        if cmd == "malformed":
            kind = MALFORMED_KINDS[b % len(MALFORMED_KINDS)]
            tag = f"{tag}.{kind}"
            if kind == "effects_list":
                doc = inputs.predicate_doc(post(2))
                doc["effects"] = list(doc["effects"].values())
            elif kind == "dim_inf":
                _, prog = program()
                doc = json.dumps(dict(prog, dim="@DIM@")).replace('"@DIM@"', "1e400")
            else:
                doc = {"dim": 2, "repr": "named", "payload": {"name": "depolarizing"}, "label": "depolarizing"}
            return Request(tag, ("validate", write("doc", doc), "--seed", seed), "malformed", {"kind": kind})
        raise ValueError(f"unknown slot {cmd!r}")
