"""Known-answer checks and the ledger that counts operations.

A check returns a list of problems, each tagged "crash" (an exit status
outside the 0/1/2/3 contract or a traceback) or "wrong" (an answer that
contradicts the known one, or report bytes that changed between identical
requests). Every problem makes its operation count as failed; only "wrong"
ones make the run incorrect, so a traceback on a malformed document is
counted, not hidden, without being mistaken for a wrong answer.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from execute import Outcome, report_hash

EXIT_CONTRACT = (0, 1, 2, 3)
ANSWER_TOL = 1e-9  # qwp's default residual_tol
MAX_KEPT_PROBLEMS = 40

CRASH = "crash"
WRONG = "wrong"


@dataclass
class Ledger:
    """Timing samples, operation counts and report hashes of one run."""

    samples: dict = field(default_factory=lambda: defaultdict(list))  # scaled by machine speed
    raw: dict = field(default_factory=lambda: defaultdict(list))  # wall time as measured
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    wrong: int = 0
    problems: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)
    first_round_hashes: dict = field(default_factory=dict)  # the requests every run with the seed makes
    round: int = 0  # rounds finished; the round loops advance it

    def add(self, key: str, raw: float, scaled: float) -> None:
        self.raw[key].append(raw)
        self.samples[key].append(scaled)

    def op(self, family: str, name: str, problems) -> None:
        self.attempted[family] += 1
        if not problems:
            return
        self.failed[family] += 1
        self.wrong += any(kind == WRONG for kind, _ in problems)
        for kind, msg in problems:
            if len(self.problems) < MAX_KEPT_PROBLEMS:
                self.problems.append(f"{kind}: {name}: {msg}")

    def same_report(self, rid: str, stdout: str) -> list:
        digest = report_hash(stdout)
        if self.round == 0:
            self.first_round_hashes[rid] = digest
        if self.hashes.setdefault(rid, digest) != digest:
            return [(WRONG, "report bytes differ from an identical earlier request")]
        return []


def close(name: str, got, want, tol: float = ANSWER_TOL) -> list:
    gap = float(np.abs(np.asarray(got) - np.asarray(want)).max())
    return [] if gap <= tol else [(WRONG, f"{name} off by {gap:.3e}")]


def matrix_from_doc(doc) -> np.ndarray:
    return np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)


@dataclass(frozen=True)
class Request:
    """One CLI invocation with its known answer.

    kind selects the check: validate_program, validate_triple, wp, verify,
    sat, malformed or properties. expect holds what the check needs.
    """

    rid: str
    args: tuple
    kind: str
    expect: dict


def _contract(outcome: Outcome) -> list:
    problems = []
    if outcome.code not in EXIT_CONTRACT:
        problems.append((CRASH, f"exit status {outcome.code} outside the 0/1/2/3 contract"))
    if "Traceback" in outcome.stderr:
        last = outcome.stderr.strip().splitlines()[-1] if outcome.stderr.strip() else ""
        problems.append((CRASH, f"traceback on stderr ({last[:120]})"))
    return problems


def _status(outcome: Outcome, want: int) -> list:
    return [] if outcome.code == want else [(WRONG, f"exit status {outcome.code}, expected {want}")]


def _report(outcome: Outcome):
    try:
        return json.loads(outcome.stdout)
    except ValueError:
        return None


def check_request(req: Request, outcome: Outcome, workdir: str) -> list:
    problems = _contract(outcome)
    exp = req.expect
    if req.kind == "malformed":
        if outcome.code not in (1, 2):
            problems.append((WRONG, f"malformed document accepted with status {outcome.code}"))
        return problems
    want_status = exp.get("status", 0)
    problems += _status(outcome, want_status)
    rep = _report(outcome)
    if rep is None:
        return problems + [(WRONG, "stdout is not a JSON report")]

    if req.kind == "validate_program":
        prog = rep.get("program") or {}
        if rep.get("ok") is not True or rep.get("kind") != "program":
            problems.append((WRONG, f"validate said ok={rep.get('ok')} kind={rep.get('kind')}"))
        if prog.get("trace_preserving") is not True:
            problems.append((WRONG, "trace-preserving program reported as not trace preserving"))
        if prog.get("completely_positive") != exp["cp"]:
            problems.append((WRONG, f"completely_positive={prog.get('completely_positive')}, built {exp['cp']}"))
        if prog.get("positivity") != exp["positivity"]:
            problems.append((WRONG, f"positivity={prog.get('positivity')}, expected {exp['positivity']}"))
    elif req.kind == "validate_triple":
        if rep.get("ok") is not True or rep.get("kind") != "triple":
            problems.append((WRONG, f"validate said ok={rep.get('ok')} kind={rep.get('kind')}"))
    elif req.kind == "wp":
        try:
            with open(os.path.join(workdir, exp["out"]), encoding="utf-8") as fh:
                doc = json.load(fh)
            atoms = [f"a{i}" for i in range(len(exp["effects"]))]
            if doc["atoms"] != atoms:
                problems.append((WRONG, f"transformed predicate has atoms {doc['atoms']}, expected {atoms}"))
            else:
                for atom, want in zip(atoms, exp["effects"]):
                    problems += close(f"wp effect {atom}", matrix_from_doc(doc["effects"][atom]), want)
        except (OSError, ValueError, KeyError) as exc:
            problems.append((WRONG, f"cannot read the transformed predicate: {exc!r}"))
        if (rep.get("program") or {}).get("completely_positive") != exp["cp"]:
            problems.append((WRONG, "wp report misstates complete positivity"))
    elif req.kind == "verify":
        problems += verdict_problems((rep.get("verification") or {}), exp)
    elif req.kind == "sat":
        weights = (rep.get("result") or {}).get("weights") or {}
        got = [weights.get(a, np.nan) for a in exp["atoms"]]
        problems += close("sat weights", got, exp["weights"])
    elif req.kind == "properties":
        problems += campaign_problems(rep, exp)
    else:
        raise ValueError(f"unknown request kind {req.kind!r}")
    return problems


def verdict_problems(ver: dict, exp: dict) -> list:
    """Verdict as built (holds or fails); a failure carries a witness with lhs > rhs."""
    if ver.get("verdict") != exp["verdict"]:
        return [(WRONG, f"verdict {ver.get('verdict')!r}, triple built to {exp['verdict']!r}")]
    wit = ver.get("witness")
    if exp["verdict"] == "holds":
        return [] if wit is None else [(WRONG, "holding triple carries a witness")]
    if not wit or not wit["lhs"] > wit["rhs"]:
        return [(WRONG, f"failing triple lacks a witness with lhs > rhs: {wit and (wit['lhs'], wit['rhs'])}")]
    if wit.get("atom") != exp["atom"]:
        return [(WRONG, f"witness on atom {wit.get('atom')!r}, violated atom is {exp['atom']!r}")]
    return []


def campaign_problems(rep: dict, exp: dict) -> list:
    camps = rep.get("campaigns") or []
    if rep.get("status") != 0 or len(camps) != 1:
        return [(WRONG, f"report status {rep.get('status')} with {len(camps)} campaigns")]
    c = camps[0]
    problems = []
    if c.get("suite") != exp["suite"] or c.get("passed") is not True:
        problems.append((WRONG, f"campaign {c.get('suite')} passed={c.get('passed')} failures={c.get('failures')}"))
    if c.get("trials") != exp["trials"]:
        problems.append((WRONG, f"{c.get('trials')} trials, expected exactly {exp['trials']}"))
    return problems
