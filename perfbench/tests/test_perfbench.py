"""Tests of the benchmark itself: smoke runs, known-answer checks, tracer restore.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import execute
import inputs
import run
import spans
import speed
from checks import CRASH, WRONG, Ledger, Request, check_request
from execute import Outcome, report_hash
from families import _counterexample_problems

ROOT = Path(run.__file__).resolve().parent.parent


def kinds(problems):
    return sorted({kind for kind, _ in problems})


# ---------------------------------------------------------------------------
# smoke runs at tiny size
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_timed_run_reports_every_end_to_end_metric(workload):
    detail = run.run(workload, seed=5, seconds=0, trace=False, tiny=True)
    result = detail["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"] == {
        name: {"value": result["metrics"][name]["value"], "unit": unit} for name, unit in run.E2E
    }
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if k != "ops_failed_share")
    assert result["correct"] is True and detail["wrong_answers"] == 0
    assert result["attempted"] >= 1
    # a failure may only be a crash on a malformed document, never a wrong answer
    assert all(p.startswith("crash: ") and ".malformed." in p for p in detail["problems"])
    assert result["failed"] == len(detail["problems"])
    assert detail["metrics"]["ops_failed_share"]["attempted"] == result["attempted"]
    assert detail["environment"]["seed"] == 5
    assert not (ROOT / ".bench_work" / f"{workload}-s5").exists()


def test_tiny_traced_runs_repeat_their_counts():
    first = run.run("large_dim", seed=9, seconds=0, trace=True, tiny=True)["result"]["metrics"]
    second = run.run("large_dim", seed=9, seconds=0, trace=True, tiny=True)["result"]["metrics"]
    assert list(first) == [name for name, _ in spans.PER_LAYER]
    counted = [n for n, unit in spans.PER_LAYER if unit in ("count", "B") and n != "trace.spans"]
    assert {n: first[n]["value"] for n in counted} == {n: second[n]["value"] for n in counted}
    for module in ("cli", "serialize", "campaigns", "wp", "predicates", "programs", "linalg"):
        assert any(n.startswith(module + ".") and first[n]["value"] > 0 for n in first), module
    assert first["campaigns.trials"]["value"] == sum(n * len(d.split(",")) for _, d, n in run.SIZES["tiny"]["campaigns"])


def test_same_seed_gives_same_report_hashes():
    a = run.run("cli_requests", seed=4, seconds=0, trace=False, tiny=True)
    b = run.run("cli_requests", seed=4, seconds=0, trace=False, tiny=True)
    assert a["report_hashes"] == b["report_hashes"] and a["report_digest"] == b["report_digest"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)


def test_refuses_to_run_without_qwp_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaigns", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# ---------------------------------------------------------------------------
# known-answer checks
# ---------------------------------------------------------------------------


def report(**payload):
    return json.dumps({"timestamp": "2026-01-01T00:00:00+00:00", **payload}, indent=2, sort_keys=True) + "\n"


def ok(stdout, code=0):
    return Outcome(code, stdout, "", 0.1)


def test_exit_contract_and_tracebacks_are_crashes():
    req = Request("r", (), "malformed", {})
    assert check_request(req, Outcome(1, "", "bad input\n", 0.1), ".") == []
    assert check_request(req, Outcome(2, "", "'p'\n", 0.1), ".") == []
    tb = "Traceback (most recent call last):\n  ...\nAttributeError: boom\n"
    assert kinds(check_request(req, Outcome(1, "", tb, 0.1), ".")) == [CRASH]
    assert kinds(check_request(req, Outcome(0, report(status=0), "", 0.1), ".")) == [WRONG]
    assert CRASH in kinds(check_request(req, Outcome(-9, "", "", 0.1), "."))


def test_validate_program_check():
    req = Request("r", (), "validate_program", {"cp": False, "positivity": "no_counterexample"})
    good = {"ok": True, "kind": "program", "program": {
        "trace_preserving": True, "completely_positive": False, "positivity": "no_counterexample"}}
    assert check_request(req, ok(report(**good)), ".") == []
    bad = dict(good, program=dict(good["program"], completely_positive=True))
    assert kinds(check_request(req, ok(report(**bad)), ".")) == [WRONG]
    assert kinds(check_request(req, ok(report(**good), code=2), ".")) == [WRONG]


def test_validate_triple_check():
    req = Request("r", (), "validate_triple", {})
    assert check_request(req, ok(report(ok=True, kind="triple")), ".") == []
    assert kinds(check_request(req, ok(report(ok=False, kind="triple")), ".")) == [WRONG]


def test_wp_check_compares_with_the_kraus_sum(tmp_path):
    rng = np.random.default_rng(1)
    kraus = inputs.isometry_kraus(rng, 3, 2)
    fs = inputs.effects(rng, 3, 2, 0.8)
    want = [inputs.dual_kraus(kraus, f) for f in fs]
    req = Request("r", (), "wp", {"out": "o.json", "cp": True, "effects": want})
    rep = report(program={"completely_positive": True})
    (tmp_path / "o.json").write_text(json.dumps(inputs.predicate_doc(want)))
    assert check_request(req, ok(rep), str(tmp_path)) == []
    (tmp_path / "o.json").write_text(json.dumps(inputs.predicate_doc([w + 1e-6 for w in want])))
    assert kinds(check_request(req, ok(rep), str(tmp_path))) == [WRONG]
    # a missing atom is wrong, not skipped
    (tmp_path / "o.json").write_text(json.dumps(inputs.predicate_doc(want[:1])))
    assert kinds(check_request(req, ok(rep), str(tmp_path))) == [WRONG]


def test_verify_check():
    fails = Request("r", (), "verify", {"verdict": "fails", "atom": "a1", "status": 3})
    wit = {"atom": "a1", "lhs": 0.4, "rhs": 0.3}
    assert check_request(fails, ok(report(verification={"verdict": "fails", "witness": wit}), 3), ".") == []
    flat = dict(wit, lhs=0.3)
    assert kinds(check_request(fails, ok(report(verification={"verdict": "fails", "witness": flat}), 3), ".")) == [WRONG]
    assert kinds(check_request(fails, ok(report(verification={"verdict": "holds", "witness": None}), 0), ".")) == [WRONG]
    holds = Request("r", (), "verify", {"verdict": "holds"})
    assert check_request(holds, ok(report(verification={"verdict": "holds", "witness": None})), ".") == []


def test_sat_check():
    rng = np.random.default_rng(2)
    rho = inputs.density(rng, 4)
    fs = inputs.effects(rng, 4, 3, 0.8)
    weights = [float(np.trace(rho @ f).real) for f in fs]
    req = Request("r", (), "sat", {"atoms": ["a0", "a1", "a2"], "weights": weights})
    good = {"a0": weights[0], "a1": weights[1], "a2": weights[2]}
    assert check_request(req, ok(report(result={"weights": good})), ".") == []
    assert kinds(check_request(req, ok(report(result={"weights": dict(good, a2=weights[2] + 1e-6)})), ".")) == [WRONG]


def test_properties_check_wants_exact_trials():
    req = Request("r", (), "properties", {"suite": "orders", "trials": 30})
    camp = {"suite": "orders", "passed": True, "failures": 0, "trials": 30}
    assert check_request(req, ok(report(status=0, campaigns=[camp])), ".") == []
    assert kinds(check_request(req, ok(report(status=0, campaigns=[dict(camp, trials=29)])), ".")) == [WRONG]
    assert kinds(check_request(req, ok(report(status=3, campaigns=[dict(camp, passed=False)]), 3), ".")) == [WRONG]


def test_counterexample_check_recomputes_the_witness_output():
    s = inputs.nonpositive_super(3, 0.5)

    class Verdict:
        status = "counterexample"
        witness = np.array([1.0, 0.0, 0.0], dtype=complex)

    assert _counterexample_problems(Verdict, s) == []
    assert kinds(_counterexample_problems(Verdict, np.eye(9))) == [WRONG]  # the identity keeps it PSD
    Verdict.status = "no_counterexample"
    assert kinds(_counterexample_problems(Verdict, s)) == [WRONG]


def test_ledger_flags_changed_report_bytes():
    ledger = Ledger()
    assert ledger.same_report("r", report(x=1)) == []
    assert ledger.same_report("r", report(x=1).replace("2026-01-01", "2027-02-02")) == []
    assert kinds(ledger.same_report("r", report(x=2))) == [WRONG]


def test_digest_hashes_cover_the_first_round_only():
    ledger = Ledger()
    ledger.same_report("a", report(x=1))
    ledger.round = 1
    ledger.same_report("b", report(x=2))
    assert ledger.first_round_hashes == {"a": report_hash(report(x=1))}
    assert set(ledger.hashes) == {"a", "b"}


def test_report_hash_ignores_only_the_timestamp():
    a = report(x=1)
    assert report_hash(a) == report_hash(a.replace("2026", "2030"))
    assert report_hash(a) != report_hash(report(x=2))


def test_reference_math():
    rng = np.random.default_rng(3)
    d = 4
    kraus = inputs.isometry_kraus(rng, d, 3)
    rho = inputs.density(rng, d)
    f = inputs.effects(rng, d, 2, 1.0)[0]
    vec = lambda m: m.reshape(-1, order="F")  # noqa: E731
    out = (inputs.kraus_super(kraus) @ vec(rho)).reshape(d, d, order="F")
    assert np.isclose(np.trace(inputs.dual_kraus(kraus, f) @ rho), np.trace(f @ out))
    assert np.allclose(inputs.transpose_super(d) @ vec(rho), vec(rho.T))
    assert np.allclose(sum(inputs.effects(rng, d, 3, 1.0)), np.eye(d))
    s = inputs.nonpositive_super(d, 0.5)
    assert np.allclose(vec(np.eye(d)) @ s, vec(np.eye(d)))  # trace preserving
    e0 = np.zeros((d, d))
    e0[0, 0] = 1.0
    assert np.linalg.eigvalsh((s @ vec(e0)).reshape(d, d, order="F")).min() < -0.1
    two = inputs.depolarizing_super(0.2) @ inputs.depolarizing_super(0.3)
    assert np.allclose(two, inputs.depolarizing_super(1.0 - 0.8 * 0.7))


def test_tail_needs_ten_samples_beyond():
    values = list(range(48))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 79
    assert run.tail(list(range(12))) == (5, 50)


def test_tail_reads_one_percentile_whatever_the_round_count():
    rounds = [[100.0 * r + i for i in range(27)] for r in range(4)]  # each round slower than the last
    for n in (2, 3, 4):
        value, pct = run.paired_tail(sum(rounds[:n], []), n)
        pair_tails = [run.tail(rounds[i] + rounds[i + 1])[0] for i in range(n - 1)]
        assert pct == 81 and value == statistics.median(pair_tails)
    assert run.paired_tail(rounds[0], 1) == run.tail(rounds[0])


def test_speed_window_scales_by_the_surrounding_references(monkeypatch):
    probe = speed.Speed()
    times = iter([0.04, 0.02, 0.01])

    def fake_reference():
        probe.samples.append(next(times))
        probe._last_end = speed.time.perf_counter()
        return probe.samples[-1]

    monkeypatch.setattr(probe, "reference", fake_reference)
    with probe.window() as w:
        w.add("x", 3.0)
    assert w.items() == [("x", 3.0, pytest.approx(3.0 * speed.REFERENCE_S / 0.03))]
    with probe.window() as w:  # starts from the previous window's closing reference
        w.add("x", 3.0)
    assert w.scale == pytest.approx(speed.REFERENCE_S / 0.015)


def test_sampled_window_scales_by_the_samples_inside_it(monkeypatch):
    probe = speed.Speed()
    samples = iter([0.010, 0.020, 0.030])
    monkeypatch.setattr(probe, "sample", lambda: next(samples))
    monkeypatch.setattr(probe, "reference", lambda: pytest.fail("a sampled window takes no reference"))
    with probe.window(sampled=True) as w:
        w.tick()
        w.tick()
        w.add("x", 2.0)
    assert w.items() == [("x", 2.0, pytest.approx(2.0 * speed.SAMPLE_S / 0.015))]
    with probe.window(sampled=True) as w:  # a window the child left without a tick takes one at the end
        pass
    assert w.samples == [0.030]


def test_child_ticks_are_taken_off_its_time():
    ticks = []

    def tick():
        ticks.append(time.process_time())
        while time.process_time() - ticks[-1] < 0.05:
            pass

    env = execute.child_env(str(ROOT / "src"))
    start = time.perf_counter()
    outcome = execute.run_child(("--help",), str(ROOT), env, tick)
    wall = time.perf_counter() - start
    assert outcome.code == 0 and "properties" in outcome.stdout
    assert ticks and 0 < outcome.seconds <= wall - 0.05 * len(ticks)
    plain = execute.run_child(("--help",), str(ROOT), env)
    assert plain.code == 0 and plain.stdout == outcome.stdout


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def _qwp_holders():
    import qwp.cli  # noqa: F401

    for name, mod in sorted(sys.modules.items()):
        if name == "qwp" or name.startswith("qwp."):
            yield name, mod


def _snapshot():
    snap = {}
    for name, mod in _qwp_holders():
        for key, value in vars(mod).items():
            snap[(name, key)] = value
            if isinstance(value, dict) and not key.startswith("__"):
                for dkey, dvalue in value.items():
                    snap[(name, key, dkey)] = dvalue
    for cname, cmd in sys.modules["qwp.cli"].main.commands.items():
        snap[("command", cname)] = cmd.callback
    return snap


def test_tracer_wraps_every_holder_and_restores_all():
    before = _snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _snapshot()
        wrapped = {k for k, v in during.items() if hasattr(v, spans.WRAPPED_MARK)}
        assert ("qwp.wp", "wp") in wrapped and ("qwp", "wp") in wrapped
        assert ("qwp.cli", "wp_transform") in wrapped
        assert ("qwp.campaigns", "SUITES", "weakest") in wrapped
        assert ("qwp.wp", "random_density") in wrapped and ("qwp.linalg", "_SAMPLERS", "density") in wrapped
        assert ("command", "properties") in wrapped
        for mod_name, attr, _ in spans.FUNCTION_SPANS:
            assert (mod_name, attr) in wrapped
    finally:
        tracer.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(v, spans.WRAPPED_MARK) for v in after.values())


def test_self_time_subtracts_children(monkeypatch):
    clock = iter([0.0, 2.0, 5.0, 6.0, 7.0, 10.0])
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(clock))
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    calls, self_s, _ = tracer.aggregate()
    assert calls == {"outer": 1, "inner": 2}
    assert self_s["inner"] == pytest.approx(3.0 + 1.0)
    assert self_s["outer"] == pytest.approx(10.0 - 4.0)
