"""qwp benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {campaigns,large_dim,cli_requests} \
        --seed N --seconds S --trace {0,1}

Run from the root of a qwp checkout; qwp is imported from its `src/` and
run as `qwp` child processes on the same sources. The last stdout line is
the result {"correct", "attempted", "failed", "metrics"}; the line before it
holds the detail: environment, sample counts, operation counts per family,
report hashes and the first failures. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread for the benchmark and every child it starts, all pinned to
# one CPU (speed.pin_to_one_cpu): the machines this runs on are small and
# shared, and a second CPU or BLAS thread only adds noise. This departs from
# how a user runs qwp, so a gain from a second core or from BLAS threads does
# not show here; perfbench/README.md gives the measured difference.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

E2E = (
    ("setup_s", "s"),
    ("properties.duality_s", "s"),
    ("properties.weakest_s", "s"),
    ("properties.compose_s", "s"),
    ("properties.orders_s", "s"),
    ("library.build_s", "s"),
    ("library.wp_s", "s"),
    ("library.verify_s", "s"),
    ("library.cp_check_s", "s"),
    ("library.positivity_s", "s"),
    ("library.chain_s", "s"),
    ("cli.request_p50_ms", "ms"),
    ("cli.request_tail_ms", "ms"),
    ("cli.requests_per_s", "1/s"),
    ("ops_failed_share", "ratio"),
)
SUITES = ("duality", "weakest", "compose", "orders")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5

# Sizes of each family, full (the workload's own load) and probe (the small
# pass it adds to the other workloads). `weakest` spends samples in chunks of
# 250 per (program, predicate) pair and cycles cptp, unitary, transpose,
# transpose_mix: 760 samples reach all four kinds, on one dim to stay short.
SIZES = {
    "full": {
        "campaigns": (("duality", "2,3,4,5,6", 150), ("weakest", "2", 760), ("compose", "2,3,4,5,6", 120),
                      ("orders", "2,3,4,5,6", 60)),
        "large_dim": {"dims": (8, 16, 32), "chain_depths": (4, 5, 6, 7, 8)},
        "cli_requests": {"block": "main", "blocks": 3},
    },
    "probe": {
        "campaigns": (("duality", "2,3", 20), ("weakest", "2", 20), ("compose", "2,3", 20), ("orders", "2,3", 10)),
        "large_dim": {"dims": (8, 16), "chain_depths": (4, 5, 6)},
        "cli_requests": {"block": "probe", "blocks": 1},
    },
    # for the benchmark's own tests
    "tiny": {
        "campaigns": (("duality", "2", 3), ("weakest", "2", 3), ("compose", "2", 3), ("orders", "2", 2)),
        "large_dim": {"dims": (3, 4), "chain_depths": (2, 3)},
        "cli_requests": {"block": "probe", "blocks": 1},
    },
}
WORKLOADS = ("campaigns", "large_dim", "cli_requests")


def make_family(kind: str, size: str):
    import families

    spec = SIZES[size][kind]
    if kind == "campaigns":
        return families.CampaignsFamily(spec)
    if kind == "large_dim":
        return families.LibraryFamily(spec["dims"], spec["chain_depths"])
    if spec["block"] == "main":
        return families.CliFamily(families.MAIN_BLOCK, spec["blocks"])
    return families.CliFamily(families.PROBE_BLOCK, spec["blocks"])


def workload_families(workload: str, tiny: bool = False) -> list:
    """The workload's own family at full size first, then the others as probes."""
    others = [w for w in WORKLOADS if w != workload]
    return [make_family(workload, "tiny" if tiny else "full")] + [
        make_family(w, "tiny" if tiny else "probe") for w in others
    ]


def git_commit(root: Path):
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import qwp

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": BLAS_THREADS},
        "qwp": qwp.__version__,
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


def setup(fams, workdir: Path, seed: int, env: dict) -> float:
    """Generate inputs, import qwp afresh, warm up a child and the library; return seconds."""
    from execute import run_child

    # drop qwp from the module cache so that every set-up pays for importing it
    for name in [n for n in sys.modules if n == "qwp" or n.startswith("qwp.")]:
        del sys.modules[name]
    start = time.perf_counter()
    workdir.mkdir(parents=True, exist_ok=True)
    importlib.import_module("qwp.cli")
    for fam in fams:
        fam.setup(str(workdir), seed)
    warm = workdir / "warm.json"
    warm.write_text(json.dumps({"dim": 2, "repr": "named", "payload": {"name": "identity"}}))
    outcome = run_child(("validate", warm.name), str(workdir), env)
    if outcome.code != 0:
        raise RuntimeError(f"qwp warm-up request failed with status {outcome.code}: {outcome.stderr[-400:]}")
    programs = importlib.import_module("qwp.programs")
    programs.is_positive_sampled(programs.identity_program(2))
    return time.perf_counter() - start


def run_rounds(fams, ctx, seconds: float) -> tuple[int, float]:
    """Whole rounds while the next one is expected to end within `seconds`; at least one."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        for fam in fams:
            fam.run_round(ctx)
        ctx.ledger.round += 1
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.mean(durations) > seconds:
            return len(durations), elapsed


def tail(values):
    """Highest percentile with at least ten samples beyond it (the median below 21 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    idx = max(n - 11, (n - 1) // 2)
    return ordered[idx], math.floor(100.0 * (idx + 1) / n)


def paired_tail(values, rounds: int):
    """`tail` of every two consecutive rounds' samples, and the median over the pairs.

    Each pair holds the same number of samples, so the percentile read does not
    move with the number of rounds that fit in the run (over all samples, a
    faster qwp would fit more rounds and read a higher percentile). One round:
    its own tail. Returns (value, percentile).
    """
    per = len(values) // rounds
    tails = [tail(values[i * per:(i + 2) * per]) for i in range(rounds - 1)] or [tail(values)]
    return statistics.median(t for t, _ in tails), tails[0][1]


def e2e_metrics(ledger, rounds: int) -> dict:
    """Every end-to-end metric with its unit and sample count; the medians of raw wall time beside."""
    from families import LIBRARY_METRICS

    med = statistics.median
    s, raw = ledger.samples, ledger.raw
    out = {}
    for name in ("setup_s", *(f"properties.{x}_s" for x in SUITES), *LIBRARY_METRICS):
        out[name] = {"value": med(s[name]), "samples": len(s[name]), "wall_median": med(raw[name])}
    lat, lat_raw = s["cli.request_ms"], raw["cli.request_ms"]
    tail_ms, pct = paired_tail(lat, rounds)
    out["cli.request_p50_ms"] = {"value": med(lat), "samples": len(lat), "wall_median": med(lat_raw)}
    out["cli.request_tail_ms"] = {"value": tail_ms, "samples": len(lat), "percentile": pct,
                                  "pairs_of_rounds": max(1, rounds - 1),
                                  "wall_value": paired_tail(lat_raw, rounds)[0]}
    out["cli.requests_per_s"] = {"value": len(lat) / (sum(lat) / 1e3), "samples": len(lat),
                                 "wall_value": len(lat) / (sum(lat_raw) / 1e3)}
    attempted, failed = sum(ledger.attempted.values()), sum(ledger.failed.values())
    out["ops_failed_share"] = {"value": failed / attempted, "failed": failed, "attempted": attempted}
    return {name: {"unit": unit, **out[name]} for name, unit in E2E}


def import_times(env: dict) -> tuple[float, float]:
    """Median bare interpreter start, and median `import qwp.cli` on top of it."""
    def med_run(code):
        times = []
        for _ in range(IMPORT_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=str(ROOT), check=True,
                           capture_output=True, timeout=60)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    bare = med_run("pass")
    return bare, med_run("import qwp.cli") - bare


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, measure and check one workload; return the detail dict with the result in it."""
    import spans
    from checks import Ledger
    from execute import child_env, run_child
    from families import Context
    from speed import REFERENCE_S, SAMPLE_S, Speed, unscaled_window

    env = child_env(str(SRC))
    workdir = ROOT / ".bench_work" / f"{workload}-s{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    fams = workload_families(workload, tiny)
    ledger = Ledger()
    speed = None if trace else Speed()
    window = unscaled_window if trace else speed.window
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            with window() as w:
                w.add("setup_s", setup(fams, workdir, seed, env))
            ledger.add(*w.items()[0])
        if trace:
            rounds, measured, metrics = traced(fams, workdir, ledger, env, f"{workload}-s{seed}")
            units = spans.PER_LAYER
        else:
            ctx = Context(str(workdir), ledger, lambda args, tick: run_child(args, str(workdir), env, tick),
                              window=window)
            rounds, measured = run_rounds(fams, ctx, seconds)
            metrics = e2e_metrics(ledger, rounds)
            units = E2E
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(seed),
        "rounds": rounds,
        "measured_s": measured,
        "speed_reference": None if trace else {
            "reference_s": REFERENCE_S,
            "samples": len(speed.samples),
            "median_s": statistics.median(speed.samples),
            "sample_s": SAMPLE_S,
            "sampled_windows": len(speed.window_samples),
            "window_sample_median_s": statistics.median(speed.window_samples) if speed.window_samples else None,
        },
        "metrics": metrics,
        "ops": {fam: {"attempted": ledger.attempted[fam], "failed": ledger.failed[fam]} for fam in ledger.attempted},
        "wrong_answers": ledger.wrong,
        "problems": ledger.problems,
        "report_digest": hashlib.sha256(json.dumps(sorted(ledger.first_round_hashes.items())).encode()).hexdigest(),
        "report_hashes": dict(sorted(ledger.hashes.items())),
        "result": {
            "correct": ledger.wrong == 0,
            "attempted": sum(ledger.attempted.values()),
            "failed": sum(ledger.failed.values()),
            "metrics": {name: {"value": metrics[name]["value"], "unit": unit} for name, unit in units},
        },
    }


def traced(fams, workdir: Path, ledger, env: dict, tag: str):
    """In-process rounds: warm-up, untraced, traced, untraced; per-layer metrics from the traced one.

    The warm-up takes the first pass's one-time costs; `trace.overhead_s` is
    the traced time minus the mean of the two untraced rounds around it.
    """
    import spans
    from execute import run_inprocess
    from families import Context

    def one_round(span=None):
        ctx = Context(str(workdir), ledger, lambda args, tick: run_inprocess(args, str(workdir)))
        if span is not None:
            ctx.span = span
        t0 = time.perf_counter()
        for fam in fams:
            fam.run_round(ctx)
        ledger.round += 1
        return time.perf_counter() - t0

    warm_up_s = one_round()
    before_s = one_round()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_s = one_round(tracer.span)
    finally:
        tracer.restore()
    after_s = one_round()
    untraced_s = (before_s + after_s) / 2.0
    values = spans.layer_values(tracer)
    values["trace.overhead_s"] = traced_s - untraced_s
    values["import.interpreter_s"], values["import.qwp_cli_s"] = import_times(env)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(str(out_dir / f"spans-{tag}.tsv.gz"))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.PER_LAYER}
    metrics["trace.overhead_s"].update({"untraced_s": [before_s, after_s], "traced_s": traced_s})
    return 4, warm_up_s + before_s + traced_s + after_s, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qwp" / "cli.py").is_file():
        print(f"error: no qwp sources under {SRC}; run from the root of a qwp checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from speed import pin_to_one_cpu

    cpu = pin_to_one_cpu()
    detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = detail.pop("result")
    detail["environment"]["pinned_cpu"] = cpu
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
