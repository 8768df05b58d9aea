"""Command-line front end: validate, wp, verify, sat, properties.

Exit status contract:
  0 success / verdict holds
  1 parse or IO error
  2 semantic error (invalid content, dimension or space mismatch)
  3 verification failure / property-campaign failure

Every report embeds the seed and the tolerances it was produced with, so a
verdict is replayable from its report alone. Identical invocations produce
byte-identical reports except for the timestamp field. Nothing is written to
the error stream on success.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from datetime import datetime, timezone

import click

from .campaigns import SUITES, run_suite
from .errors import QwpError, ValidationError
from .linalg import DEFAULT_TOL, ToleranceConfig
from .predicates import _require_valid, is_complete, sat as sat_measure, validate_predicate
from .programs import is_positive_sampled, is_trace_preserving
from .serialize import (
    campaign_result_to_json,
    predicate_from_json,
    predicate_to_json,
    program_from_json,
    sat_to_json,
    state_from_json,
    tolerances_to_json,
    triple_from_json,
    validation_report_to_json,
    verification_report_to_json,
)
from .wp import RESIDUAL_SAMPLE_STATES, _residual_sweep, verify_triple, wp as wp_transform

MAX_DIM = 6

_SEMANTIC_ERRORS = (QwpError, ValueError)


def _die(status: int, message: str) -> None:
    click.echo(message, err=True)
    sys.exit(status)


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        _die(1, f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:
        # an integer past Python's digit limit, or nesting past the recursion limit
        _die(1, f"{path}: JSON parse error: {exc}")
    except OSError as exc:
        _die(1, f"{path}: {exc.strerror or exc}")


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(path: str, obj) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_dump(obj))
    except OSError as exc:
        _die(1, f"{path}: {exc.strerror or exc}")


def _report(command: str, inputs, seed: int, tol: ToleranceConfig, status: int, out=None, **payload):
    # manifest fields first (command, inputs, out, seed, tolerances), then the
    # command payload; the seed is recorded even when defaulted
    rep = {
        "command": command,
        "inputs": list(inputs),
        "out": out,
        "seed": seed,
        "tolerances": tolerances_to_json(tol),
        "status": status,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    rep.update(payload)
    return rep


def _finish(report: dict, out: str | None = None) -> None:
    if out is not None:
        _write(out, report)
    click.echo(_dump(report), nl=False)
    sys.exit(report["status"])


def _make_tol(eig_tol, residual_tol, samples) -> ToleranceConfig:
    """DEFAULT_TOL with each option that was given in place of its field."""
    given = {"eig_tol": eig_tol, "residual_tol": residual_tol, "sample_count": samples}
    try:
        return replace(DEFAULT_TOL, **{k: v for k, v in given.items() if v is not None})
    except ValueError as exc:
        _die(2, str(exc))


def _common_options(fn):
    fn = click.option(
        "--samples", type=int, default=None, help="Sample budget for sampled checks."
    )(fn)
    fn = click.option(
        "--residual-tol", type=float, default=None, help="Entrywise equality slack."
    )(fn)
    fn = click.option(
        "--eig-tol", type=float, default=None, help="Eigenvalue slack for PSD tests."
    )(fn)
    fn = click.option(
        "--seed", type=int, default=0, show_default=True, help="Campaign seed."
    )(fn)
    return fn


def _program_check(prog, tol: ToleranceConfig, seed: int) -> tuple[dict, list[str]]:
    """The "program" block of a report and the violations it shows, after the positivity audit."""
    trace_preserving = is_trace_preserving(prog, tol)
    verdict = is_positive_sampled(prog, tol, seed=seed)
    block = {
        "trace_preserving": trace_preserving,
        "completely_positive": verdict.status == "certified_cp",
        "positivity": verdict.status,
        "positivity_samples": verdict.samples,
    }
    violations = []
    if not trace_preserving:
        violations.append("program is not trace preserving")
    if verdict.status == "counterexample":
        violations.append(
            "program is not positive: sampled positivity found a "
            f"counterexample state after {verdict.samples} samples"
        )
    return block, violations


def _detect_kind(obj) -> str | None:
    if not isinstance(obj, dict):
        return None
    if "atoms" in obj:
        return "predicate"
    if "repr" in obj:
        return "program"
    if "pre" in obj:
        return "triple"
    if "re" in obj and "im" in obj:
        return "state"
    return None


@click.group()
def main() -> None:
    """Predicate transformers for measurement-valued assertions."""


@main.command()
@click.argument("path", type=click.Path())
@click.option("--out", type=click.Path(), default=None, help="Also write the report here.")
@_common_options
def validate(path, out, seed, eig_tol, residual_tol, samples) -> None:
    """Validate a predicate, program, state or triple file."""
    tol = _make_tol(eig_tol, residual_tol, samples)
    obj = _load(path)
    kind = _detect_kind(obj)
    violations: list[str] = []
    extra: dict = {}
    if kind is None:
        violations.append("unrecognized document: expected a predicate, program, state or triple")
        kind = "unknown"
    else:
        try:
            if kind == "predicate":
                rep = validate_predicate(predicate_from_json(obj), tol)
                violations.extend(rep.violations)
                extra["predicate"] = validation_report_to_json(rep)
            elif kind == "state":
                state_from_json(obj, tol)
            elif kind == "program":
                prog = program_from_json(obj, tol)
                extra["program"], found = _program_check(prog, tol, seed)
                violations.extend(found)
            else:
                triple = triple_from_json(obj, tol)
                for name, pred in (("pre", triple.pre), ("post", triple.post)):
                    rep = validate_predicate(pred, tol)
                    extra[name] = validation_report_to_json(rep)
                    violations.extend(f"{name}: {v}" for v in rep.violations)
                _, found = _program_check(triple.prog, tol, seed)
                violations.extend(f"prog: {v}" for v in found)
        except _SEMANTIC_ERRORS as exc:
            violations.append(str(exc))
    status = 0 if not violations else 2
    report = _report(
        "validate", [path], seed, tol, status,
        kind=kind, ok=not violations, violations=violations, **extra,
    )
    _finish(report, out)


@main.command(name="wp")
@click.argument("program_path", type=click.Path())
@click.argument("predicate_path", type=click.Path())
@click.option("--out", type=click.Path(), required=True, help="Where to write the transformed predicate.")
@_common_options
def wp_command(program_path, predicate_path, out, seed, eig_tol, residual_tol, samples) -> None:
    """Transform a predicate through a program and write the result.

    A sidecar report (duality residuals over 100 sampled states, completeness
    flag, positivity verdicts) lands next to the output as OUT.report.json.
    """
    tol = _make_tol(eig_tol, residual_tol, samples)
    prog_obj = _load(program_path)
    pred_obj = _load(predicate_path)
    try:
        prog = program_from_json(prog_obj, tol)
        pred = predicate_from_json(pred_obj)
        result = wp_transform(prog, pred, tol)
        # wp of a valid predicate under a positive trace-preserving program is
        # valid, so an invalid output proves the program is not positive
        try:
            _require_valid(result, tol)
        except ValidationError as exc:
            raise ValidationError(f"program is not positive: wp gives an {exc}") from None
        residuals = _residual_sweep(prog, pred, result, seed)
        program, _ = _program_check(prog, tol, seed)
    except _SEMANTIC_ERRORS as exc:
        _die(2, str(exc))
    _write(out, predicate_to_json(result))
    warnings = []
    if program["positivity"] == "no_counterexample":
        warnings.append(
            "program is not certified completely positive; sampled positivity "
            f"found no counterexample in {program['positivity_samples']} states (not a proof)"
        )
    elif program["positivity"] == "counterexample":
        warnings.append("sampled positivity found a counterexample state; the program is not positive")
    report = _report(
        "wp", [program_path, predicate_path], seed, tol, 0, out=out,
        complete=is_complete(result, tol),
        duality={"states": RESIDUAL_SAMPLE_STATES, "max_residual": max(residuals.values()), "per_atom": residuals},
        program=program,
        warnings=warnings,
    )
    _finish(report, out + ".report.json")


@main.command()
@click.argument("triple_path", type=click.Path())
@click.option("--out", type=click.Path(), default=None, help="Also write the report here.")
@_common_options
def verify(triple_path, out, seed, eig_tol, residual_tol, samples) -> None:
    """Check a precondition/program/postcondition triple."""
    tol = _make_tol(eig_tol, residual_tol, samples)
    obj = _load(triple_path)
    try:
        triple = triple_from_json(obj, tol)
        # the library's is_precondition judges any candidate; a document's pre must be valid
        _require_valid(triple.pre, tol)
        result = verify_triple(triple, tol, seed=seed)
    except _SEMANTIC_ERRORS as exc:
        _die(2, str(exc))
    status = 0 if result.holds else 3
    report = _report(
        "verify", [triple_path], seed, tol, status,
        verification=verification_report_to_json(result),
    )
    _finish(report, out)


@main.command(name="sat")
@click.argument("state_path", type=click.Path())
@click.argument("predicate_path", type=click.Path())
@click.option("--out", type=click.Path(), default=None, help="Where to write the bare measure JSON.")
@_common_options
def sat_command(state_path, predicate_path, out, seed, eig_tol, residual_tol, samples) -> None:
    """Per-outcome masses a state assigns to a predicate."""
    tol = _make_tol(eig_tol, residual_tol, samples)
    state_obj = _load(state_path)
    pred_obj = _load(predicate_path)
    try:
        rho = state_from_json(state_obj, tol)
        pred = predicate_from_json(pred_obj)
        measure = sat_measure(rho, pred, tol)
    except _SEMANTIC_ERRORS as exc:
        _die(2, str(exc))
    payload = sat_to_json(measure)
    if out is not None:
        _write(out, payload)
    _finish(_report("sat", [state_path, predicate_path], seed, tol, 0, out=out, result=payload))


@main.command()
@click.argument(
    "suite",
    type=click.Choice([*SUITES, "all"]),
)
@click.option("--dims", default="2,3,4", show_default=True, help="Comma-separated dimensions.")
@click.option("--out", type=click.Path(), default=None, help="Also write the report here.")
@_common_options
def properties(suite, dims, out, seed, eig_tol, residual_tol, samples) -> None:
    """Run a seeded invariant campaign; exit 0 only if every trial passes."""
    tol = _make_tol(eig_tol, residual_tol, samples)
    try:
        dim_list = tuple(int(part) for part in dims.split(","))
    except ValueError:
        _die(2, f"cannot parse --dims {dims!r}; expected comma-separated integers")
    for d in dim_list:
        if not 2 <= d <= MAX_DIM:
            _die(2, f"dims must lie in [2, {MAX_DIM}], got {d}")
    try:
        results = run_suite(suite, dim_list, tol.sample_count, seed, tol)
    except _SEMANTIC_ERRORS as exc:
        _die(2, str(exc))
    status = 0 if all(r.passed for r in results) else 3
    report = _report(
        "properties", [], seed, tol, status,
        suite=suite,
        dims=list(dim_list),
        campaigns=[campaign_result_to_json(r) for r in results],
    )
    _finish(report, out)


if __name__ == "__main__":
    main()
