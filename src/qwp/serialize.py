"""JSON formats for matrices, states, predicates, programs, triples, reports.

Matrices split into real and imaginary parts, row-major:
``{"dim": d, "re": [[...]], "im": [[...]]}``. Predicates:
``{"atoms": [...], "effects": {atom: matrix}}``. Programs:
``{"dim": d, "repr": "kraus"|"super"|"choi"|"named", "payload": ..., "label": str}``;
a program is written as "kraus" only when it was built from a Kraus family,
otherwise as its superoperator.
Triples: ``{"pre": predicate, "prog": program, "post": predicate}``.
States are bare matrix objects. All numbers are IEEE-754 doubles; Python's
json module round-trips them exactly.
"""

from __future__ import annotations

import numpy as np

from .campaigns import CampaignResult
from .errors import ValidationError
from .linalg import ToleranceConfig
from .predicates import OutcomeSpace, Predicate, SatMeasure, ValidationReport
from .programs import DensityState, QuantumProgram, build_program
from .wp import HoareTriple, VerificationReport

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "state_to_json",
    "state_from_json",
    "predicate_to_json",
    "predicate_from_json",
    "sat_to_json",
    "program_to_json",
    "program_from_json",
    "triple_to_json",
    "triple_from_json",
    "tolerances_to_json",
    "validation_report_to_json",
    "verification_report_to_json",
    "campaign_result_to_json",
]


def matrix_to_json(m) -> dict:
    a = np.asarray(m, dtype=np.complex128)
    return {
        "dim": int(a.shape[0]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


# largest program dim a document may name: a named identity or transpose
# allocates its d²×d² superoperator from "dim" alone (1.6 GB at d = 100)
MAX_PROGRAM_DIM = 64


def _dim_from_json(value) -> int:
    # a JSON number loads as int or float; true and false load as bool
    if type(value) not in (int, float):
        raise ValidationError(f"dim must be a number, got {type(value).__name__}")
    if isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"dim must be a finite whole number, got {value!r}")
    return int(value)


def _require(value, kind: type, what: str):
    if not isinstance(value, kind):
        expected = "a list" if kind is list else "an object"
        raise ValidationError(f"{what} must be {expected}, got {type(value).__name__}")
    return value


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValidationError(f"matrix JSON must be an object, got {type(obj).__name__}")
    missing = [k for k in ("dim", "re", "im") if k not in obj]
    if missing:
        raise ValidationError(f"matrix JSON missing keys {missing}")
    d = _dim_from_json(obj["dim"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (d, d) or im.shape != (d, d):
        raise ValidationError(
            f"matrix parts must be {d}x{d}, got re {re.shape} and im {im.shape}"
        )
    return re + 1j * im


def state_to_json(rho: DensityState) -> dict:
    return matrix_to_json(rho.matrix)


def state_from_json(obj, tol: ToleranceConfig | None = None) -> DensityState:
    return DensityState(matrix_from_json(obj), tol)


def predicate_to_json(p: Predicate) -> dict:
    return {
        "atoms": list(p.space.atoms),
        "effects": {a: matrix_to_json(p.effect(a)) for a in p.space.atoms},
    }


def predicate_from_json(obj) -> Predicate:
    if not isinstance(obj, dict) or "atoms" not in obj or "effects" not in obj:
        raise ValidationError("predicate JSON needs keys 'atoms' and 'effects'")
    if not isinstance(obj["effects"], dict):
        raise ValidationError("predicate 'effects' must be an object mapping atoms to matrices")
    atoms = tuple(str(a) for a in _require(obj["atoms"], list, "predicate 'atoms'"))
    effects = {a: matrix_from_json(m) for a, m in obj["effects"].items()}
    return Predicate(OutcomeSpace(atoms), effects)


def sat_to_json(s: SatMeasure) -> dict:
    return {
        "weights": {a: s.weights[a] for a in s.space.atoms},
        "satisfied": bool(s.satisfied),
    }


def program_to_json(c: QuantumProgram) -> dict:
    if c.kraus is not None:
        payload = [matrix_to_json(k) for k in c.kraus]
        repr_kind = "kraus"
    else:
        payload = matrix_to_json(c.super)
        repr_kind = "super"
    return {"dim": c.dim, "repr": repr_kind, "payload": payload, "label": c.label}


def program_from_json(obj, tol: ToleranceConfig | None = None) -> QuantumProgram:
    if not isinstance(obj, dict) or "repr" not in obj or "payload" not in obj:
        raise ValidationError("program JSON needs keys 'repr' and 'payload' (and usually 'dim')")
    repr_kind = obj["repr"]
    payload = obj["payload"]
    dim = _dim_from_json(obj["dim"]) if "dim" in obj else None
    if dim is not None and dim > MAX_PROGRAM_DIM:
        raise ValidationError(f"program dim {dim} exceeds the limit {MAX_PROGRAM_DIM}")
    if repr_kind == "kraus":
        source = {"kraus": [matrix_from_json(k) for k in _require(payload, list, "kraus payload")]}
    elif repr_kind == "super":
        source = {"super": matrix_from_json(payload)}
    elif repr_kind == "choi":
        source = {"choi": matrix_from_json(payload)}
    elif repr_kind == "named":
        source = {"named": dict(_require(payload, dict, "named payload"))}
    else:
        raise ValidationError(f"unknown program repr {repr_kind!r}")
    prog = build_program(source, dim=dim, tol=tol)
    label = obj.get("label")
    if label:
        prog = QuantumProgram(prog.dim, prog.super, kraus=prog.kraus, label=str(label))
    return prog


def triple_to_json(t: HoareTriple) -> dict:
    return {
        "pre": predicate_to_json(t.pre),
        "prog": program_to_json(t.prog),
        "post": predicate_to_json(t.post),
    }


def triple_from_json(obj, tol: ToleranceConfig | None = None) -> HoareTriple:
    if not isinstance(obj, dict) or any(k not in obj for k in ("pre", "prog", "post")):
        raise ValidationError("triple JSON needs keys 'pre', 'prog' and 'post'")
    return HoareTriple(
        pre=predicate_from_json(obj["pre"]),
        prog=program_from_json(obj["prog"], tol),
        post=predicate_from_json(obj["post"]),
    )


def tolerances_to_json(tol: ToleranceConfig) -> dict:
    return {
        "eig_tol": tol.eig_tol,
        "residual_tol": tol.residual_tol,
        "sample_count": tol.sample_count,
    }


def validation_report_to_json(r: ValidationReport) -> dict:
    return {"ok": r.ok, "violations": list(r.violations), "complete": r.complete}


def verification_report_to_json(r: VerificationReport) -> dict:
    witness = None
    if r.witness is not None:
        witness = {
            "atom": r.witness.atom,
            "state": matrix_to_json(r.witness.state.matrix),
            "lhs": r.witness.lhs,
            "rhs": r.witness.rhs,
        }
    return {
        "verdict": r.verdict,
        "witness": witness,
        "residuals": dict(r.residuals),
        "margins": dict(r.margins),
        "seed": r.seed,
    }


def campaign_result_to_json(r: CampaignResult) -> dict:
    return {
        "suite": r.suite,
        "dims": list(r.dims),
        "trials": r.trials,
        "failures": r.failures,
        "max_residual": r.max_residual,
        "passed": r.passed,
        "seed": r.seed,
        "notes": list(r.notes),
    }
