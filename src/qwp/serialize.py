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

import numbers
from dataclasses import asdict

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .linalg import DEFAULT_TOL, ToleranceConfig
from .predicates import OutcomeSpace, Predicate, SatMeasure, ValidationReport
from .programs import (
    DensityState,
    QuantumProgram,
    amplitude_damping,
    depolarizing,
    from_choi,
    from_kraus,
    from_super,
    identity_program,
    transpose_program,
)
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
    if value < 1:
        raise ValidationError(f"dim must be at least 1, got {value!r}")
    return int(value)


def _require(value, kind: type, what: str):
    if not isinstance(value, kind):
        expected = "a list" if kind is list else "an object"
        raise ValidationError(f"{what} must be {expected}, got {type(value).__name__}")
    return value


def _part_from_json(obj: dict, key: str) -> np.ndarray:
    part = np.asarray(obj[key])
    # strings and booleans are refused, not coerced; float() refuses a JSON
    # object, in the part or among its entries, with a TypeError, and an
    # integer past the float range with an OverflowError
    if part.dtype.kind not in "USb":
        try:
            return np.asarray(part, dtype=float)
        except TypeError:
            pass
        except OverflowError:
            raise ValidationError(f"matrix part {key!r} holds a number too large for a float") from None
    raise ValidationError(f"matrix part {key!r} must be a list of lists of numbers")


def matrix_from_json(obj) -> np.ndarray:
    _require(obj, dict, "matrix JSON")
    missing = [k for k in ("dim", "re", "im") if k not in obj]
    if missing:
        raise ValidationError(f"matrix JSON missing keys {missing}")
    d = _dim_from_json(obj["dim"])
    re = _part_from_json(obj, "re")
    im = _part_from_json(obj, "im")
    if re.shape != (d, d) or im.shape != (d, d):
        raise ValidationError(
            f"matrix parts must be {d}x{d}, got re {re.shape} and im {im.shape}"
        )
    return re + 1j * im


def state_to_json(rho: DensityState) -> dict:
    return matrix_to_json(rho.matrix)


def state_from_json(obj, tol: ToleranceConfig = DEFAULT_TOL) -> DensityState:
    return DensityState(matrix_from_json(obj), tol)


def predicate_to_json(p: Predicate) -> dict:
    return {
        "atoms": list(p.space.atoms),
        "effects": {a: matrix_to_json(p.effect(a)) for a in p.space.atoms},
    }


def predicate_from_json(obj) -> Predicate:
    if not isinstance(obj, dict) or "atoms" not in obj or "effects" not in obj:
        raise ValidationError("predicate JSON needs keys 'atoms' and 'effects'")
    effects = _require(obj["effects"], dict, "predicate 'effects'")
    atoms = tuple(str(a) for a in _require(obj["atoms"], list, "predicate 'atoms'"))
    return Predicate(OutcomeSpace(atoms), {a: matrix_from_json(m) for a, m in effects.items()})


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


# each named program's constructor and its argument: the document's dim, or the named parameter
_NAMED_PROGRAMS = {
    "identity": (identity_program, None),
    "transpose": (transpose_program, None),
    "depolarizing": (depolarizing, "p"),
    "amplitude_damping": (amplitude_damping, "gamma"),
}


def _named_program(payload: dict, dim: int | None) -> QuantumProgram:
    """The program a named payload names; identity and transpose are built at ``dim``."""
    name = payload.get("name")
    if not isinstance(name, str) or name not in _NAMED_PROGRAMS:
        raise ValidationError(f"unknown named program {name!r}; expected one of {tuple(_NAMED_PROGRAMS)}")
    build, key = _NAMED_PROGRAMS[name]
    if key is None:
        if dim is None:
            raise ValidationError(f"named {name} requires dim")
        return build(dim)
    if key not in payload:
        raise ValidationError(f"named {name} requires parameter {key!r}")
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"named {name} parameter {key!r} must be a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:
        raise ValidationError(f"named {name} parameter {key!r} is too large for a float") from None
    return build(value)


def program_from_json(obj, tol: ToleranceConfig = DEFAULT_TOL) -> QuantumProgram:
    """The one decoder of program documents: "repr" picks the constructor, then "dim" is checked."""
    if not isinstance(obj, dict) or "repr" not in obj or "payload" not in obj:
        raise ValidationError("program JSON needs keys 'repr' and 'payload' (and usually 'dim')")
    repr_kind = obj["repr"]
    payload = obj["payload"]
    dim = _dim_from_json(obj["dim"]) if "dim" in obj else None
    if dim is not None and dim > MAX_PROGRAM_DIM:
        raise ValidationError(f"program dim {dim} exceeds the limit {MAX_PROGRAM_DIM}")
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise ValidationError("program label must be a string")
    if repr_kind == "kraus":
        prog = from_kraus([matrix_from_json(k) for k in _require(payload, list, "kraus payload")])
    elif repr_kind == "super":
        prog = from_super(matrix_from_json(payload))
    elif repr_kind == "choi":
        prog = from_choi(matrix_from_json(payload), tol=tol)
    elif repr_kind == "named":
        prog = _named_program(_require(payload, dict, "named payload"), dim)
    else:
        raise ValidationError(f"unknown program repr {repr_kind!r}")
    if dim is not None and prog.dim != dim:
        raise DimensionMismatchError(f"program has dim {prog.dim}, expected {dim}")
    if label:
        prog.label = label
    return prog


def triple_to_json(t: HoareTriple) -> dict:
    return {
        "pre": predicate_to_json(t.pre),
        "prog": program_to_json(t.prog),
        "post": predicate_to_json(t.post),
    }


def triple_from_json(obj, tol: ToleranceConfig = DEFAULT_TOL) -> HoareTriple:
    if not isinstance(obj, dict) or any(k not in obj for k in ("pre", "prog", "post")):
        raise ValidationError("triple JSON needs keys 'pre', 'prog' and 'post'")
    return HoareTriple(
        pre=predicate_from_json(obj["pre"]),
        prog=program_from_json(obj["prog"], tol),
        post=predicate_from_json(obj["post"]),
    )


def tolerances_to_json(tol: ToleranceConfig) -> dict:
    return asdict(tol)


def validation_report_to_json(r: ValidationReport) -> dict:
    return asdict(r)


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


def campaign_result_to_json(r) -> dict:
    """The fields of a campaigns.CampaignResult and its verdict; this module does not import the campaigns."""
    return asdict(r) | {"passed": r.passed}
