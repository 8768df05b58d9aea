"""POVM-valued predicates over a finite outcome alphabet.

A predicate assigns one effect operator to each outcome atom, stored as one
read-only complex (k, d, d) stack in atom order; the effect of a compound
outcome set is always recomputed as the sum of its atoms, never cached, so
additivity holds by construction. A predicate is *valid* when every effect is
PSD and the atom effects sum to at most the identity; :func:`validate_predicate`
reports violations instead of raising, so untrusted inputs can be inspected.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SpaceMismatchError
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _eigh,
    _eigvalsh,
    _ginibre,
    _hermiticity_gaps,
    as_complex_matrix,
    loewner_leq,
)
from .programs import DensityState

__all__ = [
    "OutcomeSpace",
    "Predicate",
    "SatMeasure",
    "ValidationReport",
    "validate_predicate",
    "effect_of_set",
    "is_complete",
    "predicate_leq",
    "sat",
    "chain_sup",
    "projective_predicate",
    "scaled_predicate",
    "random_predicate",
]


@dataclass(frozen=True)
class OutcomeSpace:
    """Ordered alphabet of distinct outcome labels."""

    atoms: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("outcome space needs at least one atom")
        if not all(isinstance(a, str) for a in self.atoms):
            raise ValueError("atom labels must be strings")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atom labels must be unique")

    def __len__(self) -> int:
        return len(self.atoms)

    def __contains__(self, label: str) -> bool:
        return label in self.atoms


class Predicate:
    """One effect operator per atom of an outcome space.

    ``effects`` is a read-only complex128 stack of shape (k, d, d) in atom
    order. Construction enforces structure only (matching atoms, equal square
    dims, finite entries); semantic validity is the business of
    :func:`validate_predicate`.
    """

    __slots__ = ("space", "effects")

    def __init__(self, space: OutcomeSpace, effects):
        if isinstance(effects, Mapping):
            missing = [a for a in space.atoms if a not in effects]
            extra = [a for a in effects if a not in space.atoms]
            if missing or extra:
                raise ValueError(f"effects do not match atoms (missing {missing}, extra {extra})")
            mats = [effects[a] for a in space.atoms]
        else:
            mats = list(effects)
            if len(mats) != len(space.atoms):
                raise ValueError(f"{len(mats)} effects for {len(space.atoms)} atoms")
        mats = [as_complex_matrix(m) for m in mats]
        d = mats[0].shape[0]
        for m in mats[1:]:
            if m.shape[0] != d:
                raise DimensionMismatchError("mixed effect dimensions")
        self.space = space
        self.effects = np.stack(mats)
        self.effects.setflags(write=False)

    @classmethod
    def _from_stack(cls, space: OutcomeSpace, effects: np.ndarray) -> Predicate:
        """Store a fresh kernel output, a finite complex (k, d, d) stack, unchecked."""
        p = cls.__new__(cls)
        p.space = space
        # C order, as np.stack stores it: later matrix products see one layout
        p.effects = np.ascontiguousarray(effects)
        p.effects.setflags(write=False)
        return p

    @property
    def dim(self) -> int:
        return self.effects.shape[-1]

    def effect(self, atom: str) -> np.ndarray:
        try:
            return self.effects[self.space.atoms.index(atom)]
        except ValueError:
            raise KeyError(atom) from None

    def total_effect(self) -> np.ndarray:
        return _total_effects(self.effects)

    def __repr__(self) -> str:
        return f"Predicate(atoms={list(self.space.atoms)}, dim={self.dim})"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a semantic validity check. ok means no violations."""

    ok: bool
    violations: tuple[str, ...]
    complete: bool


@dataclass(frozen=True)
class SatMeasure:
    """Per-atom probability mass a state assigns to a predicate's outcomes.

    ``satisfied`` is the flag "every weight nonnegative and at least one
    strictly positive", both read with residual_tol slack. Weights must be
    probabilities up to the loosest slack any tolerance config permits.
    """

    space: OutcomeSpace
    weights: dict[str, float]
    satisfied: bool

    def __post_init__(self) -> None:
        if set(self.weights) != set(self.space.atoms):
            raise ValueError("weights do not match the outcome space")
        for a, w in self.weights.items():
            if not -1e-3 <= w <= 1.0 + 1e-3:
                raise ValueError(f"weight of {a!r} is {w}, outside [0, 1] beyond any tolerance")

    def mass(self, subset: Iterable[str]) -> float:
        """Additive mass of a set of atoms."""
        labels = list(subset)
        for a in labels:
            if a not in self.space:
                raise KeyError(f"unknown atom {a!r}")
        return float(sum(self.weights[a] for a in labels))

    def total(self) -> float:
        return float(sum(self.weights.values()))


def _total_effects(effects: np.ndarray) -> np.ndarray:
    """Sum of the atom effects of each predicate in a stack (..., k, d, d), added in atom order.

    Has the bits of Python's ``sum`` from 0: adding +0.0 first turns -0.0
    entries into +0.0. np.add.reduce may sum a contiguous axis pairwise.
    """
    total = effects[..., 0, :, :] + 0.0
    for i in range(1, effects.shape[-3]):
        total += effects[..., i, :, :]
    return total


def _effect_bounds(effects: np.ndarray, total: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For predicates stacked as (..., k, d, d) with finite totals (..., d, d): the lowest
    eigenvalue of each effect and then of -total, shape (..., k + 1), and each effect's
    hermiticity gap, shape (..., k)."""
    stack = np.concatenate([effects, -total[..., None, :, :]], axis=-3)
    return _eigvalsh(stack).min(axis=-1), _hermiticity_gaps(effects)


def _predicate_faults(effects: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Mask of the predicates in a stack (n, k, d, d) that :func:`validate_predicate` reports
    invalid or refuses; only those with a non-finite total are marked when there are any."""
    total = _total_effects(effects)
    bad = ~np.isfinite(total).all(axis=(-2, -1))
    if bad.any():
        return bad
    lows, gaps = _effect_bounds(effects, total)
    return (
        (lows[:, :-1] < -tol.eig_tol).any(axis=-1)
        | (gaps > tol.residual_tol).any(axis=-1)
        | (-lows[:, -1] > 1.0 + tol.eig_tol)
    )


def validate_predicate(p: Predicate, tol: ToleranceConfig | None = None) -> ValidationReport:
    """Check every effect is PSD and the total effect stays below the identity.

    Violations name the offending atom and the failed inequality.
    """
    tol = tol or DEFAULT_TOL
    total = p.total_effect()
    # effects are finite by construction; their sum can still overflow
    if not np.isfinite(total).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    lows, gaps = (x.tolist() for x in _effect_bounds(p.effects, total))
    violations = []
    for atom, lo, gap in zip(p.space.atoms, lows, gaps):
        if lo < -tol.eig_tol:
            violations.append(f"effect {atom!r} is not PSD (min eigenvalue {lo:.6g})")
        if gap > tol.residual_tol:
            violations.append(f"effect {atom!r} is not hermitian")
    hi = -lows[-1]
    if hi > 1.0 + tol.eig_tol:
        violations.append(f"total effect exceeds the identity (max eigenvalue {hi:.6g})")
    complete = float(np.abs(total - np.eye(p.dim)).max()) <= tol.residual_tol
    return ValidationReport(ok=not violations, violations=tuple(violations), complete=complete)


def effect_of_set(p: Predicate, subset: Iterable[str]) -> np.ndarray:
    """Summed effect of a set of atoms; the empty set gives the zero matrix."""
    labels = list(subset)
    for a in labels:
        if a not in p.space:
            raise KeyError(f"unknown atom {a!r}")
    out = np.zeros((p.dim, p.dim), dtype=np.complex128)
    for a in labels:
        out = out + p.effect(a)
    return out


def is_complete(p: Predicate, tol: ToleranceConfig | None = None) -> bool:
    """True when the atom effects sum to the identity within residual_tol."""
    tol = tol or DEFAULT_TOL
    return float(np.abs(p.total_effect() - np.eye(p.dim)).max()) <= tol.residual_tol


def _require_comparable(f: Predicate, g: Predicate) -> None:
    if f.space != g.space:
        raise SpaceMismatchError(
            f"outcome spaces differ: {list(f.space.atoms)} vs {list(g.space.atoms)}"
        )
    if f.dim != g.dim:
        raise DimensionMismatchError(f"predicate dims {f.dim} vs {g.dim}")


def predicate_leq(f: Predicate, g: Predicate, tol: ToleranceConfig | None = None) -> bool:
    """Pointwise order: every atom effect of f sits below the matching one of g.

    Per-atom comparison suffices for all 2^n outcome sets: sums of PSD gaps
    are PSD, so atomwise order and setwise order coincide.
    """
    _require_comparable(f, g)
    return all(loewner_leq(f.effect(a), g.effect(a), tol) for a in f.space.atoms)


def sat(rho: DensityState, p: Predicate, tol: ToleranceConfig | None = None) -> SatMeasure:
    """Per-atom masses Tr(rho F_a) plus the satisfaction flag."""
    tol = tol or DEFAULT_TOL
    if rho.dim != p.dim:
        raise DimensionMismatchError(f"state dim {rho.dim} vs predicate dim {p.dim}")
    weights = {
        a: float(np.trace(rho.matrix @ p.effect(a)).real) for a in p.space.atoms
    }
    values = list(weights.values())
    satisfied = min(values) >= -tol.residual_tol and max(values) > tol.residual_tol
    return SatMeasure(space=p.space, weights=weights, satisfied=satisfied)


def chain_sup(chain: Sequence[Predicate], tol: ToleranceConfig | None = None) -> Predicate:
    """Least upper bound of a finite monotone chain of predicates.

    Each consecutive pair must satisfy :func:`predicate_leq` (checked; a
    non-monotone chain raises rather than answering silently). For a finite
    monotone chain the per-atom supremum is the final element.
    """
    chain = list(chain)
    if not chain:
        raise ValueError("chain_sup needs a non-empty chain")
    for i in range(len(chain) - 1):
        if not predicate_leq(chain[i], chain[i + 1], tol):
            raise ValueError(f"chain is not monotone between positions {i} and {i + 1}")
    return chain[-1]


def projective_predicate(dim: int, labels: Sequence[str] | None = None) -> Predicate:
    """Complete projective predicate from the computational basis."""
    if labels is None:
        labels = tuple(str(i) for i in range(dim))
    labels = tuple(labels)
    if len(labels) != dim:
        raise ValueError(f"need {dim} labels, got {len(labels)}")
    effects = np.zeros((dim, dim, dim), dtype=np.complex128)
    diag = np.arange(dim)
    effects[diag, diag, diag] = 1.0
    return Predicate._from_stack(OutcomeSpace(labels), effects)


def scaled_predicate(p: Predicate, factor: float) -> Predicate:
    """Predicate with every effect multiplied by a scalar in [0, 1]."""
    if not 0.0 <= factor <= 1.0:
        raise ValueError(f"factor must lie in [0, 1], got {factor}")
    return Predicate._from_stack(p.space, factor * p.effects)


def _draw_predicate(
    rng: np.random.Generator, dim: int, n_atoms: int | None = None, complete: bool = False
) -> tuple[np.ndarray, float]:
    """The raw draws of one :func:`random_predicate`, in stream order: the atom
    count k (unless given), the normals (k, 2, dim, dim) and the shrink factor."""
    k = int(n_atoms) if n_atoms is not None else int(rng.integers(2, 5))
    # one draw replays k pairs of (dim, dim) draws, real part then imaginary part
    z = rng.standard_normal((k, 2, dim, dim))
    return z, 1.0 if complete else float(rng.uniform(0.4, 1.0))


def _random_effects(z: np.ndarray, factors) -> np.ndarray:
    """Effects (..., k, d, d) of random predicates from their normals (..., k, 2, d, d)
    and shrink factors, a float or an array that broadcasts against the effects."""
    g = _ginibre(z)
    blocks = g @ g.conj().swapaxes(-1, -2)
    total = _total_effects(blocks)
    if not np.isfinite(total).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    vals, vecs = _eigh(total)
    inv_root = ((vecs / np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2))[..., None, :, :]
    return factors * (inv_root @ blocks @ inv_root)


def random_predicate(
    rng: np.random.Generator,
    dim: int,
    n_atoms: int | None = None,
    complete: bool = False,
) -> Predicate:
    """Seeded random valid predicate.

    Wishart blocks are normalized by the inverse square root of their sum,
    which yields a complete POVM; unless ``complete`` the family is then
    shrunk by a random factor so sub-identity totals are covered too.
    """
    z, factor = _draw_predicate(rng, dim, n_atoms, complete)
    labels = tuple(f"a{i}" for i in range(len(z)))
    return Predicate._from_stack(OutcomeSpace(labels), _random_effects(z, factor))
