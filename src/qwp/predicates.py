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

from .errors import DimensionMismatchError, SpaceMismatchError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _eigh,
    _ginibre,
    _identity_gaps,
    _loewner_order,
    _operator_family,
    _psd_stack,
    _require_finite,
    _sum_in_order,
    _traces,
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

# the most atoms random_predicate draws
MAX_RANDOM_ATOMS = 4


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

    def _index(self, label: str) -> int:
        """Position of an atom; KeyError("unknown atom 'x'") for a label not in the space."""
        try:
            return self.atoms.index(label)
        except ValueError:
            raise KeyError(f"unknown atom {label!r}") from None


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
        self.effects = np.stack(_operator_family(mats, "effect"))
        self.effects.setflags(write=False)
        self.space = space

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
        return self.effects[self.space._index(atom)]

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
        values = [self.weights[a] for a in self.space.atoms]
        return float(sum(values[self.space._index(a)] for a in subset))

    def total(self) -> float:
        return float(sum(self.weights.values()))


def _total_effects(effects: np.ndarray) -> np.ndarray:
    """Sum of the atom effects of each predicate in a stack (..., k, d, d), added in atom order
    with the bits of Python's ``sum`` (:func:`_sum_in_order`)."""
    return _sum_in_order(effects, -3)


def _effect_flags(effects: np.ndarray, total: np.ndarray, tol: ToleranceConfig):
    """The predicate rule on stacks (..., k, d, d) with finite totals (..., d, d): the flags (..., k)
    of each effect's λ_min below -eig_tol and of its hermiticity gap above residual_tol, the flags
    (...) of a total's λ_max above 1 + eig_tol, and the λ_min of each effect and then of -total.

    The effects and -total are one stack for :func:`_psd_stack`, with t = eig_tol
    for an effect and t = 1 + eig_tol for -total: where the band kernel proves
    the stack, neither eigenvalue flag is set and the λ_min are None.
    """
    thresholds = np.full(effects.shape[-3] + 1, tol.eig_tol)
    thresholds[-1] = 1.0 + tol.eig_tol
    gaps, below, lows = _psd_stack(np.concatenate([effects, -total[..., None, :, :]], axis=-3), thresholds)
    return below[..., :-1], gaps[..., :-1] > tol.residual_tol, below[..., -1], lows


def _predicate_faults(effects: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Mask of the predicates in a stack (n, k, d, d) that :func:`validate_predicate` reports
    invalid or refuses; only those with a non-finite total are marked when there are any."""
    total = _total_effects(effects)
    bad = ~np.isfinite(total).all(axis=(-2, -1))
    if bad.any():
        return bad
    not_psd, not_hermitian, over, _ = _effect_flags(effects, total, tol)
    return (not_psd | not_hermitian).any(axis=-1) | over


def _violations(p: Predicate, total: np.ndarray, tol: ToleranceConfig) -> list[str]:
    """The violations of p, whose total effect is total: each names the offending atom and the
    check of :func:`_effect_flags` it fails."""
    # effects are finite by construction; their sum can still overflow
    _require_finite(total)
    not_psd, not_hermitian, over, lows = _effect_flags(p.effects, total, tol)
    violations = []
    for i, atom in enumerate(p.space.atoms):
        if not_psd[i]:
            violations.append(f"effect {atom!r} is not PSD (min eigenvalue {float(lows[i]):.6g})")
        if not_hermitian[i]:
            violations.append(f"effect {atom!r} is not hermitian")
    if over:
        violations.append(f"total effect exceeds the identity (max eigenvalue {float(-lows[-1]):.6g})")
    return violations


def validate_predicate(p: Predicate, tol: ToleranceConfig = DEFAULT_TOL) -> ValidationReport:
    """Check every effect is PSD and the total effect stays below the identity.

    Violations name the offending atom and the check of :func:`_effect_flags` it fails.
    """
    total = p.total_effect()
    violations = _violations(p, total, tol)
    return ValidationReport(ok=not violations, violations=tuple(violations), complete=_sums_to_identity(total, tol))


def _require_valid(p: Predicate, tol: ToleranceConfig) -> None:
    """Refuse an invalid predicate, naming its violations; a valid one builds no report."""
    violations = _violations(p, p.total_effect(), tol)
    if violations:
        raise ValidationError("invalid predicate: " + "; ".join(violations))


def effect_of_set(p: Predicate, subset: Iterable[str]) -> np.ndarray:
    """Summed effect of a set of atoms, added in the set's order; the empty set gives the zero matrix."""
    rows = p.effects[[p.space._index(a) for a in subset]]
    return _total_effects(rows) if len(rows) else np.zeros((p.dim, p.dim), dtype=np.complex128)


def is_complete(p: Predicate, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when the atom effects sum to the identity within residual_tol."""
    return _sums_to_identity(p.total_effect(), tol)


def _sums_to_identity(total: np.ndarray, tol: ToleranceConfig) -> bool:
    """The completeness rule: the total effect (d, d) is the identity within residual_tol, entry by entry."""
    return float(_identity_gaps(total)) <= tol.residual_tol


def _require_comparable(f: Predicate, g: Predicate) -> None:
    if f.space != g.space:
        raise SpaceMismatchError(
            f"outcome spaces differ: {list(f.space.atoms)} vs {list(g.space.atoms)}"
        )
    if f.dim != g.dim:
        raise DimensionMismatchError(f"predicate dims {f.dim} vs {g.dim}")


def predicate_leq(f: Predicate, g: Predicate, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Pointwise order: every atom effect of f sits below the matching one of g.

    f ⪯ g when λ_min(g_a - f_a) ≥ -eig_tol for every atom a. A pair with an
    atom effect of either side not hermitian within residual_tol is refused
    with ValueError, whatever the order of the atoms. Atomwise order is the
    order of all 2^n outcome sets, as sums of PSD gaps are PSD.
    """
    _require_comparable(f, g)
    return bool(_loewner_order(f.effects, g.effects, tol).all())


def sat(rho: DensityState, p: Predicate, tol: ToleranceConfig = DEFAULT_TOL) -> SatMeasure:
    """Per-atom masses Tr(rho F_a) plus the satisfaction flag; invalid predicates are refused."""
    if rho.dim != p.dim:
        raise DimensionMismatchError(f"state dim {rho.dim} vs predicate dim {p.dim}")
    _require_valid(p, tol)
    weights = _traces(rho.matrix @ p.effects).real
    satisfied = bool(weights.min() >= -tol.residual_tol and weights.max() > tol.residual_tol)
    return SatMeasure(space=p.space, weights=dict(zip(p.space.atoms, weights.tolist())), satisfied=satisfied)


def chain_sup(chain: Sequence[Predicate], tol: ToleranceConfig = DEFAULT_TOL) -> Predicate:
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


def projective_predicate(dim: int) -> Predicate:
    """Complete projective predicate from the computational basis, atoms "0" to str(dim - 1)."""
    effects = np.zeros((dim, dim, dim), dtype=np.complex128)
    diag = np.arange(dim)
    effects[diag, diag, diag] = 1.0
    return Predicate._from_stack(OutcomeSpace(tuple(str(i) for i in range(dim))), effects)


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
    k = int(n_atoms) if n_atoms is not None else int(rng.integers(2, MAX_RANDOM_ATOMS + 1))
    # one draw replays k pairs of (dim, dim) draws, real part then imaginary part
    z = rng.standard_normal((k, 2, dim, dim))
    return z, 1.0 if complete else float(rng.uniform(0.4, 1.0))


def _random_effects(z: np.ndarray, factors) -> np.ndarray:
    """Effects (..., k, d, d) of random predicates from their normals (..., k, 2, d, d)
    and shrink factors, a float or an array that broadcasts against the effects."""
    g = _ginibre(z)
    blocks = g @ g.conj().swapaxes(-1, -2)
    total = _total_effects(blocks)
    _require_finite(total)
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
