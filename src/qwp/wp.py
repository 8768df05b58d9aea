"""Weakest preconditions via the dual action of a program on effects.

The transformer pushes a postcondition predicate backwards through a
trace-preserving positive program: effect by effect, the new operator is the
Hilbert-Schmidt adjoint applied to the old one. A candidate predicate is a
precondition exactly when it sits below the transformed predicate, so
verifying a Hoare-style triple reduces to one operator inequality per atom,
and a failed inequality yields a concrete witness state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotTracePreservingError,
    SpaceMismatchError,
    ValidationError,
)
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _block_size,
    _densities,
    _eigh,
    _eigvalsh,
    _haar_spectral,
    _hermiticity_gaps,
    _psd_sqrts,
    as_complex_matrix,
    is_hermitian,
    min_eigenvalue,
    random_densities,
)
from .predicates import OutcomeSpace, Predicate, predicate_leq, validate_predicate
from .programs import (
    DensityState,
    QuantumProgram,
    _act,
    _unital_gaps,
    apply,
    apply_matrices,
    apply_matrix,
    is_completely_positive,
    seq,
)

__all__ = [
    "HoareTriple",
    "Witness",
    "VerificationReport",
    "WeakestCheckReport",
    "wp",
    "duality_residual",
    "duality_residual_sweep",
    "is_precondition",
    "verify_triple",
    "weakest_check",
    "wp_compose_check",
    "dp_reduction",
]

# states behind the duality-residual column of every verification report
RESIDUAL_SAMPLE_STATES = 100


@dataclass(frozen=True, eq=False)
class HoareTriple:
    """Precondition / program / postcondition, over one outcome space."""

    pre: Predicate
    prog: QuantumProgram
    post: Predicate

    def __post_init__(self) -> None:
        if self.pre.space != self.post.space:
            raise SpaceMismatchError(
                f"pre and post outcome spaces differ: "
                f"{list(self.pre.space.atoms)} vs {list(self.post.space.atoms)}"
            )
        if self.pre.dim != self.post.dim:
            raise DimensionMismatchError(f"pre dim {self.pre.dim} vs post dim {self.post.dim}")
        if self.prog.dim != self.pre.dim:
            raise DimensionMismatchError(f"program dim {self.prog.dim} vs predicate dim {self.pre.dim}")


@dataclass(frozen=True, eq=False)
class Witness:
    """A state on which a claimed precondition overshoots: lhs > rhs."""

    atom: str
    state: DensityState
    lhs: float
    rhs: float


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Verdict plus the evidence needed to replay it.

    margins hold, per atom, the smallest eigenvalue of the transformed effect
    minus the candidate effect (negative margin = violated atom); residuals
    hold the per-atom max duality residual over seeded sample states.
    """

    verdict: str
    witness: Witness | None
    residuals: dict[str, float]
    margins: dict[str, float]
    seed: int

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


@dataclass(frozen=True, eq=False)
class WeakestCheckReport:
    """Outcome of the sampled supremum audit."""

    trials: int
    all_dominated: bool
    dominated: int
    confirmed_preconditions: int
    min_margin: float
    seed: int


def wp(c: QuantumProgram, f: Predicate, tol: ToleranceConfig | None = None) -> Predicate:
    """Weakest precondition of a predicate under a program.

    Each output effect is the adjoint of the program applied to the matching
    input effect. Programs failing the trace-preservation test are refused;
    so are invalid predicates. For a positive program the output is again a
    valid predicate, and a complete predicate stays complete because the dual
    of a trace-preserving map is unital.
    """
    tol = tol or DEFAULT_TOL
    if f.dim != c.dim:
        raise DimensionMismatchError(f"predicate dim {f.dim} vs program dim {c.dim}")
    report = validate_predicate(f, tol)
    if not report.ok:
        raise ValidationError("invalid predicate: " + "; ".join(report.violations))
    return _transform(c, f, tol)


def _transform(c: QuantumProgram, f: Predicate, tol: ToleranceConfig) -> Predicate:
    """wp(c, f) for a predicate f already validated at c's dim."""
    conj = c.super.conj()  # once, for the trace-preservation test and the pull-back
    if float(_unital_gaps(conj)) > tol.residual_tol:
        raise NotTracePreservingError(f"program {c.label!r} is not trace preserving")
    effects, bad = _pull_back(conj, f.effects)
    # a finite superoperator that passes the unital test can still overflow
    if bad:
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return Predicate._from_stack(f.space, effects)


def _pull_back(conjs: np.ndarray, effects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """wp's effects for the conjugates (..., d², d²) of superoperators and effects (..., k, d, d):
    the C-ordered outputs and the mask (...) of those with a non-finite entry.

    The adjoint acts as the view ``conjs.swapaxes(-1, -2)``, the layout
    :func:`adjoint` stores: a C-ordered copy would change the rounding.
    """
    out = np.ascontiguousarray(_act(conjs.swapaxes(-1, -2)[..., None, :, :], effects))
    return out, ~np.isfinite(out).all(axis=(-3, -2, -1))


def _duality_gaps(g: np.ndarray, f: np.ndarray, rho: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|Tr(G_a rho) - Tr(F_a C(rho))|, shape (..., k), for effects g, f (..., k, d, d) and
    states rho with outputs out (..., d, d); np.hypot rounds as a scalar abs() does."""
    gap = _traces(g @ rho[..., None, :, :]) - _traces(f @ out[..., None, :, :])
    return np.hypot(gap.real, gap.imag)


def duality_residual(
    c: QuantumProgram,
    f: Predicate,
    rho: DensityState,
    tol: ToleranceConfig | None = None,
) -> dict[str, float]:
    """Per-atom |Tr(G_a rho) - Tr(F_a C(rho))| for G = wp(c, f).

    The two sides travel disjoint code paths: the left through the adjoint
    superoperator acting on effects, the right by running the program on the
    state. Their agreement is the load-bearing identity of the package.
    """
    tol = tol or DEFAULT_TOL
    g = wp(c, f, tol)
    out = apply(c, rho, tol)
    return dict(zip(f.space.atoms, _duality_gaps(g.effects, f.effects, rho.matrix, out.matrix).tolist()))


def duality_residual_sweep(
    c: QuantumProgram,
    f: Predicate,
    tol: ToleranceConfig | None = None,
    seed: int = 0,
    states: int = RESIDUAL_SAMPLE_STATES,
) -> dict[str, float]:
    """Per-atom max duality residual over seeded random states.

    The states come from one generator seeded by (seed, 0x0D0A) and are drawn
    and checked in stacked blocks; each residual is the modulus of
    Tr(G_a rho) - Tr(F_a C(rho)) with the same rounding as a scalar abs().
    """
    return _residual_sweep(c, f, wp(c, f, tol), seed, states)


def _residual_sweep(
    c: QuantumProgram, f: Predicate, g: Predicate, seed: int, states: int = RESIDUAL_SAMPLE_STATES
) -> dict[str, float]:
    """:func:`duality_residual_sweep` for g = wp(c, f), already computed."""
    worst = [0.0] * len(f.space.atoms)
    rng = np.random.default_rng([seed, 0x0D0A])
    block = _block_size(c.dim, len(worst))  # _duality_gaps makes (rows, k, d, d) products
    for start in range(0, states, block):
        rho = random_densities(rng, min(block, states - start), c.dim)
        gaps = _duality_gaps(g.effects, f.effects, rho, apply_matrices(c, rho)).max(axis=0)
        worst = [max(w, x) for w, x in zip(worst, gaps.tolist())]
    return dict(zip(f.space.atoms, worst))


def is_precondition(
    g: Predicate,
    c: QuantumProgram,
    f: Predicate,
    tol: ToleranceConfig | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Decide whether g is a precondition of f under c, with evidence.

    Holds exactly when g sits below wp(c, f) atom by atom. On failure the
    witness state is the eigenvector of the most negative eigenvalue of the
    deficit wp_a - g_a (the state maximizing the violation), and the report
    shows Tr(g_a rho) > Tr(f_a C(rho)) numerically.
    """
    tol = tol or DEFAULT_TOL
    if g.space != f.space:
        raise SpaceMismatchError(
            f"candidate and postcondition outcome spaces differ: "
            f"{list(g.space.atoms)} vs {list(f.space.atoms)}"
        )
    transformed = wp(c, f, tol)
    if g.dim != transformed.dim:
        raise DimensionMismatchError(f"candidate dim {g.dim} vs program dim {transformed.dim}")

    vals, vecs = _eigh(transformed.effects - g.effects)
    lowest = vals[:, 0]
    margins = dict(zip(f.space.atoms, lowest.tolist()))
    holds = predicate_leq(g, transformed, tol)
    residuals = _residual_sweep(c, f, transformed, seed)
    witness = None
    if not holds:
        worst = int(np.argmin(lowest))  # the first atom of least margin
        worst_atom = f.space.atoms[worst]
        rho = DensityState.pure(vecs[worst, :, 0])
        lhs = float(np.trace(g.effect(worst_atom) @ rho.matrix).real)
        rhs = float(np.trace(f.effect(worst_atom) @ apply_matrix(c, rho.matrix)).real)
        witness = Witness(atom=worst_atom, state=rho, lhs=lhs, rhs=rhs)
    return VerificationReport(
        verdict="holds" if holds else "fails",
        witness=witness,
        residuals=residuals,
        margins=margins,
        seed=seed,
    )


def verify_triple(
    t: HoareTriple,
    tol: ToleranceConfig | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Hoare-style check: the triple holds when pre is a precondition of post."""
    return is_precondition(t.pre, t.prog, t.post, tol, seed)


def _traces(stack: np.ndarray) -> np.ndarray:
    return np.trace(stack, axis1=-2, axis2=-1)


def _require_finite_hermitian(stack: np.ndarray, tol: ToleranceConfig) -> None:
    # the per-matrix checks of Predicate and loewner_leq, run once per stack
    if not np.all(np.isfinite(stack)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    if float(_hermiticity_gaps(stack).max()) > tol.residual_tol:
        raise ValueError("loewner_leq requires hermitian operands")


def weakest_check(
    c: QuantumProgram,
    f: Predicate,
    tol: ToleranceConfig | None = None,
    seed: int = 0,
    states_per_trial: int = 50,
) -> WeakestCheckReport:
    """Sampled supremum audit for the transformer.

    Draws sample_count candidate predicates guaranteed below wp(c, f) by
    sandwich shrinkage G_a = S^{1/2} W S^{1/2} (S the transformed effect, W a
    random effect), confirms each candidate is a genuine precondition through
    the duality-side inequality Tr(G_a rho) <= Tr(F_a C(rho)) on sampled
    states, then confirms it is dominated by wp(c, f). Every trial seeds its
    own generator from (seed, trial) and draws one W per atom (the normals
    of its eigenbasis, then its eigenvalues), then all of its states, so
    results are schedule-independent. Trials are shaped and checked in
    stacked blocks of at most STACK_BYTES per stack of states.
    """
    tol = tol or DEFAULT_TOL
    margins, confirmed = _dominations(c, f, tol, seed, tol.sample_count, states_per_trial)
    dominated = int(np.count_nonzero(margins >= -tol.eig_tol))
    return WeakestCheckReport(
        trials=tol.sample_count,
        all_dominated=dominated == tol.sample_count,
        dominated=dominated,
        confirmed_preconditions=int(np.count_nonzero(confirmed)),
        min_margin=float(margins.min()),
        seed=seed,
    )


def _dominations(
    c: QuantumProgram, f: Predicate, tol: ToleranceConfig, seed: int, n: int, states_per_trial: int
) -> tuple[np.ndarray, np.ndarray]:
    """The n candidates of :func:`weakest_check`: each one's least margin λ_min(wp_a - G_a)
    over atoms, shape (n,), and whether its states confirm it a precondition, shape (n,)."""
    transformed = wp(c, f, tol)
    atoms = f.space.atoms
    d = c.dim
    bounds = transformed.effects
    _require_finite_hermitian(bounds, tol)
    roots = _psd_sqrts(bounds)

    margins = np.empty(n)
    confirmed = np.empty(n, dtype=bool)
    block = _block_size(d, max(states_per_trial, len(atoms)))
    for start in range(0, n, block):
        stop = min(start + block, n)
        normals, spectra, states = [], [], []
        for trial in range(start, stop):
            rng = np.random.default_rng([seed, trial])
            for _ in atoms:
                normals.append(rng.standard_normal((2, d, d)))
                spectra.append(rng.uniform(0.0, 1.0, size=d))
            states.append(rng.standard_normal((states_per_trial, 2, d, d)))
        shrinks = _haar_spectral(np.array(normals), np.array(spectra)).reshape(stop - start, len(atoms), d, d)
        cands = roots @ shrinks @ roots  # (trials, atoms, d, d)
        _require_finite_hermitian(cands, tol)
        rho = _densities(np.array(states).reshape(-1, 2, d, d)).reshape(stop - start, states_per_trial, d, d)
        out = apply_matrices(c, rho)

        violated = np.zeros(rho.shape[:2], dtype=bool)
        for i, a in enumerate(atoms):
            lhs = _traces(cands[:, i, None] @ rho).real
            rhs = _traces(f.effect(a) @ out).real
            violated |= lhs > rhs + tol.residual_tol
        confirmed[start:stop] = ~violated.any(axis=1)
        margins[start:stop] = _eigvalsh(bounds - cands).min(axis=(-2, -1))  # over atoms and eigenvalues
    return margins, confirmed


def wp_compose_check(
    c1: QuantumProgram,
    c2: QuantumProgram,
    f: Predicate,
    tol: ToleranceConfig | None = None,
) -> float:
    """Max entrywise gap between wp(seq(c1, c2), f) and wp(c1, wp(c2, f)).

    The two sides evaluate the same composite through different orders, so
    the gap is pure floating-point noise for any trace-preserving pair. f is
    validated once, and so is the intermediate wp(c2, f).
    """
    tol = tol or DEFAULT_TOL
    left = wp(seq(c1, c2), f, tol)
    right = wp(c1, _transform(c2, f, tol), tol)
    return max(
        float(np.abs(left.effect(a) - right.effect(a)).max()) for a in f.space.atoms
    )


def dp_reduction(
    c: QuantumProgram,
    m,
    tol: ToleranceConfig | None = None,
) -> np.ndarray:
    """Single-effect transformer: wrap, transform, unwrap.

    The operator must be an effect (hermitian, spectrum within [0, 1]) and the
    program must be completely positive; for any Kraus family {K} of the
    program the result equals sum K† m K.
    """
    tol = tol or DEFAULT_TOL
    if not is_completely_positive(c, tol):
        raise ValidationError("dp_reduction needs a completely positive program")
    m = as_complex_matrix(m)
    if not is_hermitian(m, tol):
        raise ValidationError("operator is not hermitian")
    lo = min_eigenvalue(m)
    hi = -min_eigenvalue(-m)
    if lo < -tol.eig_tol or hi > 1.0 + tol.eig_tol:
        raise ValidationError(
            f"operator is not an effect (eigenvalues span [{lo:.6g}, {hi:.6g}])"
        )
    one_atom = Predicate(OutcomeSpace(("outcome",)), [m])
    return wp(c, one_atom, tol).effect("outcome")
