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

from .errors import DimensionMismatchError, NotTracePreservingError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _block_size,
    _densities,
    _effect_draws,
    _eigh,
    _eigvalsh,
    _haar_spectral,
    _loewner_order,
    _psd_sqrts,
    _require_finite,
    _traces,
    random_densities,
)
from .predicates import OutcomeSpace, Predicate, _require_comparable, _require_valid
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
    vec,
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
# states that confirm a supremum-audit candidate or certify an orders pair
CERTIFYING_STATES = 50


@dataclass(frozen=True, eq=False)
class HoareTriple:
    """Precondition / program / postcondition, over one outcome space."""

    pre: Predicate
    prog: QuantumProgram
    post: Predicate

    def __post_init__(self) -> None:
        _require_comparable(self.pre, self.post)
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


def wp(c: QuantumProgram, f: Predicate, tol: ToleranceConfig = DEFAULT_TOL) -> Predicate:
    """Weakest precondition of a predicate under a program.

    Each output effect is the adjoint of the program applied to the matching
    input effect. Programs failing the trace-preservation test are refused;
    so are invalid predicates. For a positive program the output is again a
    valid predicate, and a complete predicate stays complete because the dual
    of a trace-preserving map is unital.
    """
    if f.dim != c.dim:
        raise DimensionMismatchError(f"predicate dim {f.dim} vs program dim {c.dim}")
    _require_valid(f, tol)
    return _transform(c, f, tol)


def _transform(c: QuantumProgram, f: Predicate, tol: ToleranceConfig) -> Predicate:
    """wp(c, f) for a predicate f already validated at c's dim."""
    if float(_unital_gaps(c.super)) > tol.residual_tol:
        raise NotTracePreservingError(f"program {c.label!r} is not trace preserving")
    effects = _pull_back(c.super, f.effects)
    # a finite superoperator that passes the unital test can still overflow
    _require_finite(effects)
    return Predicate._from_stack(f.space, effects)


def _pull_back(supers: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """wp's effects, C-ordered, for superoperators (..., d², d²) and effects (..., k, d, d).

    The adjoint acts as conj(Sᵀ conj(F)), with Sᵀ the view ``supers.swapaxes(-1, -2)``, so S is
    never copied. Each product term is the adjoint's conj(S)ᵀ F term negated in its imaginary
    part only, so these are the bits of :func:`adjoint`'s superoperator acting on F, once every
    zero is +0.0 again as a product writes it. A C-ordered copy of the view would change the
    rounding. The view is stored by columns, so :func:`_act` multiplies it in one product, not
    by row blocks, which ran slower on it and rounded differently.
    """
    g = np.conjugate(_act(supers.swapaxes(-1, -2)[..., None, :, :], effects.conj()), order="C")
    g += 0.0  # the conjugate turns a +0.0 imaginary part into -0.0
    return g


def _duality_gaps(g: np.ndarray, f: np.ndarray, rho: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|Tr(G_a rho) - Tr(F_a C(rho))|, shape (..., k), for effects g, f (..., k, d, d) and
    states rho with outputs out (..., d, d); np.hypot rounds as a scalar abs() does."""
    gap = _traces(g @ rho[..., None, :, :]) - _traces(f @ out[..., None, :, :])
    return np.hypot(gap.real, gap.imag)


def duality_residual(
    c: QuantumProgram,
    f: Predicate,
    rho: DensityState,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> dict[str, float]:
    """Per-atom |Tr(G_a rho) - Tr(F_a C(rho))| for G = wp(c, f).

    The two sides travel disjoint code paths: the left through the adjoint
    superoperator acting on effects, the right by running the program on the
    state. Their agreement is the load-bearing identity of the package.
    """
    g = wp(c, f, tol)
    out = apply(c, rho, tol)
    return dict(zip(f.space.atoms, _duality_gaps(g.effects, f.effects, rho.matrix, out.matrix).tolist()))


def duality_residual_sweep(
    c: QuantumProgram,
    f: Predicate,
    tol: ToleranceConfig = DEFAULT_TOL,
    seed: int = 0,
) -> dict[str, float]:
    """Per-atom max duality residual over RESIDUAL_SAMPLE_STATES seeded random states.

    The states come from one generator seeded by (seed, 0x0D0A) and are drawn
    and checked in stacked blocks; each residual is the modulus of
    Tr(G_a rho) - Tr(F_a C(rho)) with the same rounding as a scalar abs().
    """
    return _residual_sweep(c, f, wp(c, f, tol), seed)


def _residual_sweep(c: QuantumProgram, f: Predicate, g: Predicate, seed: int) -> dict[str, float]:
    """:func:`duality_residual_sweep` for g = wp(c, f), already computed."""
    worst = [0.0] * len(f.space.atoms)
    rng = np.random.default_rng([seed, 0x0D0A])
    block = _block_size(c.dim, len(worst))  # _duality_gaps makes (rows, k, d, d) products
    for start in range(0, RESIDUAL_SAMPLE_STATES, block):
        rho = random_densities(rng, min(block, RESIDUAL_SAMPLE_STATES - start), c.dim)
        gaps = _duality_gaps(g.effects, f.effects, rho, apply_matrices(c, rho)).max(axis=0)
        worst = [max(w, x) for w, x in zip(worst, gaps.tolist())]
    return dict(zip(f.space.atoms, worst))


def is_precondition(
    g: Predicate,
    c: QuantumProgram,
    f: Predicate,
    tol: ToleranceConfig = DEFAULT_TOL,
    seed: int = 0,
) -> VerificationReport:
    """Decide whether g is a precondition of f under c, with evidence.

    Holds or refuses exactly as ``predicate_leq(g, wp(c, f), tol)`` does; the
    margins are its λ_min(wp_a - g_a). On failure the witness state is the
    lowest eigenvector of the deficit wp_a - g_a of least margin (the state
    maximizing the violation), and the report shows Tr(g_a rho) >
    Tr(f_a C(rho)) numerically.
    """
    _require_comparable(g, f)
    transformed = wp(c, f, tol)

    vals, vecs = _eigh(transformed.effects - g.effects)
    lowest = vals[:, 0]
    margins = dict(zip(f.space.atoms, lowest.tolist()))
    holds = bool(_loewner_order(g.effects, transformed.effects, tol, lowest).all())
    residuals = _residual_sweep(c, f, transformed, seed)
    witness = None
    if not holds:
        worst = int(np.argmin(lowest))  # the first atom of least margin
        worst_atom = f.space.atoms[worst]
        rho = DensityState.pure(vecs[worst, :, 0])
        lhs = float(_traces(g.effect(worst_atom) @ rho.matrix).real)
        rhs = float(_traces(f.effect(worst_atom) @ apply_matrix(c, rho.matrix)).real)
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
    tol: ToleranceConfig = DEFAULT_TOL,
    seed: int = 0,
) -> VerificationReport:
    """Hoare-style check: the triple holds when pre is a precondition of post."""
    return is_precondition(t.pre, t.prog, t.post, tol, seed)


def weakest_check(
    c: QuantumProgram,
    f: Predicate,
    tol: ToleranceConfig = DEFAULT_TOL,
    seed: int = 0,
) -> WeakestCheckReport:
    """Sampled supremum audit for the transformer.

    Draws sample_count candidate predicates guaranteed below wp(c, f) by
    sandwich shrinkage G_a = S^{1/2} W S^{1/2} (S the transformed effect, W a
    random effect), confirms each candidate is a genuine precondition through
    the duality-side inequality Tr(G_a rho) <= Tr(F_a C(rho)) on
    CERTIFYING_STATES sampled states, then confirms it is dominated by
    wp(c, f). Every trial seeds its own generator from (seed, trial) and
    draws one W per atom (the normals of its eigenbasis, then its
    eigenvalues), then all of its states, so results are
    schedule-independent. Trials are shaped and checked in
    stacked blocks of at most STACK_BYTES per stack of states or of traces.
    """
    margins, dominated, confirmed = _dominations(c, f, tol, seed, tol.sample_count)
    return WeakestCheckReport(
        trials=tol.sample_count,
        all_dominated=bool(dominated.all()),
        dominated=int(np.count_nonzero(dominated)),
        confirmed_preconditions=int(np.count_nonzero(confirmed)),
        min_margin=float(margins.min()),
        seed=seed,
    )


def _dominations(
    c: QuantumProgram, f: Predicate, tol: ToleranceConfig, seed: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n candidates of :func:`weakest_check`: each one's least margin λ_min(wp_a - G_a) over
    atoms, whether wp dominates it and whether its states confirm it a precondition, each (n,).

    A block's states are confirmed by matrix products on their rows vec(rho):
    one with the superoperator for C(rho), then one with the postcondition's
    and one with the candidates' effects for the traces. Their rounding is not
    a per-matrix trace's, but only the flags leave this function.
    """
    transformed = wp(c, f, tol)
    atoms = f.space.atoms
    d = c.dim
    bounds = transformed.effects
    roots = _psd_sqrts(bounds)

    margins = np.empty(n)
    dominated = np.empty(n, dtype=bool)
    confirmed = np.empty(n, dtype=bool)
    k, dd, s = len(atoms), d * d, CERTIFYING_STATES
    # Tr(F_a X) is the dot product of F_a's C-ordered entries with vec(X)
    posts = f.effects.reshape(k, dd).T
    # a block holds each trial's states, its candidates and its (states, atoms) traces
    block = _block_size(d, max(s, k, -(-s * k // dd)))
    for start in range(0, n, block):
        stop = min(start + block, n)
        m = stop - start
        draws, states = [], []
        for trial in range(start, stop):
            rng = np.random.default_rng([seed, trial])
            draws.append(_effect_draws(rng, k, d))
            states.append(rng.standard_normal((s, 2, d, d)))
        normals, spectra = zip(*draws)
        shrinks = _haar_spectral(np.array(normals), np.array(spectra))  # (trials, atoms, d, d)
        cands = roots @ shrinks @ roots  # (trials, atoms, d, d)
        _require_finite(cands)  # the Predicate constructor's check
        lows = _eigvalsh(bounds - cands)[..., 0]  # (trials, atoms)
        dominated[start:stop] = _loewner_order(cands, bounds, tol, lows).all(axis=-1)
        margins[start:stop] = lows.min(axis=-1)
        rows = vec(_densities(np.array(states).reshape(-1, 2, d, d)))  # (trials·states, d²)

        # Tr(F_a C(rho)) with the program run forward, never through wp's adjoint
        rhs = ((rows @ c.super.T) @ posts).real.reshape(m, s, k)
        # Tr(G_a rho), one (states, d²) by (d², atoms) product a trial
        lhs = (rows.reshape(m, s, dd) @ cands.reshape(m, k, dd).swapaxes(-1, -2)).real
        confirmed[start:stop] = ~(lhs > rhs + tol.residual_tol).any(axis=(1, 2))
    return margins, dominated, confirmed


def wp_compose_check(
    c1: QuantumProgram,
    c2: QuantumProgram,
    f: Predicate,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> float:
    """Max entrywise gap between wp(seq(c1, c2), f) and wp(c1, wp(c2, f)).

    The two sides evaluate the same composite through different orders, so
    the gap is pure floating-point noise for any trace-preserving pair. f is
    validated once, and so is the intermediate wp(c2, f).
    """
    left = wp(seq(c1, c2), f, tol)
    right = wp(c1, _transform(c2, f, tol), tol)
    return float(np.abs(left.effects - right.effects).max())


def dp_reduction(
    c: QuantumProgram,
    m,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Single-effect transformer: wrap, transform, unwrap.

    The operator must be an effect (hermitian, spectrum within [0, 1]) and the
    program must be completely positive; for any Kraus family {K} of the
    program the result equals sum K† m K.
    """
    if not is_completely_positive(c, tol):
        raise ValidationError("dp_reduction needs a completely positive program")
    # wp validates the one-atom predicate: hermitian, PSD, total below the identity
    one_atom = Predicate(OutcomeSpace(("outcome",)), [m])
    return wp(c, one_atom, tol).effect("outcome")
