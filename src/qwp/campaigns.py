"""Seeded property campaigns: the machinery behind the ``properties`` command.

Each trial derives its generator from (campaign seed, dim, trial index), so a
campaign replays exactly from the seed in its report regardless of execution
order. Program kinds cycle through CPTP, unitary, transpose and
transpose/CPTP mixtures so the non-CP corner is always exercised.

The duality, compose and orders sweeps run each dim's trials in blocks:
every trial of a block draws its raw arrays from its own generator, in the
order the scalar samplers draw them, and then the whole block is shaped and
checked in stacks, grouped by program kind and by atom count. The stacked
checks are those the scalar functions make, on the same bits; when one
refuses a trial, the block's trials are replayed through the scalar
functions up to that trial, so the campaign raises the exception of its
earliest failing trial. An orders trial draws its states last, after its
pair's stacked verdict, and only when its pair comes out f ⪯ g. The
weakest sweep runs through the same blocks: one block is one (program,
predicate) pair, drawn from (seed, dim, pair index), and its trials are that
pair's candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _block_size,
    _densities,
    _effect_draws,
    _eigh,
    _haar_spectral,
    _loewner_flags,
    _psd_sqrts,
    psd_sqrt,
    random_densities,
    random_density,
    random_effect,
)
from .predicates import (
    MAX_RANDOM_ATOMS,
    Predicate,
    _draw_predicate,
    _predicate_faults,
    _random_effects,
    predicate_leq,
    random_predicate,
)
from .programs import (
    _PROGRAM_KINDS,
    APPLY_EIG_SLACK,
    DensityState,
    _act,
    _draw_program,
    _invalid_states,
    _sampled_supers,
    _unital_gaps,
    sample_program,
)
from .wp import (
    CERTIFYING_STATES, _dominations, _duality_gaps, _pull_back, _traces, duality_residual, wp_compose_check,
)

__all__ = [
    "CampaignResult",
    "duality_campaign",
    "weakest_campaign",
    "compose_campaign",
    "orders_campaign",
    "run_suite",
    "SUITES",
]


@dataclass(frozen=True)
class CampaignResult:
    """Aggregated outcome of one property campaign."""

    suite: str
    dims: tuple[int, ...]
    trials: int
    failures: int
    max_residual: float
    seed: int
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _trial_rng(seed: int, dim: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, dim, trial])


def _program_kind(trials):
    """The program kind of a trial index, or the kinds (n,) of an array of them: kinds cycle through _PROGRAM_KINDS."""
    return np.asarray(_PROGRAM_KINDS)[trials % len(_PROGRAM_KINDS)]


class _TrialRefused(Exception):
    """A stacked check refused a trial of the block; ``trial`` is the earliest it refused."""

    def __init__(self, trial: int):
        super().__init__(trial)
        self.trial = trial


def _require(bad: np.ndarray, trials: np.ndarray) -> None:
    """Stop the block when a stacked check refuses any of ``trials`` (its mask ``bad``)."""
    if bad.any():
        raise _TrialRefused(int(trials[bad].min()))


def _superoperator_rows(dim: int) -> int:
    """Trials a block holds when each trial's stacks are d² complex d×d matrices, one superoperator."""
    return _block_size(dim, dim * dim)


def _sweep(
    suite: str, block_values, trial_value, dims, trials, seed, tol, block_rows=_superoperator_rows
) -> CampaignResult:
    """Run a sweep block by block.

    ``block_rows(dim)`` is the number of trials a block of that dim holds.
    ``block_values(seed, dim, block, tol)`` gives the values a block adds to
    max_residual, from 0.0, and the mask of its failures, whose nonzero
    entries are counted; ``trial_value(seed, dim, trial, tol)`` runs one trial
    through the scalar functions and is called only to replay a block that
    raised :class:`_TrialRefused`.
    """
    failures = 0
    worst = 0.0
    total = 0
    for dim in dims:
        size = block_rows(dim)
        for start in range(0, trials, size):
            block = range(start, min(start + size, trials))
            try:
                values, failed = block_values(seed, dim, block, tol)
            except _TrialRefused as refused:
                for trial in range(block.start, refused.trial + 1):
                    trial_value(seed, dim, trial, tol)
                raise RuntimeError(
                    f"{suite}: a stacked check refused trial {refused.trial} of dim {dim}, which passes alone"
                ) from None
            if values.size:
                worst = max(worst, float(values.max()))
            failures += int(np.count_nonzero(failed))
            total += len(block)
    return CampaignResult(suite, tuple(dims), total, failures, worst, seed)


def _predicate_groups(draws: list) -> list[tuple[np.ndarray, np.ndarray]]:
    """(positions, effects (m, k, d, d)) for each atom count k among a block's predicate draws."""
    counts = np.array([len(z) for z, _ in draws])
    groups = []
    for k in sorted(set(counts.tolist())):  # np.unique would import numpy.ma
        pos = np.flatnonzero(counts == k)
        z = np.array([draws[p][0] for p in pos])
        factors = np.array([draws[p][1] for p in pos])
        groups.append((pos, _random_effects(z, factors[:, None, None, None])))
    return groups


def _block_wp(supers: np.ndarray, groups: list, trials: np.ndarray, tol: ToleranceConfig) -> list:
    """wp of a block's programs (n, d², d²) on its checked (positions, effects) groups:
    (positions, transformed effects) for each group, stopping the block as wp raises.
    """
    _require(_unital_gaps(supers) > tol.residual_tol, trials)
    out = []
    for pos, f in groups:
        g = _pull_back(supers[pos], f)
        _require(~np.isfinite(g).all(axis=(-3, -2, -1)), trials[pos])
        out.append((pos, g))
    return out


def _duality_trial(seed: int, dim: int, trial: int, tol: ToleranceConfig) -> float:
    rng = _trial_rng(seed, dim, trial)
    prog = sample_program(_program_kind(trial), dim, rng)
    pred = random_predicate(rng, dim)
    rho = DensityState(random_density(rng, dim), tol)
    return max(duality_residual(prog, pred, rho, tol).values())


def _duality_block(seed: int, dim: int, block: range, tol: ToleranceConfig) -> np.ndarray:
    trials = np.arange(block.start, block.stop)
    kinds = _program_kind(trials)
    programs, predicates, states = [], [], []
    for trial, kind in zip(block, kinds):
        rng = _trial_rng(seed, dim, trial)
        programs.append(_draw_program(kind, dim, rng))
        predicates.append(_draw_predicate(rng, dim))
        states.append(rng.standard_normal((2, dim, dim)))
    supers, refused = _sampled_supers(dim, kinds, programs)
    _require(refused, trials)
    groups = _predicate_groups(predicates)
    rho = _densities(np.array(states))
    _require(_invalid_states(rho, tol), trials)
    # wp(c, f): the predicate, the program, the output
    for pos, f in groups:
        _require(_predicate_faults(f, tol), trials[pos])
    transformed = _block_wp(supers, groups, trials, tol)
    # apply(c, rho)
    out = _act(supers, rho)
    _require(_invalid_states(out, tol, eig_slack=APPLY_EIG_SLACK), trials)
    residuals = np.empty(len(trials))
    for (pos, f), (_, g) in zip(groups, transformed):
        # each output F-ordered, as DensityState stores it
        out_k = out.swapaxes(-1, -2)[pos].swapaxes(-1, -2)
        residuals[pos] = _duality_gaps(g, f, rho[pos], out_k).max(axis=-1)
    return residuals, residuals > tol.residual_tol


def duality_campaign(
    dims: Sequence[int],
    trials: int,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> CampaignResult:
    """Duality identity sweep: Tr(G_a rho) vs Tr(F_a C(rho)) over random tuples."""
    return _sweep("duality", _duality_block, _duality_trial, dims, trials, seed, tol)


# candidates a weakest block checks against one (program, predicate) pair
_WEAKEST_PAIR_CANDIDATES = 250


def _weakest_block(seed: int, dim: int, block: range, tol: ToleranceConfig):
    """One pair's candidates: their negated least margins, and a mask (n, 2) of those
    that wp does not dominate and of those their states do not confirm.

    The pair is drawn and checked by the scalar functions, which raise as they would alone.
    """
    pair = block.start // _WEAKEST_PAIR_CANDIDATES
    rng = _trial_rng(seed, dim, pair)
    prog = sample_program(_program_kind(pair), dim, rng)
    pred = random_predicate(rng, dim)
    margins, dominated, confirmed = _dominations(prog, pred, tol, int(rng.integers(2**31)), len(block))
    return -margins, np.stack([~dominated, ~confirmed], axis=-1)


def weakest_campaign(
    dims: Sequence[int],
    trials: int,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> CampaignResult:
    """Supremum audit: shrinkage candidates must all be dominated by wp.

    A block spends at most 250 trials as the candidates of one random
    (program, predicate) pair, drawn from (seed, dim, pair index). A trial
    fails once when wp does not dominate its candidate and once when its
    states do not confirm it. max_residual is the most negative margin
    λ_min(wp_a - G_a), negated, or 0.0 when no margin is negative. A
    negative margin is also printed in a note.
    """
    result = _sweep(
        "weakest", _weakest_block, None, dims, trials, seed, tol,
        lambda dim: _WEAKEST_PAIR_CANDIDATES,
    )
    if result.max_residual > 0:
        result = replace(result, notes=(f"most negative domination margin {-result.max_residual:.3e}",))
    return result


def _compose_trial(seed: int, dim: int, trial: int, tol: ToleranceConfig) -> float:
    rng = _trial_rng(seed, dim, trial)
    c1 = sample_program(_program_kind(trial), dim, rng)
    c2 = sample_program(_program_kind(trial + 1), dim, rng)
    pred = random_predicate(rng, dim)
    return wp_compose_check(c1, c2, pred, tol)


def _compose_block(seed: int, dim: int, block: range, tol: ToleranceConfig) -> np.ndarray:
    trials = np.arange(block.start, block.stop)
    kinds1, kinds2 = _program_kind(trials), _program_kind(trials + 1)
    firsts, seconds, predicates = [], [], []
    for trial, kind1, kind2 in zip(block, kinds1, kinds2):
        rng = _trial_rng(seed, dim, trial)
        firsts.append(_draw_program(kind1, dim, rng))
        seconds.append(_draw_program(kind2, dim, rng))
        predicates.append(_draw_predicate(rng, dim))
    s1, refused1 = _sampled_supers(dim, kinds1, firsts)
    s2, refused2 = _sampled_supers(dim, kinds2, seconds)
    _require(refused1 | refused2, trials)
    groups = _predicate_groups(predicates)
    both = s2 @ s1  # seq(c1, c2)
    _require(~np.isfinite(both).all(axis=(-2, -1)), trials)
    # wp(seq(c1, c2), f), then wp(c2, f) on the f just checked, then wp(c1, wp(c2, f))
    for pos, f in groups:
        _require(_predicate_faults(f, tol), trials[pos])
    left = _block_wp(both, groups, trials, tol)
    middle = _block_wp(s2, groups, trials, tol)
    for pos, h in middle:
        _require(_predicate_faults(h, tol), trials[pos])
    gaps = np.empty(len(trials))
    for (pos, g), (_, right) in zip(left, _block_wp(s1, middle, trials, tol)):
        gaps[pos] = np.abs(g - right).max(axis=(-3, -2, -1))
    return gaps, gaps > tol.residual_tol


def compose_campaign(
    dims: Sequence[int],
    trials: int,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> CampaignResult:
    """Composition law sweep: transforming through seq equals nesting."""
    return _sweep("compose", _compose_block, _compose_trial, dims, trials, seed, tol)


def _orders_trial(seed: int, dim: int, trial: int, tol: ToleranceConfig) -> None:
    """One trial's draws and checks through the scalar functions, which raise as the
    per-trial loop did; its certification and witness raise nothing on effects that pass."""
    rng = _trial_rng(seed, dim, trial)
    g = random_predicate(rng, dim)
    if trial % 2 == 0:
        # construct f below g by sandwich shrinkage
        roots = [psd_sqrt(e) for e in g.effects]
        f = Predicate(g.space, [r @ random_effect(rng, dim) @ r for r in roots])
    else:
        f = random_predicate(rng, dim, n_atoms=len(g.space.atoms))
    if predicate_leq(f, g, tol):
        random_densities(rng, CERTIFYING_STATES, dim)


def _orders_block(seed: int, dim: int, block: range, tol: ToleranceConfig):
    trials = np.arange(block.start, block.stop)
    rngs, g_draws, f_draws = [], [], []
    for trial in block:
        rng = _trial_rng(seed, dim, trial)
        rngs.append(rng)
        g_draws.append(_draw_predicate(rng, dim))
        k = len(g_draws[-1][0])
        if trial % 2 == 0:
            f_draws.append(_effect_draws(rng, k, dim))  # one random_effect an atom
        else:
            f_draws.append(_draw_predicate(rng, dim, n_atoms=k))
    pairs = []  # (positions, f, g) for each parity and atom count
    even, odd = np.flatnonzero(trials % 2 == 0), np.flatnonzero(trials % 2 == 1)
    for pos, g in _predicate_groups([g_draws[i] for i in even]):
        pos = even[pos]
        roots = _psd_sqrts(g)
        normals = np.array([f_draws[p][0] for p in pos])
        spectra = np.array([f_draws[p][1] for p in pos])
        f = roots @ _haar_spectral(normals, spectra) @ roots
        _require(~np.isfinite(f).all(axis=(-3, -2, -1)), trials[pos])  # the Predicate constructor's check
        pairs.append((pos, f, g))
    # an odd trial's f has its g's atom count, so the two group alike
    g_groups = _predicate_groups([g_draws[i] for i in odd])
    for (pos, g), (_, f) in zip(g_groups, _predicate_groups([f_draws[i] for i in odd])):
        pairs.append((odd[pos], f, g))
    values, failed = [np.empty(0)], np.zeros(len(trials), dtype=bool)
    for pos, f, g in pairs:
        vals, vecs = _eigh(g - f)  # λ_min decides the order, the lowest eigenvector is the witness
        ordered, refused = _loewner_flags(f, g, tol, vals[..., 0])
        _require(refused.any(axis=-1), trials[pos])
        leq = ordered.all(axis=-1)
        if leq.any():  # the states of the pairs with f ⪯ g, drawn after their checks
            normals = np.array([rngs[p].standard_normal((CERTIFYING_STATES, 2, dim, dim)) for p in pos[leq]])
            rho = _densities(normals)
            lhs = _traces(rho[:, None] @ f[leq, :, None]).real
            rhs = _traces(rho[:, None] @ g[leq, :, None]).real
            values.append((lhs - rhs).ravel())
            # f ⪯ g was accepted with eig_tol slack: Tr(f rho) - Tr(g rho) ≤ eig_tol, up to rounding
            failed[pos[leq]] = (lhs > rhs + (tol.eig_tol + tol.residual_tol)).any(axis=(-2, -1))
        if not leq.all():
            # witnesses: the state v v† of the lowest eigenvector v of each g_a - f_a
            f, g, v = f[~leq], g[~leq], vecs[~leq, ..., :, 0]
            rho = v[..., :, None] * v[..., None, :].conj()
            lhs, rhs = _traces(rho @ f).real, _traces(rho @ g).real
            failed[pos[~leq]] = ~(~ordered[~leq] & (lhs > rhs + tol.eig_tol)).any(axis=-1)
    return np.concatenate(values), failed


def orders_campaign(
    dims: Sequence[int],
    trials: int,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> CampaignResult:
    """Order-equivalence sweep over predicate pairs.

    Each pair is classified by predicate_leq. Positive pairs are certified
    against CERTIFYING_STATES sampled states, with the verdict's eig_tol
    slack plus residual_tol for rounding; negative pairs must yield an
    eigenvector witness state whose masses violate the order by more than
    eig_tol.
    """
    return _sweep(
        "orders", _orders_block, _orders_trial, dims, trials, seed, tol,
        # blocks sized for the (k, states, d, d) products of a trial, k ≤ MAX_RANDOM_ATOMS
        lambda dim: _block_size(dim, MAX_RANDOM_ATOMS * CERTIFYING_STATES),
    )


SUITES = {
    "duality": duality_campaign,
    "weakest": weakest_campaign,
    "compose": compose_campaign,
    "orders": orders_campaign,
}


def run_suite(
    suite: str,
    dims: Sequence[int],
    trials: int,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[CampaignResult]:
    """Run one named campaign, or all of them."""
    if suite == "all":
        return [fn(dims, trials, seed, tol) for fn in SUITES.values()]
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {sorted(SUITES)} or 'all'")
    return [SUITES[suite](dims, trials, seed, tol)]
