"""Seeded property campaigns: the machinery behind the ``properties`` command.

Each trial derives its generator from (campaign seed, dim, trial index), so a
campaign replays exactly from the seed in its report regardless of execution
order. Program kinds cycle through CPTP, unitary, transpose and
transpose/CPTP mixtures so the non-CP corner is always exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    hermitian_eig,
    psd_sqrt,
    random_densities,
    random_density,
    random_effect,
)
from .predicates import Predicate, predicate_leq, random_predicate
from .programs import DensityState, sample_program
from .wp import duality_residual, weakest_check, wp_compose_check

__all__ = [
    "CampaignResult",
    "duality_campaign",
    "weakest_campaign",
    "compose_campaign",
    "orders_campaign",
    "run_suite",
    "SUITES",
]

_PROGRAM_CYCLE = ("cptp", "unitary", "transpose", "transpose_mix")


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


def duality_campaign(
    dims: Sequence[int],
    trials: int,
    seed: int,
    tol: ToleranceConfig | None = None,
) -> CampaignResult:
    """Duality identity sweep: Tr(G_a rho) vs Tr(F_a C(rho)) over random tuples."""
    tol = tol or DEFAULT_TOL
    failures = 0
    worst = 0.0
    total = 0
    for dim in dims:
        for trial in range(trials):
            rng = _trial_rng(seed, dim, trial)
            prog = sample_program(_PROGRAM_CYCLE[trial % len(_PROGRAM_CYCLE)], dim, rng)
            pred = random_predicate(rng, dim)
            rho = DensityState(random_density(rng, dim), tol)
            residual = max(duality_residual(prog, pred, rho, tol).values())
            worst = max(worst, residual)
            failures += int(residual > tol.residual_tol)
            total += 1
    return CampaignResult("duality", tuple(dims), total, failures, worst, seed)


def weakest_campaign(
    dims: Sequence[int],
    trials: int,
    seed: int,
    tol: ToleranceConfig | None = None,
) -> CampaignResult:
    """Supremum audit: shrinkage candidates must all be dominated by wp.

    Trials are spent in chunks of at most 250 candidates per random
    (program, predicate) pair.
    """
    tol = tol or DEFAULT_TOL
    failures = 0
    total = 0
    worst_margin = 0.0
    notes = []
    for dim in dims:
        remaining = trials
        pair = 0
        while remaining > 0:
            chunk = min(250, remaining)
            rng = _trial_rng(seed, dim, pair)
            prog = sample_program(_PROGRAM_CYCLE[pair % len(_PROGRAM_CYCLE)], dim, rng)
            pred = random_predicate(rng, dim)
            chunk_tol = ToleranceConfig(tol.eig_tol, tol.residual_tol, chunk)
            report = weakest_check(prog, pred, chunk_tol, seed=int(rng.integers(2**31)))
            total += report.trials
            failures += (report.trials - report.dominated) + (
                report.trials - report.confirmed_preconditions
            )
            worst_margin = min(worst_margin, report.min_margin)
            remaining -= chunk
            pair += 1
    if worst_margin < 0:
        notes.append(f"most negative domination margin {worst_margin:.3e}")
    return CampaignResult(
        "weakest", tuple(dims), total, failures, max(0.0, -worst_margin), seed, tuple(notes)
    )


def compose_campaign(
    dims: Sequence[int],
    trials: int,
    seed: int,
    tol: ToleranceConfig | None = None,
) -> CampaignResult:
    """Composition law sweep: transforming through seq equals nesting."""
    tol = tol or DEFAULT_TOL
    failures = 0
    worst = 0.0
    total = 0
    for dim in dims:
        for trial in range(trials):
            rng = _trial_rng(seed, dim, trial)
            c1 = sample_program(_PROGRAM_CYCLE[trial % len(_PROGRAM_CYCLE)], dim, rng)
            c2 = sample_program(_PROGRAM_CYCLE[(trial + 1) % len(_PROGRAM_CYCLE)], dim, rng)
            pred = random_predicate(rng, dim)
            gap = wp_compose_check(c1, c2, pred, tol)
            worst = max(worst, gap)
            failures += int(gap > tol.residual_tol)
            total += 1
    return CampaignResult("compose", tuple(dims), total, failures, worst, seed)


def orders_campaign(
    dims: Sequence[int],
    trials: int,
    seed: int,
    tol: ToleranceConfig | None = None,
    states_per_pair: int = 50,
) -> CampaignResult:
    """Order-equivalence sweep over predicate pairs.

    Each pair is classified by predicate_leq. Positive pairs are certified
    against sampled states; negative pairs must yield an eigenvector witness
    state whose masses violate the order by more than eig_tol.
    """
    tol = tol or DEFAULT_TOL
    failures = 0
    worst = 0.0
    total = 0
    for dim in dims:
        for trial in range(trials):
            rng = _trial_rng(seed, dim, trial)
            g = random_predicate(rng, dim)
            if trial % 2 == 0:
                # construct f below g by sandwich shrinkage
                roots = [psd_sqrt(e) for e in g.effects]
                f = Predicate(g.space, [r @ random_effect(rng, dim) @ r for r in roots])
            else:
                f = random_predicate(rng, dim, n_atoms=len(g.space.atoms))
            total += 1

            if predicate_leq(f, g, tol):
                rho = random_densities(rng, states_per_pair, dim)
                ok = True
                for a in f.space.atoms:
                    lhs = np.trace(rho @ f.effect(a), axis1=-2, axis2=-1).real
                    rhs = np.trace(rho @ g.effect(a), axis1=-2, axis2=-1).real
                    worst = float(np.max(lhs - rhs, initial=worst))
                    ok = ok and not np.any(lhs > rhs + tol.residual_tol)
                failures += int(not ok)
            else:
                witnessed = False
                for a in f.space.atoms:
                    vals, vecs = hermitian_eig(g.effect(a) - f.effect(a))
                    if vals[0] < -tol.eig_tol:
                        rho = np.outer(vecs[:, 0], vecs[:, 0].conj())
                        lhs = float(np.trace(rho @ f.effect(a)).real)
                        rhs = float(np.trace(rho @ g.effect(a)).real)
                        if lhs > rhs + tol.eig_tol:
                            witnessed = True
                            break
                failures += int(not witnessed)
    return CampaignResult("orders", tuple(dims), total, failures, worst, seed)


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
    tol: ToleranceConfig | None = None,
) -> list[CampaignResult]:
    """Run one named campaign, or all of them."""
    if suite == "all":
        return [fn(dims, trials, seed, tol) for fn in SUITES.values()]
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {sorted(SUITES)} or 'all'")
    return [SUITES[suite](dims, trials, seed, tol)]
