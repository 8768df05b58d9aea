"""Stacked sampling kernels against the per-state loops they replace.

The loops below are the reference oracles: they draw one state at a time
from the same generators and must give the stacked kernels' results exactly,
float for float.
"""

import importlib

import numpy as np
import pytest

from qwp.errors import DimensionMismatchError
from qwp.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    min_eigenvalue,
    psd_sqrt,
    random_densities,
    random_density,
    random_effect,
)
from qwp.predicates import Predicate, predicate_leq, random_predicate
from qwp.programs import apply_matrices, apply_matrix, sample_program, unvec, vec
from qwp.wp import STACK_BYTES, WeakestCheckReport, duality_residual_sweep, weakest_check, wp

# the package re-exports the function wp under the name of its module
qwp_wp = importlib.import_module("qwp.wp")

KINDS = ("cptp", "unitary", "transpose", "transpose_mix")


def ginibre_density_oracle(rng, dim):
    """One density from a Ginibre product, drawn real part then imaginary part."""
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    m = g @ g.conj().T
    return m / np.trace(m).real


def weakest_check_oracle(c, f, tol=None, seed=0, states_per_trial=50):
    """The per-state supremum audit, one trial and one state at a time."""
    tol = tol or DEFAULT_TOL
    transformed = wp(c, f, tol)
    atoms = f.space.atoms
    d = c.dim
    roots = {a: psd_sqrt(transformed.effect(a)) for a in atoms}

    dominated = 0
    confirmed = 0
    min_margin = np.inf
    for trial in range(tol.sample_count):
        rng = np.random.default_rng([seed, trial])
        cand = Predicate(
            f.space, {a: roots[a] @ qwp_wp.random_effect(rng, d) @ roots[a] for a in atoms}
        )

        ok = True
        for _ in range(states_per_trial):
            rho = ginibre_density_oracle(rng, d)
            out = unvec(c.super @ vec(rho))
            for a in atoms:
                lhs = float(np.trace(cand.effect(a) @ rho).real)
                rhs = float(np.trace(f.effect(a) @ out).real)
                if lhs > rhs + tol.residual_tol:
                    ok = False
                    break
            if not ok:
                break
        confirmed += int(ok)

        trial_margin = min(
            min_eigenvalue(transformed.effect(a) - cand.effect(a)) for a in atoms
        )
        min_margin = min(min_margin, trial_margin)
        dominated += int(predicate_leq(cand, transformed, tol))

    return WeakestCheckReport(
        trials=tol.sample_count,
        all_dominated=dominated == tol.sample_count,
        dominated=dominated,
        confirmed_preconditions=confirmed,
        min_margin=float(min_margin),
        seed=seed,
    )


def duality_residual_sweep_oracle(c, f, tol=None, seed=0, states=100):
    """The per-state duality sweep."""
    tol = tol or DEFAULT_TOL
    transformed = wp(c, f, tol)
    worst = {a: 0.0 for a in f.space.atoms}
    rng = np.random.default_rng([seed, 0x0D0A])
    for _ in range(states):
        rho = ginibre_density_oracle(rng, c.dim)
        out = unvec(c.super @ vec(rho))
        for a in f.space.atoms:
            lhs = np.trace(transformed.effect(a) @ rho)
            rhs = np.trace(f.effect(a) @ out)
            worst[a] = max(worst[a], float(abs(lhs - rhs)))
    return worst


def assert_same_report(got, want):
    assert vars(got) == vars(want)
    assert got.min_margin.hex() == want.min_margin.hex()


def problem(kind, dim, seed):
    rng = np.random.default_rng([seed, dim])
    return sample_program(kind, dim, rng), random_predicate(rng, dim)


class TestReplayContract:
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 17])
    def test_random_densities_replay_sequential_draws(self, dim):
        stacked_rng = np.random.default_rng(5)
        single_rng = np.random.default_rng(5)
        oracle_rng = np.random.default_rng(5)
        stack = random_densities(stacked_rng, 7, dim)
        assert stack.shape == (7, dim, dim)
        assert np.array_equal(stack, np.array([random_density(single_rng, dim) for _ in range(7)]))
        assert np.array_equal(stack, np.array([ginibre_density_oracle(oracle_rng, dim) for _ in range(7)]))
        # the generator is left where the sequential draws leave it
        next_draw = stacked_rng.standard_normal(3)
        assert np.array_equal(next_draw, single_rng.standard_normal(3))
        assert np.array_equal(next_draw, oracle_rng.standard_normal(3))

    def test_empty_stack_draws_nothing(self):
        rng = np.random.default_rng(3)
        assert random_densities(rng, 0, 4).shape == (0, 4, 4)
        assert rng.standard_normal() == np.random.default_rng(3).standard_normal()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_stacked_apply_equals_apply_matrix(self, kind, dim):
        c = sample_program(kind, dim, 17)
        ms = random_densities(np.random.default_rng(dim), 6, dim).reshape(2, 3, dim, dim)
        out = apply_matrices(c, ms)
        assert out.shape == (2, 3, dim, dim)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(out[idx], apply_matrix(c, ms[idx]))
            assert np.array_equal(out[idx], unvec(c.super @ vec(ms[idx])))

    def test_stacked_apply_rejects_wrong_dim(self):
        with pytest.raises(DimensionMismatchError):
            apply_matrices(sample_program("cptp", 2, 0), np.zeros((4, 3, 3), dtype=complex))


class TestWeakestCheckOracle:
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_program_kind(self, kind):
        tol = ToleranceConfig(sample_count=40)
        c, f = problem(kind, 3, 23)
        assert_same_report(weakest_check(c, f, tol, seed=4), weakest_check_oracle(c, f, tol, seed=4))

    def test_run_spanning_two_blocks(self):
        dim = 16
        per_block = STACK_BYTES // (50 * dim * dim * 16)
        tol = ToleranceConfig(sample_count=per_block + 5)
        c, f = problem("transpose_mix", dim, 29)
        report = weakest_check(c, f, tol, seed=8)
        assert_same_report(report, weakest_check_oracle(c, f, tol, seed=8))

    def test_oversized_candidates_fail_like_the_loop(self, monkeypatch):
        monkeypatch.setattr(qwp_wp, "random_effect", lambda rng, d: 1.3 * random_effect(rng, d))
        tol = ToleranceConfig(sample_count=60)
        for kind in KINDS:
            c, f = problem(kind, 2, 31)
            report = weakest_check(c, f, tol, seed=2)
            assert_same_report(report, weakest_check_oracle(c, f, tol, seed=2))
            # both failure branches are reached, and so is success
            assert 0 < report.confirmed_preconditions < report.trials
            assert 0 < report.dominated < report.trials
            assert report.min_margin < 0

    def test_boundary_candidates_pass_within_tolerance(self, monkeypatch):
        # W = I makes every candidate wp(c, f) itself, up to rounding
        monkeypatch.setattr(qwp_wp, "random_effect", lambda rng, d: np.eye(d))
        tol = ToleranceConfig(sample_count=5)
        for kind in KINDS:
            c, f = problem(kind, 3, 47)
            report = weakest_check(c, f, tol, seed=3)
            assert_same_report(report, weakest_check_oracle(c, f, tol, seed=3))
            assert report.confirmed_preconditions == report.dominated == 5

    def test_no_stack_exceeds_the_cap(self, monkeypatch):
        sizes = []

        def recording_apply(c, ms):
            sizes.append(ms.nbytes)
            return apply_matrices(c, ms)

        monkeypatch.setattr(qwp_wp, "apply_matrices", recording_apply)
        dim = 16
        tol = ToleranceConfig(sample_count=STACK_BYTES // (50 * dim * dim * 16) + 1)
        c, f = problem("cptp", dim, 37)
        weakest_check(c, f, tol, seed=1)
        assert len(sizes) == 2
        assert max(sizes) <= STACK_BYTES
        # the library default at d = 32 splits into blocks that fit the cap
        per_block = qwp_wp._block_size(32, 50)
        assert 1 <= per_block < DEFAULT_TOL.sample_count
        assert per_block * 50 * 32 * 32 * 16 <= STACK_BYTES


class TestDualitySweepOracle:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dim", [2, 5, 16])
    def test_matches_the_loop_exactly(self, kind, dim):
        c, f = problem(kind, dim, 41)
        assert duality_residual_sweep(c, f, seed=6) == duality_residual_sweep_oracle(c, f, seed=6)

    def test_blocks_replay_one_stream(self, monkeypatch):
        c, f = problem("transpose_mix", 4, 43)
        want = duality_residual_sweep_oracle(c, f, seed=3, states=50)
        monkeypatch.setattr(qwp_wp, "STACK_BYTES", 7 * 4 * 4 * 16)
        assert duality_residual_sweep(c, f, seed=3, states=50) == want
