import itertools

import numpy as np
import pytest

from qwp.errors import DimensionMismatchError, SpaceMismatchError
from qwp.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    loewner_leq,
    operator_norm_hermitian,
    random_density,
)
from qwp.predicates import (
    OutcomeSpace,
    Predicate,
    chain_sup,
    effect_of_set,
    is_complete,
    predicate_leq,
    projective_predicate,
    random_predicate,
    sat,
    scaled_predicate,
    validate_predicate,
)
from qwp.programs import DensityState, amplitude_damping
from qwp.wp import wp


def trine_predicate() -> Predicate:
    """Three symmetric qubit effects at 0, 120 and 240 degrees."""
    effects = []
    for k in range(3):
        theta = 2.0 * np.pi * k / 3.0
        v = np.array([np.cos(theta), np.sin(theta)])
        effects.append(2.0 / 3.0 * np.outer(v, v))
    return Predicate(OutcomeSpace(("t0", "t1", "t2")), effects)


class TestOutcomeSpace:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            OutcomeSpace(())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            OutcomeSpace(("a", "a"))

    def test_membership(self):
        space = OutcomeSpace(("x", "y"))
        assert "x" in space
        assert "z" not in space
        assert len(space) == 2


class TestPredicateConstruction:
    def test_effects_must_match_atoms(self):
        with pytest.raises(ValueError):
            Predicate(OutcomeSpace(("a", "b")), {"a": np.eye(2)})

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Predicate(OutcomeSpace(("a", "b")), [np.eye(2), np.eye(3)])
        with pytest.raises(DimensionMismatchError):
            Predicate(OutcomeSpace(("a", "b")), {"a": np.eye(2), "b": np.eye(3)})

    def test_effect_count_must_match_atoms(self):
        with pytest.raises(ValueError, match="3 effects for 2 atoms"):
            Predicate(OutcomeSpace(("a", "b")), [np.eye(2)] * 3)

    def test_effects_are_frozen(self):
        p = projective_predicate(2)
        with pytest.raises(ValueError):
            p.effect("0")[0, 0] = 5.0

    @pytest.mark.parametrize(
        "p",
        [
            projective_predicate(3),
            trine_predicate(),
            random_predicate(np.random.default_rng(3), 3),
            scaled_predicate(projective_predicate(2), 0.5),
            wp(amplitude_damping(0.3), projective_predicate(2)),
        ],
        ids=["projective", "public", "random", "scaled", "wp"],
    )
    def test_stored_as_one_read_only_stack(self, p):
        k, d = len(p.space), p.dim
        assert p.effects.shape == (k, d, d)
        assert p.effects.dtype == np.complex128
        assert p.effects.flags.c_contiguous
        assert not p.effects.flags.writeable
        for i, a in enumerate(p.space.atoms):
            assert not p.effect(a).flags.writeable
            assert np.array_equal(p.effect(a), p.effects[i])
        with pytest.raises(ValueError):
            p.effects[0, 0, 0] = 5.0
        with pytest.raises(KeyError):
            p.effect("unknown")

    @pytest.mark.parametrize("as_mapping", [False, True])
    def test_constructor_input_is_copied(self, as_mapping):
        mats = [np.eye(2, dtype=np.complex128), np.zeros((2, 2), dtype=np.complex128)]
        given = {"a": mats[0], "b": mats[1]} if as_mapping else list(mats)
        p = Predicate(OutcomeSpace(("a", "b")), given)
        mats[0][0, 0] = 7.0
        if as_mapping:
            given["b"] = np.eye(2)
        else:
            given[1] = np.eye(2)
        assert np.array_equal(p.effects, [np.eye(2), np.zeros((2, 2))])


class TestValidate:
    def test_projective_is_ok_and_complete(self):
        rep = validate_predicate(projective_predicate(2))
        assert rep.ok
        assert rep.complete
        assert rep.violations == ()

    def test_oversized_total_effect(self):
        p = Predicate(OutcomeSpace(("a", "b")), [0.7 * np.eye(2), 0.7 * np.eye(2)])
        rep = validate_predicate(p)
        assert not rep.ok
        assert any("exceeds the identity" in v for v in rep.violations)

    def test_non_psd_effect_named(self):
        # eigenvalues of [[0.5, 0.6], [0.6, 0.5]] are -0.1 and 1.1
        p = Predicate(OutcomeSpace(("a",)), [np.array([[0.5, 0.6], [0.6, 0.5]])])
        rep = validate_predicate(p)
        assert not rep.ok
        assert any("'a'" in v and "not PSD" in v for v in rep.violations)

    def test_validity_closure_at_tolerance_boundary(self):
        tol = ToleranceConfig(eig_tol=1e-9)
        inside = Predicate(OutcomeSpace(("a",)), [np.diag([1.0 + 0.5e-9, 0.5e-9])])
        outside = Predicate(OutcomeSpace(("a",)), [np.diag([1.0 + 1e-7, 0.0])])
        assert validate_predicate(inside, tol).ok
        assert not validate_predicate(outside, tol).ok


class TestEffectOfSet:
    def test_completeness_sum(self):
        p = projective_predicate(2)
        assert np.abs(effect_of_set(p, ["0", "1"]) - np.eye(2)).max() < 1e-15

    def test_empty_set_is_zero(self):
        p = trine_predicate()
        assert np.abs(effect_of_set(p, [])).max() == 0.0

    def test_matches_entrywise_summation_oracle(self):
        rng = np.random.default_rng(31)
        p = random_predicate(rng, 3, n_atoms=3)
        sub = [p.space.atoms[0], p.space.atoms[2]]
        got = effect_of_set(p, sub)
        oracle = np.zeros((3, 3), dtype=complex)
        for a in sub:
            for i in range(3):
                for j in range(3):
                    oracle[i, j] += p.effect(a)[i, j]
        assert np.abs(got - oracle).max() < 1e-15

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            effect_of_set(projective_predicate(2), ["9"])


class TestComplete:
    def test_projective(self):
        assert is_complete(projective_predicate(2))

    def test_half_identity_is_not(self):
        p = Predicate(OutcomeSpace(("a",)), [0.5 * np.eye(2)])
        assert not is_complete(p)

    def test_trine_sums_to_identity(self):
        assert is_complete(trine_predicate())


class TestOrders:
    def test_scaling_down(self):
        f = scaled_predicate(projective_predicate(2), 0.5)
        g = projective_predicate(2)
        assert predicate_leq(f, g)
        assert not predicate_leq(g, f)

    def test_reflexive(self):
        f = trine_predicate()
        assert predicate_leq(f, f)

    def test_space_mismatch(self):
        f = projective_predicate(2)
        g = projective_predicate(2, labels=("p", "q"))
        with pytest.raises(SpaceMismatchError):
            predicate_leq(f, g)

    def test_atomwise_order_implies_all_subset_inequalities(self):
        # exhaustive subset enumeration oracle at up to 4 atoms
        rng = np.random.default_rng(17)
        for _ in range(20):
            dim = int(rng.integers(2, 4))
            n = int(rng.integers(2, 5))
            g = random_predicate(rng, dim, n_atoms=n)
            f = scaled_predicate(g, float(rng.uniform(0.1, 0.9)))
            assert predicate_leq(f, g)
            atoms = list(g.space.atoms)
            for r in range(len(atoms) + 1):
                for sub in itertools.combinations(atoms, r):
                    if not sub:
                        continue
                    assert loewner_leq(effect_of_set(f, sub), effect_of_set(g, sub))

    def test_s_leq_certified_by_sampled_states(self):
        # 500 random states find no counterexample to the order equivalence
        rng = np.random.default_rng(29)
        g = random_predicate(rng, 3, n_atoms=2)
        f = scaled_predicate(g, 0.6)
        assert predicate_leq(f, g)
        for _ in range(500):
            rho = random_density(rng, 3)
            for a in f.space.atoms:
                lhs = float(np.trace(rho @ f.effect(a)).real)
                rhs = float(np.trace(rho @ g.effect(a)).real)
                assert lhs <= rhs + DEFAULT_TOL.residual_tol

    def test_strictly_larger_fails_in_reverse(self):
        f = scaled_predicate(projective_predicate(2), 0.4)
        g = projective_predicate(2)
        assert predicate_leq(f, g)
        assert not predicate_leq(g, f)


class TestSat:
    def test_maximally_mixed_projective(self):
        rho = DensityState(np.eye(2) / 2.0)
        m = sat(rho, projective_predicate(2))
        assert m.weights["0"] == pytest.approx(0.5)
        assert m.weights["1"] == pytest.approx(0.5)
        assert m.satisfied

    def test_basis_state(self):
        rho = DensityState(np.diag([1.0, 0.0]))
        m = sat(rho, projective_predicate(2))
        assert m.weights["0"] == pytest.approx(1.0)
        assert m.weights["1"] == pytest.approx(0.0, abs=1e-15)

    def test_trine_masses(self):
        rho = DensityState(np.diag([1.0, 0.0]))
        m = sat(rho, trine_predicate())
        assert m.weights["t0"] == pytest.approx(2.0 / 3.0)
        assert m.weights["t1"] == pytest.approx(1.0 / 6.0)
        assert m.weights["t2"] == pytest.approx(1.0 / 6.0)
        assert m.total() == pytest.approx(1.0)

    def test_additive_over_disjoint_sets(self):
        rng = np.random.default_rng(37)
        p = random_predicate(rng, 3, n_atoms=4)
        rho = DensityState(random_density(rng, 3))
        m = sat(rho, p)
        a = list(p.space.atoms[:2])
        b = list(p.space.atoms[2:])
        assert m.mass(a) + m.mass(b) == pytest.approx(m.mass(a + b))

    def test_total_is_one_iff_complete(self):
        rng = np.random.default_rng(41)
        rho = DensityState(random_density(rng, 2))
        complete = random_predicate(rng, 2, n_atoms=3, complete=True)
        partial = scaled_predicate(complete, 0.5)
        assert sat(rho, complete).total() == pytest.approx(1.0)
        assert sat(rho, partial).total() == pytest.approx(0.5)

    def test_unsatisfied_for_orthogonal_effect(self):
        p = Predicate(OutcomeSpace(("a",)), [np.diag([0.0, 1.0])])
        rho = DensityState(np.diag([1.0, 0.0]))
        assert not sat(rho, p).satisfied

    def test_dim_mismatch(self):
        rho = DensityState(np.eye(3) / 3.0)
        with pytest.raises(DimensionMismatchError):
            sat(rho, projective_predicate(2))


class TestChainSup:
    def test_geometric_chain_converges_to_limit(self):
        f = trine_predicate()
        chain = [scaled_predicate(f, 1.0 - 2.0 ** (-n)) for n in range(1, 21)]
        top = chain_sup(chain)
        for element in chain:
            assert predicate_leq(element, top)
        for a in f.space.atoms:
            assert np.abs(top.effect(a) - f.effect(a)).max() <= 2.0 ** -20

    def test_singleton_chain(self):
        f = projective_predicate(2)
        assert chain_sup([f]) is f

    def test_non_monotone_rejected(self):
        f = projective_predicate(2)
        with pytest.raises(ValueError):
            chain_sup([f, scaled_predicate(f, 0.5)])

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            chain_sup([])

    def test_dominated_by_sampled_upper_bounds(self):
        rng = np.random.default_rng(53)
        f = random_predicate(rng, 2, n_atoms=2)
        chain = [scaled_predicate(f, s) for s in (0.2, 0.5, 0.9)]
        top = chain_sup(chain)
        for s in (0.95, 1.0):
            upper = scaled_predicate(f, s)
            assert predicate_leq(top, upper)


class TestRandomPredicate:
    def test_always_valid(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            p = random_predicate(rng, dim)
            assert validate_predicate(p).ok

    def test_complete_flag(self):
        rng = np.random.default_rng(67)
        p = random_predicate(rng, 3, complete=True)
        assert is_complete(p)

    def test_every_effect_is_a_contraction(self):
        # valid predicates have effects of norm at most one, and for hermitian
        # effects the norm is the spectral radius
        rng = np.random.default_rng(71)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            p = random_predicate(rng, dim)
            for a in p.space.atoms:
                assert operator_norm_hermitian(p.effect(a)) <= 1.0 + DEFAULT_TOL.eig_tol
