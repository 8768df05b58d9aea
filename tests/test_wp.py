import importlib

import numpy as np
import pytest

from qwp.errors import (
    DimensionMismatchError,
    NotTracePreservingError,
    SpaceMismatchError,
    ValidationError,
)
from qwp.linalg import ToleranceConfig, random_density, sample_random
from qwp.predicates import (
    OutcomeSpace,
    Predicate,
    is_complete,
    predicate_leq,
    projective_predicate,
    random_predicate,
    scaled_predicate,
    validate_predicate,
)
from qwp.programs import (
    DensityState,
    QuantumProgram,
    amplitude_damping,
    apply_matrix,
    depolarizing,
    from_super,
    from_unitary,
    identity_program,
    random_cptp,
    sample_program,
    seq,
    transpose_program,
)
from qwp.wp import (
    HoareTriple,
    dp_reduction,
    duality_residual,
    duality_residual_sweep,
    is_precondition,
    verify_triple,
    weakest_check,
    wp,
    wp_compose_check,
)

# the package re-exports the function wp under the name of its module
qwp_wp = importlib.import_module("qwp.wp")

X = np.array([[0.0, 1.0], [1.0, 0.0]])


def kraus_adjoint_oracle(kraus, effect):
    """Independent single-effect transformer: sum K† F K by direct arithmetic."""
    out = np.zeros_like(np.asarray(effect, dtype=complex))
    for k in kraus:
        k = np.asarray(k, dtype=complex)
        out += k.conj().T @ effect @ k
    return out


def depolarizing_kraus(p):
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    return [
        np.sqrt(1.0 - 3.0 * p / 4.0) * np.eye(2),
        np.sqrt(p / 4.0) * sx,
        np.sqrt(p / 4.0) * sy,
        np.sqrt(p / 4.0) * sz,
    ]


def amplitude_damping_kraus(gamma):
    return [
        np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]]),
        np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]]),
    ]


class TestWp:
    def test_identity_program_is_neutral(self):
        f = projective_predicate(3)
        g = wp(identity_program(3), f)
        for a in f.space.atoms:
            assert np.abs(g.effect(a) - f.effect(a)).max() < 1e-14

    def test_depolarizing_half_matches_kraus_oracle(self):
        f = projective_predicate(2)
        g = wp(depolarizing(0.5), f)
        kraus = depolarizing_kraus(0.5)
        for a, expected_diag in (("0", [0.75, 0.25]), ("1", [0.25, 0.75])):
            oracle = kraus_adjoint_oracle(kraus, f.effect(a))
            assert np.abs(g.effect(a) - oracle).max() < 1e-12
            assert np.abs(g.effect(a) - np.diag(expected_diag)).max() < 1e-12

    def test_amplitude_damping_matches_kraus_oracle(self):
        f = projective_predicate(2)
        g = wp(amplitude_damping(0.3), f)
        kraus = amplitude_damping_kraus(0.3)
        for a, expected in (("0", np.diag([1.0, 0.3])), ("1", np.diag([0.0, 0.7]))):
            oracle = kraus_adjoint_oracle(kraus, f.effect(a))
            assert np.abs(g.effect(a) - oracle).max() < 1e-12
            assert np.abs(g.effect(a) - expected).max() < 1e-12

    def test_output_is_valid_predicate_for_positive_programs(self):
        rng = np.random.default_rng(101)
        for trial in range(40):
            dim = 2 + trial % 3
            c = sample_program(("cptp", "unitary", "transpose", "transpose_mix")[trial % 4], dim, rng)
            f = random_predicate(rng, dim)
            assert validate_predicate(wp(c, f)).ok

    def test_completeness_preserved(self):
        rng = np.random.default_rng(103)
        for trial in range(30):
            dim = 2 + trial % 3
            c = sample_program(("cptp", "transpose", "transpose_mix")[trial % 3], dim, rng)
            f = random_predicate(rng, dim, complete=True)
            assert is_complete(wp(c, f))

    def test_monotone_in_the_predicate(self):
        rng = np.random.default_rng(107)
        for trial in range(30):
            dim = 2 + trial % 3
            c = sample_program(("cptp", "transpose", "transpose_mix")[trial % 3], dim, rng)
            g = random_predicate(rng, dim)
            f = scaled_predicate(g, float(rng.uniform(0.2, 0.95)))
            assert predicate_leq(wp(c, f), wp(c, g))

    def test_refuses_non_trace_preserving(self):
        with pytest.raises(NotTracePreservingError):
            wp(from_super(0.9 * np.eye(4)), projective_predicate(2))

    def test_refuses_invalid_predicate(self):
        bad = Predicate(OutcomeSpace(("a", "b")), [0.7 * np.eye(2), 0.7 * np.eye(2)])
        with pytest.raises(ValidationError):
            wp(identity_program(2), bad)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            wp(identity_program(3), projective_predicate(2))


class TestDualityResidual:
    def test_identity_program_exact(self):
        f = projective_predicate(2)
        rho = DensityState(sample_random("density", 2, 5))
        residuals = duality_residual(identity_program(2), f, rho)
        assert max(residuals.values()) < 1e-15

    def test_transpose_trace_identity(self):
        rng = np.random.default_rng(109)
        f = random_predicate(rng, 3)
        rho = DensityState(random_density(rng, 3))
        residuals = duality_residual(transpose_program(3), f, rho)
        assert max(residuals.values()) <= 1e-12

    def test_random_sweep_disjoint_routes(self):
        rng = np.random.default_rng(113)
        worst = 0.0
        for trial in range(100):
            dim = 2 + trial % 3
            c = sample_program(("cptp", "unitary", "transpose", "transpose_mix")[trial % 4], dim, rng)
            f = random_predicate(rng, dim)
            rho = DensityState(random_density(rng, dim))
            worst = max(worst, max(duality_residual(c, f, rho).values()))
        assert worst <= 1e-10

    def test_sweep_helper_bounds(self):
        c = amplitude_damping(0.25)
        f = projective_predicate(2)
        residuals = duality_residual_sweep(c, f, seed=3)
        assert set(residuals) == {"0", "1"}
        assert max(residuals.values()) <= 1e-12


class TestIsPrecondition:
    def test_wp_is_its_own_precondition(self):
        c = amplitude_damping(0.3)
        f = projective_predicate(2)
        report = is_precondition(wp(c, f), c, f)
        assert report.holds
        assert report.witness is None
        assert min(report.margins.values()) >= -1e-12

    def test_scaled_down_holds(self):
        c = depolarizing(0.4)
        f = projective_predicate(2)
        report = is_precondition(scaled_predicate(wp(c, f), 0.5), c, f)
        assert report.holds

    def test_bumped_candidate_fails_with_verified_witness(self):
        c = amplitude_damping(0.3)
        f = projective_predicate(2)
        g = wp(c, f)
        bump = {a: np.array(g.effect(a)) for a in g.space.atoms}
        bump["0"] = bump["0"] + 0.1 * np.eye(2)
        candidate = Predicate(g.space, bump)
        report = is_precondition(candidate, c, f)
        assert not report.holds
        w = report.witness
        assert w is not None
        assert w.lhs > w.rhs + 1e-9
        # replay the witness through direct trace evaluation
        lhs = float(np.trace(candidate.effect(w.atom) @ w.state.matrix).real)
        rhs = float(np.trace(f.effect(w.atom) @ apply_matrix(c, w.state.matrix)).real)
        assert lhs == pytest.approx(w.lhs, abs=1e-12)
        assert rhs == pytest.approx(w.rhs, abs=1e-12)

    def test_space_mismatch(self):
        c = identity_program(2)
        f = projective_predicate(2)
        g = projective_predicate(2, labels=("p", "q"))
        with pytest.raises(SpaceMismatchError):
            is_precondition(g, c, f)


class TestVerifyTriple:
    def test_identity_triple_holds(self):
        f = projective_predicate(2)
        report = verify_triple(HoareTriple(f, identity_program(2), f))
        assert report.holds

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.8, 1.0])
    def test_half_projective_through_depolarizing(self, p):
        pre = scaled_predicate(projective_predicate(2), 0.5)
        post = projective_predicate(2)
        report = verify_triple(HoareTriple(pre, depolarizing(p), post))
        assert report.holds
        expected_margin = min(0.5 - p / 2.0, p / 2.0)
        assert min(report.margins.values()) == pytest.approx(expected_margin, abs=1e-12)

    def test_margins_at_half(self):
        pre = scaled_predicate(projective_predicate(2), 0.5)
        report = verify_triple(HoareTriple(pre, depolarizing(0.5), projective_predicate(2)))
        for margin in report.margins.values():
            assert margin == pytest.approx(0.25, abs=1e-12)

    def test_basis_flip_fails_with_basis_witness(self):
        f = projective_predicate(2)
        report = verify_triple(HoareTriple(f, from_unitary(X), f))
        assert not report.holds
        w = report.witness
        assert w.lhs == pytest.approx(1.0, abs=1e-9)
        assert w.rhs == pytest.approx(0.0, abs=1e-9)
        basis = np.zeros((2, 2))
        basis[int(w.atom), int(w.atom)] = 1.0
        assert np.abs(w.state.matrix - basis).max() < 1e-9

    def test_malformed_triple_space(self):
        with pytest.raises(SpaceMismatchError):
            HoareTriple(
                projective_predicate(2),
                identity_program(2),
                projective_predicate(2, labels=("p", "q")),
            )

    def test_malformed_triple_dim(self):
        with pytest.raises(DimensionMismatchError):
            HoareTriple(projective_predicate(2), identity_program(3), projective_predicate(2))


class TestWeakestCheck:
    def test_shrinkage_candidates_all_dominated(self):
        tol = ToleranceConfig(sample_count=60)
        rng = np.random.default_rng(127)
        c = random_cptp(rng, 2)
        f = random_predicate(rng, 2, n_atoms=2)
        report = weakest_check(c, f, tol, seed=11, states_per_trial=20)
        assert report.trials == 60
        assert report.all_dominated
        assert report.dominated == 60
        assert report.confirmed_preconditions == 60
        assert report.min_margin >= -1e-12

    def test_non_cp_program_covered(self):
        tol = ToleranceConfig(sample_count=40)
        c = sample_program("transpose_mix", 2, 131)
        f = random_predicate(np.random.default_rng(131), 2, n_atoms=2)
        report = weakest_check(c, f, tol, seed=5, states_per_trial=10)
        assert report.all_dominated
        assert report.confirmed_preconditions == 40

    def test_zero_shrink_candidate_is_wp_itself(self):
        c = amplitude_damping(0.5)
        f = projective_predicate(2)
        g = wp(c, f)
        assert predicate_leq(g, g)
        assert is_precondition(g, c, f).holds

    def test_adversarial_bumps_rejected(self):
        rng = np.random.default_rng(137)
        c = random_cptp(rng, 2)
        f = random_predicate(rng, 2, n_atoms=2)
        g = wp(c, f)
        rejected = 0
        for _ in range(20):
            atom = g.space.atoms[int(rng.integers(len(g.space.atoms)))]
            bump = sample_random("effect", 2, rng)
            effects = {a: np.array(g.effect(a)) for a in g.space.atoms}
            effects[atom] = effects[atom] + 1e-3 * bump
            report = is_precondition(Predicate(g.space, effects), c, f)
            assert not report.holds
            assert report.witness is not None
            assert report.witness.lhs > report.witness.rhs + 1e-9
            rejected += 1
        assert rejected == 20


class TestCompose:
    def test_identity_pair_is_exact(self):
        f = projective_predicate(2)
        assert wp_compose_check(identity_program(2), identity_program(2), f) == 0.0

    def test_unitary_pair_is_conjugation_both_ways(self):
        rng = np.random.default_rng(139)
        u = sample_random("unitary", 3, rng)
        v = sample_random("unitary", 3, rng)
        f = random_predicate(rng, 3)
        assert wp_compose_check(from_unitary(u), from_unitary(v), f) < 1e-12
        # wp effects equal U† V† F V U either way
        g = wp(from_unitary(u), wp(from_unitary(v), f))
        for a in f.space.atoms:
            oracle = u.conj().T @ v.conj().T @ f.effect(a) @ v @ u
            assert np.abs(g.effect(a) - oracle).max() < 1e-12

    def test_random_pairs_small_deviation(self):
        rng = np.random.default_rng(149)
        worst = 0.0
        for trial in range(50):
            c1 = sample_program(("cptp", "transpose")[trial % 2], 3, rng)
            c2 = sample_program(("cptp", "unitary")[trial % 2], 3, rng)
            f = random_predicate(rng, 3)
            worst = max(worst, wp_compose_check(c1, c2, f))
        assert worst <= 1e-10


def recorded_calls(monkeypatch, holder, name):
    """Patch holder.name to record the arguments of every call; returns the record."""
    calls = []
    fn = getattr(holder, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(holder, name, recording)
    return calls


class TestOnePullBack:
    """wp acts through one conjugate of the superoperator, and every caller pulls back once."""

    def setup_method(self):
        rng = np.random.default_rng(151)
        self.c1 = sample_program("transpose_mix", 3, rng)
        self.c2 = sample_program("cptp", 3, rng)
        self.f = random_predicate(rng, 3)

    def test_wp_builds_no_program(self, monkeypatch):
        inits = recorded_calls(monkeypatch, QuantumProgram, "__init__")
        wp(self.c1, self.f)
        assert inits == []

    def test_wp_conjugates_the_superoperator_once(self, monkeypatch):
        gaps = recorded_calls(monkeypatch, qwp_wp, "_unital_gaps")
        pulls = recorded_calls(monkeypatch, qwp_wp, "_pull_back")
        wp(self.c1, self.f)
        [(tested,)] = gaps
        [(conj, _)] = pulls
        assert conj is tested and not np.shares_memory(conj, self.c1.super)

    def test_compose_check_validates_f_and_the_intermediate_once(self, monkeypatch):
        checked = recorded_calls(monkeypatch, qwp_wp, "validate_predicate")
        wp_compose_check(self.c1, self.c2, self.f)
        assert len(checked) == 2 and checked[0][0] is self.f
        assert checked[1][0] is not self.f

    def test_is_precondition_pulls_back_once(self, monkeypatch):
        pre = scaled_predicate(wp(self.c1, self.f), 0.5)
        pulls = recorded_calls(monkeypatch, qwp_wp, "_pull_back")
        assert is_precondition(pre, self.c1, self.f).holds
        assert len(pulls) == 1


class TestDpReduction:
    def test_identity_effect_maps_to_identity(self):
        for c in (amplitude_damping(0.4), depolarizing(0.3)):
            out = dp_reduction(c, np.eye(2))
            assert np.abs(out - np.eye(2)).max() < 1e-12

    def test_amplitude_damping_excited_effect(self):
        out = dp_reduction(amplitude_damping(0.3), np.diag([0.0, 1.0]))
        assert np.abs(out - np.diag([0.0, 0.7])).max() < 1e-12

    def test_unitary_is_conjugation(self):
        rng = np.random.default_rng(151)
        u = sample_random("unitary", 3, rng)
        m = sample_random("effect", 3, rng)
        out = dp_reduction(from_unitary(u), m)
        assert np.abs(out - u.conj().T @ m @ u).max() < 1e-12

    def test_matches_kraus_oracle_on_random_programs(self):
        rng = np.random.default_rng(157)
        for _ in range(40):
            dim = int(rng.integers(2, 5))
            c = random_cptp(rng, dim)
            m = sample_random("effect", dim, rng)
            assert np.abs(dp_reduction(c, m) - kraus_adjoint_oracle(c.kraus, m)).max() < 1e-10

    def test_rejects_out_of_range_operator(self):
        with pytest.raises(ValidationError):
            dp_reduction(amplitude_damping(0.1), 1.5 * np.eye(2))

    def test_rejects_program_without_kraus_view(self):
        for c in (transpose_program(2), sample_program("transpose", 3, 0)):
            with pytest.raises(ValidationError, match="completely positive"):
                dp_reduction(c, 0.5 * np.eye(c.dim))

    def test_accepts_cp_programs_built_without_kraus_list(self):
        rng = np.random.default_rng(163)
        m = sample_random("effect", 2, rng)
        a, b = amplitude_damping(0.3), depolarizing(0.2)
        chained = seq(a, b)
        oracle = kraus_adjoint_oracle([k2 @ k1 for k2 in b.kraus for k1 in a.kraus], m)
        assert np.abs(dp_reduction(chained, m) - oracle).max() < 1e-12
        c = random_cptp(rng, 3)
        m3 = sample_random("effect", 3, rng)
        bare = from_super(c.super)
        assert bare.kraus is None
        assert np.abs(dp_reduction(bare, m3) - kraus_adjoint_oracle(c.kraus, m3)).max() < 1e-10

