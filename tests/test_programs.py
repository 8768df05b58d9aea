import numpy as np
import pytest

from qwp.errors import (
    DimensionMismatchError,
    NotTracePreservingError,
    ValidationError,
)
from qwp.linalg import ToleranceConfig, min_eigenvalue, random_density, sample_random
from qwp.programs import (
    DensityState,
    adjoint,
    amplitude_damping,
    apply,
    apply_matrix,
    build_program,
    depolarizing,
    from_choi,
    from_kraus,
    from_super,
    from_unitary,
    identity_program,
    is_completely_positive,
    is_positive_sampled,
    is_trace_preserving,
    measure_branch,
    mix,
    random_cptp,
    sample_program,
    seq,
    to_choi,
    transpose_program,
    unvec,
    vec,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]])
KET0 = np.diag([1.0, 0.0])
KET1 = np.diag([0.0, 1.0])


def super_from_apply(fn, dim):
    """Assemble a superoperator column by column from a map on matrices."""
    cols = []
    for col in range(dim * dim):
        i, j = col % dim, col // dim
        basis = np.zeros((dim, dim), dtype=complex)
        basis[i, j] = 1.0
        cols.append(vec(fn(basis)))
    return np.column_stack(cols)


class TestVec:
    def test_column_stacking_convention(self):
        m = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert vec(m).tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(unvec(vec(m)), m)

    def test_unvec_rejects_non_square_length(self):
        with pytest.raises(ValueError):
            unvec(np.zeros(5))


class TestDensityState:
    def test_rejects_trace_violation(self):
        with pytest.raises(ValidationError):
            DensityState(np.diag([0.6, 0.6]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityState(np.diag([1.1, -0.1]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityState(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_pure_normalizes(self):
        rho = DensityState.pure([1.0, 1.0])
        assert rho.matrix[0, 0] == pytest.approx(0.5)

    def test_matrix_is_frozen(self):
        rho = DensityState(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0


class TestBuilders:
    def test_identity_fixes_sampled_states(self):
        c = identity_program(3)
        for seed in range(5):
            rho = DensityState(sample_random("density", 3, seed))
            out = apply(c, rho)
            assert np.abs(out.matrix - rho.matrix).max() < 1e-14

    def test_pauli_x_flips(self):
        c = from_unitary(X)
        out = apply(c, DensityState(KET0))
        assert np.abs(out.matrix - KET1).max() < 1e-14

    def test_amplitude_damping_kraus_completeness(self):
        c = amplitude_damping(0.3)
        total = sum(k.conj().T @ k for k in c.kraus)
        assert np.abs(total - np.eye(2)).max() < 1e-12

    def test_from_unitary_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            from_unitary(np.array([[1.0, 0.0], [0.0, 0.9]]))

    def test_kraus_dims_must_agree(self):
        with pytest.raises(DimensionMismatchError):
            from_kraus([np.eye(2), np.eye(3)])

    def test_choi_rejects_non_trace_preserving(self):
        bad = to_choi(from_super(0.9 * np.eye(4)))
        with pytest.raises(NotTracePreservingError):
            from_choi(bad)

    def test_build_program_dispatch(self):
        assert build_program({"named": {"name": "identity"}}, dim=3).dim == 3
        assert build_program({"named": {"name": "depolarizing", "p": 0.5}}).kraus is not None
        assert build_program({"unitary": X}).dim == 2
        with pytest.raises(ValidationError):
            build_program({"named": {"name": "werner"}})
        with pytest.raises(ValidationError):
            build_program({"kraus": [X], "super": np.eye(4)})
        with pytest.raises(DimensionMismatchError):
            build_program({"unitary": X}, dim=3)

    def test_named_parameter_takes_any_real_number_but_bool(self):
        for p in (np.float64(0.5), np.int64(1), 1):
            assert build_program({"named": {"name": "depolarizing", "p": p}}).dim == 2
        for p in (True, "0.5", [0.5], None):
            with pytest.raises(ValidationError, match="must be a number"):
                build_program({"named": {"name": "depolarizing", "p": p}})

    def test_named_parameter_beyond_float_range(self):
        with pytest.raises(ValidationError, match="too large for a float"):
            build_program({"named": {"name": "depolarizing", "p": 10**400}})


class TestApply:
    def test_full_depolarizing_mixes_everything(self):
        c = depolarizing(1.0)
        for seed in range(3):
            rho = DensityState(sample_random("density", 2, seed))
            out = apply(c, rho)
            assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-12

    def test_amplitude_damping_populations(self):
        # K0 |1><1| K0† + K1 |1><1| K1† evaluated directly
        gamma = 0.3
        k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]])
        k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
        oracle = k0 @ KET1 @ k0.conj().T + k1 @ KET1 @ k1.conj().T
        out = apply(amplitude_damping(gamma), DensityState(KET1))
        assert np.abs(out.matrix - oracle).max() < 1e-14
        assert np.abs(out.matrix - np.diag([0.3, 0.7])).max() < 1e-14

    def test_transpose_keeps_states_valid(self):
        rho = DensityState(np.array([[0.5, 0.5j], [-0.5j, 0.5]]))
        out = apply(transpose_program(2), rho)
        assert np.abs(out.matrix - rho.matrix.T).max() < 1e-15
        assert min_eigenvalue(out.matrix) >= -1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply(identity_program(3), DensityState(np.eye(2) / 2))

    def test_positivity_breach_raises(self):
        # trace preserving but maps |0><0| to an indefinite matrix
        shrink = super_from_apply(
            lambda m: (m.T - 0.2 * np.trace(m) * np.eye(2) / 2.0) / 0.8, 2
        )
        c = from_super(shrink)
        with pytest.raises(ValidationError):
            apply(c, DensityState(KET0))


class TestAdjoint:
    def test_identity_self_adjoint(self):
        c = identity_program(2)
        assert np.abs(adjoint(c).super - c.super).max() < 1e-15

    def test_depolarizing_dual_two_independent_routes(self):
        # conjugate-transpose superoperator vs sum K† F K, both built here
        p = 0.5
        c = depolarizing(p)
        lhs = unvec(c.super.conj().T @ vec(KET0))
        rhs = sum(k.conj().T @ KET0 @ k for k in c.kraus)
        assert np.abs(lhs - rhs).max() < 1e-12
        assert np.abs(lhs - np.diag([1.0 - p / 2.0, p / 2.0])).max() < 1e-12

    def test_transpose_self_adjoint(self):
        t = transpose_program(3)
        assert np.abs(adjoint(t).super - t.super).max() < 1e-15

    def test_dual_route_agreement_on_random_kraus_programs(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            c = random_cptp(rng, dim)
            f = sample_random("effect", dim, rng)
            via_super = apply_matrix(adjoint(c), f)
            via_kraus = sum(k.conj().T @ f @ k for k in c.kraus)
            assert np.abs(via_super - via_kraus).max() < 1e-10

    def test_adjoint_pairing_identity(self):
        # Tr(adjoint(c)(F) rho) == Tr(F c(rho)) on seeded tuples
        rng = np.random.default_rng(13)
        for trial in range(100):
            dim = 2 + trial % 3
            kind = ("cptp", "unitary", "transpose", "transpose_mix")[trial % 4]
            c = sample_program(kind, dim, rng)
            f = sample_random("effect", dim, rng)
            rho = random_density(rng, dim)
            lhs = np.trace(apply_matrix(adjoint(c), f) @ rho)
            rhs = np.trace(f @ apply_matrix(c, rho))
            assert abs(lhs - rhs) < 1e-10

    def test_involution(self):
        rng = np.random.default_rng(17)
        c = random_cptp(rng, 3)
        back = adjoint(adjoint(c))
        assert np.abs(back.super - c.super).max() < 1e-12

    def test_dual_of_tp_is_unital(self):
        for c in (amplitude_damping(0.4), depolarizing(0.2), transpose_program(3)):
            eye = np.eye(c.dim)
            assert np.abs(apply_matrix(adjoint(c), eye) - eye).max() < 1e-12


class TestTracePreserving:
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
    def test_amplitude_damping(self, gamma):
        assert is_trace_preserving(amplitude_damping(gamma))

    def test_uniform_loss_map(self):
        assert not is_trace_preserving(from_super(0.9 * np.eye(9)))

    def test_transpose(self):
        assert is_trace_preserving(transpose_program(4))

    def test_all_builders_match_unitality(self):
        rng = np.random.default_rng(19)
        programs = [
            identity_program(3),
            transpose_program(2),
            depolarizing(0.7),
            amplitude_damping(0.2),
            random_cptp(rng, 3),
            from_super(0.9 * np.eye(4)),
        ]
        for c in programs:
            eye = np.eye(c.dim)
            unital = np.abs(apply_matrix(adjoint(c), eye) - eye).max() <= 1e-9
            assert is_trace_preserving(c) == unital


class TestChoi:
    def test_identity_spectrum(self):
        vals = np.linalg.eigvalsh(to_choi(identity_program(2)))
        assert np.allclose(sorted(vals), [0.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_transpose_is_swap(self):
        j = to_choi(transpose_program(2))
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float
        )
        assert np.abs(j - swap).max() < 1e-14
        assert np.allclose(sorted(np.linalg.eigvalsh(j)), [-1.0, 1.0, 1.0, 1.0], atol=1e-12)

    def test_depolarizing_spectrum(self):
        p = 0.5
        vals = sorted(np.linalg.eigvalsh(to_choi(depolarizing(p))))
        expected = sorted([2.0 - 3.0 * p / 2.0, p / 2.0, p / 2.0, p / 2.0])
        assert np.allclose(vals, expected, atol=1e-12)

    def test_matches_definitional_sum(self):
        rng = np.random.default_rng(23)
        c = random_cptp(rng, 3)
        d = c.dim
        oracle = np.zeros((9, 9), dtype=complex)
        for i in range(d):
            for j in range(d):
                basis = np.zeros((d, d), dtype=complex)
                basis[i, j] = 1.0
                oracle += np.kron(apply_matrix(c, basis), basis)
        assert np.abs(to_choi(c) - oracle).max() < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            c = random_cptp(rng, dim)
            back = from_choi(to_choi(c))
            assert np.abs(back.super - c.super).max() < 1e-10


def to_choi_loop(c):
    """Pre-permutation to_choi: one strided block per basis operator."""
    d = c.dim
    j = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for k in range(d):
            j[i::d, k::d] = unvec(c.super[:, k * d + i])
    return j


def from_choi_loop(j):
    """Pre-permutation from_choi superoperator: one column per basis operator."""
    n = j.shape[0]
    d = int(round(np.sqrt(n)))
    s = np.empty((n, n), dtype=np.complex128)
    for i in range(d):
        for k in range(d):
            s[:, k * d + i] = vec(j[i::d, k::d])
    return s


def transpose_super_loop(dim):
    """Pre-permutation transpose_program superoperator."""
    s = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            s[i * dim + j, j * dim + i] = 1.0
    return s


class TestPermutationsMatchLoops:
    @pytest.mark.parametrize("dim", [2, 3, 8])
    @pytest.mark.parametrize("kind", ["cptp", "unitary", "transpose", "transpose_mix"])
    def test_choi_round_trip_bit_for_bit(self, kind, dim):
        c = sample_program(kind, dim, 1000 + dim)
        j = to_choi(c)
        assert np.array_equal(j, to_choi_loop(c))
        assert np.array_equal(from_choi(j).super, from_choi_loop(j))

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_transpose_program_bit_for_bit(self, dim):
        assert np.array_equal(transpose_program(dim).super, transpose_super_loop(dim))


class TestCompletePositivity:
    def test_amplitude_damping_is_cp(self):
        assert is_completely_positive(amplitude_damping(0.3))

    def test_transpose_is_not_cp(self):
        t = transpose_program(2)
        assert not is_completely_positive(t)
        assert min_eigenvalue(to_choi(t)) == pytest.approx(-1.0, abs=1e-10)

    def test_depolarizing_half(self):
        c = depolarizing(0.5)
        assert is_completely_positive(c)
        assert min_eigenvalue(to_choi(c)) == pytest.approx(0.25, abs=1e-12)


class TestPositivitySampled:
    def test_cp_map_certified(self):
        verdict = is_positive_sampled(amplitude_damping(0.3))
        assert verdict.status == "certified_cp"

    def test_transpose_survives_sampling(self):
        tol = ToleranceConfig(sample_count=1000)
        verdict = is_positive_sampled(transpose_program(2), tol)
        assert verdict.status == "no_counterexample"
        assert verdict.samples >= 1000

    def test_shrunk_transpose_vs_grid_search_oracle(self):
        # rho -> (rho^T - 0.2 Tr(rho) I/2) / 0.8: trace preserving, not positive
        shrink = from_super(
            super_from_apply(
                lambda m: (m.T - 0.2 * np.trace(m) * np.eye(2) / 2.0) / 0.8, 2
            )
        )
        assert is_trace_preserving(shrink)
        grid_min = np.inf
        for theta in np.linspace(0.0, np.pi, 100):
            for phi in np.linspace(0.0, 2.0 * np.pi, 100):
                psi = np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])
                out = apply_matrix(shrink, np.outer(psi, psi.conj()))
                grid_min = min(grid_min, min_eigenvalue(out))
        verdict = is_positive_sampled(shrink, ToleranceConfig(sample_count=50))
        assert (verdict.status == "counterexample") == (grid_min < -1e-9)
        assert grid_min == pytest.approx(-0.125, abs=1e-6)
        out = apply_matrix(shrink, np.outer(verdict.witness, verdict.witness.conj()))
        assert min_eigenvalue(out) < -1e-9


class TestCombinators:
    def test_seq_identity_neutral(self):
        c = amplitude_damping(0.3)
        both = seq(identity_program(2), c)
        for seed in range(3):
            rho = DensityState(sample_random("density", 2, seed))
            assert np.abs(apply(both, rho).matrix - apply(c, rho).matrix).max() < 1e-13

    def test_x_squared_is_identity(self):
        c = seq(from_unitary(X), from_unitary(X))
        assert np.abs(c.super - np.eye(4)).max() < 1e-13

    def test_two_damping_stages_survival_product(self):
        # survival of |1> is (1-0.3)(1-0.4) = 0.42, via direct two-step run
        c = seq(amplitude_damping(0.3), amplitude_damping(0.4))
        staged = apply(
            amplitude_damping(0.4), apply(amplitude_damping(0.3), DensityState(KET1))
        )
        combined = apply(c, DensityState(KET1))
        assert np.abs(combined.matrix - staged.matrix).max() < 1e-13
        assert np.abs(combined.matrix - np.diag([0.58, 0.42])).max() < 1e-12

    def test_seq_associativity(self):
        rng = np.random.default_rng(31)
        a, b, c = (random_cptp(rng, 3) for _ in range(3))
        left = seq(seq(a, b), c)
        right = seq(a, seq(b, c))
        assert np.abs(left.super - right.super).max() < 1e-12

    def test_adjoint_reverses_composition(self):
        rng = np.random.default_rng(37)
        a, b = random_cptp(rng, 3), random_cptp(rng, 3)
        lhs = adjoint(seq(a, b)).super
        rhs = adjoint(a).super @ adjoint(b).super
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_mix_endpoints(self):
        a, b = amplitude_damping(0.3), depolarizing(0.5)
        assert np.abs(mix(1.0, a, b).super - a.super).max() < 1e-15
        assert np.abs(mix(0.0, a, b).super - b.super).max() < 1e-15

    def test_mix_identity_with_flip(self):
        c = mix(0.5, identity_program(2), from_unitary(X))
        out = apply(c, DensityState(KET0))
        assert np.abs(out.matrix - np.diag([0.5, 0.5])).max() < 1e-14

    def test_mix_preserves_tp(self):
        c = mix(0.3, transpose_program(2), amplitude_damping(0.8))
        assert is_trace_preserving(c)

    def test_mix_super_matches_operand_kraus_lists(self):
        a, b = amplitude_damping(0.3), depolarizing(0.5)
        m = mix(0.25, a, b)
        rebuilt = 0.25 * sum(np.kron(k.conj(), k) for k in a.kraus) + 0.75 * sum(
            np.kron(k.conj(), k) for k in b.kraus
        )
        assert np.abs(rebuilt - m.super).max() < 1e-12

    def test_combinators_and_adjoint_compute_no_kraus_list(self):
        a, b = amplitude_damping(0.3), depolarizing(0.5)
        assert a.kraus is not None and b.kraus is not None
        results = (
            seq(a, b),
            mix(0.25, a, b),
            measure_branch([KET0, KET1], [a, b]),
            adjoint(a),
        )
        for c in results:
            assert c.kraus is None

    def test_mix_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            mix(1.5, identity_program(2), identity_program(2))


class TestMeasureBranch:
    def test_projective_dephasing(self):
        proj = [KET0, KET1]
        c = measure_branch(proj, [identity_program(2), identity_program(2)])
        plus = DensityState(np.full((2, 2), 0.5))
        out = apply(c, plus)
        assert np.abs(out.matrix - np.diag([0.5, 0.5])).max() < 1e-14

    def test_trivial_instrument_is_branch(self):
        c = amplitude_damping(0.6)
        wrapped = measure_branch([np.eye(2)], [c])
        assert np.abs(wrapped.super - c.super).max() < 1e-14

    def test_correction_branch_fires(self):
        # explicit two-term evaluation: the |1> outcome triggers a flip back
        c = measure_branch([KET0, KET1], [identity_program(2), from_unitary(X)])
        out = apply(c, DensityState(KET1))
        oracle = KET0 @ KET1 @ KET0 + X @ (KET1 @ KET1 @ KET1) @ X
        assert np.abs(out.matrix - oracle).max() < 1e-14
        assert np.abs(out.matrix - KET0).max() < 1e-14

    def test_incomplete_instrument_rejected(self):
        with pytest.raises(ValidationError):
            measure_branch([KET0], [identity_program(2)])

    def test_branch_count_mismatch(self):
        with pytest.raises(ValidationError):
            measure_branch([KET0, KET1], [identity_program(2)])

    def test_cp_and_tp_when_branches_are(self):
        c = measure_branch([KET0, KET1], [amplitude_damping(0.2), from_unitary(X)])
        assert is_trace_preserving(c)
        assert is_completely_positive(c)


class TestSamplers:
    def test_random_cptp_is_cptp(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            c = random_cptp(rng, dim)
            assert is_trace_preserving(c)
            assert is_completely_positive(c)

    def test_sample_program_kinds(self):
        for kind in ("cptp", "unitary", "transpose", "transpose_mix"):
            c = sample_program(kind, 3, 7)
            assert is_trace_preserving(c)

    def test_transpose_mix_is_positive_not_cp(self):
        c = sample_program("transpose_mix", 2, 19)
        assert not is_completely_positive(c)
        verdict = is_positive_sampled(c, ToleranceConfig(sample_count=300))
        assert verdict.status == "no_counterexample"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            sample_program("unital", 2, 0)

    @pytest.mark.parametrize("seed", [0, 5, 99])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_random_cptp_replays_pre_isometry_formula(self, seed, dim):
        rng = np.random.default_rng(seed)
        k = dim
        g = (rng.standard_normal((k * dim, dim)) + 1j * rng.standard_normal((k * dim, dim))) / np.sqrt(2.0)
        q, r = np.linalg.qr(g)
        diag = np.diagonal(r)
        safe = np.abs(diag) > 0
        q = q * (np.where(safe, diag, 1.0) / np.where(safe, np.abs(diag), 1.0))
        c = random_cptp(np.random.default_rng(seed), dim)
        for i, op in enumerate(c.kraus):
            assert np.array_equal(op, q[i * dim:(i + 1) * dim, :])
