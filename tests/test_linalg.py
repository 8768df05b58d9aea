import numpy as np
import pytest

from qwp.errors import DecompositionError, DimensionMismatchError
from qwp.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_complex_matrix,
    hermitian_eig,
    is_hermitian,
    is_psd,
    loewner_leq,
    operator_norm_hermitian,
    random_isometry,
    random_unitary,
    sample_random,
    trace_norm,
)

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])


def spectral_norm_by_squaring(a: np.ndarray, squarings: int = 24) -> float:
    """Independent norm oracle: power iteration on a†a via repeated squaring.

    Never touches an eigendecomposition; the dominant subspace is isolated by
    squaring and the answer read off a Rayleigh quotient.
    """
    gram = a.conj().T @ a
    b = gram.copy()
    for _ in range(squarings):
        nb = np.linalg.norm(b)
        if nb == 0.0:
            return 0.0
        b = (b / nb) @ (b / nb)
    v = b[:, int(np.argmax(np.abs(np.diag(b))))]
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    v = v / nv
    lam = float(np.real(np.vdot(v, gram @ v)))
    return float(np.sqrt(max(lam, 0.0)))


class TestToleranceConfig:
    def test_defaults(self):
        tol = ToleranceConfig()
        assert tol.eig_tol == 1e-9
        assert tol.residual_tol == 1e-9
        assert tol.sample_count == 1000

    @pytest.mark.parametrize("kwargs", [
        {"eig_tol": -1e-12},
        {"eig_tol": 2e-3},
        {"residual_tol": -1.0},
        {"residual_tol": 0.01},
        {"sample_count": 0},
    ])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            ToleranceConfig(**kwargs)

    @pytest.mark.parametrize("count", [1.5, 2.0, True, False, np.float64(3.0), np.bool_(True), "5", None])
    def test_rejects_a_sample_count_that_is_not_an_integer(self, count):
        # the audit and weakest_check would take it into range() and the samplers, deep in a loop
        with pytest.raises(ValueError, match="sample_count must be an integer"):
            ToleranceConfig(sample_count=count)

    @pytest.mark.parametrize("count", [1, 7, np.int64(7), np.int32(7), np.uint8(7)])
    def test_accepts_python_and_numpy_integers(self, count):
        assert ToleranceConfig(sample_count=count).sample_count == count


class TestHermitian:
    def test_real_diagonal(self):
        assert is_hermitian(np.diag([1.0, 0.0]))

    def test_antihermitian_off_diagonal(self):
        assert not is_hermitian(np.array([[0.0, 1j], [1j, 0.0]]))

    def test_pauli_y(self):
        assert is_hermitian(np.array([[0.0, 1j], [-1j, 0.0]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            is_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            is_hermitian(np.ones((2, 3)))


class TestPsd:
    def test_diagonal_probabilities(self):
        assert is_psd(np.diag([0.3, 0.7]))

    def test_negative_eigenvalue(self):
        assert not is_psd(np.diag([1.0, -0.01]))

    def test_rank_one_projector(self):
        assert is_psd(PLUS)

    def test_non_hermitian_is_not_psd(self):
        assert not is_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_boundary_slack(self):
        tol = ToleranceConfig(eig_tol=1e-9)
        assert is_psd(np.diag([1.0, -0.5e-9]), tol)
        assert not is_psd(np.diag([1.0, -1e-8]), tol)


class TestLoewner:
    def test_dominating_diagonals(self):
        assert loewner_leq(np.diag([0.2, 0.3]), np.diag([0.5, 0.5]))

    def test_incomparable_pair_both_directions(self):
        a = np.diag([0.6, 0.1])
        b = np.diag([0.3, 0.5])
        assert not loewner_leq(a, b)
        assert not loewner_leq(b, a)

    def test_reflexive_on_samples(self):
        for seed in range(10):
            a = sample_random("hermitian_contraction", 3, seed)
            assert loewner_leq(a, a)

    def test_transitive_on_constructed_triples(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            a = sample_random("effect", dim, rng)
            gap1 = sample_random("effect", dim, rng)
            gap2 = sample_random("effect", dim, rng)
            b = a + 0.5 * gap1
            c = b + 0.5 * gap2
            assert loewner_leq(a, b)
            assert loewner_leq(b, c)
            assert loewner_leq(a, c)

    def test_antisymmetric_within_tolerance(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            dim = int(rng.integers(2, 6))
            a = sample_random("hermitian_contraction", dim, rng)
            b = a + 1e-12 * sample_random("hermitian_contraction", dim, rng)
            if loewner_leq(a, b) and loewner_leq(b, a):
                assert float(np.abs(a - b).max()) <= 10 * DEFAULT_TOL.eig_tol

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            loewner_leq(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
        # the hermitian part of the gap is PSD, so only the refusal of the upper operand stops the order
        with pytest.raises(ValueError, match="loewner_leq requires hermitian operands"):
            loewner_leq(np.eye(2), np.array([[2.0, 1.0], [0.0, 2.0]]))

    def test_the_slack_admits_a_gap_down_to_minus_eig_tol(self):
        tol = ToleranceConfig(eig_tol=1e-9)
        assert loewner_leq(np.eye(2), np.diag([1.0, 1.0 - 0.5e-9]), tol)
        assert not loewner_leq(np.eye(2), np.diag([1.0, 1.0 - 2e-9]), tol)

    def test_rejects_operands_of_different_dims(self):
        with pytest.raises(DimensionMismatchError):
            loewner_leq(np.eye(2), np.eye(3))


class TestOperatorNorm:
    def test_projector(self):
        assert operator_norm_hermitian(PLUS) == pytest.approx(1.0)

    def test_scaling(self):
        assert operator_norm_hermitian(0.8 * PLUS) == pytest.approx(0.8)

    def test_sign_insensitive(self):
        assert operator_norm_hermitian(np.diag([0.3, -0.9])) == pytest.approx(0.9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            operator_norm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_matches_squaring_oracle(self):
        # norm equals spectral radius for hermitian input; the oracle never
        # calls an eigensolver
        for seed in range(40):
            dim = 2 + seed % 4
            a = sample_random("hermitian_contraction", dim, seed)
            assert operator_norm_hermitian(a) == pytest.approx(
                spectral_norm_by_squaring(a), abs=1e-9
            )


class TestTraceNorm:
    def test_density_state(self):
        rho = sample_random("density", 3, 11)
        assert trace_norm(rho) == pytest.approx(1.0)

    def test_signed_diagonal(self):
        assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)

    def test_submultiplicative_bound_direct_evaluation(self):
        # |A rho|_1 <= |A| * |rho|_1, both sides evaluated independently
        rng = np.random.default_rng(123)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            a = sample_random("hermitian_contraction", dim, rng)
            rho = sample_random("density", dim, rng)
            lhs = trace_norm(a @ rho)
            rhs = operator_norm_hermitian(a) * trace_norm(rho)
            assert lhs <= rhs + 1e-9


class TestSampleRandom:
    def test_density_properties(self):
        for seed in (0, 1, 2):
            rho = sample_random("density", 2, seed)
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert is_psd(rho)

    def test_unitary_property(self):
        u = sample_random("unitary", 3, 5)
        assert float(np.abs(u.conj().T @ u - np.eye(3)).max()) <= 1e-10

    def test_effect_is_between_zero_and_identity(self):
        e = sample_random("effect", 4, 9)
        assert is_psd(e)
        assert loewner_leq(e, np.eye(4))

    def test_hermitian_contraction(self):
        a = sample_random("hermitian_contraction", 4, 3)
        assert is_hermitian(a)
        assert operator_norm_hermitian(a) <= 1.0 + 1e-12

    def test_deterministic_under_seed(self):
        a = sample_random("density", 3, 77)
        b = sample_random("density", 3, 77)
        assert np.array_equal(a, b)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            sample_random("wigner", 2, 0)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            sample_random("density", 0, 0)

    @pytest.mark.parametrize("seed", [0, 5, 99])
    @pytest.mark.parametrize("dim", [1, 2, 3, 6])
    def test_random_unitary_replays_pre_isometry_formula(self, seed, dim):
        rng = np.random.default_rng(seed)
        g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        safe = np.abs(d) > 0
        expected = q * (np.where(safe, d, 1.0) / np.where(safe, np.abs(d), 1.0))
        assert np.array_equal(random_unitary(np.random.default_rng(seed), dim), expected)

    def test_random_isometry_columns_orthonormal(self):
        v = random_isometry(np.random.default_rng(3), 12, 4)
        assert v.shape == (12, 4)
        assert float(np.abs(v.conj().T @ v - np.eye(4)).max()) <= 1e-12


def test_as_complex_matrix_rejects_inf():
    with pytest.raises(ValueError):
        as_complex_matrix([[np.inf, 0.0], [0.0, 1.0]])


class TestDecompositionFailures:
    def test_eigensolver_breakdown_is_an_error_not_false(self, monkeypatch):
        def explode(_):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", explode)
        # eig_tol = 0 leaves the verdict to the eigenvalue test, past the Cholesky factorizations
        with pytest.raises(DecompositionError):
            is_psd(np.eye(2), ToleranceConfig(eig_tol=0.0))

    def test_eigenvector_breakdown_is_an_error(self, monkeypatch):
        def explode(_):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", explode)
        with pytest.raises(DecompositionError, match="eigendecomposition failed: did not converge"):
            hermitian_eig(np.eye(2))

    def test_svd_breakdown_is_an_error(self, monkeypatch):
        def explode(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "svd", explode)
        with pytest.raises(DecompositionError):
            trace_norm(np.eye(2))
