"""Dense complex matrix algebra: hermiticity, positivity, operator order, norms.

Every predicate here is tolerance-based. The same ``ToleranceConfig`` travels
through the whole package so a verdict is always reproducible from the report
that carries it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, DimensionMismatchError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "as_complex_matrix",
    "hs_inner",
    "is_hermitian",
    "is_psd",
    "loewner_leq",
    "operator_norm_hermitian",
    "trace_norm",
    "min_eigenvalue",
    "hermitian_eig",
    "psd_sqrt",
    "sample_random",
    "random_density",
    "random_densities",
    "random_effect",
    "random_unitary",
    "random_hermitian_contraction",
    "random_state_vector",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical slack for semidefiniteness and equality tests.

    eig_tol: how far an eigenvalue may dip below zero before a matrix stops
        counting as positive semidefinite.
    residual_tol: entrywise slack in equality and duality checks.
    sample_count: trial budget for sampled verdicts and campaigns.
    """

    eig_tol: float = 1e-9
    residual_tol: float = 1e-9
    sample_count: int = 1000

    def __post_init__(self) -> None:
        if not 0.0 <= self.eig_tol <= 1e-3:
            raise ValueError(f"eig_tol must lie in [0, 1e-3], got {self.eig_tol}")
        if not 0.0 <= self.residual_tol <= 1e-3:
            raise ValueError(
                f"residual_tol must lie in [0, 1e-3], got {self.residual_tol}"
            )
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be positive, got {self.sample_count}")


DEFAULT_TOL = ToleranceConfig()


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a square complex128 array with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def _require_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}"
        )


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each (near-)hermitian matrix in a stack (..., d, d)."""
    # symmetrize first: eigvalsh reads one triangle only
    h = (a + a.conj().swapaxes(-1, -2)) / 2.0
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigendecomposition failed: {exc}") from exc


def hs_inner(a, b) -> complex:
    """Trace pairing Tr(a† b).

    Conjugate-symmetric; for a hermitian state rho paired with an operator A
    this is the usual expectation Tr(rho A).
    """
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    _require_same_dim(a, b)
    return complex(np.trace(a.conj().T @ b))


def is_hermitian(a, tol: ToleranceConfig | None = None) -> bool:
    """True when the max-entry deviation from the conjugate transpose is within residual_tol."""
    tol = tol or DEFAULT_TOL
    a = as_complex_matrix(a)
    return float(np.abs(a - a.conj().T).max()) <= tol.residual_tol


def is_psd(a, tol: ToleranceConfig | None = None) -> bool:
    """True when hermitian and all eigenvalues are at least -eig_tol."""
    tol = tol or DEFAULT_TOL
    a = as_complex_matrix(a)
    if not is_hermitian(a, tol):
        return False
    return float(_eigvalsh(a).min()) >= -tol.eig_tol


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of a (near-)hermitian matrix."""
    return float(_eigvalsh(as_complex_matrix(a)).min())


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a (near-)hermitian matrix."""
    h = (as_complex_matrix(a) + as_complex_matrix(a).conj().T) / 2.0
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigendecomposition failed: {exc}") from exc


def psd_sqrt(a) -> np.ndarray:
    """Square root of a (near-)PSD matrix; eigenvalues below zero are clipped to zero."""
    vals, vecs = hermitian_eig(a)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def loewner_leq(a, b, tol: ToleranceConfig | None = None) -> bool:
    """Operator order a ⪯ b: the gap b - a is positive semidefinite.

    Equivalent to <psi|a psi> <= <psi|b psi> for every vector psi, by the
    spectral theorem. Both operands must be hermitian.
    """
    tol = tol or DEFAULT_TOL
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    _require_same_dim(a, b)
    if not is_hermitian(a, tol) or not is_hermitian(b, tol):
        raise ValueError("loewner_leq requires hermitian operands")
    return float(_eigvalsh(b - a).min()) >= -tol.eig_tol


def operator_norm_hermitian(a, tol: ToleranceConfig | None = None) -> float:
    """Largest |eigenvalue| of a hermitian matrix.

    For hermitian input this equals both the operator norm and the spectral
    radius; non-hermitian input is rejected.
    """
    tol = tol or DEFAULT_TOL
    a = as_complex_matrix(a)
    if not is_hermitian(a, tol):
        raise ValueError("operator_norm_hermitian requires a hermitian matrix")
    return float(np.abs(_eigvalsh(a)).max())


def trace_norm(a) -> float:
    """Sum of singular values."""
    a = as_complex_matrix(a)
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"singular value decomposition failed: {exc}") from exc
    return float(s.sum())


# ---------------------------------------------------------------------------
# Seeded samplers. All draws go through numpy's Generator so a fixed seed
# replays the exact matrix; passing a Generator reuses the caller's stream.
# ---------------------------------------------------------------------------


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_densities(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Stack of n PSD trace-one matrices from Ginibre products, shape (n, dim, dim).

    One draw covers all n matrices and consumes the stream exactly as n
    calls of :func:`random_density` would, entry for entry.
    """
    z = rng.standard_normal((n, 2, dim, dim))
    g = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """PSD trace-one matrix from a Ginibre product."""
    return random_densities(rng, 1, dim)[0]


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    q, r = np.linalg.qr(_ginibre(rng, dim, dim))
    d = np.diagonal(r)
    safe = np.abs(d) > 0
    phase = np.where(safe, d, 1.0) / np.where(safe, np.abs(d), 1.0)
    return q * phase


def random_effect(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random effect 0 ⪯ E ⪯ I: Haar eigenbasis, eigenvalues uniform on [0, 1]."""
    u = random_unitary(rng, dim)
    w = rng.uniform(0.0, 1.0, size=dim)
    return (u * w) @ u.conj().T


def random_hermitian_contraction(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random hermitian matrix with operator norm at most one."""
    u = random_unitary(rng, dim)
    w = rng.uniform(-1.0, 1.0, size=dim)
    return (u * w) @ u.conj().T


def random_state_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unit vector."""
    v = _ginibre(rng, dim, 1)[:, 0]
    return v / np.linalg.norm(v)


_SAMPLERS = {
    "density": random_density,
    "effect": random_effect,
    "unitary": random_unitary,
    "hermitian_contraction": random_hermitian_contraction,
}


def sample_random(kind: str, dim: int, seed) -> np.ndarray:
    """Draw one seeded random matrix of the requested kind.

    kind is one of "density", "effect", "unitary", "hermitian_contraction";
    seed may be an integer or an existing numpy Generator.
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    try:
        sampler = _SAMPLERS[kind]
    except KeyError:
        raise ValueError(f"unknown sample kind {kind!r}; expected one of {sorted(_SAMPLERS)}") from None
    rng = np.random.default_rng(seed)
    return sampler(rng, dim)
