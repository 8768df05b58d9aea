"""Dense complex matrix algebra: hermiticity, positivity, operator order, norms.

Every predicate here is tolerance-based. The same ``ToleranceConfig`` travels
through the whole package so a verdict is always reproducible from the report
that carries it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, DimensionMismatchError

__all__ = [
    "STACK_BYTES",
    "ToleranceConfig",
    "DEFAULT_TOL",
    "as_complex_matrix",
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
    "random_isometry",
    "random_unitary",
    "random_hermitian_contraction",
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

# cap on the bytes of one stack of sampled d×d matrices; sampled checks
# process their states in blocks that fit it (at least one trial a block)
STACK_BYTES = 1 << 24


def _block_size(dim: int, per_row: int = 1) -> int:
    """Rows per block so that per_row complex d×d matrices a row fit in STACK_BYTES; at least one."""
    return max(1, STACK_BYTES // (16 * per_row * dim * dim))


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a square complex128 array with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def _require_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}"
        )


def _conj_transpose(a: np.ndarray) -> np.ndarray:
    """C-contiguous conjugate transpose of each matrix in a stack (..., d, d)."""
    return np.conjugate(a.swapaxes(-1, -2), order="C")


def _hermitian_part(a: np.ndarray, ah: np.ndarray | None = None) -> np.ndarray:
    """(a + aᴴ) / 2 for a stack (..., d, d), finite for every finite a; ah is aᴴ if known.

    Halving each operand first keeps the sum from overflowing. Halving a
    double is exact outside the subnormal range, and dividing by 1.0 gives
    each zero the sign that complex division by 2 gives it, so the result
    has the bits of (a + aᴴ) / 2 wherever that sum is finite and normal.
    """
    if ah is None:
        ah = _conj_transpose(a)
    h = np.multiply(np.ascontiguousarray(a).view(np.float64), 0.5)
    h += np.multiply(ah.view(np.float64), 0.5)
    h = h.view(np.complex128)
    h /= 1.0
    return h


def _hermiticity_gaps(a: np.ndarray, ah: np.ndarray | None = None) -> np.ndarray:
    """Max-entry |a - aᴴ| of each matrix in a finite stack (..., d, d); ah is aᴴ if known.

    A gap that overflows reads inf, which means not hermitian, without a warning.
    """
    if ah is None:
        ah = a.conj().swapaxes(-1, -2)
    with np.errstate(over="ignore"):
        return np.abs(a - ah).max(axis=(-2, -1))


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each (near-)hermitian matrix in a stack (..., d, d)."""
    # symmetrize first: eigvalsh reads one triangle only
    try:
        return np.linalg.eigvalsh(_hermitian_part(a))
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigendecomposition failed: {exc}") from exc


def is_hermitian(a, tol: ToleranceConfig | None = None) -> bool:
    """True when the max-entry deviation from the conjugate transpose is within residual_tol."""
    tol = tol or DEFAULT_TOL
    return float(_hermiticity_gaps(as_complex_matrix(a))) <= tol.residual_tol


# Band of the Cholesky verdicts in is_psd. Let h be the hermitian part of
# the n×n input, t = eig_tol, u = 2⁻⁵³ the unit roundoff, and
# μ = Σ|h_ii| + ‖h‖_F + 2nt, which bounds the trace of h + sI for |s| ≤ 2t.
# * Cholesky (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
#   Thm 10.3; complex arithmetic at most doubles the constant, §3.6): when it
#   runs to completion on M, RᴴR = M + ΔM with |ΔM| ≤ 2γ_{n+1}|Rᴴ||R|, so
#   ‖ΔM‖₂ ≤ 2γ_{n+1}‖R‖_F² = 2γ_{n+1} tr(M + ΔM) ≤ 2(n + 2)u·μ. As RᴴR ⪰ 0,
#   success proves λ_min(M) ≥ −2(n + 2)uμ. The same bound on the rows
#   factored before a failing pivot shows that a matrix with λ_min(M) above
#   it cannot fail. Writing s onto the diagonal rounds by at most uμ.
# * eigvalsh is backward stable: its eigenvalues are exact for h + E, and by
#   Weyl's inequality each is off by at most ‖E‖₂ ≤ p(n)·u·‖h‖₂ ≤ (n + 2)uμ,
#   taking for p(n) the modest growth LAPACK states.
# Take δ = c(n + 2)uμ with c = 8. Success at s = t − δ gives
# λ_min(h) ≥ −t + δ − (2n + 5)uμ, so eigvalsh reads at least
# −t + δ − (3n + 7)uμ ≥ −t: PSD on both routes. If eigvalsh reads at least
# −t, then λ_min(h + (t + δ)I) ≥ δ − (n + 3)uμ, above the failure bound, so
# failure at s = t + δ means not PSD on both routes. Only when neither
# factorization decides, or δ ≥ t, does is_psd run eigvalsh.
_PSD_BAND_C = 8.0


def _psd_band(h: np.ndarray, eig_tol: float) -> float:
    """δ = c(n + 2)uμ for the hermitian n×n matrix h (derivation above); inf when μ overflows."""
    n = h.shape[0]
    with np.errstate(over="ignore"):
        mu = float(np.abs(h.diagonal().real).sum()) + math.sqrt(np.vdot(h, h).real) + 2 * n * eig_tol
    return _PSD_BAND_C * (n + 2) * (np.finfo(np.float64).eps / 2) * mu


def _cholesky_succeeds(h: np.ndarray, diagonal: np.ndarray) -> bool:
    """Whether Cholesky succeeds on h with its diagonal set to ``diagonal`` (h is overwritten)."""
    h.flat[:: h.shape[0] + 1] = diagonal
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


def is_psd(a, tol: ToleranceConfig | None = None) -> bool:
    """True when hermitian and all eigenvalues are at least -eig_tol.

    Decided by Cholesky factorizations at the shifts eig_tol ∓ δ, with the
    eigenvalue test only for an input they leave undecided; both routes give
    the same verdict (see the derivation of δ above).
    """
    tol = tol or DEFAULT_TOL
    a = as_complex_matrix(a)
    ah = _conj_transpose(a)
    if float(_hermiticity_gaps(a, ah)) > tol.residual_tol:
        return False
    h = _hermitian_part(a, ah)
    delta = _psd_band(h, tol.eig_tol)
    if delta < tol.eig_tol:
        diagonal = h.diagonal().copy()
        if _cholesky_succeeds(h, diagonal + (tol.eig_tol - delta)):
            return True
        if not _cholesky_succeeds(h, diagonal + (tol.eig_tol + delta)):
            return False
    return float(_eigvalsh(a).min()) >= -tol.eig_tol


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of a (near-)hermitian matrix."""
    return float(_eigvalsh(as_complex_matrix(a)).min())


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of each (near-)hermitian matrix in a stack (..., d, d)."""
    try:
        return np.linalg.eigh(_hermitian_part(a))
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigendecomposition failed: {exc}") from exc


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a (near-)hermitian matrix."""
    return _eigh(as_complex_matrix(a))


def _psd_sqrts(a: np.ndarray) -> np.ndarray:
    """Square root of each (near-)PSD matrix in a stack (..., d, d); eigenvalues below zero are clipped to zero."""
    vals, vecs = _eigh(a)
    # vecsᴴ as a transposed view, the layout of one matrix's vecs.conj().T
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def psd_sqrt(a) -> np.ndarray:
    """Square root of a (near-)PSD matrix; eigenvalues below zero are clipped to zero."""
    return _psd_sqrts(as_complex_matrix(a))


def loewner_leq(a, b, tol: ToleranceConfig | None = None) -> bool:
    """Operator order a ⪯ b: the gap b - a is positive semidefinite.

    Equivalent to <psi|a psi> <= <psi|b psi> for every vector psi, by the
    spectral theorem. Both operands must be hermitian.
    """
    tol = tol or DEFAULT_TOL
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    _require_same_dim(a, b)
    if _hermiticity_gaps(a) > tol.residual_tol or _hermiticity_gaps(b) > tol.residual_tol:
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


def _ginibre(z: np.ndarray) -> np.ndarray:
    """Ginibre matrices (..., r, c) from standard normals (..., 2, r, c): real parts, then imaginary parts."""
    return (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / np.sqrt(2.0)


def _densities(z: np.ndarray) -> np.ndarray:
    """Trace-one Ginibre products g gᴴ / Tr(g gᴴ), shape (..., d, d), from normals (..., 2, d, d)."""
    g = _ginibre(z)
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def _haar_isometries(z: np.ndarray) -> np.ndarray:
    """Haar isometries (..., r, c), r >= c, by phase-fixed QR of the Ginibre matrices of normals (..., 2, r, c)."""
    q, r = np.linalg.qr(_ginibre(z))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    safe = np.abs(d) > 0
    phase = np.where(safe, d, 1.0) / np.where(safe, np.abs(d), 1.0)
    return q * phase[..., None, :]


def _haar_spectral(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """u diag(w) uᴴ for Haar unitaries u from normals (..., 2, d, d) and eigenvalues w (..., d)."""
    u = _haar_isometries(z)
    # uᴴ as a transposed view: a C-ordered copy would send the product down
    # another BLAS path, with other rounding
    return (u * w[..., None, :]) @ u.conj().swapaxes(-1, -2)


def random_densities(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Stack of n PSD trace-one matrices from Ginibre products, shape (n, dim, dim).

    One draw covers all n matrices and consumes the stream exactly as n
    calls of :func:`random_density` would, entry for entry.
    """
    return _densities(rng.standard_normal((n, 2, dim, dim)))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """PSD trace-one matrix from a Ginibre product."""
    return random_densities(rng, 1, dim)[0]


def random_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Haar-distributed isometry (rows >= cols) via phase-fixed QR of a Ginibre matrix."""
    return _haar_isometries(rng.standard_normal((2, rows, cols)))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary: a square :func:`random_isometry`."""
    return random_isometry(rng, dim, dim)


def random_effect(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random effect 0 ⪯ E ⪯ I: Haar eigenbasis, eigenvalues uniform on [0, 1]."""
    z = rng.standard_normal((2, dim, dim))
    return _haar_spectral(z, rng.uniform(0.0, 1.0, size=dim))


def random_hermitian_contraction(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random hermitian matrix with operator norm at most one."""
    z = rng.standard_normal((2, dim, dim))
    return _haar_spectral(z, rng.uniform(-1.0, 1.0, size=dim))


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
