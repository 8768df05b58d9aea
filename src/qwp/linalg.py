"""Dense complex matrix algebra: hermiticity, positivity, operator order, norms.

Every predicate here is tolerance-based. The same ``ToleranceConfig`` travels
through the whole package so a verdict is always reproducible from the report
that carries it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, DimensionMismatchError, ValidationError

__all__ = [
    "STACK_BYTES",
    "ROW_BLOCK_BYTES",
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


# cap on the bytes of one block of superoperator rows that a stack of
# operators passes through at once: a block that fits in L2 is read from
# memory once a stack, not once an operator
ROW_BLOCK_BYTES = 1 << 20


def _row_block_size(n: int) -> int:
    """Rows of an n-column complex matrix a block so that a block fits in ROW_BLOCK_BYTES; at least two."""
    return max(2, ROW_BLOCK_BYTES // (16 * n))


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a square complex128 array with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    _require_finite(a)
    return a


def _operator_family(ops, noun: str) -> list[np.ndarray]:
    """A non-empty family of matrices of one dim, each through :func:`as_complex_matrix`;
    ``noun`` names one member in the refusals."""
    ms = [as_complex_matrix(m) for m in ops]
    if not ms:
        raise ValidationError(f"at least one {noun} is required")
    if any(m.shape[0] != ms[0].shape[0] for m in ms[1:]):
        raise DimensionMismatchError(f"{noun}s differ in dimension")
    return ms


def _hermitian_part(a: np.ndarray, ah: np.ndarray | None = None) -> np.ndarray:
    """(a + aᴴ) / 2 for a stack (..., d, d), finite for every finite a; ah is aᴴ if known.

    The result is computed in the buffer of ah, which is overwritten, so a
    caller that passes ah must not read it again. Halving each operand first
    keeps the sum from overflowing. Halving a double is exact outside the
    subnormal range, and dividing by 1.0 gives each zero the sign that
    complex division by 2 gives it, so the result has the bits of
    (a + aᴴ) / 2 wherever that sum is finite and normal. The real and
    imaginary parts of a are read as strided views, so a of any layout is
    never copied.
    """
    if ah is None:
        ah = np.conjugate(a.swapaxes(-1, -2), order="C")
    for part, other in ((ah.real, a.real), (ah.imag, a.imag)):
        part *= 0.5
        part += np.multiply(other, 0.5)
    ah /= 1.0
    return ah


def _hermiticity_gaps(a: np.ndarray, ah: np.ndarray | None = None) -> np.ndarray:
    """Max-entry |a - aᴴ| of each matrix in a finite stack (..., d, d); ah is aᴴ if known.

    A gap that overflows reads inf, which means not hermitian, without a warning.
    """
    if ah is None:
        ah = a.conj().swapaxes(-1, -2)
    with np.errstate(over="ignore"):
        return np.abs(a - ah).max(axis=(-2, -1))


def _identity_gaps(ms: np.ndarray) -> np.ndarray:
    """Max-entry |m - I| of each matrix in a stack (..., d, d)."""
    return np.abs(ms - np.eye(ms.shape[-1])).max(axis=(-2, -1))


def _lower_eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each hermitian matrix in a stack (..., d, d), read from its lower triangle."""
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigendecomposition failed: {exc}") from exc


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each (near-)hermitian matrix in a stack (..., d, d)."""
    # symmetrize first: eigvalsh reads one triangle only
    return _lower_eigvalsh(_hermitian_part(a))


def is_hermitian(a, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when the max-entry deviation from the conjugate transpose is within residual_tol."""
    return float(_hermiticity_gaps(as_complex_matrix(a))) <= tol.residual_tol


# Band of the Cholesky verdicts in _cholesky_proves and _psd_verdict. Let a be
# one n×n matrix, h its hermitian part, t its threshold (eig_tol for the PSD
# test; a rule λ_min(h) ≥ −t_k may give each matrix k its own), u = 2⁻⁵³ the
# unit roundoff, and μ = Σ|Re a_ii| + ‖a‖_F + 2nt, read off a itself and
# taken per matrix. h_ii = Re a_ii, and h is the orthogonal projection of a
# onto the hermitian matrices, so ‖h‖_F ≤ ‖a‖_F: μ bounds ‖h‖₂, and the trace
# of h + sI for |s| ≤ 2t. Nothing below asks more of t than t ≥ 0, so every
# bound holds with t_k and μ_k in place of t and μ.
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
# Take δ = c(n + 2)uμ with c = 8 (_band). Success at s = t − δ gives
# λ_min(h) ≥ −t + δ − (2n + 5)uμ, so eigvalsh reads at least
# −t + δ − (3n + 7)uμ ≥ −t: PSD on both routes. If eigvalsh reads at least
# −t, then λ_min(h + (t + δ)I) ≥ δ − (n + 3)uμ, above the failure bound, so
# failure at s = t + δ means not PSD on both routes.
# * A leading m×m block B of M = h + (t + δ)I has λ_min(B) ≥ λ_min(M) by
#   Cauchy interlacing, and its own μ and failure bound 2(m + 2)uμ are at
#   most those of M. So if eigvalsh reads at least −t, B sits above its
#   failure bound too: failure on any leading block of M also means not PSD.
#   Such a block is the hermitian part of a's leading square alone, so it is
#   probed before h is built.
# * μ is itself a floating-point sum, within a relative (n² + n)u of its
#   exact value, and c = 8 is more than twice the 3 + 1/(n + 2) that the
#   bounds above need, so its rounding cannot move a verdict.
# * Low-rank certificate (a posteriori; the factor is a pivoted partial
#   Cholesky, Harbrecht, Peters & Schneider, Appl. Numer. Math. 62, 2012).
#   For any computed n×r factor L̂, h = L̂L̂ᴴ + R exactly with R hermitian,
#   and L̂L̂ᴴ ⪰ 0, so Weyl's inequality gives λ_min(h) ≥ −‖R‖₂ ≥ −‖R‖_F,
#   whatever L̂ is. The residual is summed off a itself, as ‖a − L̂L̂ᴴ‖_F,
#   which bounds ‖R‖_F: L̂L̂ᴴ is hermitian, so R is the hermitian part of
#   a − L̂L̂ᴴ, and taking the hermitian part is an orthogonal projection (onto
#   the hermitian matrices, in the inner product Re tr(XᴴY)). Each entry
#   a_ij − Σ_k l_ik l̄_jk is computed within γ_{r+2}(|a_ij| + Σ_k |l_ik||l_jk|),
#   doubled for complex arithmetic, so the computed ‖a − L̂L̂ᴴ‖_F is within
#   2γ_{r+2}(‖a‖_F + ‖L̂‖_F²) of the exact one, plus a relative (n² + n)u for
#   its own sum, which is below (n + 1)uμ/4 while it is at most t, as
#   μ ≥ 2nt. With r ≤ n, ‖a‖_F ≤ μ and ‖L̂‖_F² ≤ μ, all of that is at most
#   5(n + 2)uμ. So a computed ‖a − L̂L̂ᴴ‖_F ≤ t − δ gives
#   λ_min(h) ≥ −t + δ − 5(n + 2)uμ, and eigvalsh reads at least
#   −t + δ − 6(n + 2)uμ ≥ −t: PSD on both routes. No certificate is drawn
#   when ‖L̂‖_F² > μ. For a PSD h that costs nothing: there ‖L̂‖_F² is, up
#   to rounding, tr(h) less the trace of a PSD Schur complement, and
#   tr(h) ≤ μ − ‖h‖_F. The pivot columns (a[:, p] + conj a[p, :])/2 are read
#   off a with the bits of h's lower triangle, so L̂ is the factor of h.
# A stack (_psd_stack) is decided by one batched factorization at
# s = t_k − δ_k (_cholesky_proves): when every matrix succeeds, each has
# λ_min ≥ −t_k on both routes. A batched failure does not say which matrix
# failed, so it leaves the stack to eigvalsh (_threshold_flags). A single
# matrix (_psd_verdict) is probed on its leading blocks at t + δ, then its
# hermiticity gap and the low-rank certificate are read off it where it
# lies, all before any full-size array is built. Only a matrix that they
# leave undecided has h's lower triangle written into an n×n array, for
# the full factorization at t − δ, as a stack of one, the one at t + δ, and
# eigvalsh between them. Where δ ≥ t, eigvalsh decides alone, after the gap.
_PSD_BAND_C = 8.0


def _band_per_mu(n: int) -> float:
    """δ / μ = c(n + 2)u for an n×n matrix (derivation above)."""
    return _PSD_BAND_C * (n + 2) * (np.finfo(np.float64).eps / 2)


def _band(n: int, diagonals: np.ndarray, sq_norms, eig_tol):
    """δ = c(n + 2)u·μ of each n×n matrix a, μ = Σ|Re a_ii| + ‖a‖_F + 2n·t (derivation above);
    diagonals (..., n) holds each a's diagonal, sq_norms (...) each Σ|a_ij|², and eig_tol each
    threshold t, a float or an array that broadcasts against sq_norms. δ is inf, with no
    warning, where μ overflows."""
    with np.errstate(over="ignore"):
        return _band_per_mu(n) * (np.abs(diagonals.real).sum(axis=-1) + np.sqrt(sq_norms) + 2 * n * eig_tol)


# Hermiticity defect of a product (is_positive_sampled). Let the
# anti-hermitian part a = (m − mᴴ)/2 of an output m be read off a product
# y = W_a·x of length k, x the real coordinates of a pure ψψ†. Each a_pq is
# w_pq·x for a complex row w_pq of W_a (its rows for Re a_pq and Im a_pq),
# so |a_pq| ≤ ‖w_pq‖₂‖x‖₂ by Cauchy–Schwarz, and ‖x‖₂² = 2 − Σ|ψ_i|⁴ ≤ 2.
# So the gap max|m − mᴴ| = 2 max|a_pq| is at most 2√2·max‖w_pq‖₂.
# * Rounding: each computed coordinate is within γ_k‖w_pq‖₂‖x‖₂ of its exact
#   value and its modulus rounds once; a computed x of a computed unit ψ is
#   within a relative (2d + 9)u of √2 in ‖·‖₂, and a computed ‖w_pq‖₂ within
#   (k + 2)u of the exact one. With k = d² ≥ d, all of that is below
#   c(k + 2)u, the band's relative widening (_band_per_mu).
# So when 2√2·(1 + c(k + 2)u)·max‖w_pq‖₂ ≤ residual_tol (_defect_bound),
# every gap that the product would compute passes, and the product need not
# carry W_a at all.


def _defect_bound(k: int, row_norm: float) -> float:
    """Bound on every hermiticity gap read off a length-k product whose largest complex row of W_a
    has norm row_norm, for the coordinates of a pure state (derivation above)."""
    return 2.0 * math.sqrt(2.0) * (1.0 + _band_per_mu(k)) * row_norm


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """Σ|x_ij|² of each matrix in a stack (..., r, c); inf when it overflows."""
    with np.errstate(over="ignore"):
        return np.einsum("...ij,...ij->...", x.real, x.real) + np.einsum("...ij,...ij->...", x.imag, x.imag)


def _cholesky_succeeds(m: np.ndarray) -> bool:
    """Whether Cholesky runs to completion on every matrix of the stack m (..., n, n)."""
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _leading_square(blocks: np.ndarray, m: int) -> np.ndarray:
    """a[:m, :m] of the matrix a that blocks (b, k, b, k) lays out, copying at most its ⌈m/k⌉·k leading rows and columns."""
    k = blocks.shape[1]
    p = -(-m // k)
    return blocks[:p, :, :p].reshape(p * k, p * k)[:m, :m]


def _square_blocks(a: np.ndarray) -> np.ndarray:
    """a (n, n) as the blocks (n/k, k, n/k, k) that _psd_verdict reads, a view of a: k is the
    largest divisor of n whose block row of k×n entries fits ROW_BLOCK_BYTES."""
    n = a.shape[0]
    k = max(k for k in range(1, min(n, _row_block_size(n)) + 1) if n % k == 0)
    return a.reshape(n // k, k, n // k, k)


def _block_pairs(blocks: np.ndarray):
    """Each block row p of the matrix a that blocks (b, k, b, k) lays out, as p and two views: the blocks
    (p, q), q ≤ p, own[q, j, i] = a[p*k + i, q*k + j], and their partners (q, p), partner[q, j, i] = a[q*k + j, p*k + i]."""
    for p in range(blocks.shape[0]):
        yield p, blocks[p, :, :p + 1].transpose(1, 2, 0), blocks[:p + 1, :, p]


def _blocked_gap(blocks: np.ndarray) -> float:
    """Hermiticity gap max|a - aᴴ| of the finite matrix a that blocks (b, k, b, k) lays out, read in place.

    Block row p at a time: each block (p, q), q ≤ p, against the conjugate of
    its partner (q, p). |a - aᴴ| takes the same value at (i, j) and (j, i),
    so these blocks give its maximum. Each entry is |a_ij - conj a_ji| of
    :func:`_hermiticity_gaps`, so the gap has the bits of a full-size pass.
    """
    return max(float(_hermiticity_gaps(own, np.conjugate(partner)).max()) for _, own, partner in _block_pairs(blocks))


def _write_hermitian_part(blocks: np.ndarray, h: np.ndarray) -> None:
    """Write the hermitian part of the finite matrix a that blocks (b, k, b, k) lays out into h (n, n), on and
    below its block diagonal, from the pairs of :func:`_block_pairs` with the bits of a full-size pass.

    Cholesky and eigvalsh read only the lower triangle. h may be a itself:
    row p writes column blocks up to p only, and a later row p' reads its
    partners from column block p' alone.
    """
    out = h.reshape(blocks.shape)  # a view: each axis of h splits in two
    for p, own, partner in _block_pairs(blocks):
        out[p, :, :p + 1] = _hermitian_part(own, np.conjugate(partner)).transpose(2, 0, 1)


def _lower_column(blocks: np.ndarray, p: int, out: np.ndarray) -> None:
    """Column p of the hermitian part h of the matrix a that blocks (b, k, b, k) lays out, into out (n,):
    conj h[p, :p], then h[p:, p], h's lower triangle with the bits that :func:`_write_hermitian_part` writes."""
    k = blocks.shape[1]
    row, col = (np.array(x).reshape(-1) for x in (blocks[p // k, p % k], blocks[:, :, p // k, p % k]))
    np.conjugate(_hermitian_part(np.conjugate(col[:p]), row[:p]), out=out[:p])
    out[p:] = _hermitian_part(np.conjugate(row[p:]), col[p:])


def _low_rank_certificate(blocks: np.ndarray, diagonal: np.ndarray, delta: float, eig_tol: float) -> bool:
    """True when a pivoted partial Cholesky factor L̂ proves PSD the hermitian part h of the matrix a that blocks
    (b, k, b, k) lays out, of diagonal (n,) (derivation above); False leaves a undecided. a is read in place.

    Each step factors the column of the largest remaining Schur diagonal, read
    off a as h's lower triangle, until no Schur diagonal is above t − δ; a
    matrix that needs more than isqrt(n) steps, d for a Choi matrix, is left
    undecided. Only a drained diagonal goes on to the residual a − L̂L̂ᴴ, summed
    one block row at a time.
    """
    b, w = blocks.shape[:2]
    n = b * w
    bound = eig_tol - delta
    schur = _hermitian_part(np.conjugate(diagonal), diagonal.copy()).real  # h's diagonal
    factor = np.empty((math.isqrt(n), n), dtype=np.complex128)  # row k holds column k of L̂
    for k in range(len(factor) + 1):
        p = int(schur.argmax())
        if schur[p] <= bound:
            break
        if k == len(factor):
            return False
        column = factor[k]
        _lower_column(blocks, p, column)
        column -= factor[:k].T @ factor[:k, p].conj()
        column /= np.sqrt(schur[p])
        schur -= column.real * column.real + column.imag * column.imag
        schur[p] = 0.0
    lead = factor[:k]
    if _squared_norms(lead) > delta / _band_per_mu(n):  # ‖L̂‖_F² > μ
        return False
    residual_sq, conj_lead = 0.0, lead.conj()
    for p in range(b):
        strip = conj_lead.T @ lead[:, p * w:(p + 1) * w]  # [q*w + j, i] = (L̂L̂ᴴ)[p*w + i, q*w + j]
        rest = strip.reshape(b, w, w)
        np.subtract(blocks[p].transpose(1, 2, 0), rest, out=rest)  # a's block row p less L̂L̂ᴴ's, laid out alike
        residual_sq += _squared_norms(strip)
        if residual_sq > bound * bound:
            return False
    return True


def _psd_stack(a: np.ndarray, thresholds):
    """The gaps max|a - aᴴ| of a finite stack (..., n, n), and :func:`_threshold_flags` of its hermitian parts at
    thresholds t_k, a float or an array that broadcasts against (...). The gaps and the hermitian parts come
    from full-size passes over one conjugate transpose, and the band is read off a (derivation above)."""
    ah = np.conjugate(a.swapaxes(-1, -2), order="C")
    gaps = _hermiticity_gaps(a, ah)  # before _hermitian_part overwrites ah
    h = _hermitian_part(a, ah)
    return gaps, *_threshold_flags(h, a.diagonal(axis1=-2, axis2=-1), _squared_norms(a), thresholds)


def _threshold_flags(h: np.ndarray, diagonals: np.ndarray, sq_norms, thresholds):
    """The flags λ_min(h_k) < -t_k of a stack of hermitian parts h (..., n, n), of which only the lower triangles
    are read, and the λ_min: None, every flag clear, where :func:`_cholesky_proves`, whose arguments these are,
    proves the stack; else eigvalsh's, which give the same flags."""
    if _cholesky_proves(h, diagonals, sq_norms, thresholds):
        return np.zeros(h.shape[:-2], dtype=bool), None
    lows = _lower_eigvalsh(h).min(axis=-1)
    return lows < -thresholds, lows


def _psd_tail(gaps: np.ndarray, h: np.ndarray, diagonals: np.ndarray, sq_norms: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Whether each of k matrices is hermitian within residual_tol with λ_min ≥ -eig_tol, from its gap (k,) and
    the arguments of :func:`_threshold_flags` at eig_tol; a stack in which no gap passes takes no factorization."""
    flags = gaps <= tol.residual_tol
    if not flags.any():
        return flags
    return flags & ~_threshold_flags(h, diagonals, sq_norms, tol.eig_tol)[0]


def _cholesky_proves(h: np.ndarray, diagonals: np.ndarray, sq_norms, thresholds) -> bool:
    """True when one batched Cholesky factorization proves λ_min(h_k) ≥ -t_k for every hermitian
    part h_k of a stack (..., n, n), of which only the lower triangles are read; False leaves the
    stack undecided. diagonals (..., n) and sq_norms (...) are each matrix a's diagonal and
    Σ|a_ij|², for the band (derivation above), and may be h's own; thresholds are the t_k ≥ 0, a
    float or an array that broadcasts against sq_norms.

    The factorization is of h + (t_k - δ_k)I, δ_k the band of matrix k, and is
    tried only when every δ_k < t_k. Where it proves the bound, eigvalsh reads
    λ_min ≥ -t_k too. h's diagonal is shifted for it and restored, with its
    bits, before this returns False, so eigvalsh may then read h.
    """
    delta = _band(h.shape[-1], diagonals, sq_norms, thresholds)
    if not (delta < thresholds).all():
        return False
    diag = np.einsum("...ii->...i", h)
    saved = diag.copy()
    diag += np.asarray(thresholds - delta)[..., None]
    if _cholesky_succeeds(h):
        return True
    diag[...] = saved
    return False


def _psd_verdict(blocks: np.ndarray, tol: ToleranceConfig, h: np.ndarray | None = None) -> bool:
    """Whether the finite n×n matrix a that blocks (b, k, b, k) lays out, a[p*k + i, q*k + j] =
    blocks[p, i, q, j], is hermitian within residual_tol with λ_min ≥ -eig_tol, by the single-matrix
    route (derivation above).

    blocks is a view of a where it lies: the band, the probes of the leading
    n/4 square, the hermiticity gap and the low-rank certificate read it in
    place. Only when none of them has decided is h's lower triangle written
    into the one full-size array: the given h, a private copy of a that
    blocks views, or else a new array.
    """
    n, eig_tol = blocks.shape[0] * blocks.shape[1], tol.eig_tol
    flat = blocks.ravel("K")  # a view, in memory order, for blocks of any contiguous array
    diagonal, sq_norm = np.einsum("pipi->pi", blocks).reshape(-1), np.vdot(flat, flat).real
    delta = _band(n, diagonal, sq_norm, eig_tol)
    if delta < eig_tol:
        probe = _hermitian_part(_leading_square(blocks, n // 4))[None]
        np.einsum("...ii->...i", probe)[...] += eig_tol + delta
        if any(m and not _cholesky_succeeds(probe[:, :m, :m]) for m in (n // 16, n // 4)):
            return False
        del probe  # before the gap's and the certificate's temporaries
    if _blocked_gap(blocks) > tol.residual_tol:
        return False
    if delta < eig_tol and _low_rank_certificate(blocks, diagonal, delta, eig_tol):
        return True
    h = np.empty((n, n), dtype=np.complex128) if h is None else h
    _write_hermitian_part(blocks, h)
    if _cholesky_proves(h[None], diagonal, sq_norm, eig_tol):
        return True
    if delta < eig_tol:
        # failure refutes only above the band
        diag = np.einsum("ii->i", h)
        saved = diag.copy()
        diag += eig_tol + delta
        if not _cholesky_succeeds(h[None]):
            return False
        diag[...] = saved
    return bool(_lower_eigvalsh(h)[0] >= -eig_tol)


def is_psd(a, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when hermitian and all eigenvalues are at least -eig_tol.

    The single-matrix route of the PSD kernel: Cholesky factorizations decide
    where the band δ allows, the eigenvalue test the rest, and every route
    gives the same verdict (see the derivation of δ above).
    """
    # h is written over the conversion of any input but a complex128 array, and into a new array for one
    private = not (isinstance(a, np.ndarray) and a.dtype == np.complex128)
    a = as_complex_matrix(np.array(a, dtype=np.complex128) if private else a)
    return _psd_verdict(_square_blocks(a), tol, a if private else None)


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


def _loewner_flags(f: np.ndarray, g: np.ndarray, tol: ToleranceConfig, lows: np.ndarray | None = None):
    """The order f ⪯ g, λ_min(g - f) ≥ -eig_tol, of each pair of finite operand stacks (..., d, d),
    and the mask of the pairs it refuses: f or g not hermitian within residual_tol. lows are the
    λ_min(g - f) when the caller has them; otherwise one stacked eigvalsh computes them."""
    refused = (_hermiticity_gaps(f) > tol.residual_tol) | (_hermiticity_gaps(g) > tol.residual_tol)
    if lows is None:
        lows = _eigvalsh(g - f)[..., 0]
    return lows >= -tol.eig_tol, refused


def _loewner_order(f: np.ndarray, g: np.ndarray, tol: ToleranceConfig, lows: np.ndarray | None = None) -> np.ndarray:
    """The order of :func:`_loewner_flags`, raising ValueError when it refuses any pair."""
    ordered, refused = _loewner_flags(f, g, tol, lows)
    if refused.any():
        raise ValueError("loewner_leq requires hermitian operands")
    return ordered


def loewner_leq(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Operator order a ⪯ b: the gap b - a is positive semidefinite.

    Equivalent to <psi|a psi> <= <psi|b psi> for every vector psi, by the
    spectral theorem. Both operands must be hermitian.
    """
    a, b = as_complex_matrix(a), as_complex_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return bool(_loewner_order(a, b, tol))


def operator_norm_hermitian(a, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Largest |eigenvalue| of a hermitian matrix.

    For hermitian input this equals both the operator norm and the spectral
    radius; non-hermitian input is rejected.
    """
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


def _effect_draws(rng: np.random.Generator, k: int, dim: int, low: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The raw draws of k :func:`random_effect` calls, in stream order: for each effect the
    normals (2, dim, dim) of its eigenbasis, then its eigenvalues, uniform on [low, 1]; stacked
    as (k, 2, dim, dim) and (k, dim), the arguments of :func:`_haar_spectral`. With low = -1
    they are the draws of :func:`random_hermitian_contraction`."""
    draws = [(rng.standard_normal((2, dim, dim)), rng.uniform(low, 1.0, size=dim)) for _ in range(k)]
    normals, spectra = zip(*draws)
    return np.array(normals), np.array(spectra)


def random_effect(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random effect 0 ⪯ E ⪯ I: Haar eigenbasis, eigenvalues uniform on [0, 1]."""
    return _haar_spectral(*_effect_draws(rng, 1, dim))[0]


def random_hermitian_contraction(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random hermitian matrix with operator norm at most one: Haar eigenbasis, eigenvalues uniform on [-1, 1]."""
    return _haar_spectral(*_effect_draws(rng, 1, dim, -1.0))[0]


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
