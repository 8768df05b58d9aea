"""Programs as linear maps on density operators, stored as dense superoperators.

Vectorization is column-stacking throughout: ``vec(A)`` stacks the columns of
A, so ``vec(|i><j|) = e_j ⊗ e_i`` and ``vec(ABC) = (C^T ⊗ A) vec(B)``. Under
this convention

* a Kraus family {K} acts through the superoperator ``sum_K conj(K) ⊗ K``,
* the Hilbert-Schmidt adjoint of a map is the conjugate transpose of its
  superoperator,
* the Choi matrix ``J(C) = sum_ij C(|i><j|) ⊗ |i><j|`` occupies the strided
  blocks ``J[i::d, j::d] = C(|i><j|)`` and is PSD exactly for completely
  positive maps.

Mixing vectorization conventions corrupts results silently: ``vec`` and
``unvec`` below state the convention, and the functions that index the
superoperator directly (``_choi_view``, ``to_choi``, ``from_choi``,
``transpose_program``, ``_unital_gaps``, ``_kraus_supers``, ``from_kraus``,
``measure_branch``, ``_coordinate_matrix`` and ``_basis_outputs``) each state
the index identity they rely on.

The dense superoperator is the canonical representation because it carries
maps with no Kraus form: positive but not completely positive programs (the
transpose map is the standard example) are first-class citizens here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotTracePreservingError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _block_size,
    _defect_bound,
    _haar_isometries,
    _identity_gaps,
    _operator_family,
    _psd_stack,
    _psd_tail,
    _psd_verdict,
    _require_finite,
    _row_block_size,
    as_complex_matrix,
)

__all__ = [
    "vec",
    "unvec",
    "DensityState",
    "QuantumProgram",
    "PositivityVerdict",
    "from_kraus",
    "from_unitary",
    "from_super",
    "from_choi",
    "identity_program",
    "transpose_program",
    "depolarizing",
    "amplitude_damping",
    "apply",
    "apply_matrix",
    "apply_matrices",
    "adjoint",
    "is_trace_preserving",
    "to_choi",
    "is_completely_positive",
    "is_positive_sampled",
    "seq",
    "mix",
    "measure_branch",
    "random_cptp",
    "sample_program",
]


def vec(m) -> np.ndarray:
    """Column-stack a matrix into a vector; a stack (..., r, c) gives (..., r*c)."""
    m = np.asarray(m)
    return m.swapaxes(-1, -2).reshape(m.shape[:-2] + (-1,))


def unvec(v) -> np.ndarray:
    """Inverse of :func:`vec` for square targets; a stack (..., d²) gives (..., d, d)."""
    v = np.asarray(v)
    n = v.shape[-1]
    d = math.isqrt(n)
    if d * d != n:
        raise ValueError(f"cannot reshape a length-{n} vector into a square matrix")
    return v.reshape(v.shape[:-1] + (d, d)).swapaxes(-1, -2)


# eig_tol multiples by which an output of :func:`apply` may dip below zero
APPLY_EIG_SLACK = 10.0


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128)
    out.setflags(write=False)
    return out


class DensityState:
    """Unit-trace positive semidefinite operator.

    Validated at construction by :func:`_state_flags`: hermitian and unit
    trace within residual_tol, eigenvalues above ``-eig_slack * eig_tol``.
    The wider slack is used by :func:`apply` so a barely-negative output is
    accepted but a genuine positivity breach raises.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, tol: ToleranceConfig = DEFAULT_TOL, *, eig_slack: float = 1.0):
        m = as_complex_matrix(matrix)
        (not_hermitian, off_trace, not_psd), tr, lo = _state_flags(m, tol, eig_slack)
        if not_hermitian:
            raise ValidationError("state is not hermitian")
        if off_trace:
            raise ValidationError(f"state trace is {tr.real:.12g}, expected 1")
        if not_psd:
            raise ValidationError(f"state is not PSD (min eigenvalue {lo:.3e})")
        self.matrix = _readonly(m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, vector) -> "DensityState":
        """Projector onto a (normalized copy of a) state vector."""
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        n = float(np.linalg.norm(v))
        if n == 0.0:
            raise ValidationError("the zero vector does not define a state")
        v = v / n
        return cls(np.outer(v, v.conj()))

    def __repr__(self) -> str:
        return f"DensityState(dim={self.dim})"


def _state_flags(ms: np.ndarray, tol: ToleranceConfig, eig_slack: float):
    """The state rule on a finite stack (..., d, d): the flags (...) of a matrix not hermitian
    within residual_tol, with |Tr - 1| above residual_tol and with λ_min below
    -eig_slack·eig_tol, in the order DensityState names them; then each Tr and λ_min.

    The λ_min flags and the λ_min are those of :func:`_psd_stack` at
    t = eig_slack·eig_tol: where the band kernel proves the stack, no λ_min
    flag is set and the λ_min are None.
    """
    gaps, not_psd, lows = _psd_stack(ms, eig_slack * tol.eig_tol)
    traces = np.trace(ms, axis1=-2, axis2=-1)
    off_trace = np.hypot(traces.real - 1.0, traces.imag) > tol.residual_tol
    return (gaps > tol.residual_tol, off_trace, not_psd), traces, lows


def _invalid_states(ms: np.ndarray, tol: ToleranceConfig, eig_slack: float = 1.0) -> np.ndarray:
    """Mask of the matrices in a stack (n, d, d) that ``DensityState(m, tol, eig_slack=eig_slack)`` refuses.

    Only the non-finite ones are marked when there are any, so no
    eigensolver runs on them.
    """
    bad = ~np.isfinite(ms).all(axis=(-2, -1))
    return bad if bad.any() else np.any(_state_flags(ms, tol, eig_slack)[0], axis=0)


class QuantumProgram:
    """A linear map on operators, acting through a d²×d² superoperator.

    The superoperator is the only computed form. ``kraus`` is the Kraus family
    the program was built from, which only :func:`from_kraus` attaches; every
    other constructor, the combinators and the adjoint leave it ``None``.
    ``label`` is free-form; the arrays are read-only, and the superoperator
    is a copy of the one passed in.
    """

    __slots__ = ("dim", "super", "kraus", "label")

    def __init__(self, dim: int, super_matrix, label: str = ""):
        self._hold(dim, as_complex_matrix(np.array(super_matrix, dtype=np.complex128)), label)

    @classmethod
    def _adopt(cls, dim: int, s: np.ndarray, label: str) -> "QuantumProgram":
        """The program QuantumProgram(dim, s, label), for a contiguous array s that was just
        computed and that no caller holds: s is marked read-only in place, not copied, so it
        keeps the layout a copy would have."""
        return cls._adopt_finite(dim, as_complex_matrix(s), label)

    @classmethod
    def _adopt_finite(cls, dim: int, s: np.ndarray, label: str) -> "QuantumProgram":
        """:meth:`_adopt` for a square complex128 s whose entries are finite by construction: a
        rearrangement of a program's checked entries or of zeros and ones, or a Kraus sum whose
        entries its diagonal bounds far below the float limit. s is not scanned."""
        prog = cls.__new__(cls)
        prog._hold(dim, s, label)
        return prog

    def _hold(self, dim: int, s: np.ndarray, label: str) -> None:
        """Keep s, a square complex128 array with finite entries that no caller holds, read-only.

        The one statement of a program's side rule: dim is positive and s has side dim².
        """
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        if s.shape[0] != dim * dim:
            raise DimensionMismatchError(f"superoperator side {s.shape[0]} is not the square of dim {dim}")
        s.setflags(write=False)
        self.dim = dim
        self.super = s
        self.kraus = None
        self.label = str(label)

    def __repr__(self) -> str:
        views = "super+kraus" if self.kraus else "super"
        return f"QuantumProgram(dim={self.dim}, views={views}, label={self.label!r})"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def from_kraus(kraus_ops, label: str = "kraus") -> QuantumProgram:
    """Program rho -> sum_K K rho K†, keeping the Kraus family it was built from."""
    ks = _operator_family(kraus_ops, "Kraus operator")
    d, s = ks[0].shape[0], _kraus_supers(ks)
    # S[i*d + p, j*d + q] = Σ_K conj(K_ij) K_pq, so S[i(d+1), j(d+1)] = Σ_K |K_ij|², and the real and
    # imaginary parts of every entry are at most Σ_K |K_ij||K_pq| ≤ (Σ_K |K_ij|² + Σ_K |K_pq|²)/2, up to
    # rounding: a largest such entry far below the float limit proves S finite without a scan
    finite = s[:: d + 1, :: d + 1].real.max() < 1e300
    prog = (QuantumProgram._adopt_finite if finite else QuantumProgram._adopt)(d, s, label)
    prog.kraus = tuple(_readonly(k) for k in ks)
    return prog


def _kraus_supers(ks) -> np.ndarray:
    """sum_K conj(K) ⊗ K over a Kraus family given operator by operator, shape (..., d², d²).

    Each operator is a (d, d) matrix, or a stack (..., d, d) holding that
    operator of many families.
    """
    # kron(conj(K), K) as (..., d, d, d, d) blocks s[..., i, p, j, q], summed
    # in family order straight into the output, one block of leading indices
    # i (d superoperator rows each) at a time, so that every temporary fits
    # ROW_BLOCK_BYTES; a block spans whole (j, q) planes, so each entry keeps
    # its product and its sum. Adding +0.0 to the first term turns -0.0
    # entries into +0.0, as a sum from 0 does
    d = ks[0].shape[-1]
    s = np.empty(ks[0].shape[:-2] + (d, d, d, d), dtype=np.complex128)
    step = max(1, _row_block_size(d * d) // d)
    buf = np.empty_like(s[..., :step, :, :, :])
    first, rest = ks[0], ks[1:]
    for a in range(0, d, step):
        block, t = s[..., a:a + step, :, :, :], buf[..., :d - a, :, :, :]
        np.multiply(first[..., a:a + step, None, :, None].conj(), first[..., None, :, None, :], out=block)
        block += 0.0
        for k in rest:
            block += np.multiply(k[..., a:a + step, None, :, None].conj(), k[..., None, :, None, :], out=t)
    return s.reshape(s.shape[:-4] + (d * d, d * d))


def _unitarity_gaps(us: np.ndarray) -> np.ndarray:
    """Max-entry |U†U - I| of each matrix in a stack (..., d, d)."""
    return _identity_gaps(us.conj().swapaxes(-1, -2) @ us)


def from_unitary(u, label: str = "unitary", tol: ToleranceConfig = DEFAULT_TOL) -> QuantumProgram:
    """Conjugation rho -> U rho U†; rejects matrices that are not unitary."""
    u = as_complex_matrix(u)
    gap = float(_unitarity_gaps(u))
    if gap > tol.residual_tol:
        raise ValidationError(f"matrix is not unitary (|U†U - I| = {gap:.3e})")
    return from_kraus([u], label=label)


def from_super(super_matrix) -> QuantumProgram:
    """Wrap a copy of a raw superoperator, its dim read off its side; no trace-preservation or positivity check."""
    s = np.array(super_matrix, dtype=np.complex128)  # the program's copy, checked once by _adopt
    return QuantumProgram._adopt(math.isqrt(s.shape[0]) if s.ndim else 0, s, "super")


def from_choi(choi, tol: ToleranceConfig = DEFAULT_TOL) -> QuantumProgram:
    """Decode a Choi matrix into a program.

    Rejects Choi matrices whose output partial trace deviates from the
    identity: those encode maps that are not trace preserving.
    """
    j = as_complex_matrix(choi)
    n = j.shape[0]
    d = math.isqrt(n)
    if d * d != n:
        raise DimensionMismatchError(f"Choi matrix side {n} is not a perfect square")
    # indices (a, i, c, k) of J[a*d+i, c*d+k] = S[c*d+a, k*d+i], the inverse of the to_choi permutation
    s = j.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(n, n)
    # the output partial trace Σ_a J[a*d+i, a*d+k] = Σ_a S[a(d+1), k*d+i] is the sum that tests C*(I) = I
    dev = float(_unital_gaps(s))
    if dev > tol.residual_tol:
        raise NotTracePreservingError(
            f"Choi output partial trace deviates from the identity by {dev:.3e}"
        )
    # the reshape copies for d ≥ 2; at d = 1 it is a view of the caller's array
    return QuantumProgram._adopt(d, s.copy() if np.may_share_memory(s, j) else s, "choi")


def identity_program(dim: int) -> QuantumProgram:
    return from_kraus([np.eye(dim)], label="identity")


def transpose_program(dim: int) -> QuantumProgram:
    """Transposition map: positive and trace preserving, not CP for dim >= 2."""
    s = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    i = np.arange(dim)
    s.reshape(dim, dim, dim, dim)[i[:, None], i, i, i[:, None]] = 1.0  # S[i*d + j, j*d + i] = 1
    return QuantumProgram._adopt_finite(dim, s, "transpose")


def depolarizing(p: float) -> QuantumProgram:
    """Qubit map rho -> (1-p) rho + p I/2, via its Pauli Kraus family."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength must lie in [0, 1], got {p}")
    eye = np.eye(2)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    ks = [
        np.sqrt(1.0 - 3.0 * p / 4.0) * eye,
        np.sqrt(p / 4.0) * sx,
        np.sqrt(p / 4.0) * sy,
        np.sqrt(p / 4.0) * sz,
    ]
    return from_kraus(ks, label=f"depolarizing({p})")


def amplitude_damping(gamma: float) -> QuantumProgram:
    """Qubit energy-decay map with decay probability gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping rate must lie in [0, 1], got {gamma}")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    return from_kraus([k0, k1], label=f"amplitude_damping({gamma})")


# ---------------------------------------------------------------------------
# Action, adjoint, representation queries
# ---------------------------------------------------------------------------


def apply_matrices(c: QuantumProgram, ms: np.ndarray) -> np.ndarray:
    """Act on a stack of operators of shape (..., d, d). No validation of the entries."""
    if ms.shape[-2:] != (c.dim, c.dim):
        raise DimensionMismatchError(f"operator dim {ms.shape[-1]} vs program dim {c.dim}")
    return _act(c.super, ms)


def _act(supers: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """Superoperators (..., d², d²) acting on operators (..., d, d), leading axes broadcast.

    Each vectorized operator is multiplied as a one-column matrix, which keeps
    the per-operator rounding of a matrix-vector product; that rounding also
    depends on each superoperator's memory layout.

    A superoperator larger than ROW_BLOCK_BYTES whose rows are contiguous is
    multiplied one block of rows at a time, so that a block stays in cache
    while every operator of the stack passes through it. Each output entry is
    then still one row's dot product, with the same bits. Two exceptions keep
    the bits: no block has a single row (numpy sends a 1×n by n×1 product to a
    dot kernel, so a one-row tail joins the block before it), and a
    superoperator stored by columns, such as an adjoint, is one product (its
    kernel walks the columns, and a row block changes how it splits the rows).
    """
    v = vec(ms)[..., None]
    n = v.shape[-2]
    rows = _row_block_size(n)
    if rows >= n or supers.strides[-1] != supers.itemsize:
        return unvec((supers @ v)[..., 0])
    starts = range(0, n - 1, rows)  # none on the last row
    products = [supers[..., a:b, :] @ v for a, b in zip(starts, [*starts[1:], n])]
    return unvec(np.concatenate(products, axis=-2)[..., 0])


def apply_matrix(c: QuantumProgram, m) -> np.ndarray:
    """Act on an arbitrary operator. No state validation on the output."""
    return apply_matrices(c, as_complex_matrix(m)[None])[0]


def apply(c: QuantumProgram, rho: DensityState, tol: ToleranceConfig = DEFAULT_TOL) -> DensityState:
    """Run the program on a state.

    The output is validated as a state with an APPLY_EIG_SLACK·eig_tol
    positivity slack; a violation beyond that signals a non-positive map
    driven outside the state space and raises ValidationError.
    """
    out = apply_matrix(c, rho.matrix)
    return DensityState(out, tol, eig_slack=APPLY_EIG_SLACK)


def adjoint(c: QuantumProgram) -> QuantumProgram:
    """Hilbert-Schmidt adjoint, acting on effects.

    Satisfies Tr(adjoint(c)(F) rho) = Tr(F c(rho)) for all F, rho. Its
    superoperator is the conjugate transpose of ``c.super`` (for a Kraus
    family {K} the dual acts as F -> sum K† F K). The dual of a
    trace-preserving map is unital.
    """
    return QuantumProgram._adopt_finite(c.dim, c.super.conj().T, f"adjoint({c.label})")


def is_trace_preserving(c: QuantumProgram, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Dual-unitality test: the adjoint maps the identity to the identity.

    Reads only the d rows k(d+1) of the superoperator, through :func:`_unital_gaps`.
    """
    return float(_unital_gaps(c.super)) <= tol.residual_tol


def _unital_gaps(supers: np.ndarray) -> np.ndarray:
    """Max-entry |C*(I) - I| for superoperators (..., d², d²); zero means trace preserving.

    C*(I) is the conjugate of Sᵀ vec(I), and I is real, so the gap is read off Sᵀ vec(I)
    directly. vec(I) is one at the d positions k(d+1) and zero elsewhere, so Sᵀ vec(I) is the
    sum of the d rows S[k(d+1), :]: a strided view, d³ entries, never a copy of S. The rows
    are added in order, one elementwise add each, so a stack and each of its members get the
    same bits in any layout, C- or F-ordered or the columns :func:`adjoint` stores. Adding
    +0.0 to the first row turns -0.0 entries into +0.0, as a sum from 0 does.
    """
    d = math.isqrt(supers.shape[-1])
    rows = supers[..., :: d + 1, :]
    total = rows[..., 0, :] + 0.0
    for k in range(1, d):
        total += rows[..., k, :]
    return _identity_gaps(unvec(total))


def _choi_view(s: np.ndarray) -> np.ndarray:
    """The Choi matrix of the superoperator s (d², d²) as a 4-index view (p, i, q, j) of s, one
    index permutation: J[p*d+i, q*d+j] = C(|i><j|)[p, q] = S[q*d+p, j*d+i]."""
    d = math.isqrt(s.shape[0])
    return s.reshape(d, d, d, d).transpose(1, 3, 0, 2)


def to_choi(c: QuantumProgram) -> np.ndarray:
    """Choi matrix J(C) = sum_ij C(|i><j|) ⊗ |i><j|, a copy of the view :func:`_choi_view`."""
    return _choi_view(c.super).copy().reshape(c.dim * c.dim, c.dim * c.dim)


def is_completely_positive(c: QuantumProgram, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when the Choi matrix is PSD; the superoperator was validated when the program was built.

    The single-matrix route of the PSD kernel on the view :func:`_choi_view` of S:
    its band, the probes of J's leading n/4 square, the hermiticity gap and the
    low-rank certificate read J where it lies in S. Only a map that none of them
    decides has the lower triangle of J's hermitian part written, off the view.
    """
    return _psd_verdict(_choi_view(c.super), tol)


@dataclass(frozen=True)
class PositivityVerdict:
    """Outcome of the sampled positivity audit.

    status is "certified_cp" (Choi PSD, hence positive), "no_counterexample"
    (survived the sample budget; evidence, not proof) or "counterexample"
    (witness holds a pure state mapped outside the PSD cone).
    """

    status: str
    samples: int
    witness: np.ndarray | None = None


def _fourier_basis(dim: int) -> np.ndarray:
    grid = np.outer(np.arange(dim), np.arange(dim))
    return np.exp(2j * np.pi * grid / dim) / np.sqrt(dim)


def _basis_outputs(s: np.ndarray, start: int, stop: int) -> np.ndarray:
    """C(|k><k|) for k in [start, stop), read exactly off the superoperator s: vec(|k><k|) is e_{k(d+1)}."""
    step = math.isqrt(s.shape[0]) + 1
    return unvec(s[:, start * step:stop * step:step].T)


def _coordinate_matrix(s: np.ndarray, residual_tol: float) -> np.ndarray:
    """The real matrix W (m, d²) with y = W @ x for the real coordinates x of every hermitian rho,
    as :func:`_pure_coordinates` builds them; s is C's superoperator. y's first d² entries are the
    coordinates of the hermitian part h of C(rho) and, when m = 2d², its next d² those of the
    anti-hermitian part a.

    Entry j*d + i of x stands for the entry (i, j) of rho, as vec does: 2 Re rho_ij above the
    diagonal, rho_ii on it and 2 Im rho_ij below it. Entry p*d + q of each part of y stands for
    (p, q), row-major: Re h_pq on and below the diagonal and Im h_qp above it, so that h's part is
    h's lower triangle as a stack of matrices holds it; Re a_pq below the diagonal and Im a_qp on
    and above it.

    Built one output row p at a time. Let c_pq be the coefficients of C(rho)_pq over vec(rho),
    row q*d + p of s, and Z_q = ¼(c_pq + c_qp) for q ≤ p and ¼(c_pq - c_qp) above, read as a
    d×d matrix like x. Then V_q = Z_q + Z_qᵀ on and below its diagonal and i(Z_q - Z_qᵀ) above it,
    and row (p, q) of h's part is Re V_q for q ≤ p and -Im V_q above; row (q, p) of a's part is
    Im V_q for q ≤ p and -Re V_q above. Quartering is exact outside the subnormal range, and a sum
    of four quarters cannot overflow where the terms do not. Only the input need be hermitian, so
    this holds for maps that do not preserve hermiticity too.

    a's rows are kept only where they could refute a state: when :func:`_defect_bound` of their
    largest complex row (Re a_pq, Im a_pq) is at most residual_tol, every gap they would give
    passes, and W is h's d² rows alone.
    """
    d = math.isqrt(s.shape[0])
    n = d * d
    h_rows, a_rows = np.empty((d, d, d, d)), np.empty((d, d, d, d))  # each [p, q] by [j, i]
    lower = np.tri(d, dtype=bool)  # on and below the diagonal of a d×d coefficient matrix
    t = s.reshape(d, d, d, d)  # t[q, p] is c_pq
    z = np.empty((d, d, d), dtype=np.complex128)
    for p in range(d):
        np.multiply(t[:, p], 0.25, out=z)
        z[:p + 1] += 0.25 * t[p, :p + 1]
        z[p + 1:] -= 0.25 * t[p, p + 1:]
        zt = z.swapaxes(-1, -2)
        v = np.where(lower, z + zt, 1j * (z - zt))
        h_rows[p, :p + 1] = v[:p + 1].real
        np.negative(v[p + 1:].imag, out=h_rows[p, p + 1:])
        a_rows[:p + 1, p] = v[:p + 1].imag
        np.negative(v[p + 1:].real, out=a_rows[p + 1:, p])
    h_rows, a_rows = h_rows.reshape(n, n), a_rows.reshape(n, n)
    with np.errstate(over="ignore"):  # a norm that overflows reads inf, and keeps a's rows
        row_norms = np.sqrt(np.einsum("ij,ij->i", a_rows, a_rows)).reshape(d, d)
    if _defect_bound(n, float(_pair_moduli(row_norms).max())) <= residual_tol:
        return h_rows
    return np.concatenate((h_rows, a_rows))


def _pair_moduli(y: np.ndarray) -> np.ndarray:
    """|a_pq| of each entry of the anti-hermitian matrices a laid out as y (..., d, d): Re a_pq below the
    diagonal and Im a_qp on and above it; inf, with no warning, where a modulus overflows."""
    with np.errstate(over="ignore"):
        moduli = np.hypot(y, y.swapaxes(-1, -2))
    np.einsum("...ii->...i", moduli)[...] = np.abs(np.einsum("...ii->...i", y))
    return moduli


def _pure_coordinates(psis: np.ndarray) -> np.ndarray:
    """The real coordinates x (d², n) of psi psi† for each row psi of an (n, d) stack, laid out as
    :func:`_coordinate_matrix` reads them, built straight from Re psi and Im psi."""
    n, d = psis.shape
    # (d, n) rows, so that each coordinate column below is one contiguous row
    u, v = np.ascontiguousarray(psis.real.T), np.ascontiguousarray(psis.imag.T)
    u2, v2 = 2.0 * u, 2.0 * v
    x = np.empty((d, d, n))  # x[j, i] is coordinate j*d + i of every state
    for j in range(d):
        # 2 Re rho_ij = 2(u_i u_j + v_i v_j) above the diagonal, 2 Im rho_ij = 2(v_i u_j - u_i v_j) below it
        np.multiply(u2[j], u[:j], out=x[j, :j])
        x[j, :j] += v2[j] * v[:j]
        np.multiply(u2[j], v[j + 1:], out=x[j, j + 1:])
        x[j, j + 1:] -= v2[j] * u[j + 1:]
    x[np.arange(d), np.arange(d)] = u * u + v * v
    return x.reshape(d * d, n)


def _pure_parts(w: np.ndarray, psis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What :func:`_psd_tail` reads of the outputs C(|psi><psi|), for each row psi of an (n, d) stack and
    the coordinate matrix w of C: each output's hermiticity gap, zero where w has no rows for a, its
    hermitian part h, of which only the lower triangle is written, and h's diagonal and Σ|h_ij|², the
    band's inputs.

    One float64 product ``w @ x`` gives every coordinate: a quarter of the flops of the complex
    product ``vec(psi psi†) @ c.super.T`` where w holds h's rows alone, half where it holds a's
    too. A non-finite coordinate raises the ValueError of :func:`as_complex_matrix`. h agrees with
    the hermitian part of :func:`apply_matrix` up to the rounding of the summation order.
    """
    n, d = psis.shape
    m = d * d
    y = _pure_coordinates(psis).T @ w.T
    _require_finite(y)
    if len(w) == m:
        gaps = np.zeros(n)
    else:
        with np.errstate(over="ignore"):  # a gap that overflows reads inf, as _hermiticity_gaps gives it
            gaps = 2.0 * _pair_moduli(y[:, m:].reshape(n, d, d)).max(axis=(-2, -1))
    coords = y[:, :m].reshape(n, d, d)
    h = np.empty((n, d, d), dtype=np.complex128)
    h.real[...] = coords
    h.imag[...] = coords.swapaxes(-1, -2)  # Im h_pq below the diagonal; above it, entries Cholesky never reads
    np.einsum("...ii->...i", h.imag)[...] = 0.0
    diagonals = np.diagonal(coords, axis1=-2, axis2=-1).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        # each off-diagonal pair of h has its two coordinates in y once, so Σ|h_ij|² = 2Σy² - Σh_ii²
        total = np.einsum("ij,ij->i", y[:, :m], y[:, :m])
        sq_norms = np.where(total < np.inf, 2.0 * total - np.einsum("ij,ij->i", diagonals, diagonals), np.inf)
    return gaps, h, diagonals, sq_norms


def _candidate_blocks(d: int, sample_count: int, rng: np.random.Generator, block: int):
    """Candidate states in audit order (basis, Fourier, Haar-random), ``block`` rows at a time.

    Yields (states, raw): raw is a random block's unnormalized draw, None for
    the basis and Fourier blocks. Consecutive ``standard_normal((n, 2, d))``
    draws replay the stream of n pairs of ``standard_normal(d)`` draws (real
    part, then imaginary part).
    """
    for basis in (np.eye(d, dtype=np.complex128), _fourier_basis(d).T):
        for start in range(0, d, block):
            yield basis[start:start + block], None
    for start in range(0, sample_count, block):
        z = rng.standard_normal((min(block, sample_count - start), 2, d))
        raw = z[:, 0] + 1j * z[:, 1]
        yield raw / np.linalg.norm(raw, axis=1, keepdims=True), raw


def is_positive_sampled(
    c: QuantumProgram,
    tol: ToleranceConfig = DEFAULT_TOL,
    seed: int = 0,
) -> PositivityVerdict:
    """Three-valued positivity audit.

    Returns certified_cp when the Choi matrix is PSD. Otherwise tests
    C(|psi><psi|) ⪰ 0 on every computational-basis and Fourier-basis state
    plus ``sample_count`` Haar-random pure states, reporting the first
    violating state found. States are checked in blocks whose stacks of
    outputs stay under STACK_BYTES, with one batched Cholesky factorization
    a block. A basis block's outputs are columns of the superoperator, which
    go through the stack primitive :func:`_psd_stack`. The other blocks'
    hermitian parts, and their hermiticity gaps where these could fail, come
    from one real matrix product each, against the coordinate matrix built
    when the Fourier block first needs it and released before the last
    block's PSD test.
    Only a block that Cholesky leaves undecided, such as one that holds a
    counterexample, also takes a batched eigensolve; the verdicts are those
    of the eigensolve alone.
    """
    if is_completely_positive(c, tol):
        return PositivityVerdict("certified_cp", 0)
    d = c.dim
    rng = np.random.default_rng(seed)
    checked, w = 0, None
    for psis, raw in _candidate_blocks(d, tol.sample_count, rng, _block_size(d)):
        end = checked + len(psis)
        if end <= d:  # basis states, finite as the superoperator is
            gaps, below, _ = _psd_stack(_basis_outputs(c.super, checked, end), tol.eig_tol)
            bad = (gaps > tol.residual_tol) | below
        else:
            w = _coordinate_matrix(c.super, tol.residual_tol) if w is None else w
            parts = _pure_parts(w, psis)
            if end == 2 * d + tol.sample_count:
                w = None  # released before the last block's PSD test
            bad = ~_psd_tail(*parts, tol)
        if bad.any():
            i = int(np.argmax(bad))
            # a random witness is normalized as a single vector, as drawn
            witness = psis[i] if raw is None else raw[i] / np.linalg.norm(raw[i])
            return PositivityVerdict("counterexample", checked + i + 1, witness=_readonly(witness))
        checked += len(psis)
    return PositivityVerdict("no_counterexample", checked)


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------


def seq(c1: QuantumProgram, c2: QuantumProgram) -> QuantumProgram:
    """Sequential composition: run c1 first, then c2."""
    if c1.dim != c2.dim:
        raise DimensionMismatchError(f"program dims {c1.dim} vs {c2.dim}")
    return QuantumProgram._adopt(c1.dim, c2.super @ c1.super, f"seq({c1.label}, {c2.label})")


def mix(weight: float, c1: QuantumProgram, c2: QuantumProgram) -> QuantumProgram:
    """Convex combination weight*c1 + (1-weight)*c2 of the superoperators.

    Preserves trace preservation, positivity and complete positivity.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {weight}")
    if c1.dim != c2.dim:
        raise DimensionMismatchError(f"program dims {c1.dim} vs {c2.dim}")
    s = _mixed(weight, c1.super, c2.super)
    return QuantumProgram._adopt(c1.dim, s, f"mix({weight}, {c1.label}, {c2.label})")


def _mixed(weight, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """weight·s1 + (1 - weight)·s2; weight is a float or an array that broadcasts against the stacks.

    Written one block of rows at a time, straight into the output, so that the
    second product's temporary fits ROW_BLOCK_BYTES; each entry keeps the
    bits of the full-array expression.
    """
    out = np.empty(np.broadcast(weight, s1, s2).shape, dtype=np.complex128)
    n = out.shape[-2]
    rows = _row_block_size(n)
    rest = 1.0 - weight
    buf = np.empty_like(out[..., :rows, :])
    for a in range(0, n, rows):
        block = out[..., a:a + rows, :]
        np.multiply(weight, s1[..., a:a + rows, :], out=block)
        block += np.multiply(rest, s2[..., a:a + rows, :], out=buf[..., :n - a, :])
    return out


def measure_branch(instrument, branches, tol: ToleranceConfig = DEFAULT_TOL) -> QuantumProgram:
    """Measure, then run the branch picked by the outcome, forgetting which.

    ``instrument`` is a list of measurement operators M with sum M†M = I;
    ``branches`` pairs each outcome with a program. Compiles the conditioned
    evolution rho -> sum_m B_m(M_m rho M_m†) into a single program.
    """
    ms = _operator_family(instrument, "instrument operator")
    branches = list(branches)
    if len(ms) != len(branches):
        raise ValidationError(f"{len(ms)} instrument operators vs {len(branches)} branches")
    d = ms[0].shape[0]
    for b in branches:
        if b.dim != d:
            raise DimensionMismatchError(f"branch dim {b.dim} vs instrument dim {d}")
    gap = float(_identity_gaps(sum(m.conj().T @ m for m in ms)))
    if gap > tol.residual_tol:
        raise ValidationError(f"instrument incomplete: sum M†M deviates from identity by {gap:.3e}")
    # row r of b.super @ (conj(M) ⊗ M) is vec(Mᵀ R conj(M)) for R = unvec(row r),
    # that is M† V M flattened row-major for V = row r read as a C-ordered d×d
    # matrix: two batched d×d products a row, one block of rows at a time
    n = d * d
    s = np.zeros((n, n), dtype=np.complex128)
    out = s.reshape(n, d, d)
    rows = _row_block_size(n)
    for m, b in zip(ms, branches):
        m_dagger = m.conj().T
        for start in range(0, n, rows):
            out[start:start + rows] += m_dagger @ b.super[start:start + rows].reshape(-1, d, d) @ m
    return QuantumProgram._adopt(d, s, "measure_branch")


# ---------------------------------------------------------------------------
# Campaign samplers
# ---------------------------------------------------------------------------


def random_cptp(rng: np.random.Generator, dim: int) -> QuantumProgram:
    """Random CPTP program from a Haar isometry: the "cptp" kind of :func:`sample_program`, drawn from rng.

    Draws a (dim*dim) x dim isometry and slices it into dim Kraus
    operators; completeness sum K†K = I holds by construction.
    """
    return sample_program("cptp", dim, rng)


_PROGRAM_KINDS = ("cptp", "unitary", "transpose", "transpose_mix")


def _draw_program(kind: str, dim: int, rng: np.random.Generator) -> tuple[float, np.ndarray | None]:
    """The raw draws of one :func:`sample_program`, in stream order.

    Returns the mixing weight (transpose_mix; 0.0 otherwise) and the normals
    (2, rows, dim) of the program's isometry (None for transpose): rows is
    dim² for a random CPTP program, dim for a unitary.
    """
    if kind not in _PROGRAM_KINDS:
        raise ValueError(f"unknown program kind {kind!r}; expected one of {_PROGRAM_KINDS}")
    if kind == "transpose":
        return 0.0, None
    weight = float(rng.uniform(0.2, 0.8)) if kind == "transpose_mix" else 0.0
    rows = dim if kind == "unitary" else dim * dim
    return weight, rng.standard_normal((2, rows, dim))


def _sampled_supers(dim: int, kinds: np.ndarray, draws: list) -> tuple[np.ndarray, np.ndarray]:
    """Superoperators (n, d², d²) of n sampled programs of mixed kinds, from their raw draws,
    and the mask (n,) of those that :func:`sample_program` refuses.

    ``kinds[i]`` names the kind of program i and ``draws[i]`` is what :func:`_draw_program`
    drew for it. A unitary is refused by :func:`from_unitary`'s test at the default
    tolerances, and any program by a non-finite entry.
    """
    n = dim * dim
    supers = np.empty((len(kinds), n, n), dtype=np.complex128)
    refused = np.zeros(len(kinds), dtype=bool)
    for kind in _PROGRAM_KINDS:
        pos = np.flatnonzero(kinds == kind)
        if len(pos) == 0:
            continue
        if kind == "transpose":
            supers[pos] = transpose_program(dim).super
            continue
        kraus = _haar_isometries(np.array([draws[p][1] for p in pos])).reshape(len(pos), -1, dim, dim)
        s = _kraus_supers(kraus.swapaxes(0, 1))
        if kind == "transpose_mix":
            weights = np.array([draws[p][0] for p in pos])
            s = _mixed(weights[:, None, None], transpose_program(dim).super, s)
        supers[pos] = s
        if kind == "unitary":
            refused[pos] = _unitarity_gaps(kraus[:, 0]) > DEFAULT_TOL.residual_tol
    return supers, refused | ~np.isfinite(supers).all(axis=(-2, -1))


def sample_program(kind: str, dim: int, seed) -> QuantumProgram:
    """Seeded random program for property campaigns.

    "cptp": random Kraus program; "unitary": Haar conjugation; "transpose":
    the transposition map; "transpose_mix": a convex mix of transpose and a
    random CPTP program, positive and trace preserving but generally not CP.
    """
    weight, normals = _draw_program(kind, dim, np.random.default_rng(seed))
    if kind == "transpose":
        return transpose_program(dim)
    kraus = _haar_isometries(normals).reshape(-1, dim, dim)
    if kind == "unitary":
        return from_unitary(kraus[0], label="random_unitary")
    prog = from_kraus(kraus, label="random_cptp")
    return prog if kind == "cptp" else mix(weight, transpose_program(dim), prog)
