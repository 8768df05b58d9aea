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

Mixing vectorization conventions corrupts results silently, so every
conversion in this module goes through ``vec``/``unvec`` below.

The dense superoperator is the canonical representation because it carries
maps with no Kraus form: positive but not completely positive programs (the
transpose map is the standard example) are first-class citizens here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotTracePreservingError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _block_size,
    _eigvalsh,
    _haar_isometries,
    _hermiticity_gaps,
    as_complex_matrix,
    is_psd,
    random_isometry,
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
    "build_program",
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


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128)
    out.setflags(write=False)
    return out


class DensityState:
    """Unit-trace positive semidefinite operator.

    Validated at construction: hermitian and unit trace within residual_tol,
    eigenvalues above ``-eig_slack * eig_tol``. The wider slack is used by
    :func:`apply` so a barely-negative output is accepted but a genuine
    positivity breach raises.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, tol: ToleranceConfig | None = None, *, eig_slack: float = 1.0):
        tol = tol or DEFAULT_TOL
        m = as_complex_matrix(matrix)
        if float(_hermiticity_gaps(m)) > tol.residual_tol:
            raise ValidationError("state is not hermitian")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > tol.residual_tol:
            raise ValidationError(f"state trace is {tr.real:.12g}, expected 1")
        lo = float(_eigvalsh(m).min())
        if lo < -eig_slack * tol.eig_tol:
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


def _invalid_states(ms: np.ndarray, tol: ToleranceConfig, eig_slack: float = 1.0) -> np.ndarray:
    """Mask of the matrices in a stack (n, d, d) that ``DensityState(m, tol, eig_slack=eig_slack)`` refuses.

    Only the non-finite ones are marked when there are any, so no
    eigensolver runs on them.
    """
    bad = ~np.isfinite(ms).all(axis=(-2, -1))
    if bad.any():
        return bad
    off = np.trace(ms, axis1=-2, axis2=-1) - 1.0
    return (
        (_hermiticity_gaps(ms) > tol.residual_tol)
        | (np.hypot(off.real, off.imag) > tol.residual_tol)
        | (_eigvalsh(ms).min(axis=-1) < -eig_slack * tol.eig_tol)
    )


class QuantumProgram:
    """A linear map on operators, acting through a d²×d² superoperator.

    The superoperator is the only computed form. ``kraus`` is the Kraus family
    the program was built from, if any; combinators and the adjoint leave it
    ``None``. ``label`` is free-form. Instances are immutable.
    """

    __slots__ = ("dim", "super", "kraus", "label")

    def __init__(self, dim: int, super_matrix, kraus=None, label: str = ""):
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        s = as_complex_matrix(super_matrix)
        if s.shape[0] != dim * dim:
            raise DimensionMismatchError(
                f"superoperator has side {s.shape[0]}, expected {dim * dim} for dim {dim}"
            )
        self.dim = dim
        self.super = _readonly(s)
        if kraus is not None:
            ks = tuple(_readonly(as_complex_matrix(k)) for k in kraus)
            for k in ks:
                if k.shape[0] != dim:
                    raise DimensionMismatchError(
                        f"Kraus operator has side {k.shape[0]}, expected {dim}"
                    )
            self.kraus = ks
        else:
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
    ks = [as_complex_matrix(k) for k in kraus_ops]
    if not ks:
        raise ValidationError("at least one Kraus operator is required")
    d = ks[0].shape[0]
    for k in ks[1:]:
        if k.shape[0] != d:
            raise DimensionMismatchError("Kraus operators differ in dimension")
    return QuantumProgram(d, _kraus_supers(ks), kraus=ks, label=label)


def _kraus_supers(ks) -> np.ndarray:
    """sum_K conj(K) ⊗ K over a Kraus family given operator by operator, shape (..., d², d²).

    Each operator is a (d, d) matrix, or a stack (..., d, d) holding that
    operator of many families.
    """
    # kron(conj(K), K) as (..., d, d, d, d) blocks, added in place in family
    # order; adding +0.0 first turns -0.0 entries into +0.0, as a sum from 0
    # does, and needs no zero-filled buffer
    terms = (k.conj()[..., :, None, :, None] * k[..., None, :, None, :] for k in ks)
    s = next(terms)
    s += 0.0
    for t in terms:
        s += t
    n = s.shape[-1] * s.shape[-2]
    return s.reshape(s.shape[:-4] + (n, n))


def _unitarity_gaps(us: np.ndarray) -> np.ndarray:
    """Max-entry |U†U - I| of each matrix in a stack (..., d, d)."""
    return np.abs(us.conj().swapaxes(-1, -2) @ us - np.eye(us.shape[-1])).max(axis=(-2, -1))


def from_unitary(u, label: str = "unitary", tol: ToleranceConfig | None = None) -> QuantumProgram:
    """Conjugation rho -> U rho U†; rejects matrices that are not unitary."""
    tol = tol or DEFAULT_TOL
    u = as_complex_matrix(u)
    gap = float(_unitarity_gaps(u))
    if gap > tol.residual_tol:
        raise ValidationError(f"matrix is not unitary (|U†U - I| = {gap:.3e})")
    return from_kraus([u], label=label)


def from_super(super_matrix, dim: int | None = None, label: str = "super") -> QuantumProgram:
    """Wrap a raw superoperator; no trace-preservation or positivity check."""
    s = as_complex_matrix(super_matrix)
    n = s.shape[0]
    d = dim if dim is not None else int(round(np.sqrt(n)))
    if d * d != n:
        raise DimensionMismatchError(f"superoperator side {n} is not a perfect square of dim {d}")
    return QuantumProgram(d, s, label=label)


def from_choi(choi, label: str = "choi", tol: ToleranceConfig | None = None) -> QuantumProgram:
    """Decode a Choi matrix into a program.

    Rejects Choi matrices whose output partial trace deviates from the
    identity: those encode maps that are not trace preserving.
    """
    tol = tol or DEFAULT_TOL
    j = as_complex_matrix(choi)
    n = j.shape[0]
    d = math.isqrt(n)
    if d * d != n:
        raise DimensionMismatchError(f"Choi matrix side {n} is not a perfect square")
    j4 = j.reshape(d, d, d, d)  # indices (a, i, c, k): J[a*d+i, c*d+k]
    tr_out = np.einsum("aiak->ik", j4)
    dev = float(np.abs(tr_out - np.eye(d)).max())
    if dev > tol.residual_tol:
        raise NotTracePreservingError(
            f"Choi output partial trace deviates from the identity by {dev:.3e}"
        )
    s = j4.transpose(2, 0, 3, 1).reshape(n, n)  # inverse of the to_choi permutation
    return QuantumProgram(d, s, label=label)


def identity_program(dim: int) -> QuantumProgram:
    return QuantumProgram(dim, np.eye(dim * dim), kraus=[np.eye(dim)], label="identity")


def transpose_program(dim: int) -> QuantumProgram:
    """Transposition map: positive and trace preserving, not CP for dim >= 2."""
    n = dim * dim
    s = np.eye(n).reshape(dim, dim, dim, dim).transpose(1, 0, 2, 3).reshape(n, n)
    return QuantumProgram(dim, s, label="transpose")


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


_NAMED_BUILDERS = ("identity", "transpose", "depolarizing", "amplitude_damping")
_NAMED_PARAMETER = {"depolarizing": (depolarizing, "p"), "amplitude_damping": (amplitude_damping, "gamma")}


def build_program(source: dict, dim: int | None = None, tol: ToleranceConfig | None = None) -> QuantumProgram:
    """Single-entry constructor keyed by representation.

    ``source`` holds exactly one of the keys "kraus", "unitary", "choi",
    "super", "named". Named payloads are dicts like
    ``{"name": "depolarizing", "p": 0.5}``; identity and transpose need the
    ``dim`` argument. When ``dim`` is given it is cross-checked against the
    payload.
    """
    keys = [k for k in ("kraus", "unitary", "choi", "super", "named") if k in source]
    if len(keys) != 1:
        raise ValidationError(
            f"program source must contain exactly one of kraus/unitary/choi/super/named, got {keys}"
        )
    kind = keys[0]
    if kind == "kraus":
        prog = from_kraus(source["kraus"])
    elif kind == "unitary":
        prog = from_unitary(source["unitary"], tol=tol)
    elif kind == "choi":
        prog = from_choi(source["choi"], tol=tol)
    elif kind == "super":
        prog = from_super(source["super"], dim=dim)
    else:
        params = dict(source["named"])
        name = params.pop("name", None)
        if name == "identity":
            if dim is None:
                raise ValidationError("named identity requires dim")
            prog = identity_program(dim)
        elif name == "transpose":
            if dim is None:
                raise ValidationError("named transpose requires dim")
            prog = transpose_program(dim)
        elif isinstance(name, str) and name in _NAMED_PARAMETER:
            builder, key = _NAMED_PARAMETER[name]
            if key not in params:
                raise ValidationError(f"named {name} requires parameter {key!r}")
            value = params[key]
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(f"named {name} parameter {key!r} must be a number, got {type(value).__name__}")
            try:
                value = float(value)
            except OverflowError:
                raise ValidationError(f"named {name} parameter {key!r} is too large for a float") from None
            prog = builder(value)
        else:
            raise ValidationError(f"unknown named program {name!r}; expected one of {_NAMED_BUILDERS}")
    if dim is not None and prog.dim != dim:
        raise DimensionMismatchError(f"program has dim {prog.dim}, expected {dim}")
    return prog


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
    """
    return unvec((supers @ vec(ms)[..., None])[..., 0])


def apply_matrix(c: QuantumProgram, m) -> np.ndarray:
    """Act on an arbitrary operator. No state validation on the output."""
    return apply_matrices(c, as_complex_matrix(m)[None])[0]


def apply(c: QuantumProgram, rho: DensityState, tol: ToleranceConfig | None = None) -> DensityState:
    """Run the program on a state.

    The output is validated as a state with a 10x eig_tol positivity slack;
    a violation beyond that signals a non-positive map driven outside the
    state space and raises ValidationError.
    """
    out = apply_matrix(c, rho.matrix)
    return DensityState(out, tol, eig_slack=10.0)


def adjoint(c: QuantumProgram) -> QuantumProgram:
    """Hilbert-Schmidt adjoint, acting on effects.

    Satisfies Tr(adjoint(c)(F) rho) = Tr(F c(rho)) for all F, rho. Its
    superoperator is the conjugate transpose of ``c.super`` (for a Kraus
    family {K} the dual acts as F -> sum K† F K). The dual of a
    trace-preserving map is unital.
    """
    return QuantumProgram(c.dim, c.super.conj().T, label=f"adjoint({c.label})")


def is_trace_preserving(c: QuantumProgram, tol: ToleranceConfig | None = None) -> bool:
    """Dual-unitality test: the adjoint maps the identity to the identity."""
    tol = tol or DEFAULT_TOL
    return float(_unital_gaps(c.super.conj())) <= tol.residual_tol


def _unital_gaps(conjs: np.ndarray) -> np.ndarray:
    """Max-entry |C*(I) - I| for the conjugates (..., d², d²) of superoperators; zero means trace preserving.

    The adjoint C* acts as the view ``conjs.swapaxes(-1, -2)``, the layout :func:`adjoint` stores.
    """
    eye = np.eye(math.isqrt(conjs.shape[-1]))
    return np.abs(unvec(conjs.swapaxes(-1, -2) @ vec(eye)) - eye).max(axis=(-2, -1))


def to_choi(c: QuantumProgram) -> np.ndarray:
    """Choi matrix J(C) = sum_ij C(|i><j|) ⊗ |i><j|, one index permutation of
    the superoperator: J[p*d+i, q*d+j] = C(|i><j|)[p, q] = S[q*d+p, j*d+i]."""
    d = c.dim
    return c.super.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)


def is_completely_positive(c: QuantumProgram, tol: ToleranceConfig | None = None) -> bool:
    """True when the Choi matrix is PSD."""
    return is_psd(to_choi(c), tol)


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


def _pure_outputs(c: QuantumProgram, psis: np.ndarray) -> np.ndarray:
    """C(|psi><psi|) for each row psi of an (n, d) stack, as one matrix product.

    Row k of the product is vec(psi psi†) = conj(psi) ⊗ psi times ``c.super.T``;
    the outputs agree with :func:`apply_matrix` up to the rounding of the
    summation order.
    """
    n, d = psis.shape
    rows = (psis.conj()[:, :, None] * psis[:, None, :]).reshape(n, d * d)
    return unvec(rows @ c.super.T)


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
    tol: ToleranceConfig | None = None,
    seed: int = 0,
) -> PositivityVerdict:
    """Three-valued positivity audit.

    Returns certified_cp when the Choi matrix is PSD. Otherwise tests
    C(|psi><psi|) ⪰ 0 on every computational-basis and Fourier-basis state
    plus ``sample_count`` Haar-random pure states, reporting the first
    violating state found. States are checked in blocks whose stacks of
    outputs stay under STACK_BYTES: one matrix product and one batched
    eigensolve a block.
    """
    tol = tol or DEFAULT_TOL
    if is_completely_positive(c, tol):
        return PositivityVerdict("certified_cp", 0)
    d = c.dim
    rng = np.random.default_rng(seed)
    checked = 0
    for psis, raw in _candidate_blocks(d, tol.sample_count, rng, _block_size(d)):
        out = _pure_outputs(c, psis)
        # the per-matrix checks of is_hermitian and min_eigenvalue, run once per block
        if not np.all(np.isfinite(out)):
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        bad = (_hermiticity_gaps(out) > tol.residual_tol) | (_eigvalsh(out)[:, 0] < -tol.eig_tol)
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
    return QuantumProgram(c1.dim, c2.super @ c1.super, label=f"seq({c1.label}, {c2.label})")


def mix(weight: float, c1: QuantumProgram, c2: QuantumProgram) -> QuantumProgram:
    """Convex combination weight*c1 + (1-weight)*c2 of the superoperators.

    Preserves trace preservation, positivity and complete positivity.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {weight}")
    if c1.dim != c2.dim:
        raise DimensionMismatchError(f"program dims {c1.dim} vs {c2.dim}")
    s = _mixed(weight, c1.super, c2.super)
    return QuantumProgram(c1.dim, s, label=f"mix({weight}, {c1.label}, {c2.label})")


def _mixed(weight, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """weight·s1 + (1 - weight)·s2; weight is a float or an array that broadcasts against the stacks."""
    return weight * s1 + (1.0 - weight) * s2


def measure_branch(instrument, branches, tol: ToleranceConfig | None = None) -> QuantumProgram:
    """Measure, then run the branch picked by the outcome, forgetting which.

    ``instrument`` is a list of measurement operators M with sum M†M = I;
    ``branches`` pairs each outcome with a program. Compiles the conditioned
    evolution rho -> sum_m B_m(M_m rho M_m†) into a single program.
    """
    tol = tol or DEFAULT_TOL
    ms = [as_complex_matrix(m) for m in instrument]
    branches = list(branches)
    if len(ms) != len(branches):
        raise ValidationError(f"{len(ms)} instrument operators vs {len(branches)} branches")
    if not ms:
        raise ValidationError("empty instrument")
    d = ms[0].shape[0]
    for m in ms[1:]:
        if m.shape[0] != d:
            raise DimensionMismatchError("instrument operators differ in dimension")
    for b in branches:
        if b.dim != d:
            raise DimensionMismatchError(f"branch dim {b.dim} vs instrument dim {d}")
    total = sum(m.conj().T @ m for m in ms)
    gap = float(np.abs(total - np.eye(d)).max())
    if gap > tol.residual_tol:
        raise ValidationError(f"instrument incomplete: sum M†M deviates from identity by {gap:.3e}")
    s = sum(b.super @ np.kron(m.conj(), m) for m, b in zip(ms, branches))
    return QuantumProgram(d, s, label="measure_branch")


# ---------------------------------------------------------------------------
# Campaign samplers
# ---------------------------------------------------------------------------


def random_cptp(rng: np.random.Generator, dim: int, kraus_count: int | None = None) -> QuantumProgram:
    """Random CPTP program from a Haar isometry.

    Draws a (kraus_count*dim) x dim isometry and slices it into a Kraus
    family; completeness sum K†K = I holds by construction.
    """
    k = kraus_count if kraus_count is not None else dim
    return from_kraus(random_isometry(rng, k * dim, dim).reshape(k, dim, dim), label="random_cptp")


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


def _sampled_supers(kind: str, dim: int, weights: np.ndarray, normals: np.ndarray | None):
    """Superoperators (n, d², d²) of n sampled programs of one kind, from their raw draws.

    ``weights`` (n,) and ``normals`` (n, 2, rows, d) stack :func:`_draw_program`'s
    outputs. Also returns the unitaries (n, d, d) of the unitary kind, whose
    check :func:`from_unitary` makes, and None for the other kinds.
    """
    if kind == "transpose":
        return np.broadcast_to(transpose_program(dim).super, (len(weights),) + (dim * dim,) * 2), None
    kraus = _haar_isometries(normals).reshape(len(weights), -1, dim, dim)
    supers = _kraus_supers(kraus.swapaxes(0, 1))
    if kind == "transpose_mix":
        supers = _mixed(weights[:, None, None], transpose_program(dim).super, supers)
    return supers, (kraus[:, 0] if kind == "unitary" else None)


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
