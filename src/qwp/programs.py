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
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotTracePreservingError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_complex_matrix,
    is_hermitian,
    is_psd,
    min_eigenvalue,
    random_unitary,
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
        if not is_hermitian(m, tol):
            raise ValidationError("state is not hermitian")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > tol.residual_tol:
            raise ValidationError(f"state trace is {tr.real:.12g}, expected 1")
        lo = min_eigenvalue(m)
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


class QuantumProgram:
    """A linear map on operators, acting through a d²×d² superoperator.

    ``kraus`` is an optional view kept when the program was built from a Kraus
    family; ``label`` is free-form. Instances are immutable.
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
    """Program rho -> sum_K K rho K† with the Kraus view retained."""
    ks = [as_complex_matrix(k) for k in kraus_ops]
    if not ks:
        raise ValidationError("at least one Kraus operator is required")
    d = ks[0].shape[0]
    for k in ks[1:]:
        if k.shape[0] != d:
            raise DimensionMismatchError("Kraus operators differ in dimension")
    s = sum(np.kron(k.conj(), k) for k in ks)
    return QuantumProgram(d, s, kraus=ks, label=label)


def from_unitary(u, label: str = "unitary", tol: ToleranceConfig | None = None) -> QuantumProgram:
    """Conjugation rho -> U rho U†; rejects matrices that are not unitary."""
    tol = tol or DEFAULT_TOL
    u = as_complex_matrix(u)
    gap = float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())
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
    d = int(round(np.sqrt(n)))
    if d * d != n:
        raise DimensionMismatchError(f"Choi matrix side {n} is not a perfect square")
    j4 = j.reshape(d, d, d, d)  # indices (a, i, c, k): J[a*d+i, c*d+k]
    tr_out = np.einsum("aiak->ik", j4)
    dev = float(np.abs(tr_out - np.eye(d)).max())
    if dev > tol.residual_tol:
        raise NotTracePreservingError(
            f"Choi output partial trace deviates from the identity by {dev:.3e}"
        )
    s = np.empty((n, n), dtype=np.complex128)
    for i in range(d):
        for k in range(d):
            s[:, k * d + i] = vec(j[i::d, k::d])  # image of |i><k|
    return QuantumProgram(d, s, label=label)


def identity_program(dim: int) -> QuantumProgram:
    return QuantumProgram(dim, np.eye(dim * dim), kraus=[np.eye(dim)], label="identity")


def transpose_program(dim: int) -> QuantumProgram:
    """Transposition map: positive and trace preserving, not CP for dim >= 2."""
    s = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            s[i * dim + j, j * dim + i] = 1.0
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
        elif name == "depolarizing":
            prog = depolarizing(float(params.pop("p")))
        elif name == "amplitude_damping":
            prog = amplitude_damping(float(params.pop("gamma")))
        else:
            raise ValidationError(f"unknown named program {name!r}; expected one of {_NAMED_BUILDERS}")
    if dim is not None and prog.dim != dim:
        raise DimensionMismatchError(f"program has dim {prog.dim}, expected {dim}")
    return prog


# ---------------------------------------------------------------------------
# Action, adjoint, representation queries
# ---------------------------------------------------------------------------


def apply_matrices(c: QuantumProgram, ms: np.ndarray) -> np.ndarray:
    """Act on a stack of operators of shape (..., d, d). No validation of the entries.

    Each vectorized operator is multiplied as a one-column matrix, which keeps
    the per-operator rounding of a matrix-vector product.
    """
    if ms.shape[-2:] != (c.dim, c.dim):
        raise DimensionMismatchError(f"operator dim {ms.shape[-1]} vs program dim {c.dim}")
    return unvec((c.super @ vec(ms)[..., None])[..., 0])


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
    superoperator is the conjugate transpose of ``c.super``; when a Kraus view
    {K} is present the dual acts as F -> sum K† F K, so the dual's Kraus view
    is {K†}. The dual of a trace-preserving map is unital.
    """
    dual_kraus = tuple(k.conj().T for k in c.kraus) if c.kraus is not None else None
    return QuantumProgram(c.dim, c.super.conj().T, kraus=dual_kraus, label=f"adjoint({c.label})")


def is_trace_preserving(c: QuantumProgram, tol: ToleranceConfig | None = None) -> bool:
    """Dual-unitality test: the adjoint maps the identity to the identity."""
    tol = tol or DEFAULT_TOL
    eye = np.eye(c.dim)
    dual_on_eye = unvec(c.super.conj().T @ vec(eye))
    return float(np.abs(dual_on_eye - eye).max()) <= tol.residual_tol


def to_choi(c: QuantumProgram) -> np.ndarray:
    """Choi matrix J(C) = sum_ij C(|i><j|) ⊗ |i><j|."""
    d = c.dim
    j = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for k in range(d):
            j[i::d, k::d] = unvec(c.super[:, k * d + i])
    return j


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


def is_positive_sampled(
    c: QuantumProgram,
    tol: ToleranceConfig | None = None,
    seed: int = 0,
) -> PositivityVerdict:
    """Three-valued positivity audit.

    Returns certified_cp when the Choi matrix is PSD. Otherwise tests
    C(|psi><psi|) ⪰ 0 on every computational-basis and Fourier-basis state
    plus ``sample_count`` Haar-random pure states, reporting the first
    violating state found.
    """
    tol = tol or DEFAULT_TOL
    if is_completely_positive(c, tol):
        return PositivityVerdict("certified_cp", 0)
    d = c.dim
    rng = np.random.default_rng(seed)
    fourier = _fourier_basis(d)

    def candidates():
        for i in range(d):
            e = np.zeros(d, dtype=np.complex128)
            e[i] = 1.0
            yield e
        for k in range(d):
            yield fourier[:, k]
        for _ in range(tol.sample_count):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            yield v / np.linalg.norm(v)

    checked = 0
    for psi in candidates():
        out = apply_matrix(c, np.outer(psi, psi.conj()))
        checked += 1
        if not is_hermitian(out, tol) or min_eigenvalue(out) < -tol.eig_tol:
            return PositivityVerdict("counterexample", checked, witness=_readonly(psi.reshape(-1, 1)).reshape(-1))
    return PositivityVerdict("no_counterexample", checked)


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------


def seq(c1: QuantumProgram, c2: QuantumProgram) -> QuantumProgram:
    """Sequential composition: run c1 first, then c2."""
    if c1.dim != c2.dim:
        raise DimensionMismatchError(f"program dims {c1.dim} vs {c2.dim}")
    kraus = None
    if c1.kraus is not None and c2.kraus is not None:
        kraus = [k2 @ k1 for k2 in c2.kraus for k1 in c1.kraus]
    return QuantumProgram(c1.dim, c2.super @ c1.super, kraus=kraus, label=f"seq({c1.label}, {c2.label})")


def mix(weight: float, c1: QuantumProgram, c2: QuantumProgram) -> QuantumProgram:
    """Convex combination weight*c1 + (1-weight)*c2.

    Preserves trace preservation and positivity; when both operands carry a
    Kraus view the mixture's view is the sqrt-weighted union.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {weight}")
    if c1.dim != c2.dim:
        raise DimensionMismatchError(f"program dims {c1.dim} vs {c2.dim}")
    kraus = None
    if c1.kraus is not None and c2.kraus is not None:
        kraus = [np.sqrt(weight) * k for k in c1.kraus] + [np.sqrt(1.0 - weight) * k for k in c2.kraus]
    s = weight * c1.super + (1.0 - weight) * c2.super
    return QuantumProgram(c1.dim, s, kraus=kraus, label=f"mix({weight}, {c1.label}, {c2.label})")


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
    kraus = None
    if all(b.kraus is not None for b in branches):
        kraus = [bk @ m for m, b in zip(ms, branches) for bk in b.kraus]
    return QuantumProgram(d, s, kraus=kraus, label="measure_branch")


# ---------------------------------------------------------------------------
# Campaign samplers
# ---------------------------------------------------------------------------


def random_cptp(rng: np.random.Generator, dim: int, kraus_count: int | None = None) -> QuantumProgram:
    """Random CPTP program from a Haar isometry.

    Draws a (kraus_count*dim) x dim isometry and slices it into a Kraus
    family; completeness sum K†K = I holds by construction.
    """
    k = kraus_count if kraus_count is not None else dim
    g = (rng.standard_normal((k * dim, dim)) + 1j * rng.standard_normal((k * dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    safe = np.abs(diag) > 0
    q = q * (np.where(safe, diag, 1.0) / np.where(safe, np.abs(diag), 1.0))
    kraus = [q[i * dim:(i + 1) * dim, :] for i in range(k)]
    return from_kraus(kraus, label="random_cptp")


_PROGRAM_KINDS = ("cptp", "unitary", "transpose", "transpose_mix")


def sample_program(kind: str, dim: int, seed) -> QuantumProgram:
    """Seeded random program for property campaigns.

    "cptp": random Kraus program; "unitary": Haar conjugation; "transpose":
    the transposition map; "transpose_mix": a convex mix of transpose and a
    random CPTP program, positive and trace preserving but generally not CP.
    """
    rng = np.random.default_rng(seed)
    if kind == "cptp":
        return random_cptp(rng, dim)
    if kind == "unitary":
        return from_unitary(random_unitary(rng, dim), label="random_unitary")
    if kind == "transpose":
        return transpose_program(dim)
    if kind == "transpose_mix":
        w = float(rng.uniform(0.2, 0.8))
        return mix(w, transpose_program(dim), random_cptp(rng, dim))
    raise ValueError(f"unknown program kind {kind!r}; expected one of {_PROGRAM_KINDS}")
