"""Seeded inputs and the benchmark's own reference answers.

Nothing here imports qwp: every known answer the checks compare against is
computed from the generated Kraus lists, predicates and states with plain
numpy, so no answer comes from the code under test. Superoperators use the
column-stacking convention of the qwp JSON format: vec(K rho K^dagger) =
(conj(K) kron K) vec(rho).
"""

from __future__ import annotations

import numpy as np


def ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def isometry_kraus(rng: np.random.Generator, dim: int, count: int) -> list[np.ndarray]:
    """Kraus family of a random CPTP map: slices of a (count*dim) x dim isometry."""
    q, _ = np.linalg.qr(ginibre(rng, count * dim, dim))
    return [q[i * dim:(i + 1) * dim, :].copy() for i in range(count)]


def density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = ginibre(rng, dim, dim)
    m = g @ g.conj().T
    return m / np.trace(m).real


def effects(rng: np.random.Generator, dim: int, atoms: int, shrink: float) -> list[np.ndarray]:
    """POVM elements W_a normalised by the inverse root of their sum, times shrink."""
    blocks = [g @ g.conj().T for g in (ginibre(rng, dim, dim) for _ in range(atoms))]
    vals, vecs = np.linalg.eigh(sum(blocks))
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return [shrink * (inv_root @ b @ inv_root) for b in blocks]


def kraus_super(kraus) -> np.ndarray:
    return sum(np.kron(k.conj(), k) for k in kraus)


def transpose_super(dim: int) -> np.ndarray:
    """Permutation taking vec(rho) to vec(rho^T)."""
    idx = np.arange(dim * dim).reshape(dim, dim)
    s = np.zeros((dim * dim, dim * dim))
    s[idx.reshape(-1), idx.T.reshape(-1)] = 1.0
    return s


def dual_kraus(kraus, f: np.ndarray) -> np.ndarray:
    """Heisenberg-picture action sum_K K^dagger F K."""
    return sum(k.conj().T @ f @ k for k in kraus)


def dual_transpose_mix(weight: float, kraus, f: np.ndarray) -> np.ndarray:
    """Dual of weight*transpose + (1-weight)*Kraus map; transposition is self-dual."""
    return weight * f.T + (1.0 - weight) * dual_kraus(kraus, f)


def nonpositive_super(dim: int, eps: float) -> np.ndarray:
    """rho -> (1+eps) rho - eps Tr(rho) I/d: trace preserving, not positive for eps > 0.

    On a basis projector the output has eigenvalue -eps/d.
    """
    vec_eye = np.eye(dim).reshape(-1, order="F")
    return (1.0 + eps) * np.eye(dim * dim) - eps * np.outer(vec_eye, vec_eye) / dim


def depolarizing_super(p: float) -> np.ndarray:
    """Qubit rho -> (1-p) rho + p Tr(rho) I/2."""
    vec_eye = np.eye(2).reshape(-1, order="F")
    return (1.0 - p) * np.eye(4) + p * np.outer(vec_eye, vec_eye) / 2.0


def matrix_doc(m) -> dict:
    a = np.asarray(m, dtype=np.complex128)
    return {"dim": int(a.shape[0]), "re": a.real.tolist(), "im": a.imag.tolist()}


def predicate_doc(effect_list) -> dict:
    atoms = [f"a{i}" for i in range(len(effect_list))]
    return {"atoms": atoms, "effects": {a: matrix_doc(e) for a, e in zip(atoms, effect_list)}}


def kraus_doc(kraus, label: str) -> dict:
    return {"dim": int(kraus[0].shape[0]), "repr": "kraus", "payload": [matrix_doc(k) for k in kraus], "label": label}


def super_doc(s: np.ndarray, dim: int, label: str) -> dict:
    return {"dim": dim, "repr": "super", "payload": matrix_doc(s), "label": label}
