"""Programs that the test modules share; pytest, and ``python tests/<script>.py``, put ``tests/`` on the path.

The positive maps that are not CP act on stacks (..., d, d) and are trace
preserving; :func:`positive_not_cp` makes a program of one.
"""

import math

import numpy as np

from qwp.linalg import random_isometry, random_unitary
from qwp.programs import adjoint, from_kraus, from_super, from_unitary, sample_program, seq, unvec, vec


def nonpositive(dim, eps):
    """rho -> (1 + eps) rho - eps Tr(rho) I/d: trace preserving, not positive for eps > 0."""
    flat = vec(np.eye(dim))
    return from_super((1 + eps) * np.eye(dim * dim) - eps * np.outer(flat, flat) / dim)


def low_rank_program(dim, rank, seed, rows=None):
    """A CPTP program of `rank` Kraus operators, sliced from one Haar isometry: its Choi matrix has that rank.

    With rows < dim, every operator is zero below its first `rows` rows, so the last
    (dim - rows)·dim rows and columns of the Choi matrix are zero.
    """
    rows = rows or dim
    w = random_isometry(np.random.default_rng([dim, rank, seed]), rank * rows, dim).reshape(rank, rows, dim)
    return from_kraus(np.concatenate([w, np.zeros((rank, dim - rows, dim))], axis=1))


def pure_loss(levels, eta):
    """The pure-loss channel of transmissivity eta on Fock levels 0..levels-1, from its operators
    A_k = Σ_{n≥k} √(C(n, k) eta^(n-k) (1 - eta)^k) |n-k><n| (Ivan, Sabapathy & Simon, PRA 84, 042311,
    2011). Loss never raises the photon number, so the truncation is trace preserving."""
    ks = np.zeros((levels, levels, levels))
    for k in range(levels):
        for n in range(k, levels):
            ks[k, n - k, n] = math.sqrt(math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k)
    return from_kraus(ks, label="pure_loss")


def reduction(x):
    """The reduction map on d×d matrices, d ≥ 2: X -> (Tr(X) I - X) / (d - 1); positive, not CP."""
    d = x.shape[-1]
    return (np.trace(x, axis1=-2, axis2=-1)[..., None, None] * np.eye(d) - x) / (d - 1)


def choi_map(x):
    """Choi's positive map on 3×3 matrices that is not CP (Choi 1975), halved to preserve the trace:
    X -> (diag(x11 + x33, x22 + x11, x33 + x22) - offdiag(X)) / 2."""
    diagonal = np.einsum("...ii->...i", x)
    out = -x
    np.einsum("...ii->...i", out)[...] += 2.0 * diagonal + np.roll(diagonal, 1, axis=-1)
    return out / 2.0


def breuer_hall(x):
    """The Breuer–Hall map on d×d matrices, d even: X -> (Tr(X) I - X - U Xᵀ Uᵀ) / (d - 2), U the real
    antisymmetric unitary of d/2 blocks [[0, 1], [-1, 0]]; positive, not CP for d ≥ 4."""
    d = x.shape[-1]
    u = np.kron(np.eye(d // 2), [[0.0, 1.0], [-1.0, 0.0]])
    return (np.trace(x, axis1=-2, axis2=-1)[..., None, None] * np.eye(d) - x - u @ x.swapaxes(-1, -2) @ u.T) / (d - 2)


def positive_not_cp(phi, dim, seed):
    """The program rho -> phi(W rho W†), W a seeded Haar unitary, of a map phi on stacks of dim×dim matrices."""
    n = dim * dim
    w = random_unitary(np.random.default_rng([dim, seed]), dim)
    return seq(from_unitary(w), from_super(vec(phi(unvec(np.eye(n)))).T))


def branches(dim, count):
    """count sampled programs of every kind; every other one is an adjoint, stored by columns."""
    rng = np.random.default_rng([dim, count, 43])
    kinds = ("transpose_mix", "cptp", "unitary", "transpose")
    progs = [sample_program(kinds[i % 4], dim, rng) for i in range(count)]
    return [adjoint(c) if i % 2 == 0 else c for i, c in enumerate(progs)]
