"""Stacked kernels against the per-matrix loops they replace: one oracle table per route.

Each route is a section below, with a test for each entry point and for each setting of it that
needs its own setup (a fault put in, a smaller cap, a tie). A test's parameters are its rows:
(input family, d, layout), each where the test takes more than one. A row's check is a
comparison with the route's oracle. The loops below are those oracles: they draw one state (or
handle one atom, Kraus operator or campaign trial) at a time from the same generators and must
give the stacked kernels' results exactly, float for float, and a campaign's first error. Two
kernels are the exception in arithmetic. The positivity audit forms its outputs with one matrix
product, whose rounding differs from the loop's matrix-vector products, so its outputs are held
to a tolerance set from the dtype and its verdicts (status, count, witness) to equality. The
supremum audit confirms its candidates with matrix products in place of per-state traces; only
its flags and margins leave the kernel, so its reports are held to equality.

Rows enter through a public call wherever one reaches the route. The private names of qwp
that they still reach are listed once, in SEAMS. An input or oracle result that several rows
share is built once, by :func:`built`, whose cache lives as long as the module's tests.

To add a kernel path, add rows to the test of its entry point, or a test to its route's section
that reuses the route's oracle; a new seam goes into SEAMS.
"""

import importlib
import re
import tracemalloc
import warnings
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest

from qwp.campaigns import CampaignResult, compose_campaign, duality_campaign, orders_campaign, weakest_campaign
from qwp.errors import DecompositionError, DimensionMismatchError, NotTracePreservingError, ValidationError
from qwp.linalg import (
    DEFAULT_TOL,
    STACK_BYTES,
    ToleranceConfig,
    as_complex_matrix,
    hermitian_eig,
    is_hermitian,
    is_psd,
    loewner_leq,
    min_eigenvalue,
    psd_sqrt,
    random_densities,
    random_density,
    random_effect,
    random_hermitian_contraction,
    random_isometry,
    random_unitary,
)
from qwp.predicates import (
    MAX_RANDOM_ATOMS,
    OutcomeSpace,
    Predicate,
    ValidationReport,
    predicate_leq,
    projective_predicate,
    random_predicate,
    validate_predicate,
)
from qwp.programs import (
    APPLY_EIG_SLACK,
    DensityState,
    PositivityVerdict,
    adjoint,
    apply,
    apply_matrices,
    apply_matrix,
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
from qwp.wp import (
    WeakestCheckReport,
    duality_residual,
    duality_residual_sweep,
    is_precondition,
    weakest_check,
    wp,
)

from maps import branches, breuer_hall, choi_map, low_rank_program, nonpositive, positive_not_cp

# the package re-exports the function wp under the name of its module
qwp_wp = importlib.import_module("qwp.wp")
qwp_programs = importlib.import_module("qwp.programs")
qwp_linalg = importlib.import_module("qwp.linalg")
qwp_campaigns = importlib.import_module("qwp.campaigns")
qwp_predicates = importlib.import_module("qwp.predicates")

# The private names that the tables reach below the public calls, by module. Each is a kernel
# that no public call reaches with the inputs its rows need (a stack, a layout, a threshold per
# matrix, a block of a matrix), or a place where a row puts a fault in.
SEAMS = {
    "qwp.linalg": (
        "_PSD_BAND_C",  # the band constant c, for the oracle's δ
        "_band",  # δ from the diagonal and Σ|a_ij|² it is read off
        "_hermitian_part",  # (a + aᴴ)/2 without overflow, the writer's full-size oracle
        "_psd_stack",  # the stack primitive, at a threshold per matrix
        "_square_blocks",  # the single-matrix route's block layout of a matrix
        "_blocked_gap",  # the hermiticity gap read in place
        "_write_hermitian_part",  # h's lower block triangle, written off the blocks
        "_lower_column",  # the certificate's pivot columns
        "_leading_square",  # the probes' corner
        "_haar_spectral",  # stacked effects from their draws
        "_psd_sqrts",  # stacked roots, as weakest_check and the orders campaign take them
    ),
    "qwp.programs": (
        "_unital_gaps",  # the trace-preservation gap of stacks, in every layout
        "_choi_view",  # the Choi matrix as a view of S
        "_act",  # stacks of superoperators, as the campaigns pass them
        "_kraus_supers",  # stacked Kraus sums, as the campaigns build them
        "_mixed",  # mixtures with a weight per program
        "_coordinate_matrix",  # the audit's product blocks: W
        "_pure_parts",  # and the parts read off W @ x
        "_invalid_states",  # the campaigns' state mask
        "_state_flags",  # the state rule's flags and λ_min
        "_psd_stack",  # the audit's basis block, read exactly
    ),
    "qwp.predicates": (
        "_effect_flags",  # the predicate rule's flags and λ_min
        "_predicate_faults",  # the campaigns' predicate mask
    ),
    # faults put in: oversized and boundary candidates, and a refused trial that passes alone
    "qwp.wp": ("_haar_spectral",),
    "qwp.campaigns": ("_unital_gaps", "_invalid_states"),
}


def test_every_seam_resolves_and_no_other_private_name_is_reached():
    for module, names in SEAMS.items():
        for name in names:
            assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    source = Path(__file__).read_text()
    reached = set(re.findall(r"qwp_(\w+)\.(_\w+)", source)) | set(re.findall(r'qwp_(\w+), "(_\w+)"', source))
    assert reached == {(module[4:], name) for module, names in SEAMS.items() for name in names}


@lru_cache(maxsize=6)
def built(build, *key):
    """build(*key), built once for the rows that share it; the rows of a table come in the order of
    their inputs, so the cache keeps only the latest few. A row must not write to what it returns."""
    return build(*key)


@pytest.fixture(scope="module", autouse=True)
def shared_inputs():
    """The inputs and oracle results of :func:`built` and the oracle's weakest trials, freed when the module's tests end."""
    yield
    built.cache_clear()
    WEAKEST_TRIALS.clear()


def rows(*cases):
    """pytest params for the given tuples, each with the id of its entries joined by '-'."""
    return [pytest.param(*case, id="-".join(map(str, case))) for case in cases]


KINDS = ("cptp", "unitary", "transpose", "transpose_mix")
DIMS = (1, 2, 3, 5, 8)


def fourier_basis(dim):
    """The Fourier basis, one state a column."""
    grid = np.outer(np.arange(dim), np.arange(dim))
    return np.exp(2j * np.pi * grid / dim) / np.sqrt(dim)


def hermiticity_gaps_oracle(a):
    """Max-entry |a - aᴴ| of each matrix of a stack; inf, with no warning, where it overflows."""
    with np.errstate(over="ignore"):
        return np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def eigvalsh_oracle(a):
    """The eigenvalues of the symmetrized matrices of a stack."""
    return np.linalg.eigvalsh((a + a.conj().swapaxes(-1, -2)) / 2.0)


def ginibre_density_oracle(rng, dim):
    """One density from a Ginibre product, drawn real part then imaginary part."""
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    m = g @ g.conj().T
    return m / m.trace().real


def random_isometry_oracle(rng, rows, cols):
    """One Haar isometry: QR of one Ginibre matrix (real part drawn first), phases fixed by R's diagonal."""
    g = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    safe = np.abs(d) > 0
    phase = np.where(safe, d, 1.0) / np.where(safe, np.abs(d), 1.0)
    return q * phase


def random_effect_oracle(rng, dim):
    """One random effect: a Haar eigenbasis, then eigenvalues uniform on [0, 1]."""
    u = random_isometry_oracle(rng, dim, dim)
    w = rng.uniform(0.0, 1.0, size=dim)
    return (u * w) @ u.conj().T


def random_cptp_oracle(rng, dim, kraus_count=None):
    """A random CPTP program from one isometry, sliced into its Kraus operators."""
    k = kraus_count if kraus_count is not None else dim
    q = random_isometry_oracle(rng, k * dim, dim)
    return from_kraus([q[i * dim:(i + 1) * dim, :] for i in range(k)], label="random_cptp")


def sample_program_oracle(kind, dim, rng):
    """One sampled program from the per-matrix samplers."""
    if kind == "cptp":
        return random_cptp_oracle(rng, dim)
    if kind == "unitary":
        return from_unitary(random_isometry_oracle(rng, dim, dim), label="random_unitary")
    if kind == "transpose":
        return transpose_program(dim)
    w = float(rng.uniform(0.2, 0.8))
    return mix(w, transpose_program(dim), random_cptp_oracle(rng, dim))


def duality_campaign_oracle(dims, trials, seed, tol=None):
    """The duality sweep one trial at a time, from the per-matrix samplers."""
    tol = tol or DEFAULT_TOL
    failures, worst, total = 0, 0.0, 0
    for dim in dims:
        for trial in range(trials):
            rng = np.random.default_rng([seed, dim, trial])
            prog = sample_program_oracle(KINDS[trial % 4], dim, rng)
            pred = random_predicate_oracle(rng, dim)
            rho = DensityState(ginibre_density_oracle(rng, dim), tol)
            # duality_residual one atom at a time, through the adjoint program
            g = wp_oracle(prog, pred, tol)
            out = apply(prog, rho, tol)
            residual = max(
                float(abs(np.trace(g.effect(a) @ rho.matrix) - np.trace(pred.effect(a) @ out.matrix)))
                for a in pred.space.atoms
            )
            worst = max(worst, residual)
            failures += int(residual > tol.residual_tol)
            total += 1
    return CampaignResult("duality", tuple(dims), total, failures, worst, seed)


def compose_campaign_oracle(dims, trials, seed, tol=None):
    """The composition sweep one trial at a time, from the per-matrix samplers."""
    tol = tol or DEFAULT_TOL
    failures, worst, total = 0, 0.0, 0
    for dim in dims:
        for trial in range(trials):
            rng = np.random.default_rng([seed, dim, trial])
            c1 = sample_program_oracle(KINDS[trial % 4], dim, rng)
            c2 = sample_program_oracle(KINDS[(trial + 1) % 4], dim, rng)
            pred = random_predicate_oracle(rng, dim)
            # wp_compose_check as three wp calls through the adjoint programs
            left = wp_oracle(seq(c1, c2), pred, tol)
            right = wp_oracle(c1, wp_oracle(c2, pred, tol), tol)
            gap = max(float(np.abs(left.effect(a) - right.effect(a)).max()) for a in pred.space.atoms)
            worst = max(worst, gap)
            failures += int(gap > tol.residual_tol)
            total += 1
    return CampaignResult("compose", tuple(dims), total, failures, worst, seed)


def orders_pair_oracle(rng, dim, trial):
    """The predicates (f, g) of one orders trial, from the per-matrix samplers."""
    g = random_predicate_oracle(rng, dim)
    if trial % 2 == 0:
        # construct f below g by sandwich shrinkage
        roots = [psd_sqrt_oracle(e) for e in g.effects]
        f = Predicate(g.space, [r @ random_effect_oracle(rng, dim) @ r for r in roots])
    else:
        f = random_predicate_oracle(rng, dim, n_atoms=len(g.space.atoms))
    return f, g


def orders_campaign_oracle(dims, trials, seed, tol=None, states_per_pair=50):
    """The order sweep one trial at a time: predicate_leq, then sampled states or an eigenvector witness."""
    tol = tol or DEFAULT_TOL
    failures = 0
    worst = 0.0
    total = 0
    for dim in dims:
        for trial in range(trials):
            rng = np.random.default_rng([seed, dim, trial])
            f, g = orders_pair_oracle(rng, dim, trial)
            total += 1

            if predicate_leq(f, g, tol):
                rho = random_densities(rng, states_per_pair, dim)
                ok = True
                for a in f.space.atoms:
                    lhs = np.trace(rho @ f.effect(a), axis1=-2, axis2=-1).real
                    rhs = np.trace(rho @ g.effect(a), axis1=-2, axis2=-1).real
                    worst = float(np.max(lhs - rhs, initial=worst))
                    ok = ok and not np.any(lhs > rhs + (tol.eig_tol + tol.residual_tol))
                failures += int(not ok)
            else:
                witnessed = False
                for a in f.space.atoms:
                    vals, vecs = hermitian_eig(g.effect(a) - f.effect(a))
                    if vals[0] < -tol.eig_tol:
                        rho = np.outer(vecs[:, 0], vecs[:, 0].conj())
                        lhs = float(np.trace(rho @ f.effect(a)).real)
                        rhs = float(np.trace(rho @ g.effect(a)).real)
                        if lhs > rhs + tol.eig_tol:
                            witnessed = True
                            break
                failures += int(not witnessed)
    return CampaignResult("orders", tuple(dims), total, failures, worst, seed)


def psd_sqrt_oracle(a):
    """The square root of one matrix: its eigendecomposition, negative eigenvalues clipped to zero."""
    vals, vecs = hermitian_eig(a)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


# each trial of weakest_check_oracle, by its inputs: its candidate and the masses of its states. They do not
# depend on the tolerances, so the runs of one pair at several tolerances share them
WEAKEST_TRIALS = {}


def weakest_check_oracle(c, f, tol=None, seed=0, states_per_trial=50, effect=random_effect_oracle):
    """The per-state supremum audit, one trial, atom and state at a time; ``effect`` draws one W."""
    tol = tol or DEFAULT_TOL
    # a trial's states stop at one that refutes its candidate at residual_tol 1e-3, and so at every smaller one
    assert tol.residual_tol <= 1e-3
    transformed = wp(c, f, tol)
    atoms = f.space.atoms
    roots = {a: psd_sqrt_oracle(transformed.effect(a)) for a in atoms}
    key = (c.super.tobytes(), c.super.strides, f.effects.tobytes(), seed, states_per_trial, effect)

    dominated = 0
    confirmed = 0
    min_margin = np.inf
    for trial in range(tol.sample_count):
        if (key, trial) not in WEAKEST_TRIALS:
            # the trial's candidate, then (Tr(G_a rho), Tr(F_a C(rho))) for each state and atom
            rng = np.random.default_rng([seed, trial])
            cand = Predicate(f.space, {a: roots[a] @ effect(rng, c.dim) @ roots[a] for a in atoms})
            pairs = [(cand.effect(a), f.effect(a)) for a in atoms]
            masses = []
            for _ in range(states_per_trial):
                rho = ginibre_density_oracle(rng, c.dim)
                out = unvec(c.super @ vec(rho))
                # ndarray.trace, which np.trace calls, with the same sum
                masses.append([(float((g @ rho).trace().real), float((post @ out).trace().real)) for g, post in pairs])
                if any(lhs > rhs + 1e-3 for lhs, rhs in masses[-1]):
                    break
            WEAKEST_TRIALS[key, trial] = cand, masses
        cand, masses = WEAKEST_TRIALS[key, trial]
        confirmed += int(not any(lhs > rhs + tol.residual_tol for state in masses for lhs, rhs in state))

        trial_margin = min(
            min_eigenvalue(transformed.effect(a) - cand.effect(a)) for a in atoms
        )
        min_margin = min(min_margin, trial_margin)
        dominated += int(predicate_leq(cand, transformed, tol))

    return WeakestCheckReport(
        trials=tol.sample_count,
        all_dominated=dominated == tol.sample_count,
        dominated=dominated,
        confirmed_preconditions=confirmed,
        min_margin=float(min_margin),
        seed=seed,
    )


def weakest_campaign_oracle(dims, trials, seed, tol=None, effect=random_effect_oracle):
    """The supremum sweep one (program, predicate) pair at a time, 250 candidates a pair,
    each pair audited by the per-state loop."""
    tol = tol or DEFAULT_TOL
    failures, worst, total = 0, 0.0, 0
    for dim in dims:
        for pair, start in enumerate(range(0, trials, 250)):
            chunk = min(250, trials - start)
            rng = np.random.default_rng([seed, dim, pair])
            prog = sample_program_oracle(KINDS[pair % 4], dim, rng)
            pred = random_predicate_oracle(rng, dim)
            pair_tol = ToleranceConfig(tol.eig_tol, tol.residual_tol, chunk)
            report = weakest_check_oracle(prog, pred, pair_tol, seed=int(rng.integers(2**31)), effect=effect)
            total += chunk
            failures += (chunk - report.dominated) + (chunk - report.confirmed_preconditions)
            worst = min(worst, report.min_margin)
    notes = (f"most negative domination margin {worst:.3e}",) if worst < 0 else ()
    return CampaignResult("weakest", tuple(dims), total, failures, max(0.0, -worst), seed, notes)


def duality_residual_sweep_oracle(c, f, tol=None, seed=0, states=100):
    """The per-state duality sweep."""
    tol = tol or DEFAULT_TOL
    transformed = wp(c, f, tol)
    worst = {a: 0.0 for a in f.space.atoms}
    rng = np.random.default_rng([seed, 0x0D0A])
    for _ in range(states):
        rho = ginibre_density_oracle(rng, c.dim)
        out = unvec(c.super @ vec(rho))
        for a in f.space.atoms:
            lhs = np.trace(transformed.effect(a) @ rho)
            rhs = np.trace(f.effect(a) @ out)
            worst[a] = max(worst[a], float(abs(lhs - rhs)))
    return worst


def is_psd_oracle(a, tol=None):
    """The PSD verdict as one full eigensolve of the symmetrized matrix."""
    tol = tol or DEFAULT_TOL
    a = as_complex_matrix(a)
    if not is_hermitian(a, tol):
        return False
    return float(np.linalg.eigvalsh((a + a.conj().T) / 2.0).min()) >= -tol.eig_tol


def psd_band(a, tol, threshold=None):
    """The band δ = c(n + 2)u(Σ|Re a_ii| + ‖a‖_F + 2n·t) of one matrix, or of each of a stack (..., n, n);
    the threshold t is eig_tol unless given."""
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[-1]
    t = tol.eig_tol if threshold is None else threshold
    with np.errstate(over="ignore"):
        mu = np.abs(np.diagonal(a, axis1=-2, axis2=-1).real).sum(axis=-1) + np.sqrt((np.abs(a) ** 2).sum(axis=(-2, -1)))
    return qwp_linalg._PSD_BAND_C * (n + 2) * (np.finfo(np.float64).eps / 2) * (mu + 2 * n * t)


def is_positive_sampled_oracle(c, tol=None, seed=0):
    """The per-state positivity audit: one matrix-vector product and one eigensolve a state."""
    tol = tol or DEFAULT_TOL
    if is_psd_oracle(to_choi(c), tol):
        return PositivityVerdict("certified_cp", 0)
    d = c.dim
    rng = np.random.default_rng(seed)
    fourier = fourier_basis(d)

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
            return PositivityVerdict("counterexample", checked, witness=psi.copy())
    return PositivityVerdict("no_counterexample", checked)


def validate_predicate_oracle(p, tol=None):
    """The per-atom validity check: one eigensolve and one hermiticity gap an atom."""
    tol = tol or DEFAULT_TOL
    violations = []
    for atom in p.space.atoms:
        lo = min_eigenvalue(p.effect(atom))
        if lo < -tol.eig_tol:
            violations.append(f"effect {atom!r} is not PSD (min eigenvalue {lo:.6g})")
        if float(np.abs(p.effect(atom) - p.effect(atom).conj().T).max()) > tol.residual_tol:
            violations.append(f"effect {atom!r} is not hermitian")
    total = p.total_effect()
    hi = -min_eigenvalue(-total)
    if hi > 1.0 + tol.eig_tol:
        violations.append(f"total effect exceeds the identity (max eigenvalue {hi:.6g})")
    complete = float(np.abs(total - np.eye(p.dim)).max()) <= tol.residual_tol
    return ValidationReport(ok=not violations, violations=tuple(violations), complete=complete)


def wp_effects_oracle(c, f):
    """The transformed effects, one adjoint action an atom."""
    dual = adjoint(c)
    return [apply_matrix(dual, f.effect(a)) for a in f.space.atoms]


def unital_gaps_oracle(s):
    """Max-entry |C*(I) - I| read off the full product unvec(Sᵀ vec(I)), for superoperators (..., d², d²)."""
    d = int(round(np.sqrt(s.shape[-1])))
    eye = np.eye(d)
    return np.abs(unvec(s.swapaxes(-1, -2) @ vec(eye)) - eye).max(axis=(-2, -1))


def wp_oracle(c, f, tol):
    """wp through the adjoint program, with wp's checks in wp's order and with its messages."""
    report = validate_predicate_oracle(f, tol)
    if not report.ok:
        raise ValidationError("invalid predicate: " + "; ".join(report.violations))
    eye = np.eye(c.dim)
    if float(np.abs(unvec(adjoint(c).super @ vec(eye)) - eye).max()) > tol.residual_tol:
        raise NotTracePreservingError(f"program {c.label!r} is not trace preserving")
    # Predicate refuses a non-finite effect with wp's message
    return Predicate(f.space, wp_effects_oracle(c, f))


def kraus_super_oracle(kraus_ops):
    """sum conj(K) ⊗ K by Python's sum, which starts from the integer 0."""
    return sum(np.kron(k.conj(), k) for k in map(as_complex_matrix, kraus_ops))


def random_predicate_oracle(rng, dim, n_atoms=None, complete=False):
    """Random predicate drawn block by block."""
    k = int(n_atoms) if n_atoms is not None else int(rng.integers(2, 5))
    blocks = []
    for _ in range(k):
        g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
        blocks.append(g @ g.conj().T)
    total = sum(blocks)
    vals, vecs = hermitian_eig(total)
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    factor = 1.0 if complete else float(rng.uniform(0.4, 1.0))
    effects = [factor * (inv_root @ b @ inv_root) for b in blocks]
    return Predicate(OutcomeSpace(tuple(f"a{i}" for i in range(k))), effects)


def assert_same_bits(got, want):
    """Equal arrays, down to the sign of every zero."""
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


def assert_same_predicate(got, want):
    assert got.space == want.space
    for a in want.space.atoms:
        assert_same_bits(got.effect(a), want.effect(a))


def assert_same_verdict(got, want):
    assert (got.status, got.samples) == (want.status, want.samples)
    if want.witness is None:
        assert got.witness is None
    else:
        assert np.array_equal(got.witness, want.witness)


def assert_same_report(got, want):
    assert vars(got) == vars(want)
    assert got.min_margin.hex() == want.min_margin.hex()


# ---------------------------------------------------------------------------
# Builds and samplers: superoperator builds against Python's Kronecker sum and
# the full-array expressions; samplers against their per-matrix draws
# ---------------------------------------------------------------------------

# superoperators of d ≥ 17 exceed ROW_BLOCK_BYTES and are built in blocks: the
# last one is partial at d = 17 and 23, and holds a single leading index at 33
BLOCK_DIMS = (16, 17, 23, 32, 33)


def signed_kraus(rng, shape, real=False):
    """Operators of the given stack shape whose zero entries, one of them negative, give the terms signed zeros."""
    ks = rng.standard_normal(shape)
    if not real:
        ks = ks + 1j * rng.standard_normal(shape)
    ks[..., :, 0] = 0.0
    ks[..., 0, 0] = -0.0
    return ks


def labelled(mats):
    return Predicate(OutcomeSpace(tuple(f"a{i}" for i in range(len(mats)))), list(mats))


@pytest.mark.parametrize(
    "family, d, count",
    rows(
        *[(family, d, count) for d in DIMS for count in (1, 2, 3, 4, 5) for family in ("complex", "real")],
        *[("complex", d, count) for d in BLOCK_DIMS for count in (1, 4)],
    ),
)
def test_from_kraus(family, d, count):
    ks = signed_kraus(np.random.default_rng([d, count, 79]), (count, d, d), real=family == "real")
    c = from_kraus(list(ks))
    want = kraus_super_oracle(ks)
    assert_same_bits(c.super, want)
    assert np.any(want == 0)
    assert all(np.array_equal(k, want_k) for k, want_k in zip(c.kraus, ks))


def test_from_kraus_sums_left_to_right():
    # a (k, 1, 1) stack is contiguous along k, where numpy's reductions sum pairwise;
    # the Kraus sum must still add term after term
    rng = np.random.default_rng(80)
    for count in [3, 4, 5] * 100:
        ks = rng.standard_normal((count, 1, 1)) + 1j * rng.standard_normal((count, 1, 1))
        assert_same_bits(from_kraus(list(ks)).super, kraus_super_oracle(ks))


@pytest.mark.parametrize("d", [17, 23])
def test_kraus_supers(d):
    # _sampled_supers' layout (r, n, d, d): operator r of program m sits at [r, m]
    ks = signed_kraus(np.random.default_rng([d, 82]), (3, 2, d, d))
    got = qwp_programs._kraus_supers(ks)
    for m in range(2):
        assert_same_bits(got[m], kraus_super_oracle(ks[:, m]))


@pytest.mark.parametrize("d", [17, 33])
def test_mix(d):
    rng = np.random.default_rng([d, 83])
    c1, c2 = transpose_program(d), from_kraus(list(signed_kraus(rng, (2, d, d))))
    w = float(rng.uniform())
    assert_same_bits(mix(w, c1, c2).super, w * c1.super + (1 - w) * c2.super)


def test_mix_with_a_weight_a_program():
    # transpose_mix programs of a campaign block at d = 17: one weight per program
    rng = np.random.default_rng([17, 83])
    s1, s2 = transpose_program(17).super, qwp_programs._kraus_supers(signed_kraus(rng, (2, 3, 17, 17)))
    w = rng.uniform(size=(3, 1, 1))
    assert_same_bits(qwp_programs._mixed(w, s1, s2), w * s1 + (1 - w) * s2)


@pytest.mark.parametrize("d, n_atoms", rows(*[(d, n) for d in DIMS for n in (1, 2, 3, 5, 9)]))
def test_total_effect(d, n_atoms):
    rng = np.random.default_rng([d, n_atoms, 97])
    mats = rng.standard_normal((n_atoms, d, d)) + 1j * rng.standard_normal((n_atoms, d, d))
    # sum() starts from the integer 0, so an entry that is -0.0 in every effect totals +0.0
    mats[:, -1, 0] = complex(-0.0, -0.0)
    want = sum(list(mats))
    assert not np.signbit(want[-1, 0].real) and not np.signbit(want[-1, 0].imag)
    assert_same_bits(labelled(mats).total_effect(), want)


def test_total_effect_sums_left_to_right():
    rng = np.random.default_rng(98)
    for n_atoms in list(range(1, 13)) * 25:
        mats = rng.standard_normal((n_atoms, 1, 1)) + 1j * rng.standard_normal((n_atoms, 1, 1))
        assert_same_bits(labelled(mats).total_effect(), sum(list(mats)))


@pytest.mark.parametrize(
    "family, d, n_atoms", rows(*[(family, d, n) for d in DIMS for n in (None, 1, 2, 3, 4, 5) for family in ("sub", "complete")])
)
def test_random_predicate(family, d, n_atoms):
    rng, oracle_rng = np.random.default_rng([d, n_atoms or 0, 83]), np.random.default_rng([d, n_atoms or 0, 83])
    got = random_predicate(rng, d, n_atoms, family == "complete")
    assert_same_predicate(got, random_predicate_oracle(oracle_rng, d, n_atoms, family == "complete"))


@pytest.mark.parametrize("family, d", rows(*[(family, d) for d in DIMS for family in ("sub", "complete")]))
def test_random_predicate_leaves_the_stream_where_the_loop_does(family, d):
    rng, oracle_rng = np.random.default_rng([d, 89]), np.random.default_rng([d, 89])
    for n_atoms in (None, 1, 4):
        random_predicate(rng, d, n_atoms, family == "complete")
        random_predicate_oracle(oracle_rng, d, n_atoms, family == "complete")
        assert np.array_equal(rng.standard_normal(3), oracle_rng.standard_normal(3))


def test_random_predicate_sums_left_to_right():
    for seed in range(300):
        got = random_predicate(np.random.default_rng(seed), 1, 3 + seed % 3)
        assert_same_predicate(got, random_predicate_oracle(np.random.default_rng(seed), 1, 3 + seed % 3))


@pytest.mark.parametrize("d, count", [(1, 7), (2, 7), (3, 7), (8, 7), (17, 7), (4, 0)])
def test_random_densities(d, count):
    stacked_rng, single_rng, oracle_rng = (np.random.default_rng(5) for _ in range(3))
    stack = random_densities(stacked_rng, count, d)
    assert stack.shape == (count, d, d)
    assert np.array_equal(stack.reshape(-1), np.array([random_density(single_rng, d) for _ in range(count)]).reshape(-1))
    assert np.array_equal(stack.reshape(-1), np.array([ginibre_density_oracle(oracle_rng, d) for _ in range(count)]).reshape(-1))
    # the generator is left where the sequential draws leave it
    next_draw = stacked_rng.standard_normal(3)
    assert np.array_equal(next_draw, single_rng.standard_normal(3))
    assert np.array_equal(next_draw, oracle_rng.standard_normal(3))


@pytest.mark.parametrize("d", DIMS)
def test_matrix_samplers(d):
    for seed in range(20):
        rng, oracle_rng = np.random.default_rng([seed, d]), np.random.default_rng([seed, d])
        assert_same_bits(random_isometry(rng, 3 * d, d), random_isometry_oracle(oracle_rng, 3 * d, d))
        assert_same_bits(random_unitary(rng, d), random_isometry_oracle(oracle_rng, d, d))
        assert_same_bits(random_effect(rng, d), random_effect_oracle(oracle_rng, d))
        u = random_isometry_oracle(oracle_rng, d, d)
        w = oracle_rng.uniform(-1.0, 1.0, size=d)
        assert_same_bits(random_hermitian_contraction(rng, d), (u * w) @ u.conj().T)
        assert np.array_equal(rng.standard_normal(3), oracle_rng.standard_normal(3))


@pytest.mark.parametrize("kind, d", rows(*[(kind, d) for kind in KINDS for d in DIMS]))
def test_sample_program(kind, d):
    for seed in range(5):
        rng, oracle_rng = np.random.default_rng([seed, d, 5]), np.random.default_rng([seed, d, 5])
        got, want = sample_program(kind, d, rng), sample_program_oracle(kind, d, oracle_rng)
        assert got.label == want.label
        assert_same_bits(got.super, want.super)
        assert (got.kraus is None) == (want.kraus is None)
        for k, want_k in zip(got.kraus or (), want.kraus or ()):
            assert_same_bits(k, want_k)
        assert np.array_equal(rng.standard_normal(3), oracle_rng.standard_normal(3))


@pytest.mark.parametrize("d", DIMS)
def test_random_cptp(d):
    got = random_cptp(np.random.default_rng(d), d)
    assert_same_bits(got.super, random_cptp_oracle(np.random.default_rng(d), d).super)
    assert len(got.kraus) == d


@pytest.mark.parametrize("d", DIMS)
def test_haar_spectral(d):
    # the draws weakest_check makes for 7 trials of 3 atoms, shaped in one stack
    normals, spectra, want = [], [], []
    for trial in range(7):
        rng, oracle_rng = np.random.default_rng([trial, 1]), np.random.default_rng([trial, 1])
        for _ in range(3):
            normals.append(rng.standard_normal((2, d, d)))
            spectra.append(rng.uniform(0.0, 1.0, size=d))
            want.append(random_effect_oracle(oracle_rng, d))
    assert_same_bits(qwp_linalg._haar_spectral(np.array(normals), np.array(spectra)), np.array(want))


@pytest.mark.parametrize("d", [1, 2, 3, 6, 8])
def test_psd_sqrt(d):
    rng = np.random.default_rng([d, 101])
    stack = np.array([random_effect_oracle(rng, d) for _ in range(6)]).reshape(2, 3, d, d)
    # an eigenvalue just below zero, which the root clips
    u = random_isometry_oracle(rng, d, d)
    w = rng.uniform(0.0, 1.0, size=d)
    w[0] = -1e-13
    stack[1, 2] = (u * w) @ u.conj().T
    assert np.linalg.eigvalsh(stack[1, 2]).min() < 0
    roots = qwp_linalg._psd_sqrts(stack)
    for idx in np.ndindex(2, 3):
        want = psd_sqrt_oracle(stack[idx])
        assert_same_bits(roots[idx], want)
        assert_same_bits(psd_sqrt(stack[idx]), want)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_predicate_leq(d):
    # the stacked order kernel against a per-atom loewner_leq loop, on hermitian pairs
    rng = np.random.default_rng([191, d])
    tol = DEFAULT_TOL
    g = np.array([[random_hermitian_contraction(rng, d) for _ in range(3)] for _ in range(6)])
    # λ_min(g - f) near 0 and ±eig_tol, and well clear of them, over the (6, 3) pairs
    shifts = np.array([-1.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 1e6] * 2).reshape(6, 3, 1, 1) * tol.eig_tol
    f = g + shifts * np.eye(d)
    f[0] = g[0] + np.array([random_hermitian_contraction(rng, d) for _ in range(3)])
    want = [[loewner_leq(f[i, a], g[i, a], tol) for a in range(3)] for i in range(6)]
    # each atom alone, then each predicate of three atoms
    assert [[predicate_leq(labelled(f[i, a:a + 1]), labelled(g[i, a:a + 1]), tol) for a in range(3)] for i in range(6)] == want
    assert [predicate_leq(labelled(f[i]), labelled(g[i]), tol) for i in range(6)] == [all(row) for row in want]
    assert {v for row in want for v in row} == {True, False}


def test_hermitian_part():
    rng = np.random.default_rng(91)
    for _ in range(2000):
        shape = (int(rng.integers(1, 4)),) + (int(rng.integers(1, 6)),) * 2
        scale = 10.0 ** rng.uniform(-300, 300, size=shape)
        a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
        # signed zeros in both parts, where complex division sets the signs
        a.real[rng.random(shape) < 0.3] = 0.0
        a.imag[rng.random(shape) < 0.3] = -0.0
        a.real[rng.random(shape) < 0.2] *= -1.0
        a.imag[rng.random(shape) < 0.2] *= -1.0
        assert_same_bits(qwp_linalg._hermitian_part(a), (a + a.conj().swapaxes(-1, -2)) / 2.0)


def test_hermitian_part_of_huge_entries():
    a = np.array([[1.7e308, 1.7e308], [1.7e308, -1.7e308]], dtype=np.complex128)
    with np.errstate(all="raise"):
        h = qwp_linalg._hermitian_part(a)
    assert np.array_equal(h, a)
    vals, _ = hermitian_eig(a)
    assert not np.isnan(vals).any()
    assert vals[0] < 0 < vals[1]


# ---------------------------------------------------------------------------
# The action: the row-blocked program action against one matrix-vector product a state
# ---------------------------------------------------------------------------


def gaussian_super(d, k=0):
    """The k-th complex Gaussian d²×d² matrix, read-only: the kernels' bits need no valid program."""
    n = d * d
    rng = np.random.default_rng([d, k, 97])
    s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s.setflags(write=False)
    return s


def action_oracle(s, ms):
    """Each operator of a stack (t, d, d) through the superoperator s, one matrix-vector product a state."""
    return np.array([unvec((s @ vec(m)[:, None])[:, 0]) for m in ms])


def action_case(d, layout="C"):
    """The program of gaussian_super(d) stored in a layout, 100 states, and the oracle's outputs on them,
    shared by the rows of every state count."""
    c = from_super(np.asarray(built(gaussian_super, d), order=layout))
    states = random_densities(np.random.default_rng([d, 98]), 100, d)
    want = action_oracle(c.super, states)
    states.setflags(write=False)
    want.setflags(write=False)
    return c, states, want


# d ≤ 16 is one product; d = 25 ends in a one-row tail at the default block size
ACTION_DIMS = (2, 16, 17, 23, 25, 31, 32, 33)
ACTION_COUNTS = (1, 2, 3, 37, 100)


@pytest.mark.parametrize("d, layout, count", rows(*[(d, layout, n) for d in ACTION_DIMS for layout in "CF" for n in ACTION_COUNTS]))
def test_apply_matrices(d, layout, count):
    c, states, want = built(action_case, d, layout)
    assert c.super.flags[f"{layout}_CONTIGUOUS"]
    assert_same_bits(apply_matrices(c, states[:count]), want[:count])


@pytest.mark.parametrize("d", ACTION_DIMS)
def test_apply_matrix(d):
    c, states, want = built(action_case, d)
    assert_same_bits(apply_matrix(c, states[0]), want[0])


@pytest.mark.parametrize("d, count", rows(*[(d, count) for d in ACTION_DIMS for count in (1, 2, 3)]))
def test_act(d, count):
    # a superoperator a trial, as the campaigns pass them
    c, states, want = built(action_case, d)
    supers = [c.super] + [built(gaussian_super, d, k) for k in range(1, count)]
    want = np.array([want[0]] + [action_oracle(s, states[k:k + 1])[0] for k, s in enumerate(supers) if k])
    assert_same_bits(qwp_programs._act(np.array(supers), states[:count]), want)


@pytest.mark.parametrize("d, count", rows(*[(d, count) for d in ACTION_DIMS for count in (37, 100)]))
def test_act_on_a_broadcast_superoperator(d, count):
    # the trials of the transpose kind share one superoperator
    c, states, want = built(action_case, d)
    got = qwp_programs._act(np.broadcast_to(c.super, (count,) + c.super.shape), states[:count])
    assert_same_bits(got, want[:count])


# row blocks that leave a one-row tail: a 1×n by n×1 product goes to a dot kernel, which
# rounds the last row differently, so the tail joins the block before it
@pytest.mark.parametrize("d, rows_a_block", [(17, 72), (23, 66), (31, 64), (33, 64)])
def test_apply_matrices_joins_a_one_row_tail_to_the_block_before_it(d, rows_a_block, monkeypatch):
    c, states, want = built(action_case, d)
    assert (d * d) % rows_a_block == 1
    monkeypatch.setattr(qwp_linalg, "ROW_BLOCK_BYTES", rows_a_block * 16 * d * d)
    assert_same_bits(apply_matrices(c, states[:3]), want[:3])


@pytest.mark.parametrize("kind, d", rows(*[(kind, d) for kind in KINDS for d in (2, 3, 8)]))
def test_apply_matrices_of_a_sampled_program_on_a_2_by_3_stack(kind, d):
    c = sample_program(kind, d, 17)
    ms = random_densities(np.random.default_rng(d), 6, d).reshape(2, 3, d, d)
    out = apply_matrices(c, ms)
    assert out.shape == (2, 3, d, d)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(out[idx], apply_matrix(c, ms[idx]))
        assert np.array_equal(out[idx], unvec(c.super @ vec(ms[idx])))


def test_the_action_refuses_a_stack_of_another_dim():
    with pytest.raises(DimensionMismatchError):
        apply_matrices(sample_program("cptp", 2, 0), np.zeros((4, 3, 3), dtype=complex))


# ---------------------------------------------------------------------------
# The unital gaps: the trace-preservation gap reads only the d rows k(d+1) of S, summed in
# row order; it agrees with the full product Sᵀ vec(I) within a rounding bound, and its
# verdicts with the product's
# ---------------------------------------------------------------------------


def unital_layouts(kind, d):
    """A program's superoperator C- and F-ordered, and its adjoint's as stored (by columns) and C-ordered."""
    c = sample_program(kind, d, np.random.default_rng([d, 41]))
    dual = adjoint(c).super
    return {"C": c.super, "F": np.asfortranarray(c.super), "adjoint": dual, "adjoint C": np.ascontiguousarray(dual)}


def unital_gap_bound(s):
    """4·d·u·(m + 1), m the largest Σ_k |S[k(d+1), j]|: twice the rounding of a d-term sum of
    each entry of C*(I) in any order, with room for the subtraction of I and the modulus."""
    d = int(round(np.sqrt(s.shape[-1])))
    m = np.abs(s[..., :: d + 1, :]).sum(axis=-2).max(axis=-1)
    return 4 * d * (np.finfo(float).eps / 2) * (m + 1.0)


@pytest.mark.parametrize(
    "kind, d, layout",
    rows(*[(kind, d, layout) for d in (1, 2, 3, 5, 8, 16, 17, 32) for kind in KINDS for layout in ("C", "F", "adjoint", "adjoint C")]),
)
def test_unital_gaps(kind, d, layout):
    tol = DEFAULT_TOL.residual_tol
    s = built(unital_layouts, kind, d)[layout]
    got, want = float(qwp_programs._unital_gaps(s)), float(unital_gaps_oracle(s))
    assert abs(got - want) <= unital_gap_bound(s)
    assert (got <= tol) == (want <= tol) == is_trace_preserving(from_super(s))
    # the program itself is trace preserving, in either layout: a gap to set near the tolerance
    assert want <= tol / 1000 or layout.startswith("adjoint")
    if want <= tol / 1000:
        for k in (0.5, 2.0):
            t = np.array(s, order="K")  # the same layout
            t[0, 0] += k * tol  # moves C*(I)[0, 0] by k·residual_tol
            gap = float(qwp_programs._unital_gaps(t))
            assert gap == pytest.approx(k * tol, rel=1e-3)
            assert (gap <= tol) == (float(unital_gaps_oracle(t)) <= tol) == (k < 1)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 17])
def test_unital_gaps_of_a_stack_have_the_bits_of_its_members(d):
    gaps = qwp_programs._unital_gaps
    members = [s for kind in KINDS for s in built(unital_layouts, kind, d).values()]
    singles = np.array([gaps(s) for s in members])
    stack = np.stack(members)
    dual = np.stack([s.conj() for s in members]).swapaxes(-1, -2)  # stored by columns, as adjoint does
    for layout in (stack, np.asfortranarray(stack)):
        assert np.array_equal(gaps(layout), singles)
    assert np.array_equal(gaps(dual), [gaps(s.conj().T) for s in members])


@pytest.mark.parametrize("d, count", [(32, 1), (6, 3)])
def test_unital_gaps_read_only_the_rows_k_d_plus_1(d, count):
    # one trace-preserving superoperator at d = 32, and a stack of three at d = 6
    rng = np.random.default_rng([d, 43])
    s = np.array([sample_program(kind, d, rng).super for kind in KINDS[:count]])
    s = s[0] if count == 1 else s
    want = qwp_programs._unital_gaps(s)
    poisoned = np.full_like(s, np.nan)
    poisoned[..., :: d + 1, :] = s[..., :: d + 1, :]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = qwp_programs._unital_gaps(poisoned)
    assert np.isfinite(want).all() and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# The pull-back: wp, the duality sweep, is_precondition and weakest_check against the
# per-atom adjoint action, the per-state traces and the per-state supremum audit
# ---------------------------------------------------------------------------


def problem(kind, dim, seed):
    rng = np.random.default_rng([seed, dim])
    return sample_program(kind, dim, rng), random_predicate(rng, dim)


def wp_problem(kind, d, n_atoms):
    """The program of a kind and a predicate of n_atoms at d, shared by the rows of every atom count and layout."""
    return built(sample_program, kind, d, (d, 73)), random_predicate(np.random.default_rng([d, n_atoms, 73]), d, n_atoms)


WP_LAYOUTS = {
    "C": lambda c: c,
    "F": lambda c: from_super(np.asfortranarray(c.super)),
    "adjoint of adjoint": lambda c: adjoint(adjoint(c)),
}


def block_rows(dim, per_row=1):
    """The rows a block of d×d matrices holds under qwp's current STACK_BYTES, per_row matrices a row."""
    return max(1, qwp_linalg.STACK_BYTES // (16 * per_row * dim * dim))


def record(monkeypatch, module, name):
    """Patch module.name with a wrapper that records, at each call, the shape of its first argument
    (() if that has none); returns the list."""
    calls = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(getattr(args[0], "shape", ()) if args else ())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


@pytest.mark.parametrize(
    "kind, d, n_atoms, layout",
    rows(
        *[(kind, d, n, "C") for d in DIMS + (17, 32) for kind in KINDS for n in (1, 2, 3, 4, 5)],
        *[(kind, d, 3, layout) for d in (2, 3, 8, 32) for kind in KINDS for layout in ("F", "adjoint of adjoint")],
    ),
)
def test_wp(kind, d, n_atoms, layout):
    c, f = wp_problem(kind, d, n_atoms)
    prog = WP_LAYOUTS[layout](c)
    assert layout != "F" or (prog.super.flags.f_contiguous and not c.super.flags.f_contiguous)
    got = wp(prog, f)
    assert got.space == f.space
    for a, want in zip(f.space.atoms, wp_effects_oracle(prog, f)):
        assert_same_bits(got.effect(a), want)


def test_wp_of_an_overflowing_output_raises_as_the_per_atom_form():
    # column 1 of the superoperator cancels on the identity, so the
    # program is unital in the dual and passes the trace-preservation test
    s = np.eye(4)
    s[:, 1] = [1.7e308, 1.7e308, 1.7e308, -1.7e308]
    c = from_super(s)
    half = np.full((2, 2), 0.5)
    f = Predicate(OutcomeSpace(("a", "b")), [half, np.eye(2) - half])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            Predicate(f.space, wp_effects_oracle(c, f))
        with pytest.raises(ValueError, match="finite"):
            wp(c, f)


@pytest.mark.parametrize("kind, d", rows(*[(kind, d) for d in (2, 5, 16, 17, 32) for kind in KINDS]))
def test_duality_residual_sweep(kind, d):
    c, f = wp_problem(kind, d, 3)
    assert duality_residual_sweep(c, f, seed=6) == duality_residual_sweep_oracle(c, f, seed=6)


def test_duality_residual_sweep_in_blocks_of_7(monkeypatch):
    c, f = problem("transpose_mix", 4, 43)
    want = duality_residual_sweep_oracle(c, f, seed=3)
    monkeypatch.setattr(qwp_linalg, "STACK_BYTES", 7 * 4 * 4 * 16)
    assert duality_residual_sweep(c, f, seed=3) == want


def test_duality_residual_sweep_of_16_atoms_stays_under_a_quarter_of_the_cap(monkeypatch):
    # 16 atoms at d = 16: a block sized for one d×d matrix a state would make (100, 16, d, d)
    # products of 1.5 times the cap; the (rows, k, d, d) products are what np.trace reads
    c, f = sample_program("cptp", 16, 47), projective_predicate(16)
    want = duality_residual_sweep_oracle(c, f, seed=8)
    cap = STACK_BYTES // 4
    monkeypatch.setattr(qwp_linalg, "STACK_BYTES", cap)
    shapes = record(monkeypatch, np, "trace")
    assert duality_residual_sweep(c, f, seed=8) == want
    sizes = [16 * int(np.prod(shape)) for shape in shapes if len(shape) == 4]
    assert len(sizes) > 1 and max(sizes) <= cap


@pytest.mark.parametrize("kind, d, n_atoms", rows(*[(kind, d, n) for d in (2, 5, 16) for kind in KINDS for n in (1, 3, 7)]))
def test_duality_residual(kind, d, n_atoms):
    rng = np.random.default_rng([d, n_atoms, 59])
    c = sample_program(kind, d, rng)
    f = random_predicate(rng, d, n_atoms)
    g = wp(c, f)
    for _ in range(20):
        rho = DensityState(random_density(rng, d))
        out = apply(c, rho)
        want = {
            a: float(abs(np.trace(g.effect(a) @ rho.matrix) - np.trace(f.effect(a) @ out.matrix))).hex()
            for a in f.space.atoms
        }
        assert {a: x.hex() for a, x in duality_residual(c, f, rho).items()} == want


def assert_precondition_matches_the_loop(g, c, f):
    """is_precondition(g, c, f) against the margin of each atom and the first atom of least margin with its
    lowest eigenvector; returns the report."""
    report = is_precondition(g, c, f)
    transformed = wp(c, f)
    margins, worst = {}, (np.inf, None, None)
    for a in f.space.atoms:
        vals, vecs = hermitian_eig(transformed.effect(a) - g.effect(a))
        margins[a] = float(vals[0])
        if vals[0] < worst[0]:
            worst = (float(vals[0]), a, vecs[:, 0])
    assert [(a, m.hex()) for a, m in report.margins.items()] == [(a, m.hex()) for a, m in margins.items()]
    assert report.holds == predicate_leq(g, transformed)
    if not report.holds:
        assert report.witness.atom == worst[1]
        assert_same_bits(report.witness.state.matrix, DensityState.pure(worst[2]).matrix)
    return report


# the stacked eigensolve of the margins at the dims of one BLAS call and of several
@pytest.mark.parametrize("kind, d", rows(*[(kind, d) for d in (2, 3, 8) for kind in KINDS], ("cptp", 16), ("cptp", 32)))
def test_is_precondition(kind, d):
    c, f = problem(kind, d, 71)
    # a random candidate, which fails in every case here, and one scaled below wp, which holds
    assert_precondition_matches_the_loop(random_predicate(np.random.default_rng([73, d]), d, len(f.space.atoms)), c, f)
    assert assert_precondition_matches_the_loop(Predicate(f.space, 0.5 * wp(c, f).effects), c, f).holds


def test_is_precondition_at_a_tie():
    f = projective_predicate(3)
    report = assert_precondition_matches_the_loop(Predicate(f.space, 1.25 * f.effects), from_super(np.eye(9)), f)
    assert set(report.margins.values()) == {-0.25} and report.witness.atom == "0"


def drawn_identity(rng, dim):
    """The identity, after the draws of one random effect."""
    random_effect_oracle(rng, dim)
    return np.eye(dim)


def oversized(rng, dim):
    return 1.3 * random_effect_oracle(rng, dim)


def assert_weakest_check_matches_the_loop(c, f, trials, seed, effect=random_effect_oracle):
    """weakest_check's report against the per-state loop's, whose ``effect`` draws one W; returns the report."""
    tol = ToleranceConfig(sample_count=trials)
    report = weakest_check(c, f, tol, seed=seed)
    assert_same_report(report, weakest_check_oracle(c, f, tol, seed=seed, effect=effect))
    return report


@pytest.mark.parametrize("kind", KINDS)
def test_weakest_check(kind):
    assert_weakest_check_matches_the_loop(*problem(kind, 3, 23), 40, 4)


# d² = 1 and 4 in the reshapes of the trace products, one atom and four; at d = 8 the four
# effects of a trial are drawn in one call
@pytest.mark.parametrize("kind, d, n_atoms", rows(*[(kind, d, n) for d in (1, 2) for kind in KINDS for n in (1, 4)], ("cptp", 8, 4)))
def test_weakest_check_of_each_atom_count(kind, d, n_atoms):
    rng = np.random.default_rng([d, n_atoms, 61])
    assert_weakest_check_matches_the_loop(sample_program(kind, d, rng), random_predicate(rng, d, n_atoms), 40, 5)


@pytest.mark.parametrize("kind", KINDS)
def test_weakest_check_of_oversized_candidates(kind, monkeypatch):
    monkeypatch.setattr(qwp_wp, "_haar_spectral", lambda z, w: 1.3 * qwp_linalg._haar_spectral(z, w))
    report = assert_weakest_check_matches_the_loop(*problem(kind, 2, 31), 60, 2, oversized)
    # both failure branches are reached, and so is success
    assert 0 < report.confirmed_preconditions < report.trials
    assert 0 < report.dominated < report.trials
    assert report.min_margin < 0


@pytest.mark.parametrize("kind", KINDS)
def test_weakest_check_of_candidates_at_wp_itself(kind, monkeypatch):
    # every candidate is wp(c, f) itself, up to rounding; W's draws are still made, so the
    # states replay the same stream
    monkeypatch.setattr(qwp_wp, "_haar_spectral", lambda z, w: np.broadcast_to(np.eye(z.shape[-1]), w.shape + w.shape[-1:]))
    report = assert_weakest_check_matches_the_loop(*problem(kind, 3, 47), 5, 3, drawn_identity)
    assert report.confirmed_preconditions == report.dominated == 5


def test_weakest_check_over_two_blocks():
    assert_weakest_check_matches_the_loop(*problem("transpose_mix", 16, 29), block_rows(16, 50) + 5, 8)


def test_weakest_check_stacks_stay_under_the_cap(monkeypatch):
    # the (trials·states, d, d) states, whose trace np.trace takes: as many bytes as the normals they come from
    dim = 16
    tol = ToleranceConfig(sample_count=block_rows(dim, 50) + 1)
    c, f = problem("cptp", dim, 37)
    shapes = record(monkeypatch, np, "trace")
    weakest_check(c, f, tol, seed=1)
    assert len(shapes) == 2
    assert max(16 * int(np.prod(shape)) for shape in shapes) <= STACK_BYTES


def test_weakest_check_traces_of_many_atoms_stay_under_the_cap(monkeypatch):
    # 8 atoms at d = 2: a trial's (states, atoms) traces are twice its states
    rng = np.random.default_rng(67)
    c = sample_program("transpose_mix", 2, rng)
    f = random_predicate(rng, 2, 8)
    tol = ToleranceConfig(sample_count=30)
    want = weakest_check_oracle(c, f, tol, seed=2)
    monkeypatch.setattr(qwp_linalg, "STACK_BYTES", 10 * 50 * 8 * 16)
    shapes = record(monkeypatch, np, "trace")
    assert_same_report(weakest_check(c, f, tol, seed=2), want)
    # ten trials a block, so their complex traces fill the cap and no more
    assert [shape[0] for shape in shapes] == [10 * 50] * 3


# ---------------------------------------------------------------------------
# The PSD stack: the state rule, the predicate rule and the stack primitive decide with the
# band kernel, and every flag, message and λ_min they report is the eigensolve's
# ---------------------------------------------------------------------------


def solves(monkeypatch, fn, *args):
    """fn(*args) and the number of eigvalsh calls it made, with eigvalsh restored after."""
    calls = record(monkeypatch, np.linalg, "eigvalsh")
    got = fn(*args)
    monkeypatch.undo()
    return got, len(calls)


def refusal(fn, *args, **kwargs):
    """The message of the ValidationError fn raises on args, or None."""
    try:
        fn(*args, **kwargs)
    except ValidationError as exc:
        return str(exc)
    return None


def effect_flags_oracle(effects, total, tol):
    """The predicate rule as one eigvalsh of the effects and -total, with no Cholesky route."""
    stack = np.concatenate([effects, -total[..., None, :, :]], axis=-3)
    lows = eigvalsh_oracle(stack).min(axis=-1)
    not_psd, not_hermitian = lows[..., :-1] < -tol.eig_tol, hermiticity_gaps_oracle(effects) > tol.residual_tol
    return not_psd, not_hermitian, -lows[..., -1] > 1.0 + tol.eig_tol, lows


def state_flags_oracle(ms, tol, eig_slack):
    """The state rule as one eigvalsh of the stack, with no Cholesky route."""
    traces, lows = np.trace(ms, axis1=-2, axis2=-1), eigvalsh_oracle(ms).min(axis=-1)
    flags = (
        hermiticity_gaps_oracle(ms) > tol.residual_tol,
        np.hypot(traces.real - 1.0, traces.imag) > tol.residual_tol,
        lows < -eig_slack * tol.eig_tol,
    )
    return flags, traces, lows


def state_refusal_oracle(m, tol, eig_slack):
    """The message DensityState refuses m with, from the oracle's flags, or None."""
    (not_hermitian, off_trace, not_psd), tr, lo = state_flags_oracle(m, tol, eig_slack)
    if not_hermitian:
        return "state is not hermitian"
    if off_trace:
        return f"state trace is {tr.real:.12g}, expected 1"
    if not_psd:
        return f"state is not PSD (min eigenvalue {lo:.3e})"
    return None


def total_oracle(effects):
    """The total of each predicate of a stack (..., k, d, d), by Python's sum in atom order."""
    return sum(effects[..., i, :, :] for i in range(effects.shape[-3]))


def assert_effect_rule(effects, tol):
    """_effect_flags against its oracle on a stack (..., k, d, d); True when the band kernel decided it."""
    total = total_oracle(effects)
    *got, lows = qwp_predicates._effect_flags(effects, total, tol)
    *want, want_lows = effect_flags_oracle(effects, total, tol)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    if lows is None:
        assert not want[0].any() and not want[2].any()
        return True
    assert_same_bits(lows, want_lows)
    return False


def assert_state_rule(ms, tol, eig_slack):
    """_state_flags against its oracle on a stack (..., d, d); True when the band kernel decided it."""
    got, traces, lows = qwp_programs._state_flags(ms, tol, eig_slack)
    want, want_traces, want_lows = state_flags_oracle(ms, tol, eig_slack)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert_same_bits(traces, want_traces)
    if lows is None:
        assert not want[2].any()
        return True
    assert_same_bits(lows, want_lows)
    return False


def with_lowest(a, target):
    """a shifted by multiples of I so that its lowest eigenvalue, as eigvalsh reads it, is target: to 0
    first, so that a 1×1 matrix becomes [target] exactly."""
    eye = np.eye(a.shape[-1])
    return (a - float(np.linalg.eigvalsh(a).min()) * eye) + target * eye


def spectral_state(rng, dim, low):
    """A unit-trace hermitian matrix in a Haar eigenbasis whose lowest eigenvalue is low (at d = 1, the matrix [low])."""
    w = rng.uniform(0.1, 1.0, size=dim)
    w[0] = 0.0
    w *= (1.0 - low) / max(w.sum(), 1.0)
    w[0] = low
    u = random_isometry_oracle(rng, dim, dim)
    return (u * w) @ u.conj().T


def rule_predicates(dim, tol):
    """Effect stacks (k, d, d) that straddle each threshold of the predicate rule, by name; those
    named "clean:…" lie off every threshold by more than the band, where no eigensolve is needed."""
    rng = np.random.default_rng([dim, 211])
    e = tol.eig_tol
    sub = random_predicate(rng, dim, 3).effects
    complete = random_predicate(rng, dim, 3, complete=True).effects
    cases = {"clean:projective": projective_predicate(dim).effects, "clean:complete": complete, "clean:sub": sub}
    for side, name in ((1.0, "below"), (-1.0, "above")):
        low = sub.copy()
        low[0] = with_lowest(low[0], -e * (1.0 + side * 1e-3))
        cases[f"effect_{name}"] = low
        cases[f"total_{name}"] = complete * (1.0 + e * (1.0 + side * 1e-3))
    effect = with_lowest(sub[1], -e)
    # a single atom's total is the atom itself, with no rounding
    top = -with_lowest(-random_effect_oracle(rng, dim), -(1.0 + e))
    for k in (0.5, 2.0):
        for side in (1.0, -1.0):
            clean = "clean:" if k > 1 and side > 0 else ""
            edge = sub.copy()
            edge[1] = with_lowest(sub[1], -e + side * k * psd_band(effect, tol))
            cases[f"{clean}effect_band_{k}_{side}"] = edge
            cases[f"{clean}total_band_{k}_{side}"] = (top - side * k * psd_band(-top, tol, 1.0 + e) * np.eye(dim))[None]
    return cases


def rule_states(dim, tol):
    """Matrices that straddle each threshold -t, t = eig_slack·eig_tol, of the state rule for both
    slacks, by name; those named "clean:…" lie above -eig_tol by more than the band."""
    rng = np.random.default_rng([dim, 223])
    e = tol.eig_tol
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    cases = {
        "clean:pure": np.outer(psi, psi.conj()),
        "clean:mixed": random_density(rng, dim),
        "clean:maximally_mixed": np.eye(dim) / dim,
        "apply_output": spectral_state(rng, dim, -5.0 * e),
    }
    for slack in (1.0, APPLY_EIG_SLACK):
        t = slack * e
        for side, name in ((1.0, "below"), (-1.0, "above")):
            cases[f"{slack}_{name}"] = spectral_state(rng, dim, -t * (1.0 + side * 1e-3))
        delta = psd_band(spectral_state(rng, dim, -t), tol, t)
        for k in (0.5, 2.0):
            for side in (1.0, -1.0):
                clean = "clean:" if k > 1 and side > 0 and slack == 1.0 else ""
                cases[f"{clean}{slack}_band_{k}_{side}"] = spectral_state(rng, dim, -t + side * k * delta)
    return {name: m.astype(np.complex128) for name, m in cases.items()}


def broken_predicate(kind, dim, n_atoms, rng):
    """A random predicate, valid or with the named faults put in."""
    p = random_predicate(rng, dim, n_atoms, complete=kind in ("complete", "above_identity", "all"))
    effects = [np.array(p.effect(a)) for a in p.space.atoms]
    if kind in ("non_psd", "all"):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        effects[0] = effects[0] - 1.2 * np.outer(v, v.conj())
    if kind in ("non_hermitian", "all"):
        effects[-1] = effects[-1] + 1e-6 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    if kind in ("above_identity", "all"):
        effects = [1.5 * e for e in effects]
    return Predicate(p.space, effects)


def psd_stack_flags(a, tol):
    """Whether each matrix of a stack (k, n, n) is hermitian within residual_tol with λ_min ≥ -eig_tol, by _psd_stack."""
    gaps, below, _ = qwp_linalg._psd_stack(a, tol.eig_tol)
    return (gaps <= tol.residual_tol) & ~below


def at_band_offset(a, k, tol):
    """a shifted so that its lowest eigenvalue is -eig_tol + k·δ, δ the band of the shifted matrix."""
    n = a.shape[0]
    base = a - (float(np.linalg.eigvalsh(a).min()) + tol.eig_tol) * np.eye(n)
    return base + k * psd_band(base, tol) * np.eye(n)


def psd_kernel_stack(rng, n, tol):
    """PSD, non-PSD and non-hermitian n×n matrices, and matrices at ±kδ of the band edge."""
    mats = []
    for _ in range(3):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = g @ g.conj().T / n
        mats += [h, h - 2.0 * np.eye(n)]
        skewed = h.copy()
        skewed[0, -1] += 1e-6
        mats.append(skewed)
        mats += [at_band_offset(h, k, tol) for k in (-4.0, -2.0, -0.5, 0.5, 2.0, 4.0)]
    return np.array(mats)


RULE_DIMS = (1, 2, 3, 8, 17, 32)


@pytest.mark.parametrize("d", RULE_DIMS)
def test_predicate_rule(d):
    tol = DEFAULT_TOL
    cases = rule_predicates(d, tol)
    invalid = []
    for name, effects in cases.items():
        decided = assert_effect_rule(effects, tol)
        assert decided or not name.startswith("clean:"), name
        p = labelled(effects)
        report = validate_predicate(p, tol)
        assert report == validate_predicate_oracle(p, tol), name
        want = None if report.ok else "invalid predicate: " + "; ".join(report.violations)
        assert refusal(wp, identity_program(d), p, tol) == want, name
        if not report.ok:
            invalid.append(name)
    # the straddles land on the sides they are built for
    assert invalid == [
        "effect_below", "total_below", "effect_band_0.5_-1.0", "total_band_0.5_-1.0",
        "effect_band_2.0_-1.0", "total_band_2.0_-1.0",
    ]
    # the stacked mask of the campaigns, on the cases of three atoms
    three = np.array([x for x in cases.values() if len(x) == 3])
    assert assert_effect_rule(three, tol) is False
    not_psd, not_hermitian, over, _ = effect_flags_oracle(three, total_oracle(three), tol)
    want = (not_psd | not_hermitian).any(axis=-1) | over
    assert qwp_predicates._predicate_faults(three, tol).tolist() == want.tolist()


@pytest.mark.parametrize("d", RULE_DIMS)
def test_state_rule(d):
    tol = DEFAULT_TOL
    cases = rule_states(d, tol)
    for slack in (1.0, APPLY_EIG_SLACK):
        for name, m in cases.items():
            decided = assert_state_rule(m, tol, slack)
            assert decided or not name.startswith("clean:"), (name, slack)
            got = refusal(DensityState, m, tol, eig_slack=slack)
            assert got == state_refusal_oracle(m, tol, slack), (name, slack)
        stack = np.array(list(cases.values()))
        assert_state_rule(stack, tol, slack)
        want = np.any(state_flags_oracle(stack, tol, slack)[0], axis=0)
        assert qwp_programs._invalid_states(stack, tol, slack).tolist() == want.tolist()
    # an apply output at λ_min = -5·eig_tol is a state under apply's slack, decided with no eigensolve
    assert assert_state_rule(cases["apply_output"], tol, APPLY_EIG_SLACK)
    assert not assert_state_rule(cases["apply_output"], tol, 1.0)


FAULTS = ("valid", "complete", "non_psd", "non_hermitian", "above_identity", "all")


@pytest.mark.parametrize("fault, d, n_atoms", rows(*[(fault, d, n) for d in DIMS for n in (1, 2, 3, 4, 5) for fault in FAULTS]))
def test_validate_predicate(fault, d, n_atoms):
    p = broken_predicate(fault, d, n_atoms, np.random.default_rng([d, n_atoms, 71]))
    report = validate_predicate(p)
    assert report == validate_predicate_oracle(p)
    assert report.ok == (fault in ("valid", "complete"))
    if fault == "all":
        # faults in atom order, the total's last; at d = 1 the PSD fault of a0 pulls the total below the identity
        assert report.violations[0].startswith("effect 'a0' is not PSD")
        assert f"effect 'a{n_atoms - 1}' is not hermitian" in report.violations
        assert ("exceeds the identity" in report.violations[-1]) == (d > 1)


def test_validate_predicate_reads_loose_tolerances_as_the_loop():
    p = broken_predicate("all", 3, 3, np.random.default_rng(72))
    tol = ToleranceConfig(eig_tol=1e-3, residual_tol=1e-3)
    assert validate_predicate(p, tol) == validate_predicate_oracle(p, tol)


def test_validate_predicate_of_an_overflowing_total_raises_as_the_loop():
    big = np.diag([1e308, 1.0])
    p = Predicate(OutcomeSpace(("a", "b")), [big, big])
    for check in (validate_predicate, validate_predicate_oracle):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
            check(p)


@pytest.mark.parametrize("n, eig_tol", rows(*[(n, eig_tol) for n in (1, 2, 5, 16) for eig_tol in (1e-9, 0.0)]))
def test_psd_stack(n, eig_tol, monkeypatch):
    tol = ToleranceConfig(eig_tol=eig_tol)
    stack = psd_kernel_stack(np.random.default_rng([n, 131]), n, tol)
    # the whole stack, and alone its two matrices at ±δ/2 of the band edge: each holds matrices
    # inside the band, and at eig_tol = 0 there is no band
    for part in (stack, stack[5:7]):
        got, calls = solves(monkeypatch, psd_stack_flags, part, tol)
        assert calls == 1
        assert got.tolist() == [is_psd_oracle(m, tol) for m in part]
        assert got.tolist() == [is_psd(m, tol) for m in part]


@pytest.mark.parametrize("n", [2, 5, 16])
def test_psd_stack_above_the_band_takes_no_eigensolve(n, monkeypatch):
    tol = DEFAULT_TOL
    stack = [at_band_offset(m, k, tol) for m in psd_kernel_stack(np.random.default_rng([n, 137]), n, tol)[::9] for k in (1.5, 3.0)]
    got, calls = solves(monkeypatch, psd_stack_flags, np.array(stack), tol)
    assert calls == 0
    assert got.tolist() == [is_psd_oracle(m, tol) for m in stack] == [True] * len(stack)


def test_psd_stack_with_a_band_that_overflows_takes_the_eigensolve(monkeypatch):
    n, tol = 5, DEFAULT_TOL
    above = [at_band_offset(m, 3.0, tol) for m in psd_kernel_stack(np.random.default_rng([n, 149]), n, tol)[::9]]
    huge = np.full(n, 8.5e307)
    broken = huge.copy()
    broken[n // 2] = -1.0
    got, calls = solves(monkeypatch, psd_stack_flags, np.array(above), tol)
    assert got.all() and calls == 0
    stack = np.array(above + [np.diag(huge), np.diag(broken)])
    assert (psd_band(stack, tol) == np.inf).tolist() == [False] * len(above) + [True, True]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got, calls = solves(monkeypatch, psd_stack_flags, stack, tol)
    assert calls == 1
    assert got.tolist() == [is_psd_oracle(m, tol) for m in stack] == [True] * (len(above) + 1) + [False]


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_psd_stack_at_a_threshold_per_matrix(n, monkeypatch):
    stack = psd_kernel_stack(np.random.default_rng([n, 181]), n, DEFAULT_TOL)
    # thresholds from 0 to 2·eig_tol, so the band edges of the stack fall on either side of them
    thresholds = DEFAULT_TOL.eig_tol * np.linspace(0.0, 2.0, len(stack))
    (gaps, below, lows), calls = solves(monkeypatch, qwp_linalg._psd_stack, stack, thresholds)
    assert calls == 1
    assert_same_bits(gaps, hermiticity_gaps_oracle(stack))
    want = eigvalsh_oracle(stack).min(axis=-1)
    assert_same_bits(lows, want)
    assert below.tolist() == (want < -thresholds).tolist()
    assert below.any() and not below.all()


def test_psd_stack_refuses_a_gap_of_one_and_a_half_residual_tol():
    # the gap is |a - aᴴ|, read before the hermitian part overwrites aᴴ, not |a - h| = |a - aᴴ|/2
    tol = DEFAULT_TOL
    a = np.array([np.eye(3) / 3] * 2, dtype=np.complex128)
    a[1, 0, 2] += 1.5 * tol.residual_tol
    gaps, below, _ = qwp_linalg._psd_stack(a, tol.eig_tol)
    assert (gaps > tol.residual_tol).tolist() == [False, True] and not below.any()
    assert refusal(DensityState, a[1], tol) == "state is not hermitian"
    assert psd_stack_flags(a, tol).tolist() == [is_psd_oracle(m, tol) for m in a] == [True, False]


def test_a_valid_predicate_and_state_take_no_eigensolve(monkeypatch):
    c = sample_program("cptp", 8, 5)
    f = random_predicate(np.random.default_rng(227), 8)
    rho = spectral_state(np.random.default_rng(229), 8, -5.0 * DEFAULT_TOL.eig_tol)
    calls = record(monkeypatch, np.linalg, "eigvalsh")
    g = wp(c, f)
    out = apply(c, DensityState(rho, eig_slack=APPLY_EIG_SLACK))
    assert calls == []
    # a refusal names the eigensolve's λ_min
    with pytest.raises(ValidationError, match=r"^state is not PSD \(min eigenvalue -5\.000e-09\)$"):
        DensityState(rho)
    bad = Predicate(g.space, 1.5 * g.effects)
    with pytest.raises(ValidationError, match="total effect exceeds the identity"):
        wp(c, bad)
    assert len(calls) == 2
    assert out.dim == 8


def test_an_overflowing_gap_is_not_hermitian():
    a = np.array([[0.0, 1.7e308], [-1.7e308, 0.0]], dtype=np.complex128)
    s = np.eye(4, dtype=np.complex128)
    s[:, 0] = vec(np.array([[1.0, 1.7e308], [-1.7e308, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_hermitian(a) is False
        assert validate_predicate(labelled([a])).violations == ("effect 'a0' is not hermitian",)
        assert qwp_predicates._predicate_faults(a[None, None], DEFAULT_TOL).tolist() == [True]
        with pytest.raises(ValidationError, match="state is not hermitian"):
            DensityState(a)
        assert qwp_programs._invalid_states(a[None], DEFAULT_TOL).tolist() == [True]
        got = is_positive_sampled(from_super(s), ToleranceConfig(sample_count=5))
        assert (got.status, got.samples) == ("counterexample", 1)


# ---------------------------------------------------------------------------
# The single PSD matrix: is_psd and is_completely_positive decide with Cholesky at
# eig_tol ∓ δ, the leading probes, the gap read in place and the low-rank certificate, and
# must give the eigensolve's verdict
# ---------------------------------------------------------------------------


def probes(n):
    """The Cholesky shapes of the leading n/16 and n/4 probes of an n×n matrix."""
    return [(1, m, m) for m in (n // 16, n // 4) if m]


@pytest.mark.parametrize(
    "kind, d, seeds",
    rows(*[(kind, d, 3) for d in (2, 3, 8, 16) for kind in KINDS], *[(kind, d, 2) for d in (17, 24) for kind in KINDS]),
)
def test_cp_verdicts(kind, d, seeds):
    for seed in range(seeds):
        c = built(sample_program, kind, d, seed)
        assert is_completely_positive(c) is is_psd(to_choi(c)) is is_psd_oracle(to_choi(c))


# (family, builder of (base, direction)): the row's matrix is base + side·k·δ·direction, δ the band of base,
# so that λ_min = -eig_tol + side·k·δ; only inside the band, k < 1, is the eigensolve needed
def band_edge_shift(kind, dim):
    def build():
        j = to_choi(sample_program(kind, dim, 17))
        return j - (float(np.linalg.eigvalsh(j).min()) + DEFAULT_TOL.eig_tol) * np.eye(dim * dim), np.eye(dim * dim)
    return build


def band_edge_eig_tol_term():
    # one entry near -eig_tol and zeros: μ ≈ 2·eig_tol + 2n·eig_tol, mostly its last term
    a = np.zeros((16, 16), dtype=np.complex128)
    a[0, 0] = -DEFAULT_TOL.eig_tol
    return a, np.diag(np.eye(16)[0])


def band_edge_leading_rows():
    # a defect in the leading n/16 rows, which the first probe reads
    n, m = 256, 16
    rng = np.random.default_rng(223)
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    a = np.eye(n, dtype=np.complex128)
    a[:m, :m] = g @ g.conj().T / m
    a[:m, :m] -= (float(np.linalg.eigvalsh(a[:m, :m]).min()) + DEFAULT_TOL.eig_tol) * np.eye(m)
    return a, np.diag((np.arange(n) < m).astype(float))


def band_edge_low_rank(dim):
    def build():
        # v lies in the trailing zero rows of j, away from every pivot, so the Schur complement left by the pivots
        # is the shift alone, and ‖h - L̂L̂ᴴ‖_F ≈ eig_tol - side·k·δ
        j = to_choi(low_rank_program(dim, 4, 193, rows=dim - 1))
        v = np.zeros(dim * dim, dtype=np.complex128)
        v[-dim:] = random_unitary(np.random.default_rng(dim), dim)[0]
        return j - DEFAULT_TOL.eig_tol * np.outer(v, v.conj()), np.outer(v, v.conj())
    return build


def band_edge_full_rank():
    # 150-row blocks; a full-rank matrix, which the certificate leaves to the full factorizations
    n = 300
    g = np.random.default_rng(181).standard_normal((2, n, n))
    a = (g[0] + 1j * g[1]) @ (g[0] - 1j * g[1]).T / n
    return a - (float(np.linalg.eigvalsh(a).min()) + DEFAULT_TOL.eig_tol) * np.eye(n), np.eye(n)


BAND_EDGES = {
    "cptp choi 8": band_edge_shift("cptp", 8),
    "transpose choi 4": band_edge_shift("transpose", 4),
    "transpose_mix choi 6": band_edge_shift("transpose_mix", 6),
    "eig_tol term 16": band_edge_eig_tol_term,
    "leading rows 256": band_edge_leading_rows,
    "low rank 8": band_edge_low_rank(8),
    "low rank 17": band_edge_low_rank(17),
    "full rank 300": band_edge_full_rank,
}


@pytest.mark.parametrize(
    "family, k, side",
    rows(
        *[(family, k, side) for family in list(BAND_EDGES)[:3] + ["leading rows 256", "low rank 8", "low rank 17"]
          for k in (0.5, 2.0, 4.0) for side in (1.0, -1.0)],
        *[(family, k, side) for family in ("eig_tol term 16", "full rank 300") for k in (0.5, 2.0) for side in (1.0, -1.0)],
    ),
)
def test_is_psd_at_the_band_edges(family, k, side, monkeypatch):
    tol = DEFAULT_TOL
    base, direction = built(BAND_EDGES[family])
    delta = psd_band(base, tol)
    assert 0.0 < 4.0 * delta < tol.eig_tol or family in ("eig_tol term 16", "full rank 300")
    a = base + side * k * delta * direction
    n = len(a)
    before = a.copy()
    shapes = record(monkeypatch, np.linalg, "cholesky")
    got, calls = solves(monkeypatch, is_psd, a, tol)
    assert calls == (1 if k < 1 else 0)
    assert got == is_psd_oracle(a, tol) == (side > 0)
    if family == "leading rows 256" and side < 0 and k > 1:
        # refuted by the first probe
        assert shapes == [(1, n // 16, n // 16)]
    if family.startswith("low rank") and side > 0 and k > 1:
        # proved by the certificate, after the probes
        assert shapes == probes(n)
    # inside the band the eigensolve reads h in place, its diagonal restored
    assert_same_bits(a, before)


def test_cp_checks_at_dim_32(monkeypatch):
    for kind, want in [("cptp", True), ("transpose_mix", False)]:
        c = built(sample_program, kind, 32, 4)
        j = to_choi(c)
        assert is_psd_oracle(j) is want
        assert solves(monkeypatch, is_psd, j) == (want, 0)
        assert is_completely_positive(c) is want
    assert is_completely_positive(built(low_rank_program, 32, 40, 241)) is True


def skew_widened(n):
    """A skew-hermitian part within residual_tol widens δ, read off a, well past the band of h alone;
    λ_min = -eig_tol - 2·(h's own band) then lies inside the band, in the leading row."""
    tol = DEFAULT_TOL
    a = 1e-5 * np.eye(n) + 4e-4j * (np.ones((n, n)) - np.eye(n))
    a[0, 0] = -tol.eig_tol
    narrow = psd_band(qwp_linalg._hermitian_part(a), tol)
    assert psd_band(a, tol) > 4.0 * narrow
    a[0, 0] = -tol.eig_tol - 2.0 * narrow
    delta = psd_band(a, tol)
    for m, shift, passes in ((n // 4, tol.eig_tol + delta, True), (n, tol.eig_tol - delta, False)):
        try:
            np.linalg.cholesky(qwp_linalg._hermitian_part(a[:m, :m]) + shift * np.eye(m))
        except np.linalg.LinAlgError:
            assert not passes
        else:
            assert passes
    return a


def unit_diagonal_with(n, entries):
    a = np.eye(n, dtype=np.complex128)
    for (i, j), x in entries.items():
        a[i, j] = x
    return a


def near_the_float_limit(n, k):
    """A matrix whose μ overflows: ±1.7e308 ± 1.7e308i entries, and 8.5e307 on the diagonal, once with a -1."""
    z = np.sign(np.random.default_rng([227, n]).standard_normal((2, n, n)))
    diagonal = np.full(n, 8.5e307)
    diagonal[n // 8] = -1.0 if k == 2 else diagonal[n // 8]
    return 1.7e308 * (z[0] + 1j * z[1]) if k == 0 else np.diag(diagonal)


# family: (matrix builder of the row's argument, tolerances, eigvalsh calls or None, Cholesky shapes or None)
IS_PSD = {
    "nonpositive choi": (lambda eps: to_choi(nonpositive(3, eps)), DEFAULT_TOL, None, None),
    # at eig_tol = 0 there is no band
    "choi, zero eig_tol": (lambda kind: to_choi(sample_program(kind, 4, 23)), ToleranceConfig(eig_tol=0.0), 1, None),
    # a non-hermitian input is refused before any factorization but the probe of the leading n/4 square
    "skew": (lambda n: unit_diagonal_with(n, {(0, 1): 1e-3}), DEFAULT_TOL, 0, [(1, 1, 1)]),
    # a failure in the leading rows stops at the first probe
    "leading rows": (lambda n: unit_diagonal_with(n, {(1, 1): -1.0}), DEFAULT_TOL, 0, probes(64)[:1]),
    # one in the trailing rows is decided by the full factorization
    "trailing rows": (lambda n: unit_diagonal_with(n, {(n - 1, n - 1): -1e-6}), DEFAULT_TOL, 0, probes(64) + [(1, 64, 64)] * 2),
    # the leading probes pass, and one pivot step drains every Schur diagonal to zero, but the
    # trailing off-diagonal pair has eigenvalues ±1e-3
    "drained diagonal": (
        lambda n: unit_diagonal_with(n, {(i, i): 0.0 for i in range(1, n)} | {(n - 1, n - 2): 1e-3, (n - 2, n - 1): 1e-3}),
        DEFAULT_TOL, 0, None,
    ),
    # both probes and both full factorizations pass the matrix on to the eigensolve
    "skew within residual_tol": (skew_widened, ToleranceConfig(residual_tol=1e-3), 1, probes(64) + [(1, 64, 64)] * 2),
    # μ overflows, so δ ≥ eig_tol: no probe and no factorization at all
    **{f"float limit {k}": (partial(near_the_float_limit, k=k), DEFAULT_TOL, None, []) for k in range(3)},
}


@pytest.mark.parametrize(
    "family, arg",
    rows(
        *[("nonpositive choi", eps) for eps in (0.05, 1e-8)],
        *[("choi, zero eig_tol", kind) for kind in KINDS],
        ("skew", 4),
        *[(family, 64) for family in ("leading rows", "trailing rows", "drained diagonal", "skew within residual_tol")],
        *[(f"float limit {k}", n) for n in (64, 300) for k in range(3)],
    ),
)
def test_is_psd(family, arg, monkeypatch):
    build, tol, calls, shapes = IS_PSD[family]
    a = build(arg)
    recorded = record(monkeypatch, np.linalg, "cholesky")
    with warnings.catch_warnings(), np.errstate(**({"all": "raise"} if "float" in family else {})):
        warnings.simplefilter("error")
        got, solved = solves(monkeypatch, is_psd, a, tol)
    assert calls is None or solved == calls
    assert shapes is None or recorded == shapes
    assert got == is_psd_oracle(a, tol)
    assert got is False or family.startswith(("choi", "float"))


def test_the_fallback_eigensolve_raises_a_decomposition_error(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(DecompositionError, match="eigendecomposition failed"):
        is_psd(np.eye(3), ToleranceConfig(eig_tol=0.0))
    with pytest.raises(DecompositionError, match="eigendecomposition failed"):
        is_positive_sampled(nonpositive(3, 0.5), seed=1)


def test_no_factorization_error_escapes(monkeypatch):
    # LinAlgError is a ValueError, which the CLI would report as exit 2
    failures = []
    cholesky = np.linalg.cholesky

    def recording(a):
        try:
            return cholesky(a)
        except np.linalg.LinAlgError:
            failures.append(np.shape(a))
            raise

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    tol = ToleranceConfig(sample_count=50)
    for c in [sample_program(kind, 8, 7) for kind in KINDS] + [nonpositive(8, 0.05)]:
        is_positive_sampled(c, tol, seed=2)
    stack = psd_kernel_stack(np.random.default_rng(139), 16, DEFAULT_TOL)
    psd_stack_flags(stack, DEFAULT_TOL)
    for m in stack:
        is_psd(m)
    # leading blocks, full single matrices and whole stacks all failed somewhere
    assert (1, 16, 16) in failures
    assert any(shape[0] == 1 and shape[-1] < 16 for shape in failures)
    assert any(shape[0] > 1 for shape in failures)


def routed(monkeypatch, fn, *args):
    """fn(*args), the shapes that Cholesky factored and the calls to _write_hermitian_part, with the patches
    undone after; fn makes no eigensolve and no Choi copy."""
    shapes = record(monkeypatch, np.linalg, "cholesky")
    writes = record(monkeypatch, qwp_linalg, "_write_hermitian_part")
    copies = record(monkeypatch, qwp_programs, "to_choi")
    calls = record(monkeypatch, np.linalg, "eigvalsh")
    got = fn(*args)
    monkeypatch.undo()
    assert calls == [] and copies == []
    return got, shapes, writes


@pytest.mark.parametrize("d, rank", rows(*[(d, rank) for d in (8, 17, 24) for rank in ("1", "4", "d", "d+1")], (32, "4")))
def test_cp_check_of_a_low_rank_map(d, rank, monkeypatch):
    n, r = d * d, {"1": 1, "4": 4, "d": d, "d+1": d + 1}[rank]
    c = low_rank_program(d, r, 197 if d == 32 else 191)
    # isqrt(n) = d pivot steps drain a Choi matrix of rank at most d; one more rank takes the full factorization
    steps = probes(n) if r <= d else probes(n) + [(1, n, n)]
    assert routed(monkeypatch, is_completely_positive, c)[:2] == (True, steps)
    if d < 32:
        # the single-matrix route on J itself takes the same steps
        j = to_choi(c)
        assert routed(monkeypatch, is_psd, j)[:2] == (True, steps)
        assert is_psd_oracle(j) is True


@pytest.mark.parametrize("d", [8, 17, 32])
def test_cp_check_refuses_a_defect_below_the_corner_before_h_is_written(d, monkeypatch):
    # the Choi matrix I/d of rho -> Tr(rho) I/d, but for one entry of block (p, q), q < p, below the
    # n/4 corner; that entry sits on the block's diagonal, so the block is hermitian by itself
    n, p, q, i = d * d, d - 1, d // 2, 1
    j = np.eye(n, dtype=np.complex128) / d
    j[p * d + i, q * d + i] += 1e-6
    c = from_choi(j)
    got, _, writes = routed(monkeypatch, is_completely_positive, c)
    assert got is False and writes == []
    assert d == 32 or is_psd_oracle(to_choi(c)) is False


def test_cp_check_refuses_the_transpose_mixture_at_dim_32_before_h_is_written(monkeypatch):
    got, _, writes = routed(monkeypatch, is_completely_positive, built(sample_program, "transpose_mix", 32, 4))
    assert got is False and writes == []


@pytest.mark.parametrize("phi, d", [("choi map", 3), ("breuer-hall", 6), ("breuer-hall", 8)])
def test_cp_check_refutes_a_positive_map_after_the_certificate(phi, d, monkeypatch):
    # the probes pass and the certificate proves nothing: h's factorization at eig_tol + δ refutes it
    n = d * d
    c = positive_not_cp({"choi map": choi_map, "breuer-hall": breuer_hall}[phi], d, 269)
    assert routed(monkeypatch, is_completely_positive, c)[:2] == (False, probes(n) + [(1, n, n), (1, n, n)])
    assert is_psd_oracle(to_choi(c)) is False
    assert is_positive_sampled(c, ToleranceConfig(sample_count=50), seed=1).status == "no_counterexample"


# ---------------------------------------------------------------------------
# The single-matrix route's reads: the band, the corner, the gap and h's lower block triangle,
# read and written off the blocks of the input where it lies, with the bits of a full-size pass
# ---------------------------------------------------------------------------


def lower_triangle(a):
    """The entries on and below the diagonal of each matrix of a stack, flattened."""
    n = a.shape[-1]
    return a[..., np.tri(n, dtype=bool)]


def preamble_oracle(a):
    """Gap and hermitian part of a matrix, or of each of a stack, from one full-size pass."""
    ah = a.conj().swapaxes(-1, -2)
    return hermiticity_gaps_oracle(a), qwp_linalg._hermitian_part(a, ah.copy())


def assert_writer_bits(blocks, a, h=None):
    """The gap and written h of the matrix a that blocks lays out, against a full-size pass;
    h is a new array, or the array blocks views, which the writer overwrites."""
    want_gap, want_h = preamble_oracle(a)
    assert_same_bits(qwp_linalg._blocked_gap(blocks), want_gap)
    n, k = len(a), blocks.shape[1]
    fresh = h is None
    if fresh:
        h = np.full((n, n), np.nan, dtype=np.complex128)
    qwp_linalg._write_hermitian_part(blocks, h)
    # h's lower block triangle has the bits of the full-size pass; its strict upper block triangle is never written
    rows_of = np.arange(n) // k
    lower = rows_of[:, None] >= rows_of[None, :]
    assert_same_bits(h[lower], want_h[lower])
    if fresh:
        assert np.isnan(h[~lower]).all()


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16, 17, 24, 32, 33])
def test_choi_view_corner(d):
    # at d = 2, 3, 5, 17 and 33, n/4 is not a multiple of d, so the corner ends inside a block of d rows
    c, n = from_super(built(gaussian_super, d)), d * d
    for prog in (c, adjoint(c)):
        corner = qwp_linalg._leading_square(qwp_programs._choi_view(prog.super), n // 4)
        assert_same_bits(corner, to_choi(prog)[:n // 4, :n // 4])


@pytest.mark.parametrize("d", [1, 2, 3, 8, 17, 32])
def test_choi_view_gap(d):
    c = from_super(built(gaussian_super, d))
    for prog in (c, adjoint(c), built(sample_program, "transpose_mix", d, 5)):
        assert_same_bits(qwp_linalg._blocked_gap(qwp_programs._choi_view(prog.super)), preamble_oracle(to_choi(prog))[0])


@pytest.mark.parametrize("d, order", rows(*[(d, order) for d in (17, 24, 32) for order in "CF"]))
def test_choi_view_writer(d, order):
    # a map whose Choi matrix is hermitian up to rounding, and a Gaussian superoperator
    for prog in (built(sample_program, "transpose_mix", d, 5), from_super(built(gaussian_super, d))):
        blocks = qwp_programs._choi_view(np.asarray(prog.super, order=order))
        assert_writer_bits(blocks, np.array(blocks).reshape(d * d, d * d))


def square_blocks(n, order):
    """A Gaussian n×n matrix in the given order and its blocks: a view, in block rows that fit the cap;
    a prime n > 256 takes single rows."""
    rng = np.random.default_rng([n, 257])
    a = np.asarray(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), order=order)
    blocks = qwp_linalg._square_blocks(a)
    b, k = blocks.shape[:2]
    assert np.shares_memory(blocks, a) and b * k == n
    assert k * n * 16 <= qwp_linalg.ROW_BLOCK_BYTES
    assert k == {1: 1, 5: 5, 64: 64, 289: 17, 300: 150, 1021: 1, 257: 1, 1024: 64}[n]
    return a, blocks


@pytest.mark.parametrize("n, order", rows(*[(n, order) for n in (1, 5, 64, 289, 300, 1021) for order in "CF"]))
def test_square_blocks_gap(n, order):
    a, blocks = square_blocks(n, order)
    assert_same_bits(qwp_linalg._blocked_gap(blocks), preamble_oracle(a)[0])


@pytest.mark.parametrize("n", [300, 257, 1024])
def test_square_blocks_writer(n):
    a, blocks = square_blocks(n, "C")
    assert_writer_bits(blocks, a)


@pytest.mark.parametrize("n", [6, 300])
def test_writer_in_place_over_the_conversion_of_an_f_ordered_real_input(n):
    # is_psd writes h over its own conversion, which keeps the input's layout
    real = np.asfortranarray(np.random.default_rng([n, 159]).standard_normal((n, n)))
    a = np.array(real, dtype=np.complex128)
    assert a.flags.f_contiguous and not a.flags.c_contiguous
    assert_writer_bits(qwp_linalg._square_blocks(a), a.copy(), h=a)


@pytest.mark.parametrize("n", [6, 300])
def test_writer_signed_zeros(n):
    rng = np.random.default_rng([n, 167])
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a.real[rng.random((n, n)) < 0.4] = 0.0
    a.imag[rng.random((n, n)) < 0.4] = -0.0
    a.real[rng.random((n, n)) < 0.2] *= -1.0
    a.imag[rng.random((n, n)) < 0.2] *= -1.0
    assert_writer_bits(qwp_linalg._square_blocks(a), a)


def test_writer_near_the_float_limit():
    rng = np.random.default_rng(163)
    for n in (3, 300):
        z = np.sign(rng.standard_normal((2, n, n)))
        a = 1.7e308 * (z[0] + 1j * z[1])
        blocks = qwp_linalg._square_blocks(a)
        assert_writer_bits(blocks, a)
        # an overflowing gap reads inf, and h is written finite, without a warning
        h = np.empty_like(a)
        with np.errstate(all="raise"):
            gap = qwp_linalg._blocked_gap(blocks)
            qwp_linalg._write_hermitian_part(blocks, h)
        assert np.isfinite(lower_triangle(h)).all()
        assert gap == np.inf


def test_writer_gap_above_the_last_diagonal_block():
    a = to_choi(sample_program("cptp", 17, 8))
    blocks = qwp_linalg._square_blocks(a)
    assert qwp_linalg._blocked_gap(blocks) <= DEFAULT_TOL.residual_tol
    a[len(a) - blocks.shape[1], len(a) - 1] += 1e-6
    assert_writer_bits(blocks, a)
    assert qwp_linalg._blocked_gap(blocks) > DEFAULT_TOL.residual_tol
    assert is_psd(a) is False


@pytest.mark.parametrize("order", "CF")
def test_writer_on_a_stack_of_three(order):
    n, rng = 300, np.random.default_rng(179)
    g = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    psd = g @ g.conj().swapaxes(-1, -2) / n
    a = np.asarray([psd[0], psd[1], psd[2] - 2.0 * np.eye(n)], order=order)
    # the second matrix is non-hermitian only in its strict upper triangle
    a[1, 0, n - 1] += 1e-6
    for m in a:
        blocks = qwp_linalg._square_blocks(m)
        assert blocks.shape[1] == 150
        assert_writer_bits(blocks, m)
    assert psd_stack_flags(a, DEFAULT_TOL).tolist() == [is_psd_oracle(m) for m in a] == [True, False, False]


@pytest.mark.parametrize("n", [5, 64, 300])
def test_cholesky_reads_only_the_lower_triangle(n):
    rng = np.random.default_rng([n, 173])
    g = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    m = g @ g.conj().swapaxes(-1, -2) + np.eye(n)
    nan_above = m.copy()
    nan_above[:, ~np.tri(n, dtype=bool)] = np.nan
    assert_same_bits(np.linalg.cholesky(nan_above), np.linalg.cholesky(m))


@pytest.mark.parametrize("d", [3, 8, 17])
def test_pivot_columns_have_the_bits_of_the_written_lower_triangle(d):
    # signed zeros too, where the hermitian part's halving and division set the signs
    n, rng = d * d, np.random.default_rng([d, 263])
    s = np.array(built(gaussian_super, d))
    s.real[rng.random((n, n)) < 0.3] = 0.0
    s.imag[rng.random((n, n)) < 0.3] = -0.0
    s.real[rng.random((n, n)) < 0.2] *= -1.0
    c = from_super(s)
    column = np.empty(n, dtype=np.complex128)
    for blocks, a in ((qwp_programs._choi_view(c.super), to_choi(c)), (qwp_linalg._square_blocks(s), s)):
        h = np.empty_like(a)
        qwp_linalg._write_hermitian_part(blocks, h)
        for p in range(n):
            qwp_linalg._lower_column(blocks, p, column)
            assert_same_bits(column[:p], h[p, :p].conj())
            assert_same_bits(column[p:], h[p:, p])


@pytest.mark.parametrize("n, eig_tol", rows(*[(n, eig_tol) for n in (1, 5, 64) for eig_tol in (1e-9, 0.0)]))
def test_band_of_stacks(n, eig_tol):
    tol = ToleranceConfig(eig_tol=eig_tol)
    stack = psd_kernel_stack(np.random.default_rng([n, 229]), n, DEFAULT_TOL)
    # zero matrices, whose μ is the 2n·eig_tol term alone
    stack = np.concatenate([stack, np.zeros((2, n, n))])
    sq_norms = np.linalg.norm(stack, axis=(-2, -1)) ** 2
    got = qwp_linalg._band(n, np.diagonal(stack, axis1=-2, axis2=-1), sq_norms, tol.eig_tol)
    assert np.allclose(got, psd_band(stack, tol), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d", [2, 17, 32])
def test_band_of_a_superoperator_is_the_band_of_its_choi_matrix(d):
    # the diagonal and entries that is_completely_positive reads off the superoperator
    for c in (sample_program("transpose_mix", d, 5), low_rank_program(d, 4, 233)):
        s, n = c.super, d * d
        got = qwp_linalg._band(n, s[::d + 1, ::d + 1].reshape(-1), np.vdot(s, s).real, DEFAULT_TOL.eig_tol)
        assert got == pytest.approx(psd_band(to_choi(c), DEFAULT_TOL), rel=1e-12, abs=0.0)


def test_band_of_an_overflowing_mu_is_inf_without_a_warning():
    rng = np.random.default_rng(239)
    for n in (3, 300):
        z = np.sign(rng.standard_normal((2, n, n)))
        # ‖a‖_F overflows; then only the sum of the diagonal does
        for a in (1.7e308 * (z[0] + 1j * z[1]), np.diag(np.full(n, 8.5e307))):
            with np.errstate(over="ignore"):
                sq_norms = np.sum(np.abs(a) ** 2)
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                got = qwp_linalg._band(n, np.diagonal(a), sq_norms, DEFAULT_TOL.eig_tol)
            assert got == psd_band(a, DEFAULT_TOL) == np.inf


# ---------------------------------------------------------------------------
# The positivity audit: the basis block through the PSD stack, the Fourier and random
# blocks through one real product each, against one matrix-vector product and one
# eigensolve a state
# ---------------------------------------------------------------------------


def breaks_hermiticity(dim):
    """rho -> rho + 0.1i rho_00 (|0><d-1| + |d-1><0|), whose hermitian part is rho itself."""
    e0, last = np.eye(dim)[0], np.eye(dim)[-1]
    swap = np.outer(e0, last) + np.outer(last, e0)
    return from_super(np.eye(dim * dim) + 0.1j * np.outer(vec(swap), vec(np.outer(e0, e0))))


def off_basis_skew(dim, t):
    """rho -> rhoᵀ + it(rho_01 + rho_10)(|0><1| + |1><0|): positive and not CP, with rhoᵀ its
    hermitian part; the anti-hermitian part vanishes on every basis state."""
    swap = vec(np.outer(np.eye(dim)[0], np.eye(dim)[1]) + np.outer(np.eye(dim)[1], np.eye(dim)[0]))
    return from_super(transpose_program(dim).super + 1j * t * np.outer(swap, swap))


def population_pump(dim, a):
    """rho -> rho + a rho_11 (|0><0| - |1><1|): positive on e_0, negative on e_1 for a > 1."""
    p0, p1 = vec(np.diag(np.eye(dim)[0])), vec(np.diag(np.eye(dim)[1]))
    return from_super(np.eye(dim * dim) + a * np.outer(p0 - p1, p1))


def coherence_amplifier(dim, k):
    """Keeps the diagonal and scales the off-diagonal by k: positive on basis states only, for k > 1."""
    return from_super(np.diag(np.where(np.eye(dim).reshape(-1) == 1.0, 1.0, k)))


def phase_amplifier(dim, k):
    """Scales the imaginary part of the off-diagonal by k: positive on real states only, for k > 1."""
    return from_super((1 + k) / 2 * np.eye(dim * dim) + (1 - k) / 2 * transpose_program(dim).super)


def random_region(dim):
    # positive on the basis and (real, at d = 2) Fourier states; fails on a minority of Haar-random states
    return mix(0.8, sample_program("cptp", dim, 0), phase_amplifier(dim, 3.0))


def assert_audit_matches_the_loop(c, tol, seed, monkeypatch, cap=None):
    """is_positive_sampled's verdict against the per-state loop's, with blocks of cap states if given; returns it."""
    want = is_positive_sampled_oracle(c, tol, seed=seed)
    if cap:
        monkeypatch.setattr(qwp_linalg, "STACK_BYTES", cap * c.dim * c.dim * 16)
    got = is_positive_sampled(c, tol, seed=seed)
    assert_same_verdict(got, want)
    return got


@pytest.mark.parametrize("kind, d, eps", rows(*[(kind, d, eps) for d in (2, 3, 8) for kind in KINDS for eps in (None, 0.05, 1.0)]))
def test_audit_of_a_mixture_with_a_nonpositive_map(kind, d, eps, monkeypatch):
    c = sample_program(kind, d, 53)
    c = c if eps is None else mix(0.5, c, nonpositive(d, eps))
    assert_audit_matches_the_loop(c, ToleranceConfig(sample_count=150), d, monkeypatch)


# family: (d, program of d, samples, seed, the cap's states a block, expected (status, samples) or a range of
# samples, the witness at d or None)
AUDITS = {
    "population pump": (3, lambda d: population_pump(d, 1.5), 1000, 2, None, ("counterexample", 2), lambda d: np.eye(d)[1]),
    "coherence amplifier": (
        3, lambda d: coherence_amplifier(d, 1.5), 1000, 2, None, ("counterexample", 3 + 1), lambda d: fourier_basis(d)[:, 0],
    ),
    "breaks hermiticity": (2, breaks_hermiticity, 1000, 2, None, ("counterexample", 1), None),
    "random region": (2, random_region, 200, 1, None, range(2 * 2 + 1, 2 * 2 + 200 + 1), None),
    # the first counterexample lies in the second block of random states
    "random region, two blocks": (2, random_region, 200, 1, 50, range(2 * 2 + 50 + 1, 2 * 2 + 100 + 1), None),
    "transpose_mix": (8, lambda d: sample_program("transpose_mix", d, 59), 40, 5, 3, ("no_counterexample", 2 * 8 + 40), None),
    # the random states in blocks of four and a last one of three
    "transpose_mix, blocks of four": (
        5, lambda d: sample_program("transpose_mix", d, 9), 23, 9, 4, ("no_counterexample", 2 * 5 + 23), None,
    ),
    "cptp": (3, lambda d: sample_program("cptp", d, 61), 1000, 1, None, ("certified_cp", 0), None),
    "unitary": (3, lambda d: sample_program("unitary", d, 61), 1000, 1, None, ("certified_cp", 0), None),
}


@pytest.mark.parametrize("family", list(AUDITS))
def test_audit(family, monkeypatch):
    d, build, samples, seed, cap, expect, witness = AUDITS[family]
    got = assert_audit_matches_the_loop(build(d), ToleranceConfig(sample_count=samples), seed, monkeypatch, cap)
    if isinstance(expect, range):
        assert got.status == "counterexample" and got.samples in expect
        assert got.witness.flags.writeable is False
    else:
        assert (got.status, got.samples) == expect
    assert witness is None or np.array_equal(got.witness, witness(d))


@pytest.mark.parametrize("d", [2, 3, 8])
def test_audit_refutes_a_skew_off_the_basis_by_its_anti_hermitian_rows(d, monkeypatch):
    # the basis outputs are hermitian and PSD, and every other output's hermitian part is PSD
    c, tol = off_basis_skew(d, 0.1), ToleranceConfig(sample_count=50)
    got = assert_audit_matches_the_loop(c, tol, 2, monkeypatch)
    assert len(qwp_programs._coordinate_matrix(c.super, tol.residual_tol)) == 2 * d * d
    assert (got.status, got.samples) == ("counterexample", d + 1)
    assert np.array_equal(got.witness, fourier_basis(d)[:, 0])


@pytest.mark.parametrize("d, residual_tol", rows(*[(d, t) for d in (2, 3, 8) for t in (1e-9, 0.0)]))
def test_audit_of_a_skew_within_residual_tol(d, residual_tol, monkeypatch):
    # the defect bound, about 2.8e-12, passes residual_tol: no gap is computed, and none fails;
    # at residual_tol = 0 only a map whose anti-hermitian rows are all zero drops them
    c, tol = off_basis_skew(d, 1e-12), ToleranceConfig(residual_tol=residual_tol, sample_count=50)
    got = assert_audit_matches_the_loop(c, tol, 3, monkeypatch)
    kept = 2 if residual_tol == 0 else 1
    assert len(qwp_programs._coordinate_matrix(c.super, tol.residual_tol)) == kept * d * d
    assert (got.status, got.samples) == (("counterexample", d + 1) if kept == 2 else ("no_counterexample", 2 * d + 50))
    assert kept == 1 or np.array_equal(got.witness, fourier_basis(d)[:, 0])


@pytest.mark.parametrize(
    "corner, sign, overflows", [(1.0, 1.0, False), (1.0, -1.0, False), (1.7e308, 1.0, True), (1.7e308, -1.0, False)]
)
def test_audit_of_a_pair_of_entries_near_the_float_limit(corner, sign, overflows):
    # row 0 of the output reads rho_00 and the pair rho_01, rho_10, whose
    # coefficients are near the float limit; the half-sums of a pair stay finite
    s = np.eye(4, dtype=np.complex128)
    s[0, 0], s[0, 2], s[0, 1] = corner, 1.7e308, sign * 1.7e308
    c = from_super(s)
    tol = ToleranceConfig(sample_count=20)
    with np.errstate(over="ignore", invalid="ignore"):
        if overflows:
            # 1.7e308 (rho_00 + 2 Re rho_01) overflows on (1, 1)/√2
            with pytest.raises(ValueError, match="finite"):
                is_positive_sampled(c, tol, seed=3)
        else:
            # the second Fourier state, (1, -1)/√2 up to rounding: a large
            # negative output entry, or a large imaginary one on the diagonal
            got = is_positive_sampled(c, tol, seed=3)
            assert (got.status, got.samples) == ("counterexample", 4)
            assert np.array_equal(got.witness, fourier_basis(2)[:, 1])


@pytest.mark.parametrize("residual_tol", [DEFAULT_TOL.residual_tol, 0.0])
@pytest.mark.parametrize("kind", KINDS + ("breaks_hermiticity",))
@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_audit_product_blocks_match_apply_matrix(kind, dim, residual_tol):
    c = breaks_hermiticity(dim) if kind == "breaks_hermiticity" else sample_program(kind, dim, 67)
    z = np.random.default_rng(dim).standard_normal((20, 2, dim))
    raw = z[:, 0] + 1j * z[:, 1]
    normalized = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    psis = np.concatenate([np.eye(dim), fourier_basis(dim).T, normalized])
    w = qwp_programs._coordinate_matrix(c.super, residual_tol)
    gaps, h, diagonals, sq_norms = qwp_programs._pure_parts(w, psis)
    # the rows of the anti-hermitian part are dropped only where their gaps cannot fail
    if kind == "breaks_hermiticity":
        assert len(w) == 2 * dim * dim
    elif residual_tol > 0 or kind == "transpose":
        # a map that preserves hermiticity has rounding noise in those rows, or nothing
        assert len(w) == dim * dim
    # one GEMM sums in another order than one matrix-vector product
    bound = 4 * dim * dim * np.finfo(float).eps * np.abs(c.super).max()
    for psi, gap, got, diagonal, sq_norm in zip(psis, gaps, h, diagonals, sq_norms):
        want = apply_matrix(c, np.outer(psi, psi.conj()))
        want_h = (want + want.conj().T) / 2.0
        # only the lower triangle of h is written, with a real diagonal
        assert np.abs(lower_triangle(got) - lower_triangle(want_h)).max() <= bound
        assert not np.diagonal(got).imag.any()
        assert abs(gap - hermiticity_gaps_oracle(want)) <= bound
        # the band's inputs are h's own
        assert np.array_equal(diagonal, np.diagonal(got).real)
        assert sq_norm == pytest.approx(np.sum(np.abs(want_h) ** 2), rel=1e-12, abs=bound)


def test_audit_basis_outputs_are_columns_of_the_superoperator(monkeypatch):
    c = sample_program("transpose_mix", 5, 66)
    blocks = []
    stack = qwp_programs._psd_stack

    def recording(a, thresholds):
        blocks.append(np.array(a))
        return stack(a, thresholds)

    monkeypatch.setattr(qwp_programs, "_psd_stack", recording)
    monkeypatch.setattr(qwp_linalg, "STACK_BYTES", 2 * 5 * 5 * 16)
    got = is_positive_sampled(c, ToleranceConfig(sample_count=4), seed=1)
    assert got.status == "no_counterexample"
    # the leading blocks refute the Choi matrix before any stack is tested, so the
    # basis states come first, in blocks of 2, 2 and 1, read exactly
    assert [len(b) for b in blocks[0:3]] == [2, 2, 1]
    for k, out in enumerate(np.concatenate(blocks[0:3])):
        assert np.array_equal(out, apply_matrix(c, np.diag(np.eye(5)[k])))


def test_audit_stacks_at_dim_32(monkeypatch):
    # the prove-else-eigensolve step's Cholesky stacks: the leading blocks of the transpose's Choi matrix
    # refute it, so no (1, 1024, 1024) stack is tested; then the basis, Fourier and 1000 random states in
    # blocks of at most 1024
    shapes = record(monkeypatch, np.linalg, "cholesky")
    is_positive_sampled(sample_program("transpose", 32, 0), seed=4)
    stacks = [shape for shape in shapes if shape[0] > 1]
    assert stacks == [(32, 32, 32), (32, 32, 32), (1000, 32, 32)]
    assert max(shape[0] for shape in stacks) * 32 * 32 * 16 <= STACK_BYTES
    # the transpose mixture takes no eigensolve; the nonpositive map solves only its counterexample block
    got, calls = solves(monkeypatch, is_positive_sampled, built(sample_program, "transpose_mix", 32, 4), DEFAULT_TOL, 3)
    assert calls == 0 and (got.status, got.samples) == ("no_counterexample", 2 * 32 + 1000)
    shapes = record(monkeypatch, np.linalg, "eigvalsh")
    got = is_positive_sampled(nonpositive(32, 0.5), seed=3)
    assert shapes == [(32, 32, 32)]
    assert (got.status, got.samples) == ("counterexample", 1)
    assert np.array_equal(got.witness, np.eye(32)[0])


# ---------------------------------------------------------------------------
# Traced peaks of public calls at d = 32, in MiB, as measured with numpy 2.4.6 and rounded up
# to 0.1 MiB; one d⁴ complex array is 16 MiB. A row is (bound, warm-up, inputs): a warm-up call
# first leaves only the call's own arrays traced; the inputs, built before tracing, give the call
# ---------------------------------------------------------------------------


def cptp32(rank=4):
    return built(low_rank_program, 32, rank, 241)


def sampled32(kind):
    return built(sample_program, kind, 32, 4)


def isometry_blocks(seed, count):
    """The count 32×32 blocks of one Haar isometry: a complete instrument, or a program's Kraus operators."""
    return list(random_isometry(np.random.default_rng(seed), count * 32, 32).reshape(count, 32, 32))


def mixed_with_the_transpose():
    ks = isometry_blocks(86, 2)
    return lambda: mix(0.3, transpose_program(32), from_kraus(ks))


def halves():
    upper = np.diag((np.arange(32) < 16).astype(float))
    return [upper, np.eye(32) - upper]


def written_hermitian_part():
    blocks, h = qwp_programs._choi_view(sampled32("cptp").super), np.empty((1024, 1024), dtype=np.complex128)
    return lambda: qwp_linalg._write_hermitian_part(blocks, h)


def real_full_rank():
    g = np.random.default_rng(241).standard_normal((1024, 1024))
    return (g @ g.T / 1024 + np.eye(1024)) / 1024  # eigenvalues in [1/n, 5/n]: δ < eig_tol


PEAK_BOUNDS_MIB = {
    "from_super": (17.1, True, lambda: partial(from_super, cptp32().super.copy())),
    # the conjugate copy alone: its entries are not scanned again
    "adjoint": (16.1, True, lambda: partial(adjoint, cptp32())),
    "from_choi": (17.1, True, lambda: partial(from_choi, to_choi(cptp32()))),
    # the 16 MiB superoperator, which is the reshape's copy, and a 1 MiB finite-entry mask
    "from_choi sampled cptp": (18.0, True, lambda: partial(from_choi, to_choi(sampled32("cptp")))),
    # the 16 MiB superoperator, one 1 MiB block buffer and the finite check's 1 MiB mask
    "from_kraus isometry": (20.0, False, lambda: partial(from_kraus, isometry_blocks(85, 4))),
    # three 16 MiB superoperators (the transpose, the Kraus sum, the mixture) and block buffers
    "mix transpose, kraus": (52.0, False, mixed_with_the_transpose),
    "wp": (0.3, True, lambda: partial(wp, cptp32(), random_predicate(np.random.default_rng(241), 32))),
    "seq": (17.1, True, lambda: partial(seq, cptp32(), sampled32("transpose_mix"))),
    "measure_branch": (18.1, True, lambda: partial(measure_branch, halves(), [cptp32(), sampled32("transpose_mix")])),
    # the 16 MiB superoperator, a block of rows and its products, and the finite-entry mask
    "measure_branch isometry": (20.0, False, lambda: partial(measure_branch, isometry_blocks(45, 2), branches(32, 2))),
    # the corner that the probes factor: a map that the low-rank certificate proves is read in place,
    # one that it leaves undecided has h written off the Choi view into one new array, with no Choi copy,
    # and adds the full Cholesky factor, also from a superoperator stored by columns; a refuted map copies
    # only its corner
    "is_completely_positive cptp": (2.6, True, lambda: partial(is_completely_positive, cptp32())),
    # the n/4 corner of the probes and its hermitian part, 1 MiB each, and the probe's factor; the gap,
    # the factor's d rows and the residual read S in place: no Choi copy, no full Cholesky factor
    "is_completely_positive sampled cptp": (2.6, True, lambda: partial(is_completely_positive, sampled32("cptp"))),
    "is_completely_positive rank-40": (32.1, True, lambda: partial(is_completely_positive, cptp32(40))),
    # the 16 MiB array that h is written into, off the Choi view, and the 16 MiB factor of the
    # full Cholesky factorization that a rank above d needs
    "is_completely_positive rank-40 cold": (32.1, False, lambda: partial(is_completely_positive, cptp32(40))),
    "is_completely_positive adjoint rank-40": (32.1, True, lambda: partial(is_completely_positive, adjoint(cptp32(40)))),
    "is_completely_positive transpose_mix": (2.6, True, lambda: partial(is_completely_positive, sampled32("transpose_mix"))),
    # the 1 MiB corner and its hermitian part, and the factor of the n/16 probe; no 16 MiB array
    "is_completely_positive transpose_mix cold": (4.0, False, lambda: partial(is_completely_positive, sampled32("transpose_mix"))),
    "is_completely_positive adjoint transpose_mix": (2.6, True, lambda: partial(is_completely_positive, adjoint(sampled32("transpose_mix")))),
    # one block row's conjugated partners, 0.5 MiB at most, against 16 MiB for the matrix
    "_write_hermitian_part cptp": (1.0, True, written_hermitian_part),
    "is_positive_sampled cptp": (2.6, True, lambda: partial(is_positive_sampled, cptp32(), seed=3)),
    # a block's hermitian part and its Cholesky factor, or the coordinate matrix and product it came from
    "is_positive_sampled transpose_mix": (33.8, True, lambda: partial(is_positive_sampled, sampled32("transpose_mix"), seed=3)),
    # at its widest the audit holds 32 MiB: the last block's 16 MiB hermitian part, with either the
    # coordinate matrix (8 MiB, the hermitian part's rows alone) and the block's product it is written
    # from (8 MiB), or its 16 MiB Cholesky factor; the coordinate matrix is released before that block's
    # PSD test, and the block's real coordinates before its hermitian part
    "is_positive_sampled transpose_mix cold": (
        33.8, False, lambda: partial(is_positive_sampled, sampled32("transpose_mix"), seed=3),
    ),
    # a real matrix's complex conversion, which h is written over in place, and the full Cholesky factor
    "is_psd real full-rank": (32.1, True, lambda: partial(is_psd, real_full_rank())),
}


@pytest.mark.parametrize("name", list(PEAK_BOUNDS_MIB))
def test_the_traced_peak_at_dim_32_stays_under_its_bound(name):
    bound, warm_up, inputs = PEAK_BOUNDS_MIB[name]
    run = inputs()
    if warm_up:
        run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * (1 << 20)


# ---------------------------------------------------------------------------
# The campaign blocks: the trial-batched sweeps against the per-trial loops, results and first errors
# ---------------------------------------------------------------------------

CAMPAIGNS = {
    "duality": (duality_campaign, duality_campaign_oracle),
    "compose": (compose_campaign, compose_campaign_oracle),
    "orders": (orders_campaign, orders_campaign_oracle),
    "weakest": (weakest_campaign, weakest_campaign_oracle),
}
CAMPAIGN_DIMS = (2, 3, 4, 5, 6)
# seven superoperators of d = 3 a block; a weakest pair's candidates in sub-blocks of one or two, 50 states each
SMALL_CAP = 7 * 16 * 3**4


def assert_same_result(got, want):
    assert got == want
    assert got.max_residual.hex() == want.max_residual.hex()


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def loop_outcome(suite, dims, trials, seed, residual_tol):
    """The per-trial loop's result, or the type and message of its first error."""
    try:
        return CAMPAIGNS[suite][1](dims, trials, seed, ToleranceConfig(residual_tol=residual_tol))
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "suite, dims, trials, seeds, residual_tol, cap",
    rows(
        *[(suite, CAMPAIGN_DIMS, 30, seed, 1e-9, "default") for suite in sorted(CAMPAIGNS) for seed in (1, 7, 42)],
        *[(suite, (2, 3), 40, 11, 1e-9, SMALL_CAP) for suite in sorted(CAMPAIGNS)],
        # a weakest block is one pair's 250 candidates at most
        ("weakest", (2, 3), 260, 7, 1e-9, "default"),
        # the failures of every stacked check, in blocks as large as the cap allows and in blocks of seven
        *[
            (suite, CAMPAIGN_DIMS, 20, (1, 7, 42), residual_tol, cap)
            for suite in sorted(CAMPAIGNS) for residual_tol in (0.0, 1e-16, 3e-16, 1e-15) for cap in ("default", SMALL_CAP)
        ],
    ),
)
def test_campaign_blocks(suite, dims, trials, seeds, residual_tol, cap, monkeypatch):
    wants = [built(loop_outcome, suite, dims, trials, seed, residual_tol) for seed in np.atleast_1d(seeds).tolist()]
    if cap != "default":
        monkeypatch.setattr(qwp_linalg, "STACK_BYTES", cap)
    for seed, want in zip(np.atleast_1d(seeds).tolist(), wants):
        tol = ToleranceConfig(residual_tol=residual_tol)
        if isinstance(want, CampaignResult):
            got = CAMPAIGNS[suite][0](dims, trials, seed, tol)
            assert_same_result(got, want)
            assert got.trials == len(dims) * trials
        else:
            assert raised(CAMPAIGNS[suite][0], dims, trials, seed, tol) == want


def test_the_campaign_failures_cover_every_stage():
    # the messages test_campaign_blocks compares, one per stacked check
    seen = {
        raised(duality_campaign, CAMPAIGN_DIMS, 20, 1, ToleranceConfig(residual_tol=0.0)),
        raised(duality_campaign, CAMPAIGN_DIMS, 20, 7, ToleranceConfig(residual_tol=1e-16)),
        raised(compose_campaign, CAMPAIGN_DIMS, 20, 1, ToleranceConfig(residual_tol=0.0)),
        raised(compose_campaign, CAMPAIGN_DIMS, 20, 1, ToleranceConfig(residual_tol=1e-16)),
        raised(compose_campaign, CAMPAIGN_DIMS, 20, 7, ToleranceConfig(residual_tol=1e-15)),
        raised(orders_campaign, CAMPAIGN_DIMS, 20, 1, ToleranceConfig(residual_tol=0.0)),
    }
    assert {(t.__name__, m.split(";")[0]) for t, m in seen} == {
        ("ValidationError", "state is not hermitian"),
        ("ValidationError", "state trace is 1, expected 1"),
        ("ValidationError", "invalid predicate: effect 'a0' is not hermitian"),
        ("NotTracePreservingError", "program 'seq(random_cptp, random_unitary)' is not trace preserving"),
        ("NotTracePreservingError", "program 'random_unitary' is not trace preserving"),
        ("ValueError", "loewner_leq requires hermitian operands"),
    }


def test_campaign_superoperator_stacks_stay_under_the_cap(monkeypatch):
    shapes = record(monkeypatch, qwp_campaigns, "_unital_gaps")
    monkeypatch.setattr(qwp_linalg, "STACK_BYTES", SMALL_CAP)
    compose_campaign((2, 3), 40, 5)
    # three superoperator stacks a block: seq(c1, c2), c2, c1
    assert [shape[-1] for shape in shapes] == [4] * 3 * 2 + [9] * 3 * 6
    assert max(16 * int(np.prod(shape)) for shape in shapes) <= SMALL_CAP


def test_orders_stacks_stay_under_the_cap(monkeypatch):
    # the states (trials, states, 6, 6) and the (trials, k, states, 6, 6) products of the most atoms
    # drawn, whose traces np.trace takes, stay under the cap
    want = orders_campaign_oracle((6,), 40, 9)
    cap = STACK_BYTES // 8
    monkeypatch.setattr(qwp_linalg, "STACK_BYTES", cap)
    shapes = record(monkeypatch, np, "trace")
    assert_same_result(orders_campaign((6,), 40, 9), want)
    assert shapes and max(16 * int(np.prod(shape)) for shape in shapes) <= cap


def test_random_predicates_draw_at_most_the_named_atom_count():
    # the orders blocks are sized for MAX_RANDOM_ATOMS atoms a predicate
    counts = {len(random_predicate(np.random.default_rng(seed), 2).space) for seed in range(300)}
    assert counts == set(range(2, MAX_RANDOM_ATOMS + 1))


def test_a_non_hermitian_atom_after_one_not_below_is_refused():
    # trial 7 of dim 2, seed 3: atom a0 of f is not below g's, and the
    # hermiticity gap of a2 exceeds residual_tol; the pair is refused
    # whatever the order of its atoms, and so is the campaign's trial
    tol = ToleranceConfig(residual_tol=1e-16)
    f, g = orders_pair_oracle(np.random.default_rng([3, 2, 7]), 2, 7)
    assert not loewner_leq(f.effect("a0"), g.effect("a0"), tol)
    assert not is_hermitian(f.effect("a2"), tol)
    with pytest.raises(ValueError, match="loewner_leq requires hermitian operands"):
        predicate_leq(f, g, tol)
    want = (ValueError, "loewner_leq requires hermitian operands")
    assert raised(orders_campaign_oracle, (2,), 8, 3, tol) == want
    assert raised(orders_campaign, (2,), 8, 3, tol) == want


def test_orders_makes_no_scalar_order_call_outside_replay(monkeypatch):
    holders = [
        (qwp_campaigns, "random_predicate"),
        (qwp_campaigns, "psd_sqrt"),
        (qwp_campaigns, "random_effect"),
        (qwp_campaigns, "predicate_leq"),
        (qwp_linalg, "hermitian_eig"),
        # each pair's one eigensolve is an eigh, whose λ_min decides its order
        (np.linalg, "eigvalsh"),
    ]
    calls = [record(monkeypatch, module, name) for module, name in holders]
    orders_campaign(CAMPAIGN_DIMS, 30, 7)
    assert calls == [[]] * len(holders)
    # a refused block replays its trials through them
    with pytest.raises(ValueError, match="loewner_leq requires hermitian operands"):
        orders_campaign(CAMPAIGN_DIMS, 20, 1, ToleranceConfig(residual_tol=0.0))
    assert calls[3]


def test_a_refused_trial_that_passes_alone_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(qwp_campaigns, "_invalid_states", lambda ms, tol, eig_slack=1.0: np.ones(len(ms), bool))
    with pytest.raises(RuntimeError, match="refused trial 0 of dim 2, which passes alone"):
        duality_campaign((2,), 5, 0)


def test_weakest_oversized_candidates_fail_like_the_loop(monkeypatch):
    monkeypatch.setattr(qwp_wp, "_haar_spectral", lambda z, w: 1.3 * qwp_linalg._haar_spectral(z, w))
    got = weakest_campaign((2,), 260, 7)
    assert_same_result(got, weakest_campaign_oracle((2,), 260, 7, effect=oversized))
    assert 0 < got.failures < 2 * got.trials and got.max_residual > 0
    assert got.notes == (f"most negative domination margin {-got.max_residual:.3e}",)
