"""Stacked sampling kernels against the per-state loops they replace.

The loops below are the reference oracles: they draw one state (or handle
one atom, Kraus operator or campaign trial) at a time from the same
generators and must give the stacked kernels' results exactly, float for
float, and a campaign's first error. Two kernels are the exception in
arithmetic. The positivity audit forms its outputs with one matrix
product, whose rounding differs from the loop's matrix-vector products, so
its outputs are held to a tolerance set from the dtype and its verdicts
(status, count, witness) to equality. The supremum audit confirms its
candidates with matrix products in place of per-state traces; only its
flags and margins leave the kernel, so its reports are held to equality.
"""

import importlib
import tracemalloc
import warnings

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
    CERTIFYING_STATES,
    WeakestCheckReport,
    duality_residual,
    duality_residual_sweep,
    is_precondition,
    weakest_check,
    wp,
)

from maps import breuer_hall, choi_map, low_rank_program, nonpositive, positive_not_cp

# the package re-exports the function wp under the name of its module
qwp_wp = importlib.import_module("qwp.wp")
qwp_programs = importlib.import_module("qwp.programs")
qwp_linalg = importlib.import_module("qwp.linalg")
qwp_campaigns = importlib.import_module("qwp.campaigns")
qwp_predicates = importlib.import_module("qwp.predicates")

KINDS = ("cptp", "unitary", "transpose", "transpose_mix")


def ginibre_density_oracle(rng, dim):
    """One density from a Ginibre product, drawn real part then imaginary part."""
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    m = g @ g.conj().T
    return m / np.trace(m).real


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


def weakest_check_oracle(c, f, tol=None, seed=0, states_per_trial=50, effect=random_effect_oracle):
    """The per-state supremum audit, one trial, atom and state at a time; ``effect`` draws one W."""
    tol = tol or DEFAULT_TOL
    transformed = wp(c, f, tol)
    atoms = f.space.atoms
    d = c.dim
    roots = {a: psd_sqrt_oracle(transformed.effect(a)) for a in atoms}

    dominated = 0
    confirmed = 0
    min_margin = np.inf
    for trial in range(tol.sample_count):
        rng = np.random.default_rng([seed, trial])
        cand = Predicate(
            f.space, {a: roots[a] @ effect(rng, d) @ roots[a] for a in atoms}
        )

        ok = True
        for _ in range(states_per_trial):
            rho = ginibre_density_oracle(rng, d)
            out = unvec(c.super @ vec(rho))
            for a in atoms:
                lhs = float(np.trace(cand.effect(a) @ rho).real)
                rhs = float(np.trace(f.effect(a) @ out).real)
                if lhs > rhs + tol.residual_tol:
                    ok = False
                    break
            if not ok:
                break
        confirmed += int(ok)

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
    fourier = qwp_programs._fourier_basis(d)

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


def assert_same_report(got, want):
    assert vars(got) == vars(want)
    assert got.min_margin.hex() == want.min_margin.hex()


def problem(kind, dim, seed):
    rng = np.random.default_rng([seed, dim])
    return sample_program(kind, dim, rng), random_predicate(rng, dim)


class TestReplayContract:
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 17])
    def test_random_densities_replay_sequential_draws(self, dim):
        stacked_rng = np.random.default_rng(5)
        single_rng = np.random.default_rng(5)
        oracle_rng = np.random.default_rng(5)
        stack = random_densities(stacked_rng, 7, dim)
        assert stack.shape == (7, dim, dim)
        assert np.array_equal(stack, np.array([random_density(single_rng, dim) for _ in range(7)]))
        assert np.array_equal(stack, np.array([ginibre_density_oracle(oracle_rng, dim) for _ in range(7)]))
        # the generator is left where the sequential draws leave it
        next_draw = stacked_rng.standard_normal(3)
        assert np.array_equal(next_draw, single_rng.standard_normal(3))
        assert np.array_equal(next_draw, oracle_rng.standard_normal(3))

    def test_empty_stack_draws_nothing(self):
        rng = np.random.default_rng(3)
        assert random_densities(rng, 0, 4).shape == (0, 4, 4)
        assert rng.standard_normal() == np.random.default_rng(3).standard_normal()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_stacked_apply_equals_apply_matrix(self, kind, dim):
        c = sample_program(kind, dim, 17)
        ms = random_densities(np.random.default_rng(dim), 6, dim).reshape(2, 3, dim, dim)
        out = apply_matrices(c, ms)
        assert out.shape == (2, 3, dim, dim)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(out[idx], apply_matrix(c, ms[idx]))
            assert np.array_equal(out[idx], unvec(c.super @ vec(ms[idx])))

    def test_stacked_apply_rejects_wrong_dim(self):
        with pytest.raises(DimensionMismatchError):
            apply_matrices(sample_program("cptp", 2, 0), np.zeros((4, 3, 3), dtype=complex))


def drawn_identity(rng, dim):
    """The identity, after the draws of one random effect."""
    random_effect_oracle(rng, dim)
    return np.eye(dim)


class TestWeakestCheckOracle:
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_program_kind(self, kind):
        tol = ToleranceConfig(sample_count=40)
        c, f = problem(kind, 3, 23)
        assert_same_report(weakest_check(c, f, tol, seed=4), weakest_check_oracle(c, f, tol, seed=4))

    def test_run_spanning_two_blocks(self):
        dim = 16
        tol = ToleranceConfig(sample_count=qwp_linalg._block_size(dim, 50) + 5)
        c, f = problem("transpose_mix", dim, 29)
        report = weakest_check(c, f, tol, seed=8)
        assert_same_report(report, weakest_check_oracle(c, f, tol, seed=8))

    def test_oversized_candidates_fail_like_the_loop(self, monkeypatch):
        monkeypatch.setattr(qwp_wp, "_haar_spectral", lambda z, w: 1.3 * qwp_linalg._haar_spectral(z, w))
        tol = ToleranceConfig(sample_count=60)
        for kind in KINDS:
            c, f = problem(kind, 2, 31)
            report = weakest_check(c, f, tol, seed=2)
            oversized = lambda rng, d: 1.3 * random_effect_oracle(rng, d)  # noqa: E731
            assert_same_report(report, weakest_check_oracle(c, f, tol, seed=2, effect=oversized))
            # both failure branches are reached, and so is success
            assert 0 < report.confirmed_preconditions < report.trials
            assert 0 < report.dominated < report.trials
            assert report.min_margin < 0

    def test_boundary_candidates_pass_within_tolerance(self, monkeypatch):
        # W = I makes every candidate wp(c, f) itself, up to rounding; W's
        # draws are still made, so the states replay the same stream
        monkeypatch.setattr(qwp_wp, "_haar_spectral", lambda z, w: np.broadcast_to(np.eye(z.shape[-1]), w.shape + w.shape[-1:]))
        tol = ToleranceConfig(sample_count=5)
        for kind in KINDS:
            c, f = problem(kind, 3, 47)
            report = weakest_check(c, f, tol, seed=3)
            assert_same_report(report, weakest_check_oracle(c, f, tol, seed=3, effect=drawn_identity))
            assert report.confirmed_preconditions == report.dominated == 5

    @pytest.mark.parametrize("n_atoms", [1, 4])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dim", [1, 2])
    def test_small_dims_and_atom_counts(self, dim, kind, n_atoms):
        # d² = 1 and 4 in the reshapes of the trace products, one atom and four
        rng = np.random.default_rng([dim, n_atoms, 61])
        c = sample_program(kind, dim, rng)
        f = random_predicate(rng, dim, n_atoms)
        tol = ToleranceConfig(sample_count=40)
        assert_same_report(weakest_check(c, f, tol, seed=5), weakest_check_oracle(c, f, tol, seed=5))

    def test_no_stack_exceeds_the_cap(self, monkeypatch):
        sizes = []
        densities = qwp_wp._densities

        def recording_densities(z):
            # the (trials·states, 2, d, d) normals: as many float64 bytes as the
            # complex (trials·states, d, d) stack of states they become
            sizes.append(z.nbytes)
            return densities(z)

        monkeypatch.setattr(qwp_wp, "_densities", recording_densities)
        dim = 16
        tol = ToleranceConfig(sample_count=qwp_linalg._block_size(dim, 50) + 1)
        c, f = problem("cptp", dim, 37)
        weakest_check(c, f, tol, seed=1)
        assert len(sizes) == 2
        assert max(sizes) <= STACK_BYTES
        # the library default at d = 32 splits into blocks that fit the cap
        per_block = qwp_linalg._block_size(32, 50)
        assert 1 <= per_block < DEFAULT_TOL.sample_count
        assert per_block * 50 * 32 * 32 * 16 <= STACK_BYTES

    def test_traces_of_many_atoms_stay_under_the_cap(self, monkeypatch):
        # 8 atoms at d = 2: a trial's (states, atoms) traces are twice its states
        rng = np.random.default_rng(67)
        c = sample_program("transpose_mix", 2, rng)
        f = random_predicate(rng, 2, 8)
        tol = ToleranceConfig(sample_count=30)
        want = weakest_check_oracle(c, f, tol, seed=2)
        rows = []
        densities = qwp_wp._densities

        def recording_densities(z):
            rows.append(len(z))
            return densities(z)

        monkeypatch.setattr(qwp_wp, "_densities", recording_densities)
        monkeypatch.setattr(qwp_linalg, "STACK_BYTES", 10 * 50 * 8 * 16)
        assert_same_report(weakest_check(c, f, tol, seed=2), want)
        # ten trials a block, so their complex traces fill the cap and no more
        assert rows == [10 * 50] * 3


def gaussian_super(rng, dim):
    """A complex Gaussian d²×d² matrix: the action's bits need no valid program."""
    n = dim * dim
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def action_oracle(s, ms):
    """Each operator of a stack (t, d, d) through the superoperator s, one matrix-vector product a state."""
    return np.array([unvec((s @ vec(m)[:, None])[:, 0]) for m in ms])


# d ≤ 16 is one product; d = 25 ends in a one-row tail at the default block size
ACTION_DIMS = (2, 16, 17, 23, 25, 31, 32, 33)
ACTION_COUNTS = (1, 2, 3, 37, 100)


class TestActionOracle:
    """The row-blocked program action against one matrix-vector product a state."""

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("count", ACTION_COUNTS)
    @pytest.mark.parametrize("dim", ACTION_DIMS)
    def test_apply_matrices(self, dim, count, layout):
        rng = np.random.default_rng([dim, count, 97])
        c = from_super(np.asarray(gaussian_super(rng, dim), order=layout))
        assert c.super.flags[f"{layout}_CONTIGUOUS"]
        ms = random_densities(rng, count, dim)
        assert_same_bits(apply_matrices(c, ms), action_oracle(c.super, ms))

    @pytest.mark.parametrize("dim", ACTION_DIMS)
    def test_apply_matrix(self, dim):
        rng = np.random.default_rng([dim, 98])
        c = from_super(gaussian_super(rng, dim))
        m = random_densities(rng, 1, dim)
        assert_same_bits(apply_matrix(c, m[0]), action_oracle(c.super, m)[0])

    @pytest.mark.parametrize("count", ACTION_COUNTS)
    @pytest.mark.parametrize("dim", ACTION_DIMS)
    def test_campaign_form(self, dim, count):
        # a superoperator a trial; beyond three trials they share one broadcast
        # superoperator, as the transpose kind's do, to keep the stack small
        rng = np.random.default_rng([dim, count, 99])
        if count <= 3:
            supers = np.array([gaussian_super(rng, dim) for _ in range(count)])
        else:
            supers = np.broadcast_to(gaussian_super(rng, dim), (count,) + (dim * dim,) * 2)
        rho = random_densities(rng, count, dim)
        want = np.array([action_oracle(s, m[None])[0] for s, m in zip(supers, rho)])
        assert_same_bits(qwp_programs._act(supers, rho), want)

    @pytest.mark.parametrize("dim, rows", [(17, 72), (23, 66), (31, 64), (33, 64)])
    def test_a_one_row_tail_joins_the_block_before_it(self, dim, rows, monkeypatch):
        # a 1×n by n×1 product goes to a dot kernel, which rounds the last row differently
        assert (dim * dim) % rows == 1
        monkeypatch.setattr(qwp_linalg, "ROW_BLOCK_BYTES", rows * 16 * dim * dim)
        assert qwp_linalg._row_block_size(dim * dim) == rows
        rng = np.random.default_rng([dim, 101])
        c = from_super(gaussian_super(rng, dim))
        ms = random_densities(rng, 3, dim)
        assert_same_bits(apply_matrices(c, ms), action_oracle(c.super, ms))

    def test_block_rule(self):
        # a superoperator of at most ROW_BLOCK_BYTES (d ≤ 16) is one product
        assert [qwp_linalg._row_block_size(d * d) >= d * d for d in (2, 8, 16, 17, 32)] == [True] * 3 + [False] * 2
        assert qwp_linalg._row_block_size(32 * 32) == 64
        # never one row a block, however large the superoperator
        assert qwp_linalg._row_block_size(300 * 300) == 2


class TestDualitySweepOracle:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dim", [2, 5, 16, 17, 32])
    def test_matches_the_loop_exactly(self, kind, dim):
        c, f = problem(kind, dim, 41)
        assert duality_residual_sweep(c, f, seed=6) == duality_residual_sweep_oracle(c, f, seed=6)

    def test_blocks_replay_one_stream(self, monkeypatch):
        c, f = problem("transpose_mix", 4, 43)
        want = duality_residual_sweep_oracle(c, f, seed=3)
        monkeypatch.setattr(qwp_linalg, "STACK_BYTES", 7 * 4 * 4 * 16)
        assert duality_residual_sweep(c, f, seed=3) == want

    def test_products_of_many_atoms_stay_under_the_bound(self, monkeypatch):
        # 16 atoms at d = 16: a block sized for one d×d matrix a state would
        # make (100, 16, d, d) products of 1.5 times the cap
        c = sample_program("cptp", 16, 47)
        f = projective_predicate(16)
        want = duality_residual_sweep_oracle(c, f, seed=8)
        cap = STACK_BYTES // 4
        monkeypatch.setattr(qwp_linalg, "STACK_BYTES", cap)
        sizes = []
        gaps = qwp_wp._duality_gaps

        def recorded(g, f, rho, out):
            sizes.append(16 * int(np.prod(np.broadcast_shapes(g.shape, rho[..., None, :, :].shape))))
            return gaps(g, f, rho, out)

        monkeypatch.setattr(qwp_wp, "_duality_gaps", recorded)
        assert duality_residual_sweep(c, f, seed=8) == want
        assert len(sizes) > 1 and max(sizes) <= cap


class TestDualityResidualBits:
    @pytest.mark.parametrize("n_atoms", [1, 3, 7])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dim", [2, 5, 16])
    def test_same_bits_as_the_per_atom_traces(self, dim, kind, n_atoms):
        rng = np.random.default_rng([dim, n_atoms, 59])
        c = sample_program(kind, dim, rng)
        f = random_predicate(rng, dim, n_atoms)
        g = wp(c, f)
        for _ in range(20):
            rho = DensityState(random_density(rng, dim))
            out = apply(c, rho)
            want = {
                a: float(abs(np.trace(g.effect(a) @ rho.matrix) - np.trace(f.effect(a) @ out.matrix))).hex()
                for a in f.space.atoms
            }
            assert {a: x.hex() for a, x in duality_residual(c, f, rho).items()} == want


class TestPositivityOracle:
    @pytest.mark.parametrize("eps", [None, 0.05, 1.0])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_matches_the_loop(self, dim, kind, eps):
        c = sample_program(kind, dim, 53)
        if eps is not None:
            c = mix(0.5, c, nonpositive(dim, eps))
        tol = ToleranceConfig(sample_count=150)
        want = is_positive_sampled_oracle(c, tol, seed=dim)
        assert_same_verdict(is_positive_sampled(c, tol, seed=dim), want)

    def test_counterexample_in_the_basis_block(self):
        c = population_pump(3, 1.5)
        got = is_positive_sampled(c, seed=2)
        assert_same_verdict(got, is_positive_sampled_oracle(c, seed=2))
        assert got.status == "counterexample" and got.samples == 2
        assert np.array_equal(got.witness, np.eye(3)[1])

    def test_counterexample_in_the_fourier_block(self):
        c = coherence_amplifier(3, 1.5)
        got = is_positive_sampled(c, seed=2)
        assert_same_verdict(got, is_positive_sampled_oracle(c, seed=2))
        assert got.status == "counterexample" and got.samples == 3 + 1
        assert np.array_equal(got.witness, qwp_programs._fourier_basis(3)[:, 0])

    def test_non_hermitian_output_is_a_counterexample(self):
        c = breaks_hermiticity(2)
        got = is_positive_sampled(c, seed=2)
        assert_same_verdict(got, is_positive_sampled_oracle(c, seed=2))
        assert got.status == "counterexample" and got.samples == 1

    def random_region_case(self):
        # positive on the basis and (real, at d = 2) Fourier states; fails on
        # a minority of Haar-random states
        c = mix(0.8, sample_program("cptp", 2, 0), phase_amplifier(2, 3.0))
        return c, ToleranceConfig(sample_count=200)

    def test_counterexample_among_the_random_states(self):
        c, tol = self.random_region_case()
        got = is_positive_sampled(c, tol, seed=1)
        assert_same_verdict(got, is_positive_sampled_oracle(c, tol, seed=1))
        assert got.status == "counterexample" and 2 * 2 < got.samples <= 2 * 2 + tol.sample_count
        assert got.witness.flags.writeable is False

    def test_run_spanning_two_random_blocks(self, monkeypatch):
        c, tol = self.random_region_case()
        want = is_positive_sampled_oracle(c, tol, seed=1)
        monkeypatch.setattr(qwp_linalg, "STACK_BYTES", 50 * 2 * 2 * 16)
        got = is_positive_sampled(c, tol, seed=1)
        assert_same_verdict(got, want)
        # the first counterexample lies in the second block of random states
        assert 2 * 2 + 50 < got.samples <= 2 * 2 + 100

    def test_small_blocks_split_every_part_of_the_run(self, monkeypatch):
        tol = ToleranceConfig(sample_count=40)
        c = sample_program("transpose_mix", 8, 59)
        want = is_positive_sampled_oracle(c, tol, seed=5)
        monkeypatch.setattr(qwp_linalg, "STACK_BYTES", 3 * 8 * 8 * 16)
        got = is_positive_sampled(c, tol, seed=5)
        assert_same_verdict(got, want)
        assert got.status == "no_counterexample" and got.samples == 2 * 8 + 40

    @pytest.mark.parametrize("kind", ["cptp", "unitary"])
    def test_cp_shortcut(self, kind):
        c = sample_program(kind, 3, 61)
        got = is_positive_sampled(c, seed=1)
        assert_same_verdict(got, is_positive_sampled_oracle(c, seed=1))
        assert got == PositivityVerdict("certified_cp", 0)

    def test_random_blocks_replay_sequential_draws(self):
        d, n = 5, 23
        blocks = list(qwp_programs._candidate_blocks(d, n, np.random.default_rng(9), 4))
        assert [len(b) for b, _ in blocks] == [4, 1, 4, 1] + [4] * 5 + [3]
        assert all(raw is None for _, raw in blocks[:4])
        raw = np.concatenate([r for _, r in blocks[4:]])
        rng = np.random.default_rng(9)
        loop = np.array([rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(n)])
        assert np.array_equal(raw, loop)
        states = np.concatenate([b for b, _ in blocks])
        assert np.array_equal(states[:d], np.eye(d))
        assert np.array_equal(states[d:2 * d], qwp_programs._fourier_basis(d).T)
        assert np.allclose(np.linalg.norm(states, axis=1), 1.0, rtol=0, atol=4 * d * np.finfo(float).eps)

    def test_no_stack_exceeds_the_cap(self, monkeypatch):
        # the shapes of the hermitian parts at the shared prove-else-eigensolve step, which the
        # basis block reaches through _psd_stack and the product blocks through _psd_tail
        shapes = record_shapes(monkeypatch, qwp_linalg, "_threshold_flags")
        is_positive_sampled(sample_program("transpose", 32, 0), seed=4)
        # the leading blocks of the Choi matrix refute it, so no (1, 1024, 1024) stack is
        # tested; then the basis, Fourier and 1000 random states in blocks of at most 1024
        assert shapes == [(32, 32, 32), (32, 32, 32), (1000, 32, 32)]
        assert max(shape[0] for shape in shapes) * 32 * 32 * 16 <= STACK_BYTES

    def test_basis_outputs_are_columns_of_the_superoperator(self, monkeypatch):
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

    @pytest.mark.parametrize("residual_tol", [DEFAULT_TOL.residual_tol, 0.0])
    @pytest.mark.parametrize("kind", KINDS + ("breaks_hermiticity",))
    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    def test_stacked_outputs_match_apply_matrix(self, kind, dim, residual_tol):
        c = breaks_hermiticity(dim) if kind == "breaks_hermiticity" else sample_program(kind, dim, 67)
        z = np.random.default_rng(dim).standard_normal((20, 2, dim))
        raw = z[:, 0] + 1j * z[:, 1]
        normalized = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        psis = np.concatenate([np.eye(dim), qwp_programs._fourier_basis(dim).T, normalized])
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
            want_h = qwp_linalg._hermitian_part(want)
            # only the lower triangle of h is written, with a real diagonal
            assert np.abs(lower_triangle(got) - lower_triangle(want_h)).max() <= bound
            assert not np.diagonal(got).imag.any()
            assert abs(gap - qwp_linalg._hermiticity_gaps(want)) <= bound
            # the band's inputs are h's own
            assert np.array_equal(diagonal, np.diagonal(got).real)
            assert sq_norm == pytest.approx(np.sum(np.abs(want_h) ** 2), rel=1e-12, abs=bound)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_the_anti_hermitian_rows_refute_a_map_that_breaks_hermiticity_off_the_basis(self, dim):
        # the basis outputs are hermitian and PSD, and every other output's hermitian part is PSD
        c = off_basis_skew(dim, 0.1)
        tol = ToleranceConfig(sample_count=50)
        assert len(qwp_programs._coordinate_matrix(c.super, tol.residual_tol)) == 2 * dim * dim
        got = is_positive_sampled(c, tol, seed=2)
        assert_same_verdict(got, is_positive_sampled_oracle(c, tol, seed=2))
        assert got.status == "counterexample" and got.samples == dim + 1
        assert np.array_equal(got.witness, qwp_programs._fourier_basis(dim)[:, 0])

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_a_defect_within_residual_tol_drops_the_rows_unless_residual_tol_is_zero(self, dim):
        c = off_basis_skew(dim, 1e-12)
        for tol, rows, status, samples in [
            # the defect bound, about 2.8e-12, passes residual_tol: no gap is computed, and none fails
            (ToleranceConfig(sample_count=50), dim * dim, "no_counterexample", 2 * dim + 50),
            # at residual_tol = 0 only a map whose anti-hermitian rows are all zero drops them
            (ToleranceConfig(residual_tol=0.0, sample_count=50), 2 * dim * dim, "counterexample", dim + 1),
        ]:
            assert len(qwp_programs._coordinate_matrix(c.super, tol.residual_tol)) == rows
            got = is_positive_sampled(c, tol, seed=3)
            assert_same_verdict(got, is_positive_sampled_oracle(c, tol, seed=3))
            assert (got.status, got.samples) == (status, samples)

    @pytest.mark.parametrize(
        "corner, sign, overflows", [(1.0, 1.0, False), (1.0, -1.0, False), (1.7e308, 1.0, True), (1.7e308, -1.0, False)]
    )
    def test_a_pair_of_entries_near_the_float_limit(self, corner, sign, overflows):
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
                assert np.array_equal(got.witness, qwp_programs._fourier_basis(2)[:, 1])


DIMS = (1, 2, 3, 5, 8)


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


class TestValidatePredicateOracle:
    @pytest.mark.parametrize("kind", ["valid", "complete", "non_psd", "non_hermitian", "above_identity", "all"])
    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_the_per_atom_loop(self, dim, n_atoms, kind):
        p = broken_predicate(kind, dim, n_atoms, np.random.default_rng([dim, n_atoms, 71]))
        report = validate_predicate(p)
        assert report == validate_predicate_oracle(p)
        assert report.ok == (kind in ("valid", "complete"))
        if kind == "all":
            # faults in atom order, the total's last; at d = 1 the PSD fault
            # of a0 pulls the total below the identity
            assert report.violations[0].startswith("effect 'a0' is not PSD")
            assert f"effect 'a{n_atoms - 1}' is not hermitian" in report.violations
            assert ("exceeds the identity" in report.violations[-1]) == (dim > 1)

    def test_tolerances_are_read_as_the_loop_reads_them(self):
        p = broken_predicate("all", 3, 3, np.random.default_rng(72))
        tol = ToleranceConfig(eig_tol=1e-3, residual_tol=1e-3)
        assert validate_predicate(p, tol) == validate_predicate_oracle(p, tol)

    def test_overflowing_total_raises_like_the_loop(self):
        big = np.diag([1e308, 1.0])
        p = Predicate(OutcomeSpace(("a", "b")), [big, big])
        for check in (validate_predicate, validate_predicate_oracle):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
                check(p)


def effect_flags_oracle(effects, total, tol):
    """The predicate rule as one eigvalsh of the effects and -total, with no Cholesky route."""
    stack = np.concatenate([effects, -total[..., None, :, :]], axis=-3)
    lows = qwp_linalg._eigvalsh(stack).min(axis=-1)
    not_psd, not_hermitian = lows[..., :-1] < -tol.eig_tol, qwp_linalg._hermiticity_gaps(effects) > tol.residual_tol
    return not_psd, not_hermitian, -lows[..., -1] > 1.0 + tol.eig_tol, lows


def state_flags_oracle(ms, tol, eig_slack):
    """The state rule as one eigvalsh of the stack, with no Cholesky route."""
    traces, lows = np.trace(ms, axis1=-2, axis2=-1), qwp_linalg._eigvalsh(ms).min(axis=-1)
    flags = (
        qwp_linalg._hermiticity_gaps(ms) > tol.residual_tol,
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


def refusal(fn, *args, **kwargs):
    """The message of the ValidationError fn raises on args, or None."""
    try:
        fn(*args, **kwargs)
    except ValidationError as exc:
        return str(exc)
    return None


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


RULE_DIMS = (1, 2, 3, 8, 17, 32)


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


def assert_effect_rule(effects, tol):
    """_effect_flags against its oracle on a stack (..., k, d, d); True when the band kernel decided it."""
    total = qwp_predicates._total_effects(effects)
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


class TestRuleOracles:
    """The predicate and state rules decide with the band kernel, and every flag, message and
    λ_min they report is the eigensolve's."""

    @pytest.mark.parametrize("dim", RULE_DIMS)
    def test_the_predicate_rule_matches_the_oracle(self, dim):
        tol = DEFAULT_TOL
        cases = rule_predicates(dim, tol)
        invalid = []
        for name, effects in cases.items():
            decided = assert_effect_rule(effects, tol)
            assert decided or not name.startswith("clean:"), name
            p = Predicate(OutcomeSpace(tuple(f"a{i}" for i in range(len(effects)))), effects)
            report = validate_predicate(p, tol)
            assert report == validate_predicate_oracle(p, tol), name
            want = None if report.ok else "invalid predicate: " + "; ".join(report.violations)
            assert refusal(qwp_predicates._require_valid, p, tol) == want, name
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
        not_psd, not_hermitian, over, _ = effect_flags_oracle(three, qwp_predicates._total_effects(three), tol)
        want = (not_psd | not_hermitian).any(axis=-1) | over
        assert qwp_predicates._predicate_faults(three, tol).tolist() == want.tolist()

    @pytest.mark.parametrize("dim", RULE_DIMS)
    def test_the_state_rule_matches_the_oracle(self, dim):
        tol = DEFAULT_TOL
        cases = rule_states(dim, tol)
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

    def test_a_valid_predicate_and_state_take_no_eigensolve(self, monkeypatch):
        c = sample_program("cptp", 8, 5)
        f = random_predicate(np.random.default_rng(227), 8)
        rho = spectral_state(np.random.default_rng(229), 8, -5.0 * DEFAULT_TOL.eig_tol)
        solves = count_calls(monkeypatch, np.linalg, "eigvalsh")
        reports = count_calls(monkeypatch, qwp_predicates, "_sums_to_identity")
        g = wp(c, f)
        out = apply(c, DensityState(rho, eig_slack=APPLY_EIG_SLACK))
        assert solves == [] and reports == []
        # a refusal names the eigensolve's λ_min
        with pytest.raises(ValidationError, match=r"^state is not PSD \(min eigenvalue -5\.000e-09\)$"):
            DensityState(rho)
        bad = Predicate(g.space, 1.5 * g.effects)
        with pytest.raises(ValidationError, match="total effect exceeds the identity"):
            wp(c, bad)
        assert solves == ["eigvalsh"] * 2 and reports == []
        assert out.dim == 8


class TestWpOracle:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dim", DIMS + (17, 32))
    def test_matches_the_per_atom_loop(self, dim, n_atoms, kind):
        rng = np.random.default_rng([dim, n_atoms, 73])
        c = sample_program(kind, dim, rng)
        f = random_predicate(rng, dim, n_atoms)
        got = wp(c, f)
        assert got.space == f.space
        for a, want in zip(f.space.atoms, wp_effects_oracle(c, f)):
            assert_same_bits(got.effect(a), want)

    @pytest.mark.parametrize("dim", [2, 3, 8, 32])
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_bits_as_the_adjoint_program_in_every_layout(self, kind, dim):
        rng = np.random.default_rng([dim, 19])
        c = sample_program(kind, dim, rng)
        f = random_predicate(rng, dim)
        fortran = from_super(np.asfortranarray(c.super))
        assert fortran.super.flags.f_contiguous and not c.super.flags.f_contiguous
        for prog in (c, fortran, adjoint(adjoint(c))):
            got = wp(prog, f)
            for a, want in zip(f.space.atoms, wp_effects_oracle(prog, f)):
                assert_same_bits(got.effect(a), want)

    def test_overflowing_output_raises_as_the_per_atom_form(self):
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


def unital_layouts(kind, dim):
    """A program's superoperator C- and F-ordered, and its adjoint's as stored (by columns) and C-ordered."""
    c = sample_program(kind, dim, np.random.default_rng([dim, 41]))
    dual = adjoint(c).super
    return c.super, np.asfortranarray(c.super), dual, np.ascontiguousarray(dual)


def unital_gap_bound(s):
    """4·d·u·(m + 1), m the largest Σ_k |S[k(d+1), j]|: twice the rounding of a d-term sum of
    each entry of C*(I) in any order, with room for the subtraction of I and the modulus."""
    d = int(round(np.sqrt(s.shape[-1])))
    m = np.abs(s[..., :: d + 1, :]).sum(axis=-2).max(axis=-1)
    return 4 * d * (np.finfo(float).eps / 2) * (m + 1.0)


class TestUnitalGaps:
    """The trace-preservation gap reads only the d rows k(d+1) of S, summed in row order; it
    agrees with the full product Sᵀ vec(I) within a rounding bound, and its verdicts with the product's."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16, 17, 32])
    @pytest.mark.parametrize("kind", KINDS)
    def test_gaps_match_the_oracle(self, kind, dim):
        for s in unital_layouts(kind, dim):
            got, want = qwp_programs._unital_gaps(s), unital_gaps_oracle(s)
            assert abs(float(got) - float(want)) <= unital_gap_bound(s)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16, 17, 32])
    @pytest.mark.parametrize("kind", KINDS)
    def test_verdicts_match_the_oracle_at_and_around_the_tolerance(self, kind, dim):
        tol = DEFAULT_TOL.residual_tol
        perturbed = 0
        for s in unital_layouts(kind, dim):
            want = float(unital_gaps_oracle(s))
            assert (float(qwp_programs._unital_gaps(s)) <= tol) == (want <= tol) == is_trace_preserving(from_super(s))
            if want > tol / 1000:
                continue  # a map that is not trace preserving: no gap near the tolerance to set
            for k in (0.5, 2.0):
                t = np.array(s, order="K")  # the same layout
                t[0, 0] += k * tol  # moves C*(I)[0, 0] by k·residual_tol
                gap = float(qwp_programs._unital_gaps(t))
                assert gap == pytest.approx(k * tol, rel=1e-3)
                assert (gap <= tol) == (float(unital_gaps_oracle(t)) <= tol) == (k < 1)
                perturbed += 1
        # the program and its C- and F-ordered copies are trace preserving
        assert perturbed >= 4

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 17])
    def test_a_stack_has_the_bits_of_its_members_in_every_layout(self, dim):
        members = [s for kind in KINDS for s in unital_layouts(kind, dim)]
        singles = np.array([qwp_programs._unital_gaps(s) for s in members])
        stack = np.stack(members)
        dual = np.stack([s.conj() for s in members]).swapaxes(-1, -2)  # stored by columns, as adjoint does
        for layout in (stack, np.asfortranarray(stack)):
            assert np.array_equal(qwp_programs._unital_gaps(layout), singles)
        assert np.array_equal(qwp_programs._unital_gaps(dual), [qwp_programs._unital_gaps(s.conj().T) for s in members])

    @pytest.mark.parametrize("dim, count", [(32, None), (6, 3)])
    def test_only_the_rows_k_d_plus_1_are_read(self, dim, count):
        # one trace-preserving superoperator at d = 32, and a stack of three at d = 6
        rng = np.random.default_rng([dim, 43])
        kinds = ("cptp",) if count is None else KINDS[:count]
        s = np.array([sample_program(kind, dim, rng).super for kind in kinds])
        s = s[0] if count is None else s
        want = qwp_programs._unital_gaps(s)
        poisoned = np.full_like(s, np.nan)
        poisoned[..., :: dim + 1, :] = s[..., :: dim + 1, :]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = qwp_programs._unital_gaps(poisoned)
        assert np.isfinite(want).all() and np.array_equal(got, want)


class TestFromKrausOracle:
    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_the_kron_sum(self, dim, count, real):
        rng = np.random.default_rng([dim, count, 79])
        ks = rng.standard_normal((count, dim, dim))
        if not real:
            ks = ks + 1j * rng.standard_normal((count, dim, dim))
        # zero entries, one of them negative, give the terms signed zeros
        ks[:, :, 0] = 0.0
        ks[:, 0, 0] = -0.0
        c = from_kraus(list(ks))
        want = kraus_super_oracle(ks)
        assert_same_bits(c.super, want)
        assert np.any(want == 0)
        assert all(np.array_equal(k, want_k) for k, want_k in zip(c.kraus, ks))

    def test_left_to_right_sum_at_dim_one(self):
        # a (k, 1, 1) stack is contiguous along k, where numpy's reductions
        # sum pairwise; the Kraus sum must still add term after term
        rng = np.random.default_rng(80)
        for count in [3, 4, 5] * 100:
            ks = rng.standard_normal((count, 1, 1)) + 1j * rng.standard_normal((count, 1, 1))
            assert_same_bits(from_kraus(list(ks)).super, kraus_super_oracle(ks))


# superoperators of d ≥ 17 exceed ROW_BLOCK_BYTES and are built in blocks: the
# last one is partial at d = 17 and 23, and holds a single leading index at 33
BLOCK_DIMS = (16, 17, 23, 32, 33)


def signed_kraus(rng, shape):
    """Complex operators of the given stack shape whose zero entries, one of them negative, give signed zeros."""
    ks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ks[..., :, 0] = 0.0
    ks[..., 0, 0] = -0.0
    return ks


class TestBlockedBuilds:
    """Builds written block by block keep the bits of the full-array expressions."""

    @pytest.mark.parametrize("count", [1, 4])
    @pytest.mark.parametrize("dim", BLOCK_DIMS)
    def test_from_kraus_matches_the_kron_sum(self, dim, count):
        ks = signed_kraus(np.random.default_rng([dim, count, 81]), (count, dim, dim))
        assert_same_bits(from_kraus(list(ks)).super, kraus_super_oracle(ks))

    @pytest.mark.parametrize("dim", [17, 23])
    def test_stacked_kraus_sums(self, dim):
        # _sampled_supers' layout (r, n, d, d): operator r of program m sits at [r, m]
        ks = signed_kraus(np.random.default_rng([dim, 82]), (3, 2, dim, dim))
        got = qwp_programs._kraus_supers(ks)
        for m in range(2):
            assert_same_bits(got[m], kraus_super_oracle(ks[:, m]))

    @pytest.mark.parametrize("dim", [17, 33])
    def test_mix_matches_the_full_expression(self, dim):
        rng = np.random.default_rng([dim, 83])
        c1, c2 = transpose_program(dim), from_kraus(list(signed_kraus(rng, (2, dim, dim))))
        w = float(rng.uniform())
        assert_same_bits(mix(w, c1, c2).super, w * c1.super + (1 - w) * c2.super)

    def test_array_weights_match_the_full_expression(self):
        # transpose_mix programs of a campaign block: one weight per program
        rng = np.random.default_rng(84)
        s1 = transpose_program(17).super
        s2 = qwp_programs._kraus_supers(signed_kraus(rng, (2, 3, 17, 17)))
        w = rng.uniform(size=(3, 1, 1))
        assert_same_bits(qwp_programs._mixed(w, s1, s2), w * s1 + (1 - w) * s2)

    def test_from_kraus_peak_at_dim_32(self):
        ks = list(random_isometry(np.random.default_rng(85), 4 * 32, 32).reshape(4, 32, 32))
        tracemalloc.start()
        try:
            from_kraus(ks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 16 MiB superoperator, one 1 MiB block buffer and the finite check's 1 MiB mask
        assert peak <= 20 << 20

    def test_transpose_mixture_peak_at_dim_32(self):
        ks = list(random_isometry(np.random.default_rng(86), 2 * 32, 32).reshape(2, 32, 32))
        tracemalloc.start()
        try:
            mix(0.3, transpose_program(32), from_kraus(ks))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # three 16 MiB superoperators (the transpose, the Kraus sum, the mixture) and block buffers
        assert peak <= 52 << 20


class TestRandomPredicateOracle:
    @pytest.mark.parametrize("complete", [False, True])
    @pytest.mark.parametrize("n_atoms", [None, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_the_block_loop(self, dim, n_atoms, complete):
        rng = np.random.default_rng([dim, n_atoms or 0, 83])
        oracle_rng = np.random.default_rng([dim, n_atoms or 0, 83])
        got = random_predicate(rng, dim, n_atoms, complete)
        assert_same_predicate(got, random_predicate_oracle(oracle_rng, dim, n_atoms, complete))

    def test_left_to_right_total_at_dim_one(self):
        # see TestFromKrausOracle.test_left_to_right_sum_at_dim_one
        for seed in range(300):
            got = random_predicate(np.random.default_rng(seed), 1, 3 + seed % 3)
            assert_same_predicate(got, random_predicate_oracle(np.random.default_rng(seed), 1, 3 + seed % 3))

    @pytest.mark.parametrize("complete", [False, True])
    @pytest.mark.parametrize("dim", DIMS)
    def test_consumes_the_stream_like_the_block_loop(self, dim, complete):
        rng = np.random.default_rng([dim, 89])
        oracle_rng = np.random.default_rng([dim, 89])
        for n_atoms in (None, 1, 4):
            random_predicate(rng, dim, n_atoms, complete)
            random_predicate_oracle(oracle_rng, dim, n_atoms, complete)
            assert np.array_equal(rng.standard_normal(3), oracle_rng.standard_normal(3))


def labelled(mats):
    return Predicate(OutcomeSpace(tuple(f"a{i}" for i in range(len(mats)))), list(mats))


class TestTotalEffectOracle:
    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 5, 9])
    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_python_sum(self, dim, n_atoms):
        rng = np.random.default_rng([dim, n_atoms, 97])
        mats = rng.standard_normal((n_atoms, dim, dim)) + 1j * rng.standard_normal((n_atoms, dim, dim))
        # sum() starts from the integer 0, so an entry that is -0.0 in every
        # effect totals +0.0
        mats[:, -1, 0] = complex(-0.0, -0.0)
        want = sum(list(mats))
        assert not np.signbit(want[-1, 0].real) and not np.signbit(want[-1, 0].imag)
        assert_same_bits(labelled(mats).total_effect(), want)

    def test_left_to_right_at_dim_one(self):
        # see TestFromKrausOracle.test_left_to_right_sum_at_dim_one
        rng = np.random.default_rng(98)
        for n_atoms in list(range(1, 13)) * 25:
            mats = rng.standard_normal((n_atoms, 1, 1)) + 1j * rng.standard_normal((n_atoms, 1, 1))
            assert_same_bits(labelled(mats).total_effect(), sum(list(mats)))


def count_calls(monkeypatch, module, name):
    """Patch module.name with a wrapper that counts its calls; returns the counter list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestHermitianPart:
    def test_same_bits_as_add_then_halve(self):
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
            want = (a + a.conj().swapaxes(-1, -2)) / 2.0
            assert_same_bits(qwp_linalg._hermitian_part(a), want)

    def test_huge_entries_stay_finite(self):
        a = np.array([[1.7e308, 1.7e308], [1.7e308, -1.7e308]], dtype=np.complex128)
        with np.errstate(all="raise"):
            h = qwp_linalg._hermitian_part(a)
        assert np.array_equal(h, a)
        vals, _ = hermitian_eig(a)
        assert not np.isnan(vals).any()
        assert vals[0] < 0 < vals[1]


class TestPsdSqrtOracle:
    @pytest.mark.parametrize("dim", [1, 2, 3, 6, 8])
    def test_same_bits_as_the_per_matrix_root(self, dim):
        rng = np.random.default_rng([dim, 101])
        stack = np.array([random_effect_oracle(rng, dim) for _ in range(6)]).reshape(2, 3, dim, dim)
        # an eigenvalue just below zero, which the root clips
        u = random_isometry_oracle(rng, dim, dim)
        w = rng.uniform(0.0, 1.0, size=dim)
        w[0] = -1e-13
        stack[1, 2] = (u * w) @ u.conj().T
        assert np.linalg.eigvalsh(stack[1, 2]).min() < 0
        roots = qwp_linalg._psd_sqrts(stack)
        for idx in np.ndindex(2, 3):
            want = psd_sqrt_oracle(stack[idx])
            assert_same_bits(roots[idx], want)
            assert_same_bits(psd_sqrt(stack[idx]), want)


class TestPsdOracle:
    """is_psd decides with Cholesky at eig_tol ∓ δ and must give the eigensolve's verdict."""

    @pytest.mark.parametrize("dim", [2, 3, 8, 16])
    @pytest.mark.parametrize("kind", KINDS)
    def test_program_kinds(self, kind, dim):
        for seed in range(3):
            c = sample_program(kind, dim, seed)
            assert is_completely_positive(c) == is_psd(to_choi(c)) == is_psd_oracle(to_choi(c))

    @pytest.mark.parametrize("kind, want", [("cptp", True), ("transpose_mix", False)])
    def test_dim_32(self, kind, want, monkeypatch):
        j = to_choi(sample_program(kind, 32, 4))
        assert is_psd_oracle(j) is want
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        assert is_psd(j) is want
        assert calls == []

    @pytest.mark.parametrize("eps", [0.05, 1e-8])
    def test_nonpositive_map(self, eps):
        j = to_choi(nonpositive(3, eps))
        assert is_psd(j) == is_psd_oracle(j) is False

    @pytest.mark.parametrize("kind, dim", [("cptp", 8), ("transpose", 4), ("transpose_mix", 6)])
    @pytest.mark.parametrize("k", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_shifted_to_the_band_edges(self, kind, dim, k, side, monkeypatch):
        tol = DEFAULT_TOL
        j = to_choi(sample_program(kind, dim, 17))
        lowest = float(np.linalg.eigvalsh(j).min())
        base = j - (lowest + tol.eig_tol) * np.eye(dim * dim)
        delta = psd_band(base, tol)
        assert 0.0 < 4.0 * delta < tol.eig_tol
        # λ_min = -eig_tol + side·k·δ
        shifted = base + side * k * delta * np.eye(dim * dim)
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        got = is_psd(shifted, tol)
        # only inside the band, |λ_min + eig_tol| < δ, is the eigensolve needed
        assert calls == (["eigvalsh"] if k < 1 else [])
        monkeypatch.undo()
        assert got == is_psd_oracle(shifted, tol) == (side > 0)

    @pytest.mark.parametrize("k", [0.5, 2.0])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_a_band_set_by_its_eig_tol_term_at_the_band_edges(self, k, side, monkeypatch):
        # one entry near -eig_tol and zeros: μ ≈ 2·eig_tol + 2n·eig_tol, mostly its last term
        tol, n = DEFAULT_TOL, 16
        a = np.zeros((n, n), dtype=np.complex128)
        a[0, 0] = -tol.eig_tol
        delta = psd_band(a, tol)
        # λ_min = -eig_tol + side·k·δ
        a[0, 0] += side * k * delta
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        got = is_psd(a, tol)
        assert calls == (["eigvalsh"] if k < 1 else [])
        monkeypatch.undo()
        assert got == is_psd_oracle(a, tol) == (side > 0)

    def test_zero_eig_tol_takes_the_eigensolve(self, monkeypatch):
        tol = ToleranceConfig(eig_tol=0.0)
        for kind in KINDS:
            j = to_choi(sample_program(kind, 4, 23))
            calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
            got = is_psd(j, tol)
            assert calls == ["eigvalsh"]
            monkeypatch.undo()
            assert got == is_psd_oracle(j, tol)

    def test_non_hermitian_input_is_refused_before_any_factorization(self, monkeypatch):
        a = np.eye(4, dtype=np.complex128)
        a[0, 1] = 1e-3
        cholesky = record_shapes(monkeypatch, np.linalg, "cholesky")
        eigvalsh = count_calls(monkeypatch, np.linalg, "eigvalsh")
        assert is_psd(a) is False
        # only the probe of the leading n/4 square, which reads the hermitian part
        assert all(shape[-1] <= 4 // 4 for shape in cholesky) and eigvalsh == []
        assert is_psd_oracle(a) is False


def record_shapes(monkeypatch, module, name):
    """Patch module.name with a wrapper that records the shape of its first argument; returns the list."""
    shapes = []
    original = getattr(module, name)

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return shapes


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


class TestPsdKernel:
    """The stacked PSD kernel: one batched Cholesky a stack, the eigensolve's flags."""

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    @pytest.mark.parametrize("eig_tol", [1e-9, 0.0])
    def test_flags_match_the_oracle_on_mixed_stacks(self, n, eig_tol, monkeypatch):
        tol = ToleranceConfig(eig_tol=eig_tol)
        stack = psd_kernel_stack(np.random.default_rng([n, 131]), n, tol)
        # the whole stack, and alone its two matrices at ±δ/2 of the band edge
        for part in (stack, stack[5:7]):
            calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
            got = psd_stack_flags(part, tol)
            # each holds matrices inside the band, and at eig_tol = 0 there is no band
            assert calls == ["eigvalsh"]
            monkeypatch.undo()
            assert got.tolist() == [is_psd_oracle(m, tol) for m in part]
            assert got.tolist() == [is_psd(m, tol) for m in part]

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_a_stack_above_the_band_takes_no_eigensolve(self, n, monkeypatch):
        tol = DEFAULT_TOL
        rng = np.random.default_rng([n, 137])
        stack = np.array([at_band_offset(m, k, tol) for m in psd_kernel_stack(rng, n, tol)[::9] for k in (1.5, 3.0)])
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        got = psd_stack_flags(stack, tol)
        assert calls == []
        monkeypatch.undo()
        assert got.tolist() == [is_psd_oracle(m, tol) for m in stack] == [True] * len(stack)

    def test_a_stack_holding_a_matrix_whose_band_overflows_takes_the_eigensolve(self, monkeypatch):
        tol, n = DEFAULT_TOL, 5
        rng = np.random.default_rng([n, 149])
        above = [at_band_offset(m, 3.0, tol) for m in psd_kernel_stack(rng, n, tol)[::9]]
        huge = np.full(n, 8.5e307)
        broken = huge.copy()
        broken[n // 2] = -1.0
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        assert psd_stack_flags(np.array(above), tol).all() and calls == []
        stack = np.array(above + [np.diag(huge), np.diag(broken)])
        assert (psd_band(stack, tol) == np.inf).tolist() == [False] * len(above) + [True, True]
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = psd_stack_flags(stack, tol)
        assert calls == ["eigvalsh"]
        monkeypatch.undo()
        assert got.tolist() == [is_psd_oracle(m, tol) for m in stack] == [True] * (len(above) + 1) + [False]

    def test_the_mixture_audit_takes_no_eigensolve(self, monkeypatch):
        c = sample_program("transpose_mix", 32, 4)
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        got = is_positive_sampled(c, seed=3)
        assert calls == []
        assert (got.status, got.samples) == ("no_counterexample", 2 * 32 + 1000)

    def test_the_nonpositive_map_solves_only_its_counterexample_block(self, monkeypatch):
        c = nonpositive(32, 0.5)
        shapes = record_shapes(monkeypatch, np.linalg, "eigvalsh")
        got = is_positive_sampled(c, seed=3)
        assert shapes == [(32, 32, 32)]
        assert (got.status, got.samples) == ("counterexample", 1)
        assert np.array_equal(got.witness, np.eye(32)[0])

    def test_a_failure_in_the_leading_rows_stops_at_the_first_probe(self, monkeypatch):
        n = 64
        a = np.eye(n, dtype=np.complex128)
        a[1, 1] = -1.0
        shapes = record_shapes(monkeypatch, np.linalg, "cholesky")
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        assert is_psd(a) is False
        assert shapes == [(1, n // 16, n // 16)]
        assert calls == []

    def test_a_failure_in_the_trailing_rows_is_decided_by_the_full_factorization(self, monkeypatch):
        n = 64
        a = np.eye(n, dtype=np.complex128)
        a[-1, -1] = -1e-6
        shapes = record_shapes(monkeypatch, np.linalg, "cholesky")
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        assert is_psd(a) is False
        assert shapes == [(1, n // 16, n // 16), (1, n // 4, n // 4), (1, n, n), (1, n, n)]
        assert calls == []
        monkeypatch.undo()
        assert is_psd_oracle(a) is False

    def test_the_fallback_eigensolve_raises_a_decomposition_error(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(DecompositionError, match="eigendecomposition failed"):
            is_psd(np.eye(3), ToleranceConfig(eig_tol=0.0))
        with pytest.raises(DecompositionError, match="eigendecomposition failed"):
            is_positive_sampled(nonpositive(3, 0.5), seed=1)

    def test_no_factorization_error_escapes(self, monkeypatch):
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

    def test_the_mixture_audit_peak_at_dim_32(self):
        c = sample_program("transpose_mix", 32, 4)
        tracemalloc.start()
        try:
            got = is_positive_sampled(c, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got.status, got.samples) == ("no_counterexample", 2 * 32 + 1000)
        # at its widest the audit holds 32 MiB: the last block's 16 MiB hermitian
        # part, with either the coordinate matrix (8 MiB, the hermitian part's rows
        # alone) and the block's product it is written from (8 MiB), or its 16 MiB
        # Cholesky factor; the coordinate matrix is released before that block's
        # PSD test, and the block's real coordinates before its hermitian part
        assert peak <= 33.8 * (1 << 20)


def leading_cholesky_succeeds(a, m, shift):
    """Whether Cholesky runs through the leading m×m block of the hermitian part of a plus shift·I."""
    h = qwp_linalg._hermitian_part(a[:m, :m])
    return qwp_linalg._cholesky_succeeds(h + shift * np.eye(m))


class TestPsdStack:
    """The stack primitive: the gaps |a - aᴴ|, and the flags λ_min(h_k) < -t_k at each matrix's own
    threshold, with eigvalsh's λ_min."""

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_per_matrix_thresholds_match_the_oracle(self, n, monkeypatch):
        tol = DEFAULT_TOL
        stack = psd_kernel_stack(np.random.default_rng([n, 181]), n, tol)
        # thresholds from 0 to 2·eig_tol, so the band edges of the stack fall on either side of them
        thresholds = tol.eig_tol * np.linspace(0.0, 2.0, len(stack))
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        gaps, below, lows = qwp_linalg._psd_stack(stack, thresholds)
        assert calls == ["eigvalsh"]
        monkeypatch.undo()
        assert_same_bits(gaps, qwp_linalg._hermiticity_gaps(stack))
        want = qwp_linalg._eigvalsh(stack).min(axis=-1)
        assert_same_bits(lows, want)
        assert below.tolist() == (want < -thresholds).tolist()
        assert below.any() and not below.all()

    def test_a_gap_between_residual_tol_and_twice_it_is_refused(self):
        # the gap is |a - aᴴ|, read before the hermitian part overwrites aᴴ, not |a - h| = |a - aᴴ|/2
        tol = DEFAULT_TOL
        a = np.array([np.eye(3) / 3] * 2, dtype=np.complex128)
        a[1, 0, 2] += 1.5 * tol.residual_tol
        gaps, below, _ = qwp_linalg._psd_stack(a, tol.eig_tol)
        assert (gaps > tol.residual_tol).tolist() == [False, True] and not below.any()
        assert refusal(DensityState, a[1], tol) == "state is not hermitian"
        assert psd_stack_flags(a, tol).tolist() == [is_psd_oracle(m, tol) for m in a] == [True, False]


class TestLeadingBlockRefutation:
    """A single matrix, or a map's Choi matrix, refuted on its leading blocks at eig_tol + δ before any full-size copy."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16, 17, 24, 32, 33])
    def test_the_choi_corner_is_the_leading_square_of_to_choi(self, dim):
        # at d = 2, 3, 5, 17 and 33, n/4 is not a multiple of d, so the corner ends inside a block of d rows
        n = dim * dim
        c = from_super(gaussian_super(np.random.default_rng([dim, 211]), dim))
        for prog in (c, adjoint(c)):  # a C-ordered superoperator and a transposed one
            corner = qwp_linalg._leading_square(qwp_programs._choi_view(prog.super), n // 4)
            assert_same_bits(corner, to_choi(prog)[:n // 4, :n // 4])

    @pytest.mark.parametrize("k", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_a_defect_in_the_leading_rows_at_the_band_edges(self, k, side, monkeypatch):
        tol = DEFAULT_TOL
        n = 256
        m = n // 16
        rng = np.random.default_rng(223)
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        a = np.eye(n, dtype=np.complex128)
        a[:m, :m] = g @ g.conj().T / m
        a[:m, :m] -= (float(np.linalg.eigvalsh(a[:m, :m]).min()) + tol.eig_tol) * np.eye(m)
        delta = psd_band(a, tol)
        assert 0.0 < 4.0 * delta < tol.eig_tol
        # λ_min = -eig_tol + side·k·δ, in the leading n/16 rows
        a[:m, :m] += side * k * delta * np.eye(m)
        shapes = record_shapes(monkeypatch, np.linalg, "cholesky")
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        got = is_psd(a, tol)
        assert calls == (["eigvalsh"] if k < 1 else [])
        if side < 0 and k > 1:
            assert shapes == [(1, m, m)]
        monkeypatch.undo()
        assert got == is_psd_oracle(a, tol) == (side > 0)

    def test_a_skew_part_widens_the_one_band_of_the_probes_and_the_factorizations(self, monkeypatch):
        # a skew-hermitian part within residual_tol widens δ, read off a, well past the band of h alone
        tol = ToleranceConfig(residual_tol=1e-3)
        n = 64
        a = 1e-5 * np.eye(n) + 4e-4j * (np.ones((n, n)) - np.eye(n))
        a[0, 0] = -tol.eig_tol
        narrow = psd_band(qwp_linalg._hermitian_part(a), tol)
        assert psd_band(a, tol) > 4.0 * narrow
        a[0, 0] = -tol.eig_tol - 2.0 * narrow
        delta = psd_band(a, tol)
        # λ_min = -eig_tol - 2·narrow lies inside the band, in the leading row
        assert leading_cholesky_succeeds(a, n // 4, tol.eig_tol + delta)
        assert not leading_cholesky_succeeds(a, n, tol.eig_tol - delta)
        shapes = record_shapes(monkeypatch, np.linalg, "cholesky")
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        got = is_psd(a, tol)
        # both probes and both full factorizations pass the matrix on to the eigensolve
        assert shapes == [(1, n // 16, n // 16), (1, n // 4, n // 4), (1, n, n), (1, n, n)]
        assert calls == ["eigvalsh"]
        monkeypatch.undo()
        assert got is is_psd_oracle(a, tol) is False

    def test_entries_near_the_float_limit_take_no_probe(self, monkeypatch):
        rng = np.random.default_rng(227)
        mats = []
        for n in (64, 300):
            z = np.sign(rng.standard_normal((2, n, n)))
            mats.append(1.7e308 * (z[0] + 1j * z[1]))
            # a + aᴴ stays finite, so the oracle's symmetrized eigensolve runs
            diagonal = np.full(n, 8.5e307)
            mats.append(np.diag(diagonal))
            diagonal[n // 8] = -1.0
            mats.append(np.diag(diagonal))
        for a in mats:
            shapes = record_shapes(monkeypatch, np.linalg, "cholesky")
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                got = is_psd(a)
            # μ overflows, so δ ≥ eig_tol: no probe and no factorization at all
            assert shapes == []
            monkeypatch.undo()
            assert got == is_psd_oracle(a)

    def test_a_refuted_cp_check_copies_nothing_at_dim_32(self, monkeypatch):
        c = sample_program("transpose_mix", 32, 4)
        copies = count_calls(monkeypatch, qwp_programs, "to_choi")
        writes = count_calls(monkeypatch, qwp_linalg, "_write_hermitian_part")
        tracemalloc.start()
        try:
            assert is_completely_positive(c) is False
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert copies == [] and writes == []
        # the 1 MiB corner and its hermitian part, and the factor of the n/16 probe; no 16 MiB array
        assert peak <= 4 << 20


def lower_triangle(a):
    """The entries on and below the diagonal of each matrix of a stack, flattened."""
    n = a.shape[-1]
    return a[..., np.tri(n, dtype=bool)]


def preamble_oracle(a):
    """Gap and hermitian part of a matrix, or of each of a stack, from one full-size pass."""
    ah = a.conj().swapaxes(-1, -2)
    return qwp_linalg._hermiticity_gaps(a, ah), qwp_linalg._hermitian_part(a, ah.copy())


def blocked_gap(a):
    """The single-matrix route's hermiticity gap of a matrix, read off the blocks is_psd lays it out as."""
    return qwp_linalg._blocked_gap(qwp_linalg._square_blocks(a))


def block_lower(n, k):
    """The entries of an n×n matrix on and below its diagonal of k×k blocks."""
    rows = np.arange(n) // k
    return rows[:, None] >= rows[None, :]


class TestHermitianWriter:
    """The PSD kernel's gap, read in place, and hermitian part, written from the same block pairs into an n×n array."""

    def assert_writer_bits(self, blocks, a, h=None):
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
        lower = block_lower(n, k)
        assert_same_bits(h[lower], want_h[lower])
        if fresh:
            assert np.isnan(h[~lower]).all()

    @pytest.mark.parametrize("dim", [17, 24, 32])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_choi_views_of_superoperators(self, dim, order):
        rng = np.random.default_rng([dim, 151])
        for s in (sample_program("transpose_mix", dim, 5).super, gaussian_super(rng, dim)):
            s = np.asarray(s, order=order)
            blocks = qwp_programs._choi_view(s)
            self.assert_writer_bits(blocks, np.array(blocks).reshape(dim * dim, dim * dim))

    @pytest.mark.parametrize("n", [300, 257, 1024])
    def test_square_blocks(self, n):
        # 150-row blocks at n = 300, single rows at the prime n = 257 and 64-row blocks at n = 1024
        rng = np.random.default_rng([n, 157])
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks = qwp_linalg._square_blocks(a)
        assert blocks.shape[1] == {300: 150, 257: 1, 1024: 64}[n]
        self.assert_writer_bits(blocks, a)

    @pytest.mark.parametrize("n", [6, 300])
    def test_in_place_over_the_conversion_of_an_f_ordered_real_input(self, n):
        # is_psd writes h over its own conversion, which keeps the input's layout
        real = np.asfortranarray(np.random.default_rng([n, 159]).standard_normal((n, n)))
        a = np.array(real, dtype=np.complex128)
        assert a.flags.f_contiguous and not a.flags.c_contiguous
        self.assert_writer_bits(qwp_linalg._square_blocks(a), a.copy(), h=a)

    def test_a_gap_only_in_the_upper_triangle_of_the_last_diagonal_block(self):
        n = 17 * 17
        a = to_choi(sample_program("cptp", 17, 8))
        blocks = qwp_linalg._square_blocks(a)
        assert blocked_gap(a) <= DEFAULT_TOL.residual_tol
        a[n - blocks.shape[1], n - 1] += 1e-6
        self.assert_writer_bits(blocks, a)
        assert blocked_gap(a) > DEFAULT_TOL.residual_tol
        assert is_psd(a) is False

    def test_entries_near_the_float_limit(self):
        rng = np.random.default_rng(163)
        for n in (3, 300):
            z = np.sign(rng.standard_normal((2, n, n)))
            a = 1.7e308 * (z[0] + 1j * z[1])
            blocks = qwp_linalg._square_blocks(a)
            self.assert_writer_bits(blocks, a)
            # an overflowing gap reads inf, and h is written finite, without a warning
            h = np.empty_like(a)
            with np.errstate(all="raise"):
                gap = qwp_linalg._blocked_gap(blocks)
                qwp_linalg._write_hermitian_part(blocks, h)
            assert np.isfinite(lower_triangle(h)).all()
            assert gap == np.inf

    @pytest.mark.parametrize("n", [6, 300])
    def test_signed_zeros(self, n):
        rng = np.random.default_rng([n, 167])
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a.real[rng.random((n, n)) < 0.4] = 0.0
        a.imag[rng.random((n, n)) < 0.4] = -0.0
        a.real[rng.random((n, n)) < 0.2] *= -1.0
        a.imag[rng.random((n, n)) < 0.2] *= -1.0
        self.assert_writer_bits(qwp_linalg._square_blocks(a), a)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_a_stack_wider_than_one_block_row(self, order):
        n = 300
        rng = np.random.default_rng(179)
        g = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        psd = g @ g.conj().swapaxes(-1, -2) / n
        a = np.asarray([psd[0], psd[1], psd[2] - 2.0 * np.eye(n)], order=order)
        # the second matrix is non-hermitian only in its strict upper triangle
        a[1, 0, n - 1] += 1e-6
        for m in a:
            blocks = qwp_linalg._square_blocks(m)
            assert blocks.shape[1] == 150
            self.assert_writer_bits(blocks, m)
        flags = psd_stack_flags(a, DEFAULT_TOL)
        assert flags.tolist() == [is_psd_oracle(m) for m in a] == [True, False, False]

    @pytest.mark.parametrize("n", [5, 64, 300])
    def test_cholesky_reads_only_the_lower_triangle(self, n):
        rng = np.random.default_rng([n, 173])
        g = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        m = g @ g.conj().swapaxes(-1, -2) + np.eye(n)
        nan_above = m.copy()
        nan_above[:, ~np.tri(n, dtype=bool)] = np.nan
        assert_same_bits(np.linalg.cholesky(nan_above), np.linalg.cholesky(m))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dim", [17, 24])
    def test_verdicts_above_dim_16_match_the_oracle(self, kind, dim):
        for seed in range(2):
            c = sample_program(kind, dim, seed)
            assert is_completely_positive(c) is is_psd_oracle(to_choi(c))

    @pytest.mark.parametrize("k", [-2.0, -0.5, 0.5, 2.0])
    def test_is_psd_leaves_its_input_untouched(self, k, monkeypatch):
        # 150-row blocks; a full-rank matrix, which the certificate leaves to the full factorizations
        n = 300
        g = np.random.default_rng(181).standard_normal((2, n, n))
        a = at_band_offset((g[0] + 1j * g[1]) @ (g[0] - 1j * g[1]).T / n, k, DEFAULT_TOL)
        before = a.copy()
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        got = is_psd(a)
        # inside the band the eigensolve reads h in place, its diagonal restored
        assert calls == (["eigvalsh"] if abs(k) < 1 else [])
        monkeypatch.undo()
        assert_same_bits(a, before)
        assert got == is_psd_oracle(a) == (k > 0)

    def test_the_writer_allocates_no_full_size_array(self):
        blocks = qwp_programs._choi_view(sample_program("cptp", 32, 4).super)
        h = np.empty((32 * 32, 32 * 32), dtype=np.complex128)
        qwp_linalg._write_hermitian_part(blocks, h)
        tracemalloc.start()
        try:
            qwp_linalg._write_hermitian_part(blocks, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block row's conjugated partners, 0.5 MiB at most, against 16 MiB for the matrix
        assert peak <= 1 << 20

    def test_the_cp_check_peak_holds_one_full_size_array(self):
        c = low_rank_program(32, 40, 241)
        tracemalloc.start()
        try:
            assert is_completely_positive(c) is True
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 16 MiB array that h is written into, off the Choi view, and the 16 MiB factor of the
        # full Cholesky factorization that a rank above d needs
        assert peak <= 32.1 * (1 << 20)


class TestBand:
    """The one band δ of the PSD kernel, against the formula of psd_band."""

    @pytest.mark.parametrize("n", [1, 5, 64])
    @pytest.mark.parametrize("eig_tol", [1e-9, 0.0])
    def test_stacks(self, n, eig_tol):
        tol = ToleranceConfig(eig_tol=eig_tol)
        stack = psd_kernel_stack(np.random.default_rng([n, 229]), n, DEFAULT_TOL)
        # zero matrices, whose μ is the 2n·eig_tol term alone
        stack = np.concatenate([stack, np.zeros((2, n, n))])
        sq_norms = np.linalg.norm(stack, axis=(-2, -1)) ** 2
        got = qwp_linalg._band(n, np.diagonal(stack, axis1=-2, axis2=-1), sq_norms, tol.eig_tol)
        assert np.allclose(got, psd_band(stack, tol), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("dim", [2, 17, 32])
    def test_a_superoperator_gives_the_band_of_its_choi_matrix(self, dim):
        # the diagonal and entries that is_completely_positive reads off the superoperator
        for c in (sample_program("transpose_mix", dim, 5), low_rank_program(dim, 4, 233)):
            s, n = c.super, dim * dim
            got = qwp_linalg._band(n, s[::dim + 1, ::dim + 1].reshape(-1), np.vdot(s, s).real, DEFAULT_TOL.eig_tol)
            assert got == pytest.approx(psd_band(to_choi(c), DEFAULT_TOL), rel=1e-12, abs=0.0)

    def test_an_overflowing_mu_gives_inf_without_a_warning(self):
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


class TestLowRankCertificate:
    """A pivoted partial Cholesky with a small residual proves a single matrix PSD, after the leading probes."""

    def test_a_cp_map_check_peak_at_dim_32(self):
        c = sample_program("cptp", 32, 4)
        is_completely_positive(c)
        tracemalloc.start()
        try:
            assert is_completely_positive(c) is True
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the n/4 corner of the probes and its hermitian part, 1 MiB each, and the probe's factor;
        # the gap, the factor's d rows and the residual read S in place: no Choi copy, no full Cholesky factor
        assert peak <= 2.6 * (1 << 20)

    @pytest.mark.parametrize("dim", [8, 17, 24])
    @pytest.mark.parametrize("rank", ["1", "4", "d", "d+1"])
    def test_verdicts_match_the_oracle(self, dim, rank, monkeypatch):
        r = {"1": 1, "4": 4, "d": dim, "d+1": dim + 1}[rank]
        c = low_rank_program(dim, r, 191)
        j = to_choi(c)
        n = dim * dim
        shapes = record_shapes(monkeypatch, np.linalg, "cholesky")
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        assert is_completely_positive(c) is is_psd(j) is True
        probes = [(1, n // 16, n // 16), (1, n // 4, n // 4)]
        # isqrt(n) = d pivot steps drain a Choi matrix of rank at most d; one more rank takes the full factorization
        assert shapes == 2 * (probes if r <= dim else probes + [(1, n, n)])
        assert calls == []
        monkeypatch.undo()
        assert is_psd_oracle(j) is True

    @pytest.mark.parametrize("dim", [8, 17])
    @pytest.mark.parametrize("k", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_shifted_to_the_band_edges(self, dim, k, side, monkeypatch):
        tol = DEFAULT_TOL
        j = to_choi(low_rank_program(dim, 4, 193, rows=dim - 1))
        # v lies in the trailing zero rows of j, away from every pivot, so the Schur
        # complement left by the pivots is the shift alone
        n = dim * dim
        v = np.zeros(n, dtype=np.complex128)
        v[-dim:] = random_unitary(np.random.default_rng(dim), dim)[0]
        base = j - tol.eig_tol * np.outer(v, v.conj())
        delta = psd_band(base, tol)
        assert 0.0 < 4.0 * delta < tol.eig_tol
        # λ_min = -eig_tol + side·k·δ, and ‖h - L̂L̂ᴴ‖_F ≈ eig_tol - side·k·δ
        shifted = base + side * k * delta * np.outer(v, v.conj())
        shapes = record_shapes(monkeypatch, np.linalg, "cholesky")
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        got = is_psd(shifted, tol)
        # only inside the band is the eigensolve needed; only outside it, on the PSD side, the certificate decides
        assert calls == (["eigvalsh"] if k < 1 else [])
        if side > 0 and k > 1:
            assert shapes == [(1, n // 16, n // 16), (1, n // 4, n // 4)]
        monkeypatch.undo()
        assert got == is_psd_oracle(shifted, tol) == (side > 0)

    def test_a_drained_diagonal_with_an_indefinite_residual_is_refuted(self):
        # the leading probes pass, and one pivot step drains every Schur diagonal to zero,
        # but the trailing off-diagonal pair has eigenvalues ±1e-3
        n = 64
        a = np.zeros((n, n), dtype=np.complex128)
        a[0, 0] = 1.0
        a[n - 1, n - 2] = a[n - 2, n - 1] = 1e-3
        assert is_psd(a) is False
        assert is_psd_oracle(a) is False

    def test_a_rank_4_map_at_dim_32_takes_only_the_leading_probes(self, monkeypatch):
        c = low_rank_program(32, 4, 197)
        shapes = record_shapes(monkeypatch, np.linalg, "cholesky")
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        assert is_completely_positive(c) is True
        assert shapes == [(1, 64, 64), (1, 256, 256)]
        assert calls == []


class TestReadInPlace:
    """The single-matrix route reads its band, probes, gap and low-rank certificate off the input where it lies."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 17, 32])
    def test_the_gap_read_off_the_choi_view_has_the_bits_of_a_full_size_pass(self, dim):
        c = from_super(gaussian_super(np.random.default_rng([dim, 251]), dim))
        # a C-ordered superoperator, a transposed one, and a map whose Choi matrix is hermitian up to rounding
        for prog in (c, adjoint(c), sample_program("transpose_mix", dim, 5)):
            want, _ = preamble_oracle(to_choi(prog))
            assert_same_bits(qwp_linalg._blocked_gap(qwp_programs._choi_view(prog.super)), want)

    @pytest.mark.parametrize("n", [1, 5, 64, 289, 300, 1021])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_is_psd_reads_a_matrix_in_block_rows_that_fit_the_cap(self, n, order):
        rng = np.random.default_rng([n, 257])
        a = np.asarray(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), order=order)
        blocks = qwp_linalg._square_blocks(a)
        b, k = blocks.shape[:2]
        # a view; a prime n > 256 takes single rows
        assert np.shares_memory(blocks, a) and b * k == n
        assert k * n * 16 <= qwp_linalg.ROW_BLOCK_BYTES
        assert k == {1: 1, 5: 5, 64: 64, 289: 17, 300: 150, 1021: 1}[n]
        assert_same_bits(qwp_linalg._blocked_gap(blocks), preamble_oracle(a)[0])

    @pytest.mark.parametrize("dim", [3, 8, 17])
    def test_pivot_columns_have_the_bits_of_the_written_lower_triangle(self, dim):
        # signed zeros, where the hermitian part's halving and division set the signs
        rng = np.random.default_rng([dim, 263])
        n = dim * dim
        s = gaussian_super(rng, dim)
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

    @pytest.mark.parametrize("dim", [8, 17, 32])
    def test_a_defect_in_one_off_diagonal_block_is_refused_before_h_is_written(self, dim, monkeypatch):
        # the Choi matrix I/d of rho -> Tr(rho) I/d, but for one entry of block (p, q), q < p, below the
        # n/4 corner; that entry sits on the block's diagonal, so the block is hermitian by itself
        n, p, q, i = dim * dim, dim - 1, dim // 2, 1
        j = np.eye(n, dtype=np.complex128) / dim
        j[p * dim + i, q * dim + i] += 1e-6
        c = from_choi(j)
        writes = count_calls(monkeypatch, qwp_linalg, "_write_hermitian_part")
        assert is_completely_positive(c) is False
        assert writes == []
        monkeypatch.undo()
        assert is_psd_oracle(to_choi(c)) is False

    @pytest.mark.parametrize("phi, dim", [(choi_map, 3), (breuer_hall, 6), (breuer_hall, 8)])
    def test_a_positive_map_that_is_not_cp_is_refuted_after_the_certificate(self, phi, dim, monkeypatch):
        c = positive_not_cp(phi, dim, 269)
        n = dim * dim
        shapes = record_shapes(monkeypatch, np.linalg, "cholesky")
        copies = count_calls(monkeypatch, qwp_programs, "to_choi")
        assert is_completely_positive(c) is False
        # the probes pass and the certificate proves nothing: h's factorization at eig_tol + δ refutes it,
        # h written off the Choi view with no Choi copy
        assert shapes == [(1, m, m) for m in (n // 16, n // 4) if m] + [(1, n, n), (1, n, n)]
        assert copies == []
        monkeypatch.undo()
        assert is_psd_oracle(to_choi(c)) is False
        assert is_positive_sampled(c, ToleranceConfig(sample_count=50), seed=1).status == "no_counterexample"


# traced peaks of public calls at d = 32, in MiB, as measured with numpy 2.4.6
# and rounded up to 0.1 MiB; one d⁴ complex array is 16 MiB
PEAK_BOUNDS_MIB = {
    "from_super": 17.1,
    # the conjugate copy alone: its entries are not scanned again
    "adjoint": 16.1,
    "from_choi": 17.1,
    "wp": 0.3,
    "seq": 17.1,
    "measure_branch": 18.1,
    # the corner that the probes factor: a map that the low-rank certificate proves is read in place,
    # one that it leaves undecided has h written off the Choi view into one new array, with no Choi copy,
    # and adds the full Cholesky factor, also from a superoperator stored by columns; a refuted map copies
    # only its corner
    "is_completely_positive cptp": 2.6,
    "is_completely_positive rank-40": 32.1,
    "is_completely_positive adjoint rank-40": 32.1,
    "is_completely_positive transpose_mix": 2.6,
    "is_completely_positive adjoint transpose_mix": 2.6,
    "is_positive_sampled cptp": 2.6,
    # a block's hermitian part and its Cholesky factor, or the coordinate matrix and product it came from
    "is_positive_sampled transpose_mix": 33.8,
    # a real matrix's complex conversion, which h is written over in place, and the full Cholesky factor
    "is_psd real full-rank": 32.1,
}


@pytest.fixture(scope="module")
def peak_calls():
    """Each call of PEAK_BOUNDS_MIB, on d = 32 inputs built beforehand."""
    d = 32
    cptp, mixture = low_rank_program(d, 4, 241), sample_program("transpose_mix", d, 4)
    rank_40 = low_rank_program(d, 40, 241)
    rank_40_dual = adjoint(rank_40)
    dual = adjoint(mixture)
    s, j = cptp.super.copy(), to_choi(cptp)
    f = random_predicate(np.random.default_rng(241), d)
    g = np.random.default_rng(241).standard_normal((d * d, d * d))
    real = (g @ g.T / (d * d) + np.eye(d * d)) / (d * d)  # eigenvalues in [1/n, 5/n]: δ < eig_tol
    upper = np.diag((np.arange(d) < d // 2).astype(float))
    return {
        "from_super": lambda: from_super(s),
        "adjoint": lambda: adjoint(cptp),
        "from_choi": lambda: from_choi(j),
        "wp": lambda: wp(cptp, f),
        "seq": lambda: seq(cptp, mixture),
        "measure_branch": lambda: measure_branch([upper, np.eye(d) - upper], [cptp, mixture]),
        "is_completely_positive cptp": lambda: is_completely_positive(cptp),
        "is_completely_positive rank-40": lambda: is_completely_positive(rank_40),
        "is_completely_positive adjoint rank-40": lambda: is_completely_positive(rank_40_dual),
        "is_completely_positive transpose_mix": lambda: is_completely_positive(mixture),
        "is_completely_positive adjoint transpose_mix": lambda: is_completely_positive(dual),
        "is_positive_sampled cptp": lambda: is_positive_sampled(cptp, seed=3),
        "is_positive_sampled transpose_mix": lambda: is_positive_sampled(mixture, seed=3),
        "is_psd real full-rank": lambda: is_psd(real),
    }


@pytest.mark.parametrize("call", list(PEAK_BOUNDS_MIB))
def test_the_traced_peak_at_dim_32_stays_under_its_bound(call, peak_calls):
    run = peak_calls[call]
    run()  # a warm-up call, so that only the call's own arrays are traced
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BOUNDS_MIB[call] * (1 << 20)


class TestSamplerOracle:
    """The samplers are one-trial views of the stacked shapers and keep the per-matrix bits."""

    @pytest.mark.parametrize("dim", DIMS)
    def test_matrix_samplers(self, dim):
        for seed in range(20):
            rng, oracle_rng = np.random.default_rng([seed, dim]), np.random.default_rng([seed, dim])
            assert_same_bits(random_isometry(rng, 3 * dim, dim), random_isometry_oracle(oracle_rng, 3 * dim, dim))
            assert_same_bits(random_unitary(rng, dim), random_isometry_oracle(oracle_rng, dim, dim))
            assert_same_bits(random_effect(rng, dim), random_effect_oracle(oracle_rng, dim))
            u = random_isometry_oracle(oracle_rng, dim, dim)
            w = oracle_rng.uniform(-1.0, 1.0, size=dim)
            assert_same_bits(random_hermitian_contraction(rng, dim), (u * w) @ u.conj().T)
            assert np.array_equal(rng.standard_normal(3), oracle_rng.standard_normal(3))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_sample_program(self, kind, dim):
        for seed in range(5):
            rng, oracle_rng = np.random.default_rng([seed, dim, 5]), np.random.default_rng([seed, dim, 5])
            got, want = sample_program(kind, dim, rng), sample_program_oracle(kind, dim, oracle_rng)
            assert got.label == want.label
            assert_same_bits(got.super, want.super)
            assert (got.kraus is None) == (want.kraus is None)
            for k, want_k in zip(got.kraus or (), want.kraus or ()):
                assert_same_bits(k, want_k)
            assert np.array_equal(rng.standard_normal(3), oracle_rng.standard_normal(3))

    def test_random_cptp(self):
        for dim in DIMS:
            got = random_cptp(np.random.default_rng(dim), dim)
            want = random_cptp_oracle(np.random.default_rng(dim), dim)
            assert_same_bits(got.super, want.super)
            assert len(got.kraus) == dim

    @pytest.mark.parametrize("dim", DIMS)
    def test_effect_draws_replay_random_effect(self, dim):
        # k effects drawn in one call consume the stream as k random_effect calls
        rng, oracle_rng = np.random.default_rng([dim, 2]), np.random.default_rng([dim, 2])
        normals, spectra = qwp_linalg._effect_draws(rng, 3, dim)
        want = np.array([random_effect_oracle(oracle_rng, dim) for _ in range(3)])
        assert_same_bits(qwp_linalg._haar_spectral(normals, spectra), want)
        assert np.array_equal(rng.standard_normal(3), oracle_rng.standard_normal(3))

    @pytest.mark.parametrize("dim", DIMS)
    def test_hermitian_contraction_draws_replay_the_stream(self, dim):
        # the effect draws with eigenvalues on [-1, 1]: normals of the eigenbasis, then the eigenvalues
        for seed in range(10):
            rng, stream = np.random.default_rng([seed, dim, 3]), np.random.default_rng([seed, dim, 3])
            z, w = stream.standard_normal((2, dim, dim)), stream.uniform(-1.0, 1.0, size=dim)
            normals, spectra = qwp_linalg._effect_draws(rng, 1, dim, -1.0)
            assert np.array_equal(normals, z[None]) and np.array_equal(spectra, w[None])
            rng = np.random.default_rng([seed, dim, 3])
            assert np.array_equal(random_hermitian_contraction(rng, dim), qwp_linalg._haar_spectral(z, w))
            assert np.array_equal(rng.standard_normal(3), stream.standard_normal(3))

    @pytest.mark.parametrize("dim", DIMS)
    def test_stacked_effects_match_the_per_atom_draws(self, dim):
        # the draws weakest_check makes for 7 trials of 3 atoms, shaped in one stack
        normals, spectra, want = [], [], []
        for trial in range(7):
            rng, oracle_rng = np.random.default_rng([trial, 1]), np.random.default_rng([trial, 1])
            for _ in range(3):
                normals.append(rng.standard_normal((2, dim, dim)))
                spectra.append(rng.uniform(0.0, 1.0, size=dim))
                want.append(random_effect_oracle(oracle_rng, dim))
        assert_same_bits(qwp_linalg._haar_spectral(np.array(normals), np.array(spectra)), np.array(want))


CAMPAIGNS = {
    "duality": (duality_campaign, duality_campaign_oracle),
    "compose": (compose_campaign, compose_campaign_oracle),
    "orders": (orders_campaign, orders_campaign_oracle),
    "weakest": (weakest_campaign, weakest_campaign_oracle),
}
CAMPAIGN_DIMS = (2, 3, 4, 5, 6)


def assert_same_result(got, want):
    assert got == want
    assert got.max_residual.hex() == want.max_residual.hex()


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.fixture(scope="module")
def loop_outcomes():
    """The per-trial loops' results and exceptions, by (suite, residual_tol, seed), for
    test_raises_as_the_loop_does, whose stack caps do not change them."""
    return {}


class TestCampaignOracle:
    """The trial-batched sweeps against the per-trial loops."""

    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("suite", sorted(CAMPAIGNS))
    def test_matches_the_per_trial_loop(self, suite, seed):
        batched, loop = CAMPAIGNS[suite]
        assert_same_result(batched(CAMPAIGN_DIMS, 30, seed), loop(CAMPAIGN_DIMS, 30, seed))

    @pytest.mark.parametrize("suite", sorted(CAMPAIGNS))
    def test_run_split_into_blocks(self, suite, monkeypatch):
        batched, loop = CAMPAIGNS[suite]
        want = loop((2, 3), 40, 11)
        monkeypatch.setattr(qwp_linalg, "STACK_BYTES", 7 * 16 * 3**4)
        # seven superoperators of d = 3 a block; a weakest pair's 40 candidates
        # in sub-blocks of one or two, 50 states each
        assert qwp_linalg._block_size(3, 3 * 3) == 7
        assert [qwp_linalg._block_size(d, 50) for d in (2, 3)] == [2, 1]
        assert_same_result(batched((2, 3), 40, 11), want)

    def test_no_stack_exceeds_the_cap(self, monkeypatch):
        sizes = []
        gaps = qwp_campaigns._unital_gaps

        def recording(supers):
            sizes.append((supers.shape[-1], supers.nbytes))
            return gaps(supers)

        # the default cap keeps 1000 trials at d = 6 in two blocks
        assert qwp_linalg._block_size(6, 6 * 6) == 809
        monkeypatch.setattr(qwp_campaigns, "_unital_gaps", recording)
        monkeypatch.setattr(qwp_linalg, "STACK_BYTES", 7 * 16 * 3**4)
        compose_campaign((2, 3), 40, 5)
        # three superoperator stacks a block: seq(c1, c2), c2, c1
        assert [side for side, _ in sizes] == [4] * 3 * 2 + [9] * 3 * 6
        assert max(size for _, size in sizes) <= 7 * 16 * 3**4

    @pytest.mark.parametrize("stack_bytes", [None, 7 * 16 * 3**4])
    @pytest.mark.parametrize("residual_tol", [0.0, 1e-16, 3e-16, 1e-15])
    @pytest.mark.parametrize("suite", sorted(CAMPAIGNS))
    def test_raises_as_the_loop_does(self, suite, residual_tol, stack_bytes, monkeypatch, loop_outcomes):
        batched, loop = CAMPAIGNS[suite]
        tol = ToleranceConfig(residual_tol=residual_tol)
        for seed in (1, 7, 42):
            key = (suite, residual_tol, seed)
            if key not in loop_outcomes:
                try:
                    loop_outcomes[key] = loop(CAMPAIGN_DIMS, 20, seed, tol)
                except Exception as exc:
                    loop_outcomes[key] = (type(exc), str(exc))
        if stack_bytes is not None:
            monkeypatch.setattr(qwp_linalg, "STACK_BYTES", stack_bytes)
        for seed in (1, 7, 42):
            want = loop_outcomes[(suite, residual_tol, seed)]
            if isinstance(want, CampaignResult):
                assert_same_result(batched(CAMPAIGN_DIMS, 20, seed, tol), want)
            else:
                assert raised(batched, CAMPAIGN_DIMS, 20, seed, tol) == want

    def test_the_failures_cover_every_stage(self):
        # the messages test_raises_as_the_loop_does compares, one per stacked check
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

    def test_random_predicates_draw_at_most_the_named_atom_count(self):
        # the orders blocks are sized for MAX_RANDOM_ATOMS atoms a predicate
        counts = {len(random_predicate(np.random.default_rng(seed), 2).space) for seed in range(300)}
        assert counts == set(range(2, MAX_RANDOM_ATOMS + 1))

    def test_orders_stacks_stay_under_the_cap(self, monkeypatch):
        sizes, blocks = [], []
        densities, traces, block_values = qwp_campaigns._densities, qwp_campaigns._traces, qwp_campaigns._orders_block

        def recording_densities(z):
            out = densities(z)
            sizes.append(out.nbytes)
            return out

        def recording_traces(stack):
            sizes.append(stack.nbytes)
            return traces(stack)

        def recording_block(seed, dim, block, tol):
            blocks.append(len(block))
            return block_values(seed, dim, block, tol)

        want = orders_campaign_oracle((6,), 40, 9)
        cap = STACK_BYTES // 8
        monkeypatch.setattr(qwp_linalg, "STACK_BYTES", cap)
        monkeypatch.setattr(qwp_campaigns, "_densities", recording_densities)
        monkeypatch.setattr(qwp_campaigns, "_traces", recording_traces)
        monkeypatch.setattr(qwp_campaigns, "_orders_block", recording_block)
        assert_same_result(orders_campaign((6,), 40, 9), want)
        # blocks hold the (trials, k, states, 6, 6) products of the most atoms drawn, under the cap
        rows = cap // (16 * MAX_RANDOM_ATOMS * CERTIFYING_STATES * 6 * 6)
        assert rows == 18 and blocks == [rows, rows, 40 - 2 * rows]
        assert sizes and max(sizes) <= cap

    def test_a_non_hermitian_atom_after_one_not_below_is_refused(self):
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

    def test_orders_makes_no_scalar_order_call_outside_replay(self, monkeypatch):
        holders = [
            (qwp_campaigns, "random_predicate"),
            (qwp_campaigns, "psd_sqrt"),
            (qwp_campaigns, "random_effect"),
            (qwp_campaigns, "predicate_leq"),
            (qwp_predicates, "_loewner_order"),
            (qwp_linalg, "hermitian_eig"),
            # each pair's one eigensolve is an eigh, whose λ_min decides its order
            (qwp_linalg, "_eigvalsh"),
        ]
        calls = [count_calls(monkeypatch, module, name) for module, name in holders]
        orders_campaign(CAMPAIGN_DIMS, 30, 7)
        assert calls == [[]] * len(holders)
        # a refused block replays its trials through them
        with pytest.raises(ValueError, match="loewner_leq requires hermitian operands"):
            orders_campaign(CAMPAIGN_DIMS, 20, 1, ToleranceConfig(residual_tol=0.0))
        assert calls[3] and calls[4]

    def test_blocks_pull_back_c_ordered_conjugates(self, monkeypatch):
        # the blocks pass C-ordered conjugates, whose transposed view is the layout adjoint() stores
        layouts = []
        pull_back = qwp_campaigns._pull_back

        def recording(conjs, effects):
            layouts.append(conjs.flags.c_contiguous)
            return pull_back(conjs, effects)

        monkeypatch.setattr(qwp_campaigns, "_pull_back", recording)
        duality_campaign((2, 3), 20, 5)
        compose_campaign((2, 3), 20, 5)
        assert layouts and all(layouts)

    def test_a_refused_trial_that_passes_alone_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(qwp_campaigns, "_invalid_states", lambda ms, tol, eig_slack=1.0: np.ones(len(ms), bool))
        with pytest.raises(RuntimeError, match="refused trial 0 of dim 2, which passes alone"):
            duality_campaign((2,), 5, 0)

    def test_weakest_blocks_are_pairs_of_at_most_250_candidates(self, monkeypatch):
        counts = []
        dominations = qwp_campaigns._dominations

        def recording(c, f, tol, seed, n):
            counts.append(n)
            return dominations(c, f, tol, seed, n)

        want = weakest_campaign_oracle((2, 3), 260, 7)
        monkeypatch.setattr(qwp_campaigns, "_dominations", recording)
        got = weakest_campaign((2, 3), 260, 7)
        assert_same_result(got, want)
        assert counts == [250, 10] * 2 and got.trials == 520

    def test_weakest_oversized_candidates_fail_like_the_loop(self, monkeypatch):
        monkeypatch.setattr(qwp_wp, "_haar_spectral", lambda z, w: 1.3 * qwp_linalg._haar_spectral(z, w))
        oversized = lambda rng, d: 1.3 * random_effect_oracle(rng, d)  # noqa: E731
        got = weakest_campaign((2,), 260, 7)
        assert_same_result(got, weakest_campaign_oracle((2,), 260, 7, effect=oversized))
        assert 0 < got.failures < 2 * got.trials and got.max_residual > 0
        assert got.notes == (f"most negative domination margin {-got.max_residual:.3e}",)


class TestIsPreconditionOracle:
    """is_precondition's margins and witness from one stacked eigensolve, against one eigensolve an atom."""

    @staticmethod
    def margins_oracle(g, c, f):
        """The margin of each atom and the first atom of least margin with its lowest eigenvector."""
        transformed = wp(c, f)
        margins, worst = {}, (np.inf, None, None)
        for a in f.space.atoms:
            vals, vecs = hermitian_eig(transformed.effect(a) - g.effect(a))
            margins[a] = float(vals[0])
            if vals[0] < worst[0]:
                worst = (float(vals[0]), a, vecs[:, 0])
        return margins, worst[1], worst[2]

    def assert_matches_the_loop(self, g, c, f):
        report = is_precondition(g, c, f)
        margins, atom, vec = self.margins_oracle(g, c, f)
        assert list(report.margins) == list(margins)
        assert [m.hex() for m in report.margins.values()] == [m.hex() for m in margins.values()]
        assert report.holds == predicate_leq(g, wp(c, f))
        if not report.holds:
            assert report.witness.atom == atom
            assert_same_bits(report.witness.state.matrix, DensityState.pure(vec).matrix)
        return report

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_matches_the_per_atom_loop(self, kind, dim):
        c, f = problem(kind, dim, 71)
        rng = np.random.default_rng([73, dim])
        # a random candidate, which fails in every case here, and one scaled below wp, which holds
        g = random_predicate(rng, dim, n_atoms=len(f.space.atoms))
        self.assert_matches_the_loop(g, c, f)
        below = Predicate._from_stack(f.space, 0.5 * wp(c, f).effects)
        assert self.assert_matches_the_loop(below, c, f).holds

    def test_a_tie_takes_the_first_atom(self):
        f = projective_predicate(3)
        g = Predicate._from_stack(f.space, 1.25 * f.effects)
        report = self.assert_matches_the_loop(g, from_super(np.eye(9)), f)
        assert set(report.margins.values()) == {-0.25} and report.witness.atom == "0"

    @pytest.mark.parametrize("dim", [2, 3, 8, 16, 32])
    def test_stacked_eigh_has_the_per_matrix_bits(self, dim):
        z = np.random.default_rng(dim).standard_normal((4, 2, dim, dim))
        stack = z[:, 0] + 1j * z[:, 1]
        stack = stack + stack.conj().swapaxes(-1, -2)
        vals, vecs = qwp_linalg._eigh(stack)
        for i, a in enumerate(stack):
            want_vals, want_vecs = hermitian_eig(a)
            assert_same_bits(vals[i], want_vals)
            assert_same_bits(vecs[i], want_vecs)


class TestLoewnerKernelOracle:
    """The stacked order kernel against a per-atom loewner_leq loop, on hermitian pairs."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    def test_verdicts_match_the_per_atom_loop(self, dim):
        rng = np.random.default_rng([191, dim])
        tol = DEFAULT_TOL
        g = np.array([[random_hermitian_contraction(rng, dim) for _ in range(3)] for _ in range(6)])
        # λ_min(g - f) near 0 and ±eig_tol, and well clear of them, over the (6, 3) pairs
        shifts = np.array([-1.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 1e6] * 2).reshape(6, 3, 1, 1) * tol.eig_tol
        f = g + shifts * np.eye(dim)
        f[0] = g[0] + np.array([random_hermitian_contraction(rng, dim) for _ in range(3)])
        ordered, refused = qwp_linalg._loewner_flags(f, g, tol)
        want = [[loewner_leq(f[i, a], g[i, a], tol) for a in range(3)] for i in range(6)]
        assert ordered.tolist() == want and not refused.any()
        assert_same_bits(qwp_linalg._loewner_order(f, g, tol), ordered)
        space = OutcomeSpace(("a0", "a1", "a2"))
        got = [predicate_leq(Predicate(space, f[i]), Predicate(space, g[i]), tol) for i in range(6)]
        assert got == [all(row) for row in want]
        assert {v for row in want for v in row} == {True, False}


class TestHermiticityGaps:
    """A gap that overflows reads inf (not hermitian), with no warning."""

    def test_overflowing_gap_is_not_hermitian(self):
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
