"""Stacked sampling kernels against the per-state loops they replace.

The loops below are the reference oracles: they draw one state (or handle
one atom, Kraus operator or campaign trial) at a time from the same
generators and must give the stacked kernels' results exactly, float for
float, and a campaign's first error. The positivity audit
is the exception in arithmetic: it forms its outputs with one matrix
product, whose rounding differs from the loop's matrix-vector products, so
its outputs are held to a tolerance set from the dtype and its verdicts
(status, count, witness) to equality.
"""

import importlib
import warnings

import numpy as np
import pytest

from qwp.campaigns import CampaignResult, compose_campaign, duality_campaign, orders_campaign, weakest_campaign
from qwp.errors import DimensionMismatchError, NotTracePreservingError, ValidationError
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
    OutcomeSpace,
    Predicate,
    ValidationReport,
    predicate_leq,
    projective_predicate,
    random_predicate,
    validate_predicate,
)
from qwp.programs import (
    DensityState,
    PositivityVerdict,
    adjoint,
    apply,
    apply_matrices,
    apply_matrix,
    from_kraus,
    from_super,
    from_unitary,
    is_completely_positive,
    is_positive_sampled,
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
                    ok = ok and not np.any(lhs > rhs + tol.residual_tol)
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


def nonpositive(dim, eps):
    """rho -> (1 + eps) rho - eps Tr(rho) I/d: trace preserving, not positive for eps > 0."""
    flat = vec(np.eye(dim))
    return from_super((1 + eps) * np.eye(dim * dim) - eps * np.outer(flat, flat) / dim)


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

    def test_no_stack_exceeds_the_cap(self, monkeypatch):
        sizes = []

        def recording_apply(c, ms):
            # the (trials, states, d, d) stacks; wp acts on a 3-D stack of effects
            if ms.ndim == 4:
                sizes.append(ms.nbytes)
            return apply_matrices(c, ms)

        monkeypatch.setattr(qwp_wp, "apply_matrices", recording_apply)
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


class TestDualitySweepOracle:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dim", [2, 5, 16])
    def test_matches_the_loop_exactly(self, kind, dim):
        c, f = problem(kind, dim, 41)
        assert duality_residual_sweep(c, f, seed=6) == duality_residual_sweep_oracle(c, f, seed=6)

    def test_blocks_replay_one_stream(self, monkeypatch):
        c, f = problem("transpose_mix", 4, 43)
        want = duality_residual_sweep_oracle(c, f, seed=3, states=50)
        monkeypatch.setattr(qwp_linalg, "STACK_BYTES", 7 * 4 * 4 * 16)
        assert duality_residual_sweep(c, f, seed=3, states=50) == want

    def test_products_of_many_atoms_stay_under_the_bound(self, monkeypatch):
        # 16 atoms at d = 16: a block sized for one d×d matrix a state would
        # make (rows, 16, d, d) products of twice STACK_BYTES
        c = sample_program("cptp", 16, 47)
        f = projective_predicate(16)
        want = duality_residual_sweep_oracle(c, f, seed=8, states=500)
        sizes = []
        gaps = qwp_wp._duality_gaps

        def recorded(g, f, rho, out):
            sizes.append(16 * int(np.prod(np.broadcast_shapes(g.shape, rho[..., None, :, :].shape))))
            return gaps(g, f, rho, out)

        monkeypatch.setattr(qwp_wp, "_duality_gaps", recorded)
        assert duality_residual_sweep(c, f, seed=8, states=500) == want
        assert len(sizes) > 1 and max(sizes) <= STACK_BYTES


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
        # rho -> rho + 0.1i rho_00 (|0><1| + |1><0|): its hermitian part is rho itself
        p0, swap = vec(np.diag([1.0, 0.0])), vec(np.array([[0.0, 1.0], [1.0, 0.0]]))
        c = from_super(np.eye(4) + 0.1j * np.outer(swap, p0))
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
        rows = []
        outputs = qwp_programs._pure_outputs

        def recording(c, psis):
            rows.append(psis.shape[0])
            return outputs(c, psis)

        monkeypatch.setattr(qwp_programs, "_pure_outputs", recording)
        is_positive_sampled(sample_program("transpose", 32, 0), seed=4)
        # basis, Fourier, then the 1000 random states in one block of at most 1024
        assert rows == [32, 32, 1000]
        assert max(rows) * 32 * 32 * 16 <= STACK_BYTES

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_stacked_outputs_match_apply_matrix(self, kind, dim):
        c = sample_program(kind, dim, 67)
        z = np.random.default_rng(dim).standard_normal((20, 2, dim))
        raw = z[:, 0] + 1j * z[:, 1]
        normalized = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        psis = np.concatenate([np.eye(dim), qwp_programs._fourier_basis(dim).T, normalized])
        out = qwp_programs._pure_outputs(c, psis)
        # one GEMM sums in another order than one matrix-vector product
        bound = 4 * dim * dim * np.finfo(float).eps * np.abs(c.super).max()
        for psi, got in zip(psis, out):
            want = apply_matrix(c, np.outer(psi, psi.conj()))
            assert np.abs(got - want).max() <= bound


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


class TestWpOracle:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dim", DIMS)
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
        delta = qwp_linalg._psd_band(base, tol.eig_tol)
        assert 0.0 < 4.0 * delta < tol.eig_tol
        # λ_min = -eig_tol + side·k·δ
        shifted = base + side * k * delta * np.eye(dim * dim)
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        got = is_psd(shifted, tol)
        # only inside the band, |λ_min + eig_tol| < δ, is the eigensolve needed
        assert calls == (["eigvalsh"] if k < 1 else [])
        monkeypatch.undo()
        assert got == is_psd_oracle(shifted, tol) == (side > 0)

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
        cholesky = count_calls(monkeypatch, np.linalg, "cholesky")
        eigvalsh = count_calls(monkeypatch, np.linalg, "eigvalsh")
        assert is_psd(a) is False
        assert cholesky == [] and eigvalsh == []
        assert is_psd_oracle(a) is False


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

    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_random_cptp(self, count):
        for dim in DIMS:
            got = random_cptp(np.random.default_rng([dim, count]), dim, count)
            want = random_cptp_oracle(np.random.default_rng([dim, count]), dim, count)
            assert_same_bits(got.super, want.super)
            assert len(got.kraus) == count

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
    def test_raises_as_the_loop_does(self, suite, residual_tol, stack_bytes, monkeypatch):
        batched, loop = CAMPAIGNS[suite]
        tol = ToleranceConfig(residual_tol=residual_tol)
        if stack_bytes is not None:
            monkeypatch.setattr(qwp_linalg, "STACK_BYTES", stack_bytes)
        for seed in (1, 7, 42):
            try:
                want = loop(CAMPAIGN_DIMS, 20, seed, tol)
            except Exception as exc:
                assert raised(batched, CAMPAIGN_DIMS, 20, seed, tol) == (type(exc), str(exc))
            else:
                assert_same_result(batched(CAMPAIGN_DIMS, 20, seed, tol), want)

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

        def recording_block(seed, dim, block, tol, states_per_pair):
            blocks.append(len(block))
            return block_values(seed, dim, block, tol, states_per_pair)

        want = orders_campaign_oracle((6,), 40, 9, states_per_pair=400)
        monkeypatch.setattr(qwp_campaigns, "_densities", recording_densities)
        monkeypatch.setattr(qwp_campaigns, "_traces", recording_traces)
        monkeypatch.setattr(qwp_campaigns, "_orders_block", recording_block)
        assert_same_result(orders_campaign((6,), 40, 9, states_per_pair=400), want)
        # blocks that would hold the (trials, 4, 400, 6, 6) products of four atoms under the cap
        assert blocks == [18, 18, 4]
        assert 18 * 4 * 400 * 6 * 6 * 16 <= STACK_BYTES
        assert sizes and max(sizes) <= STACK_BYTES

    def test_an_order_that_stops_before_a_non_hermitian_atom(self):
        # trial 7 of dim 2, seed 3: atom a0 of f is not below g's, so
        # predicate_leq returns False before loewner_leq reaches a2, whose
        # hermiticity gap exceeds residual_tol; the trial is not refused
        tol = ToleranceConfig(residual_tol=1e-16)
        f, g = orders_pair_oracle(np.random.default_rng([3, 2, 7]), 2, 7)
        assert not loewner_leq(f.effect("a0"), g.effect("a0"), tol)
        assert not is_hermitian(f.effect("a2"), tol)
        assert not predicate_leq(f, g, tol)
        assert_same_result(orders_campaign((2,), 8, 3, tol), orders_campaign_oracle((2,), 8, 3, tol))

    def test_orders_makes_no_scalar_order_call_outside_replay(self, monkeypatch):
        holders = [
            (qwp_campaigns, "random_predicate"),
            (qwp_campaigns, "psd_sqrt"),
            (qwp_campaigns, "random_effect"),
            (qwp_campaigns, "predicate_leq"),
            (qwp_predicates, "loewner_leq"),
            (qwp_linalg, "hermitian_eig"),
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

        def recording(c, f, tol, seed, n, states_per_trial):
            counts.append(n)
            return dominations(c, f, tol, seed, n, states_per_trial)

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
