"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``criterion NN ...: PASS/FAIL`` line (run pytest with -s
to see the lines for passing tests). Seeds are fixed so every run is a replay.
"""

import time

import numpy as np

from qwp.campaigns import compose_campaign, duality_campaign, orders_campaign
from qwp.linalg import (
    ToleranceConfig,
    min_eigenvalue,
    operator_norm_hermitian,
    sample_random,
    trace_norm,
)
from qwp.predicates import (
    Predicate,
    predicate_leq,
    projective_predicate,
    random_predicate,
    scaled_predicate,
)
from qwp.programs import (
    amplitude_damping,
    depolarizing,
    identity_program,
    is_completely_positive,
    is_positive_sampled,
    random_cptp,
    sample_program,
    to_choi,
    transpose_program,
)
from qwp.wp import dp_reduction, is_precondition, weakest_check, wp
from test_wp import kraus_adjoint_oracle

SEED = 20240

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_duality_identity():
    started = time.perf_counter()
    result = duality_campaign([2, 3, 4], 1000, seed=SEED)
    elapsed = time.perf_counter() - started
    check(
        "01 duality identity",
        result.failures == 0 and result.max_residual <= 1e-10,
        f"max residual {result.max_residual:.3e} <= 1e-10 over {result.trials} tuples "
        f"incl. transpose, {elapsed:.1f}s",
    )


def test_criterion_02_membership_and_majorization():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)

    # membership: the transformed predicate is a precondition of itself
    membership_ok = True
    for trial in range(60):
        dim = 2 + trial % 3
        c = sample_program(("cptp", "unitary", "transpose", "transpose_mix")[trial % 4], dim, rng)
        f = random_predicate(rng, dim)
        membership_ok &= is_precondition(wp(c, f), c, f, seed=trial).holds

    # majorization over 1000 shrinkage candidates
    tol = ToleranceConfig(sample_count=1000)
    c = random_cptp(np.random.default_rng(SEED + 1), 2)
    f = random_predicate(np.random.default_rng(SEED + 2), 2, n_atoms=2)
    audit = weakest_check(c, f, tol, seed=SEED)

    # 100 adversarial bumps must be rejected with valid witnesses
    transformed = wp(c, f)
    rejected = 0
    for trial in range(100):
        bump_rng = np.random.default_rng([SEED, 7, trial])
        atom = transformed.space.atoms[int(bump_rng.integers(len(transformed.space.atoms)))]
        effects = {a: np.array(transformed.effect(a)) for a in transformed.space.atoms}
        effects[atom] = effects[atom] + 1e-3 * sample_random("effect", 2, bump_rng)
        report = is_precondition(Predicate(transformed.space, effects), c, f, seed=trial)
        if (
            not report.holds
            and report.witness is not None
            and report.witness.lhs > report.witness.rhs + 1e-9
        ):
            rejected += 1
    elapsed = time.perf_counter() - started
    check(
        "02 membership + majorization",
        membership_ok
        and audit.all_dominated
        and audit.confirmed_preconditions == audit.trials
        and rejected == 100,
        f"membership 60/60, dominated {audit.dominated}/{audit.trials}, "
        f"adversarial rejected {rejected}/100, {elapsed:.1f}s",
    )


def test_criterion_03_representation_agreement():
    rng = np.random.default_rng(SEED + 3)
    worst_wp = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        c = random_cptp(rng, dim)
        f = random_predicate(rng, dim)
        g = wp(c, f)
        for a in f.space.atoms:
            oracle = kraus_adjoint_oracle(c.kraus, f.effect(a))
            worst_wp = max(worst_wp, float(np.abs(g.effect(a) - oracle).max()))
    worst_dp = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        c = random_cptp(rng, dim)
        m = sample_random("effect", dim, rng)
        worst_dp = max(
            worst_dp, float(np.abs(dp_reduction(c, m) - kraus_adjoint_oracle(c.kraus, m)).max())
        )
    check(
        "03 representation agreement",
        worst_wp <= 1e-10 and worst_dp <= 1e-10,
        f"superoperator vs Kraus route {worst_wp:.3e}, single-effect reduction {worst_dp:.3e}, both <= 1e-10",
    )


def test_criterion_04_hermitian_norm_is_spectral_radius():
    rng = np.random.default_rng(SEED + 4)
    worst_gap = 0.0
    worst_norm = 0.0
    for _ in range(500):
        dim = int(rng.integers(2, 6))
        p = random_predicate(rng, dim)
        for a in p.space.atoms:
            effect = p.effect(a)
            spectral_radius = operator_norm_hermitian(effect)
            # largest singular value through an independent decomposition
            svd_norm = float(np.linalg.norm(effect, ord=2))
            worst_gap = max(worst_gap, abs(svd_norm - spectral_radius))
            worst_norm = max(worst_norm, svd_norm)
    check(
        "04 norm equals spectral radius",
        worst_gap <= 1e-12 and worst_norm <= 1.0 + 1e-9,
        f"max |svd - eig| gap {worst_gap:.3e} <= 1e-12, max norm {worst_norm:.12f} <= 1+1e-9",
    )


def test_criterion_05_trace_norm_inequality():
    rng = np.random.default_rng(SEED + 5)
    violations = 0
    worst = -np.inf
    for _ in range(1000):
        dim = int(rng.integers(2, 6))
        a = sample_random("hermitian_contraction", dim, rng)
        rho = sample_random("density", dim, rng)
        slack = operator_norm_hermitian(a) * trace_norm(rho) + 1e-9 - trace_norm(a @ rho)
        worst = max(worst, -slack)
        violations += int(slack < 0.0)
    check(
        "05 trace-norm inequality",
        violations == 0,
        f"0/1000 violations of |A rho|_1 <= |A| |rho|_1 + 1e-9 (worst excess {worst:.3e})",
    )


def test_criterion_06_order_equivalence():
    result = orders_campaign([2, 3, 4], 200, seed=SEED + 6)
    check(
        "06 order equivalence",
        result.failures == 0,
        f"s-order vs pointwise order agreement {result.trials}/{result.trials}, "
        "every negative pair produced a verified witness state",
    )


def test_criterion_07_completeness_preservation():
    rng = np.random.default_rng(SEED + 7)
    worst = 0.0
    for trial in range(200):
        dim = 2 + trial % 3
        c = sample_program(("cptp", "unitary", "transpose", "transpose_mix")[trial % 4], dim, rng)
        f = random_predicate(rng, dim, complete=True)
        g = wp(c, f)
        total = sum(g.effect(a) for a in g.space.atoms)
        worst = max(worst, float(np.abs(total - np.eye(dim)).max()))
    check(
        "07 completeness preservation",
        worst <= 1e-9,
        f"200 complete predicates through 200 TP programs, worst |sum - I| = {worst:.3e} <= 1e-9",
    )


def test_criterion_08_chain_supremum():
    from qwp.predicates import chain_sup

    rng = np.random.default_rng(SEED + 8)
    worst = 0.0
    dominated = True
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        f = random_predicate(rng, dim)
        chain = [scaled_predicate(f, 1.0 - 2.0 ** (-n)) for n in range(1, 21)]
        top = chain_sup(chain)
        dominated &= all(predicate_leq(element, top) for element in chain)
        for a in f.space.atoms:
            worst = max(worst, float(np.abs(top.effect(a) - f.effect(a)).max()))
    check(
        "08 chain supremum",
        dominated and worst <= 2.0 ** -20,
        f"geometric chains: supremum dominates all elements, gap to analytic limit {worst:.3e} <= 2^-20",
    )


def test_criterion_09_composition_law():
    result = compose_campaign([3], 200, seed=SEED + 9)
    check(
        "09 composition law",
        result.failures == 0 and result.max_residual <= 1e-10,
        f"max deviation {result.max_residual:.3e} <= 1e-10 over {result.trials} program pairs at dim 3",
    )


def test_criterion_10_cp_discrimination():
    started = time.perf_counter()
    t = transpose_program(2)
    choi_min = min_eigenvalue(to_choi(t))
    not_cp = not is_completely_positive(t)
    verdict = is_positive_sampled(t, ToleranceConfig(sample_count=10_000), seed=SEED)

    rng = np.random.default_rng(SEED + 10)
    kraus_programs = [random_cptp(rng, int(rng.integers(2, 5))) for _ in range(47)]
    kraus_programs += [amplitude_damping(0.3), depolarizing(0.6), identity_program(3)]
    all_cp = all(
        is_positive_sampled(c, ToleranceConfig(sample_count=10)).status == "certified_cp"
        for c in kraus_programs
    )
    elapsed = time.perf_counter() - started
    check(
        "10 CP discrimination",
        abs(choi_min + 1.0) <= 1e-10
        and not_cp
        and verdict.status == "no_counterexample"
        and verdict.samples >= 10_000
        and all_cp,
        f"transpose Choi min eigenvalue {choi_min:.12f}, zero counterexamples in "
        f"{verdict.samples} pure states, {len(kraus_programs)}/50 Kraus-built maps certified CP, "
        f"{elapsed:.1f}s",
    )


def test_criterion_11_worked_examples():
    f = projective_predicate(2)

    dep = wp(depolarizing(0.5), f)
    dep_kraus = [
        np.sqrt(1.0 - 3.0 * 0.5 / 4.0) * np.eye(2),
        np.sqrt(0.5 / 4.0) * X,
        np.sqrt(0.5 / 4.0) * Y,
        np.sqrt(0.5 / 4.0) * Z,
    ]
    dep_gap = max(
        float(np.abs(dep.effect(a) - kraus_adjoint_oracle(dep_kraus, f.effect(a))).max())
        for a in f.space.atoms
    )
    dep_values_ok = (
        np.abs(dep.effect("0") - np.diag([0.75, 0.25])).max() <= 1e-12
        and np.abs(dep.effect("1") - np.diag([0.25, 0.75])).max() <= 1e-12
    )

    damp = wp(amplitude_damping(0.3), f)
    damp_kraus = [
        np.array([[1.0, 0.0], [0.0, np.sqrt(0.7)]]),
        np.array([[0.0, np.sqrt(0.3)], [0.0, 0.0]]),
    ]
    damp_gap = max(
        float(np.abs(damp.effect(a) - kraus_adjoint_oracle(damp_kraus, f.effect(a))).max())
        for a in f.space.atoms
    )
    damp_values_ok = (
        np.abs(damp.effect("0") - np.diag([1.0, 0.3])).max() <= 1e-12
        and np.abs(damp.effect("1") - np.diag([0.0, 0.7])).max() <= 1e-12
    )
    check(
        "11 worked examples",
        dep_gap <= 1e-12 and damp_gap <= 1e-12 and dep_values_ok and damp_values_ok,
        f"depolarizing(0.5) effects diag(0.75,0.25)/diag(0.25,0.75) (oracle gap {dep_gap:.2e}), "
        f"amplitude_damping(0.3) effects diag(1,0.3)/diag(0,0.7) (oracle gap {damp_gap:.2e}), both <= 1e-12",
    )
