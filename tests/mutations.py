"""Mutation gate: each row breaks one rule of the source, and its tests must fail.

A row is (file under src/qwp, exact old text, new text, test selection). For
each row the script copies src/ to a temporary directory, replaces the old
text, which must occur exactly once, by the new text, and runs the selection
with ``pytest -x`` against the copy. The gate fails when a mutant survives,
when a row's old text is missing (the table has gone stale), and when the
selections do not pass on the unchanged source, which would make every
mutant look killed.

Run from the repository root, with the standard library and pytest:

    python tests/mutations.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
KERNELS = "tests/test_stacked_kernels.py"


def rows(test, *ids):
    """The node ids of rows of a kernel test, by the ids of their parameters; every row where no id is given."""
    return tuple(f"{KERNELS}::{test}[{i}]" for i in ids) or (f"{KERNELS}::{test}",)


SIDES = [f"{k}-{side}" for k in (0.5, 2.0, 4.0) for side in (1.0, -1.0)]
BAND_EDGES = rows(
    "test_is_psd_at_the_band_edges",
    *[f"{family}-{edge}" for family in ("cptp choi 8", "transpose choi 4", "transpose_mix choi 6") for edge in SIDES],
)
DEFECT_BELOW_THE_CORNER = rows("test_cp_check_refuses_a_defect_below_the_corner_before_h_is_written")
MIXED_STACKS = rows("test_psd_stack")
PREDICATE_RULE = rows("test_predicate_rule")
STATE_RULE = rows("test_state_rule")
WP = rows("test_wp")
PEAK = f"{KERNELS}::test_the_traced_peak_at_dim_32_stays_under_its_bound"


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    selection: tuple[str, ...]


MUTANTS = [
    # the PSD kernel's band: μ bounds the trace of h + sI for |s| ≤ 2·eig_tol
    Mutant(
        "linalg.py",
        "+ np.sqrt(sq_norms) + 2 * n * eig_tol",
        "+ np.sqrt(sq_norms)",
        rows("test_is_psd_at_the_band_edges", *[f"eig_tol term 16-{k}-{side}" for k in (0.5, 2.0) for side in (1.0, -1.0)]),
    ),
    # h's writer fills every block (p, q) of the lower block triangle, not only the diagonal blocks
    Mutant(
        "linalg.py",
        "        out[p, :, :p + 1] = _hermitian_part(own, np.conjugate(partner)).transpose(2, 0, 1)",
        "        out[p, :, p] = _hermitian_part(own, np.conjugate(partner))[p].T",
        rows("test_choi_view_writer"),
    ),
    # the gap is read off a itself, before the certificate and before h is written
    Mutant(
        "linalg.py",
        """    if _blocked_gap(blocks) > tol.residual_tol:
        return False
    if delta < eig_tol and _low_rank_certificate(blocks, diagonal, delta, eig_tol):
        return True
    h = np.empty((n, n), dtype=np.complex128) if h is None else h
    _write_hermitian_part(blocks, h)
""",
        """    if delta < eig_tol and _low_rank_certificate(blocks, diagonal, delta, eig_tol):
        return True
    h = np.empty((n, n), dtype=np.complex128) if h is None else h
    _write_hermitian_part(blocks, h)
    if _blocked_gap(blocks) > tol.residual_tol:
        return False
""",
        DEFECT_BELOW_THE_CORNER,
    ),
    # and the pairs that the gap and the writer share match each block (p, q) with its partner (q, p), not with itself
    Mutant(
        "linalg.py",
        "yield p, blocks[p, :, :p + 1].transpose(1, 2, 0), blocks[:p + 1, :, p]",
        "yield p, blocks[p, :, :p + 1].transpose(1, 2, 0), blocks[p, :, :p + 1].transpose(1, 0, 2)",
        DEFECT_BELOW_THE_CORNER,
    ),
    # a single matrix's full factorization refutes it only above the band
    Mutant(
        "linalg.py",
        "        diag += eig_tol + delta\n",
        "        diag += eig_tol - delta\n",
        BAND_EDGES,
    ),
    # and proves it through the stack route, below the band, with no eigensolve
    Mutant(
        "linalg.py",
        "    if _cholesky_proves(h[None], diagonal, sq_norm, eig_tol):\n",
        "    if False:\n",
        BAND_EDGES,
    ),
    # a stack is proved PSD only below the band too
    Mutant(
        "linalg.py",
        "diag += np.asarray(thresholds - delta)[..., None]",
        "diag += np.asarray(thresholds + delta)[..., None]",
        MIXED_STACKS,
    ),
    # and so is a predicate's stack of effects and -total, at its own thresholds
    Mutant(
        "linalg.py",
        "diag += np.asarray(thresholds - delta)[..., None]",
        "diag += np.asarray(thresholds + delta)[..., None]",
        PREDICATE_RULE,
    ),
    # and its eigensolve reads the unshifted diagonal
    Mutant(
        "linalg.py",
        "        return True\n    diag[...] = saved\n",
        "        return True\n",
        MIXED_STACKS,
    ),
    # the stack's gaps are |a - aᴴ|, read before the hermitian part overwrites the shared aᴴ
    Mutant(
        "linalg.py",
        "    gaps = _hermiticity_gaps(a, ah)  # before _hermitian_part overwrites ah\n    h = _hermitian_part(a, ah)\n",
        "    h = _hermitian_part(a, ah)\n    gaps = _hermiticity_gaps(a, ah)\n",
        rows("test_psd_stack_refuses_a_gap_of_one_and_a_half_residual_tol"),
    ),
    # the eigensolve flags each matrix of a stack at its own threshold t_k
    Mutant(
        "linalg.py",
        "    return lows < -thresholds, lows\n",
        "    return lows < -np.max(thresholds), lows\n",
        rows("test_psd_stack_at_a_threshold_per_matrix"),
    ),
    # the predicate rule stacks -total with the effects: a total above the identity is flagged
    Mutant(
        "predicates.py",
        "-total[..., None, :, :]",
        "total[..., None, :, :]",
        PREDICATE_RULE,
    ),
    # the state rule decides at eig_slack·eig_tol, so an apply output down to it takes no eigensolve
    Mutant(
        "programs.py",
        "_psd_stack(ms, eig_slack * tol.eig_tol)",
        "_psd_stack(ms, tol.eig_tol)",
        STATE_RULE,
    ),
    # a single matrix's eigensolve reads h in place, with its diagonal restored after the refutation
    Mutant(
        "linalg.py",
        "            return False\n        diag[...] = saved\n",
        "            return False\n",
        rows("test_is_psd_at_the_band_edges", *[f"full rank 300-{k}-{side}" for k in (0.5, 2.0) for side in (1.0, -1.0)]),
    ),
    # a single matrix is first probed on its leading n/16 and n/4 rows, before its gap and certificate
    Mutant(
        "linalg.py",
        "for m in (n // 16, n // 4))",
        "for m in ())",
        rows("test_is_psd", "leading rows-64"),
    ),
    # the low-rank certificate needs a small residual, not only a drained pivot diagonal
    Mutant(
        "linalg.py",
        "    lead = factor[:k]\n",
        "    return True\n",
        rows("test_is_psd", "drained diagonal-64"),
    ),
    # a single low-rank matrix is decided by the certificate, with no full factorization
    Mutant(
        "linalg.py",
        "    if delta < eig_tol and _low_rank_certificate(blocks, diagonal, delta, eig_tol):",
        "    if False:",
        rows("test_cp_check_of_a_low_rank_map", "32-4"),
    ),
    # the probe refutes only above the band: at eig_tol + δ, not eig_tol - δ
    Mutant(
        "linalg.py",
        'np.einsum("...ii->...i", probe)[...] += eig_tol + delta',
        'np.einsum("...ii->...i", probe)[...] += eig_tol - delta',
        rows("test_is_psd_at_the_band_edges", *[f"leading rows 256-{edge}" for edge in SIDES]),
    ),
    # a map that its Choi matrix's leading blocks refute is never gathered into a full-size array
    Mutant(
        "linalg.py",
        "probe = _hermitian_part(_leading_square(blocks, n // 4))[None]",
        "probe = _hermitian_part(_leading_square(blocks, n)[:n // 4, :n // 4])[None]",
        (f"{PEAK}[is_completely_positive transpose_mix cold]", f"{PEAK}[is_completely_positive transpose_mix]"),
    ),
    # moduli round as a scalar abs() does
    Mutant(
        "wp.py",
        "return np.hypot(gap.real, gap.imag)",
        "return np.abs(gap)",
        rows("test_duality_residual"),
    ),
    # the adjoint stays a transposed view, the layout BLAS reads it in
    Mutant(
        "wp.py",
        "_act(supers.swapaxes(-1, -2)[..., None, :, :], effects.conj())",
        "_act(np.ascontiguousarray(supers.swapaxes(-1, -2))[..., None, :, :], effects.conj())",
        WP,
    ),
    # the conjugated product's zeros are +0.0, as the adjoint program's product writes them
    Mutant(
        "wp.py",
        "    g += 0.0  # the conjugate turns a +0.0 imaginary part into -0.0\n",
        "",
        WP,
    ),
    # the trace-preservation gap sums the rows k(d+1) of S, where vec(I) is one
    Mutant(
        "programs.py",
        "rows = supers[..., :: d + 1, :]",
        "rows = supers[..., :: d, :]",
        rows("test_unital_gaps"),
    ),
    # a one-row tail joins the row block before it
    Mutant(
        "programs.py",
        "starts = range(0, n - 1, rows)",
        "starts = range(0, n, rows)",
        rows("test_apply_matrices_joins_a_one_row_tail_to_the_block_before_it")
        + rows("test_apply_matrices", *[f"25-{layout}-{count}" for layout in "CF" for count in (1, 2, 3, 37, 100)]),
    ),
    # the Kraus sum turns -0.0 into +0.0, as a sum from 0 does
    Mutant(
        "programs.py",
        "        block += 0.0\n",
        "",
        rows("test_from_kraus") + rows("test_from_kraus_sums_left_to_right"),
    ),
    # a Kraus sum skips its finite scan only when its diagonal S[i(d+1), j(d+1)] = Σ_K |K_ij|² is far below the float limit
    Mutant(
        "programs.py",
        "finite = s[:: d + 1, :: d + 1].real.max() < 1e300",
        "finite = s[:: d, :: d].real.max() < 1e300",
        ("tests/test_programs.py::TestBuilders::test_a_kraus_sum_that_overflows_is_refused",),
    ),
    # a blocked Kraus sum writes its last, partial block of leading indices
    Mutant(
        "programs.py",
        "for a in range(0, d, step):",
        "for a in range(0, d - step + 1, step):",
        rows("test_from_kraus", *[f"complex-{d}-{count}" for d in (16, 17, 23, 32, 33) for count in (1, 4)]),
    ),
    # a blocked mixture writes its last, partial block of rows
    Mutant(
        "programs.py",
        "for a in range(0, n, rows):",
        "for a in range(0, n - rows + 1, rows):",
        rows("test_mix"),
    ),
    # the positivity audit's below-diagonal coordinates are 2 Im rho_ij, not 2 Im rho_ji
    Mutant(
        "programs.py",
        """        np.multiply(u2[j], v[j + 1:], out=x[j, j + 1:])
        x[j, j + 1:] -= v2[j] * u[j + 1:]""",
        """        np.multiply(v2[j], u[j + 1:], out=x[j, j + 1:])
        x[j, j + 1:] -= u2[j] * v[j + 1:]""",
        (f"{KERNELS}::test_audit_product_blocks_match_apply_matrix",),
    ),
    # its basis block reads C(|k><k|) off column k(d+1) of the superoperator
    Mutant(
        "programs.py",
        "step = math.isqrt(s.shape[0]) + 1",
        "step = math.isqrt(s.shape[0])",
        (f"{KERNELS}::test_audit_basis_outputs_are_columns_of_the_superoperator",),
    ),
    # its coordinate matrix takes the difference of each output pair above the diagonal
    Mutant(
        "programs.py",
        "z[p + 1:] -= 0.25 * t[p, p + 1:]",
        "z[p + 1:] += 0.25 * t[p, p + 1:]",
        (f"{KERNELS}::test_audit_product_blocks_match_apply_matrix",),
    ),
    # it keeps the anti-hermitian rows where their gaps could fail
    Mutant(
        "programs.py",
        "if _defect_bound(n, float(_pair_moduli(row_norms).max())) <= residual_tol:",
        "if True:",
        rows("test_audit_refutes_a_skew_off_the_basis_by_its_anti_hermitian_rows"),
    ),
    # its coordinate matrix is released before the last block's PSD test
    Mutant(
        "programs.py",
        "w = None  # released before the last block's PSD test",
        "pass",
        (f"{PEAK}[is_positive_sampled transpose_mix cold]", f"{PEAK}[is_positive_sampled transpose_mix]"),
    ),
    # the order refuses a pair whose upper operand is not hermitian, as well as its lower one
    Mutant(
        "linalg.py",
        "refused = (_hermiticity_gaps(f) > tol.residual_tol) | (_hermiticity_gaps(g) > tol.residual_tol)",
        "refused = _hermiticity_gaps(f) > tol.residual_tol",
        ("tests/test_linalg.py::TestLoewner::test_rejects_non_hermitian",),
    ),
    # f ⪯ g admits λ_min(g - f) down to -eig_tol
    Mutant(
        "linalg.py",
        "return lows >= -tol.eig_tol, refused",
        "return lows >= 0.0, refused",
        ("tests/test_linalg.py::TestLoewner::test_the_slack_admits_a_gap_down_to_minus_eig_tol",),
    ),
    # a state's λ_min may reach -eig_slack·eig_tol, for the constructor and the stacked mask alike
    Mutant(
        "programs.py",
        "_psd_stack(ms, eig_slack * tol.eig_tol)",
        "_psd_stack(ms, tol.eig_tol)",
        ("tests/test_programs.py::TestDensityState::test_the_mask_refuses_what_the_constructor_refuses_at_each_bound",),
    ),
    # apply's output may reach λ_min = -APPLY_EIG_SLACK·eig_tol, and so may a campaign's
    Mutant(
        "programs.py",
        "APPLY_EIG_SLACK = 10.0",
        "APPLY_EIG_SLACK = 1.0",
        ("tests/test_programs.py::TestApply::test_an_output_down_to_the_apply_slack_is_a_state",),
    ),
    # a predicate's total may reach λ_max = 1 + eig_tol, for validate_predicate and the stacked mask alike
    Mutant(
        "predicates.py",
        "thresholds[-1] = 1.0 + tol.eig_tol",
        "thresholds[-1] = 1.0",
        ("tests/test_predicates.py::TestValidate::test_validity_closure_at_tolerance_boundary",),
    ),
    # qwp wp refuses to write an output that is not a predicate
    Mutant(
        "cli.py",
        """        try:
            _require_valid(result, tol)
        except ValidationError as exc:
            raise ValidationError(f"program is not positive: wp gives an {exc}") from None
""",
        "",
        ("tests/test_cli.py::TestWpCommand::test_an_output_that_is_not_a_predicate_is_not_written",),
    ),
    # a bad tolerance exits 2 before any file is read, so also when the file is missing
    Mutant(
        "cli.py",
        "    tol = _make_tol(eig_tol, residual_tol, samples)\n    obj = _load(triple_path)\n",
        "    obj = _load(triple_path)\n    tol = _make_tol(eig_tol, residual_tol, samples)\n",
        ("tests/test_cli.py::test_exit_code_contract[verify_samples_0]",),
    ),
    # the sweeps cycle their trials through all four program kinds, as the weakest sweep's pairs show
    Mutant(
        "campaigns.py",
        "return np.asarray(_PROGRAM_KINDS)[trials % len(_PROGRAM_KINDS)]",
        "return np.asarray(_PROGRAM_KINDS)[trials % 2]",
        ("tests/test_campaigns.py::test_weakest_pairs_cycle_through_the_program_kinds",),
    ),
    # each effect's normals are drawn before its eigenvalues, as random_effect draws them
    Mutant(
        "linalg.py",
        "draws = [(rng.standard_normal((2, dim, dim)), rng.uniform(low, 1.0, size=dim)) for _ in range(k)]",
        "draws = [(rng.uniform(low, 1.0, size=dim), rng.standard_normal((2, dim, dim)))[::-1] for _ in range(k)]",
        rows("test_matrix_samplers"),
    ),
]


def _pytest(src: Path, selection) -> tuple[int, str]:
    """pytest's exit status on the selection against the package in src, and the first test that failed."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", *selection]
    run = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")]
    return run.returncode, failed[0] if failed else ""


def main() -> int:
    selections = sorted({test for m in MUTANTS for test in m.selection})
    faults = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if _pytest(src, selections)[0] != 0:
            print("the selections fail on the unchanged source", file=sys.stderr)
            return 1
        for i, m in enumerate(MUTANTS, 1):
            path = src / "qwp" / m.file
            text = path.read_text()
            label = f"{i}. {m.file}: {m.old.strip().splitlines()[0]}"
            if text.count(m.old) != 1:
                faults.append(f"{label}: old text found {text.count(m.old)} times")
                continue
            path.write_text(text.replace(m.old, m.new))
            start = time.perf_counter()
            status, killer = _pytest(src, m.selection)
            path.write_text(text)
            # 1 is a failing test; anything else is a selection that did not run
            verdict = {0: "SURVIVED", 1: f"killed by {killer}"}.get(status, f"pytest exit {status}")
            print(f"{label}: {verdict} in {time.perf_counter() - start:.1f} s")
            if status != 1:
                faults.append(f"{label}: {verdict}")
    for fault in faults:
        print(f"FAIL {fault}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
