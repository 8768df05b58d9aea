"""Print SHA-256 digests of seeded results at d ≤ 16, one line each.

Seeded replay must not depend on how many threads BLAS runs. Run this
script under two thread settings and compare the outputs; they must be equal:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/replay_digests.py > one.txt
    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python tests/replay_digests.py > two.txt
    cmp one.txt two.txt

Digested: ``wp`` effects, ``verify_triple`` reports (a triple that holds and
one that fails), ``is_positive_sampled`` verdicts (status, samples and
witness bytes) and one ``qwp properties all --dims 2,3`` report with its
timestamp removed.
"""

import hashlib
import json

import numpy as np
from click.testing import CliRunner

from qwp.cli import main
from qwp.predicates import Predicate, random_predicate
from qwp.programs import from_super, is_positive_sampled, mix, sample_program, vec
from qwp.serialize import verification_report_to_json
from qwp.wp import HoareTriple, verify_triple, wp

DIMS = (2, 3, 5, 8, 16)
KINDS = ("cptp", "unitary", "transpose", "transpose_mix")
SEEDS = (0, 1)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else str(part).encode())
    return h.hexdigest()


def nonpositive(dim: int, eps: float):
    """rho -> (1 + eps) rho - eps Tr(rho) I/d: trace preserving, not positive for eps > 0."""
    flat = vec(np.eye(dim))
    return from_super((1 + eps) * np.eye(dim * dim) - eps * np.outer(flat, flat) / dim)


def library_lines():
    for dim in DIMS:
        for kind in KINDS:
            for seed in SEEDS:
                rng = np.random.default_rng([dim, seed, 0x7E9])
                c = sample_program(kind, dim, rng)
                post = random_predicate(rng, dim, 3)
                effects = wp(c, post).effects
                name = f"{kind}.d{dim}.s{seed}"
                yield f"wp.{name}", digest(effects)
                bumped = effects.copy()
                bumped[0] += 0.05 * np.eye(dim)
                for verdict, pre in (("holds", 0.9 * effects), ("fails", bumped)):
                    report = verify_triple(HoareTriple(Predicate(post.space, pre), c, post), seed=seed)
                    yield f"verify.{verdict}.{name}", digest(json.dumps(verification_report_to_json(report), sort_keys=True))
                for label, prog in (("", c), (".nonpositive", mix(0.5, c, nonpositive(dim, 0.05)))):
                    v = is_positive_sampled(prog, seed=seed)
                    witness = b"" if v.witness is None else v.witness
                    yield f"positivity{label}.{name}", digest(v.status, v.samples, witness)


def properties_line():
    args = ["properties", "all", "--dims", "2,3", "--samples", "50", "--seed", "7"]
    result = CliRunner().invoke(main, args)
    report = "".join(line for line in result.output.splitlines(keepends=True) if '"timestamp"' not in line)
    return "properties.all", digest(result.exit_code, report)


if __name__ == "__main__":
    for name, value in [*library_lines(), properties_line()]:
        print(name, value)
