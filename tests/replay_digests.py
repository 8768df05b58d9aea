"""Print SHA-256 digests of seeded results, one line each.

Seeded replay must not depend on how many threads BLAS runs. Run this
script under two thread settings and compare the outputs; they must be equal:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/replay_digests.py > one.txt
    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python tests/replay_digests.py > two.txt
    cmp one.txt two.txt

Digested at d ≤ 16: ``wp`` effects, ``verify_triple`` reports (a triple
that holds and one that fails), ``is_positive_sampled`` verdicts (status,
samples and witness bytes) and one ``qwp properties all --dims 2,3`` report
with its timestamp removed. At d = 24 and 32, where the Choi matrix is wider
than one of the PSD kernel's row strips, only verdicts:
``is_completely_positive`` and ``is_positive_sampled``. The last bits of
``wp`` and ``verify`` there depend on the thread count.
"""

import hashlib
import json

import numpy as np
from click.testing import CliRunner

from qwp.cli import main
from qwp.predicates import Predicate, random_predicate
from qwp.programs import is_completely_positive, is_positive_sampled, mix, sample_program
from qwp.serialize import verification_report_to_json
from qwp.wp import HoareTriple, verify_triple, wp

from maps import nonpositive

DIMS = (2, 3, 5, 8, 16)
VERDICT_DIMS = (24, 32)
KINDS = ("cptp", "unitary", "transpose", "transpose_mix")
SEEDS = (0, 1)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else str(part).encode())
    return h.hexdigest()


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
                yield from positivity_lines(c, name, seed)


def positivity_lines(c, name: str, seed: int):
    for label, prog in (("", c), (".nonpositive", mix(0.5, c, nonpositive(c.dim, 0.05)))):
        v = is_positive_sampled(prog, seed=seed)
        witness = b"" if v.witness is None else v.witness
        yield f"positivity{label}.{name}", digest(v.status, v.samples, witness)


def verdict_lines():
    for dim in VERDICT_DIMS:
        for kind in KINDS:
            for seed in SEEDS:
                c = sample_program(kind, dim, np.random.default_rng([dim, seed, 0x7E9]))
                name = f"{kind}.d{dim}.s{seed}"
                yield f"cp.{name}", digest(is_completely_positive(c))
                yield from positivity_lines(c, name, seed)


def properties_line():
    args = ["properties", "all", "--dims", "2,3", "--samples", "50", "--seed", "7"]
    result = CliRunner().invoke(main, args)
    report = "".join(line for line in result.output.splitlines(keepends=True) if '"timestamp"' not in line)
    return "properties.all", digest(result.exit_code, report)


if __name__ == "__main__":
    for name, value in [*library_lines(), *verdict_lines(), properties_line()]:
        print(name, value)
