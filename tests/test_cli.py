import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qwp
from qwp.cli import main
from qwp.linalg import random_isometry
from qwp.predicates import OutcomeSpace, Predicate, projective_predicate
from qwp.programs import DensityState, amplitude_damping, from_super, vec
from qwp.serialize import (
    matrix_to_json,
    predicate_to_json,
    program_to_json,
    state_to_json,
)

from maps import nonpositive


@pytest.fixture
def runner():
    return CliRunner()


def assert_exits(result, status):
    """The command ended through sys.exit with this status: no exception escaped, so no traceback."""
    assert result.exit_code == status
    assert result.exception is None or isinstance(result.exception, SystemExit)


def write(path, doc):
    """Write a JSON document, or a text as it is."""
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def z_predicate_doc():
    return predicate_to_json(projective_predicate(2))


def named_program_doc(name, **params):
    return {"dim": 2, "repr": "named", "payload": {"name": name, **params}, "label": name}


def nonpositive_program(dim):
    """The trace-preserving map C(rho) = Tr(rho) I/d + a <v|rho|v> (|u><u| - |w><w|), a = 1/(0.9 d),
    which is not positive, and the unit vectors u and w; v, u, w are drawn from seed 5, w made
    orthogonal to u. C*(|w><w|) = I/d - a|v><v| has min eigenvalue -1/(9d)."""
    rng = np.random.default_rng(5)
    v, u, w = (z[0] + 1j * z[1] for z in rng.standard_normal((3, 2, dim)))
    w = w - np.vdot(u, w) / np.vdot(u, u) * u
    v, u, w = (x / np.linalg.norm(x) for x in (v, u, w))
    swing = np.outer(u, u.conj()) - np.outer(w, w.conj())
    s = np.outer(vec(np.eye(dim) / dim), vec(np.eye(dim))) + np.outer(vec(swing), vec(np.outer(v.conj(), v))) / (0.9 * dim)
    return from_super(s), u, w


def projector_predicate_doc(label, x):
    p = np.outer(x, x.conj())
    return {"atoms": [label, "rest"], "effects": {label: matrix_to_json(p), "rest": matrix_to_json(np.eye(len(x)) - p)}}


# documents that validate refuses with exit 2, by name; json.dumps writes 10**400 as its 401 digits
MALFORMED = {
    "effects_list": dict(z_predicate_doc(), effects=list(z_predicate_doc()["effects"].values())),
    "dim_inf": json.dumps(named_program_doc("depolarizing", p=0.5)).replace('"dim": 2', '"dim": 1e400'),
    "depolarizing_without_p": named_program_doc("depolarizing"),
    "kraus_payload_number": {"dim": 2, "repr": "kraus", "payload": 5},
    "named_payload_number": {"dim": 2, "repr": "named", "payload": 5},
    "atoms_number": {"atoms": 5, "effects": {}},
    "dim_huge": dict(named_program_doc("identity"), dim=10**6),
    "dim_list": dict(named_program_doc("depolarizing", p=0.5), dim=[2]),
    "dim_null": dict(named_program_doc("depolarizing", p=0.5), dim=None),
    "dim_zero": dict(named_program_doc("transpose"), dim=0),
    "dim_negative": dict(named_program_doc("identity"), dim=-1),
    "parameter_list": named_program_doc("depolarizing", p=[0.5]),
    "name_list": {"dim": 2, "repr": "named", "payload": {"name": ["depolarizing"], "p": 0.5}},
    "parameter_overflow": named_program_doc("depolarizing", p=10**400),
    "label_list": dict(named_program_doc("depolarizing", p=0.5), label=["a"]),
    "part_object": {"dim": 1, "re": {"a": 1}, "im": [[0.0]]},
    "entry_object": {"dim": 1, "re": [[{"a": 1}]], "im": [[0.0]]},
    "string_and_boolean_parts": {"dim": 1, "re": [["1"]], "im": [[False]]},
    "entry_overflow": {"dim": 1, "re": [[10**400]], "im": [[0.0]]},
    "super_dim_disagrees": {"dim": 3, "repr": "super", "payload": matrix_to_json(np.eye(4))},
    "program_without_payload": {"dim": 2, "repr": "named"},
}


class TestValidate:
    def test_valid_predicate(self, runner, tmp_path):
        path = write(tmp_path / "p.json", z_predicate_doc())
        result = runner.invoke(main, ["validate", path])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["ok"] is True
        assert report["kind"] == "predicate"
        assert report["predicate"]["complete"] is True
        assert result.stderr == ""

    def test_oversized_predicate(self, runner, tmp_path):
        doc = {
            "atoms": ["a", "b"],
            "effects": {
                "a": matrix_to_json(0.7 * np.eye(2)),
                "b": matrix_to_json(0.7 * np.eye(2)),
            },
        }
        path = write(tmp_path / "p.json", doc)
        result = runner.invoke(main, ["validate", path])
        assert result.exit_code == 2
        report = json.loads(result.stdout)
        assert any("exceeds the identity" in v for v in report["violations"])

    def test_truncated_file(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"atoms": ["a"], "effects": {')
        result = runner.invoke(main, ["validate", str(path)])
        assert_exits(result, 1)
        assert "line" in result.stderr

    @pytest.mark.parametrize(
        "text",
        ['{"atoms": [' + "1" * 5000 + "]}", "[" * 100_000],
        ids=["5000_digit_integer", "deep_nesting"],
    )
    def test_json_the_decoder_refuses_is_a_parse_error(self, runner, tmp_path, text):
        path = tmp_path / "odd.json"
        path.write_text(text)
        result = runner.invoke(main, ["validate", str(path)])
        assert_exits(result, 1)
        assert "JSON parse error" in result.stderr
        assert result.stdout == ""

    # a NaN eigenvalue from an overflowing symmetrization would pass every check
    @pytest.mark.filterwarnings("error")
    def test_huge_effect_exceeds_the_identity(self, runner, tmp_path):
        doc = {"atoms": ["0"], "effects": {"0": matrix_to_json(np.diag([1e308, 0.5]))}}
        path = write(tmp_path / "p.json", doc)
        result = runner.invoke(main, ["validate", path])
        assert_exits(result, 2)
        report = json.loads(result.stdout)
        assert report["ok"] is False
        assert report["violations"] == ["total effect exceeds the identity (max eigenvalue 1e+308)"]
        assert result.stderr == ""

    def test_overflowing_hermiticity_gap_keeps_stderr_empty(self, tmp_path):
        doc = {"atoms": ["0"], "effects": {"0": matrix_to_json(np.array([[0.0, 1.7e308], [-1.7e308, 0.0]]))}}
        path = write(tmp_path / "p.json", doc)
        # a child process, so that numpy's warnings reach stderr as they reach a user's
        src = str(Path(qwp.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-m", "qwp.cli", "validate", path], capture_output=True, text=True, env=env
        )
        assert result.returncode == 2
        assert result.stderr == ""
        assert json.loads(result.stdout)["violations"] == ["effect '0' is not hermitian"]

    def test_missing_file(self, runner, tmp_path):
        result = runner.invoke(main, ["validate", str(tmp_path / "nope.json")])
        assert_exits(result, 1)

    def test_valid_program(self, runner, tmp_path):
        path = write(tmp_path / "c.json", program_to_json(amplitude_damping(0.3)))
        result = runner.invoke(main, ["validate", path, "--samples", "50"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["program"]["trace_preserving"] is True
        assert report["program"]["positivity"] == "certified_cp"

    def test_non_tp_program(self, runner, tmp_path):
        path = write(tmp_path / "c.json", DOCS["lossy.json"])
        result = runner.invoke(main, ["validate", path, "--samples", "20"])
        assert result.exit_code == 2
        report = json.loads(result.stdout)
        assert "program is not trace preserving" in report["violations"]

    def test_non_positive_program(self, runner, tmp_path):
        # rho -> 1.5 rho - 0.5 Tr(rho) I/3 maps |0><0| outside the PSD cone
        path = write(tmp_path / "c.json", program_to_json(nonpositive(3, 0.5)))
        result = runner.invoke(main, ["validate", path])
        assert_exits(result, 2)
        report = json.loads(result.stdout)
        assert report["ok"] is False
        assert (report["program"]["positivity"], report["program"]["positivity_samples"]) == ("counterexample", 1)
        assert report["violations"] == [
            "program is not positive: sampled positivity found a counterexample state after 1 samples"
        ]

    def test_triple_with_non_positive_program(self, runner, tmp_path):
        # pre and post are valid and the program is trace preserving, but not positive
        post = predicate_to_json(projective_predicate(3))
        path = write(tmp_path / "t.json", {"pre": post, "prog": program_to_json(nonpositive(3, 0.5)), "post": post})
        result = runner.invoke(main, ["validate", path])
        assert_exits(result, 2)
        report = json.loads(result.stdout)
        assert report["ok"] is False and "program" not in report
        assert report["violations"] == [
            "prog: program is not positive: sampled positivity found a counterexample state after 1 samples"
        ]

    def test_positive_program_that_is_not_cp_passes(self, runner, tmp_path):
        path = write(tmp_path / "c.json", dict(named_program_doc("transpose"), dim=3))
        result = runner.invoke(main, ["validate", path, "--samples", "50"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["program"]["positivity"] == "no_counterexample" and report["violations"] == []

    def test_valid_state(self, runner, tmp_path):
        path = write(tmp_path / "rho.json", state_to_json(DensityState(np.eye(2) / 2)))
        result = runner.invoke(main, ["validate", path])
        assert result.exit_code == 0

    @pytest.mark.parametrize("kind", list(MALFORMED))
    def test_malformed_document_is_semantic_error(self, runner, tmp_path, kind):
        result = runner.invoke(main, ["validate", write(tmp_path / "bad.json", MALFORMED[kind])])
        assert_exits(result, 2)
        report = json.loads(result.stdout)
        assert report["ok"] is False and report["violations"]

    @pytest.mark.parametrize("doc", [{"hello": 1}, [1, 2]])
    def test_unrecognized_document(self, runner, tmp_path, doc):
        path = write(tmp_path / "what.json", doc)
        result = runner.invoke(main, ["validate", path])
        assert result.exit_code == 2
        assert json.loads(result.stdout)["kind"] == "unknown"


class TestWpCommand:
    def test_identity_reproduces_input(self, runner, tmp_path):
        prog = write(tmp_path / "c.json", named_program_doc("identity"))
        pred = write(tmp_path / "f.json", z_predicate_doc())
        out = tmp_path / "g.json"
        result = runner.invoke(main, ["wp", prog, pred, "--out", str(out)])
        assert result.exit_code == 0
        assert result.stderr == ""
        got = json.loads(out.read_text())
        want = z_predicate_doc()
        assert got["atoms"] == want["atoms"]
        for atom in want["atoms"]:
            assert np.abs(
                np.array(got["effects"][atom]["re"]) - np.array(want["effects"][atom]["re"])
            ).max() <= 1e-12
        sidecar = json.loads((tmp_path / "g.json.report.json").read_text())
        assert sidecar["complete"] is True
        assert sidecar["duality"]["max_residual"] <= 1e-12
        assert sidecar["program"]["positivity"] == "certified_cp"

    def test_depolarizing_half_effects(self, runner, tmp_path):
        prog = write(tmp_path / "c.json", named_program_doc("depolarizing", p=0.5))
        pred = write(tmp_path / "f.json", z_predicate_doc())
        out = tmp_path / "g.json"
        result = runner.invoke(main, ["wp", prog, pred, "--out", str(out)])
        assert result.exit_code == 0
        got = json.loads(out.read_text())
        assert np.abs(np.array(got["effects"]["0"]["re"]) - np.diag([0.75, 0.25])).max() <= 1e-12
        assert np.abs(np.array(got["effects"]["1"]["re"]) - np.diag([0.25, 0.75])).max() <= 1e-12

    def test_transpose_transposes_complex_effects(self, runner, tmp_path):
        prog = write(tmp_path / "c.json", named_program_doc("transpose"))
        eff = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
        doc = {"atoms": ["a"], "effects": {"a": matrix_to_json(eff)}}
        pred = write(tmp_path / "f.json", doc)
        out = tmp_path / "g.json"
        result = runner.invoke(main, ["wp", prog, pred, "--out", str(out)])
        assert result.exit_code == 0
        got = json.loads(out.read_text())
        back = np.array(got["effects"]["a"]["re"]) + 1j * np.array(got["effects"]["a"]["im"])
        assert np.abs(back - eff.T).max() <= 1e-14
        report = json.loads(result.stdout)
        assert report["program"]["positivity"] == "no_counterexample"
        assert report["warnings"]

    def test_pulls_back_once(self, runner, tmp_path, monkeypatch):
        qwp_wp = importlib.import_module("qwp.wp")
        pull_back = qwp_wp._pull_back
        calls = []

        def counted(conjs, effects):
            calls.append(conjs.shape)
            return pull_back(conjs, effects)

        monkeypatch.setattr(qwp_wp, "_pull_back", counted)
        prog = write(tmp_path / "c.json", named_program_doc("depolarizing", p=0.5))
        pred = write(tmp_path / "f.json", z_predicate_doc())
        result = runner.invoke(main, ["wp", prog, pred, "--out", str(tmp_path / "g.json")])
        assert result.exit_code == 0
        assert calls == [(4, 4)]

    def test_dimension_mismatch_prints_both_dims(self, runner, tmp_path):
        prog = write(tmp_path / "c.json", {"dim": 3, "repr": "named", "payload": {"name": "identity"}})
        pred = write(tmp_path / "f.json", z_predicate_doc())
        out = tmp_path / "g.json"
        result = runner.invoke(main, ["wp", prog, pred, "--out", str(out)])
        assert result.exit_code == 2
        assert "3" in result.stderr and "2" in result.stderr

    @pytest.mark.parametrize("dim", [4, 16])
    def test_an_output_that_is_not_a_predicate_is_not_written(self, runner, tmp_path, dim):
        c, _, w = nonpositive_program(dim)
        prog = write(tmp_path / "c.json", program_to_json(c))
        pred = write(tmp_path / "f.json", projector_predicate_doc("w", w))
        out = tmp_path / "g.json"
        result = runner.invoke(main, ["wp", prog, pred, "--out", str(out)])
        assert_exits(result, 2)
        assert "program is not positive" in result.stderr and "'w'" in result.stderr
        assert not out.exists() and not (tmp_path / "g.json.report.json").exists()

    def test_a_counterexample_to_positivity_is_a_warning_when_the_output_is_valid(self, runner, tmp_path):
        c, u, _ = nonpositive_program(4)
        prog = write(tmp_path / "c.json", program_to_json(c))
        pred = write(tmp_path / "f.json", projector_predicate_doc("u", u))
        out = tmp_path / "g.json"
        result = runner.invoke(main, ["wp", prog, pred, "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["program"]["positivity"] == "counterexample"
        assert any("counterexample" in line for line in report["warnings"])
        assert runner.invoke(main, ["validate", str(out)]).exit_code == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_output_is_semantic_error(self, runner, tmp_path):
        s = np.eye(4)
        s[:, 1] = [1.7e308, 1.7e308, 1.7e308, -1.7e308]
        prog = write(tmp_path / "c.json", {"dim": 2, "repr": "super", "payload": matrix_to_json(s)})
        half = np.full((2, 2), 0.5)
        effects = {"a": matrix_to_json(half), "b": matrix_to_json(np.eye(2) - half)}
        pred = write(tmp_path / "f.json", {"atoms": ["a", "b"], "effects": effects})
        out = tmp_path / "g.json"
        result = runner.invoke(main, ["wp", prog, pred, "--out", str(out)])
        assert_exits(result, 2)
        assert "finite" in result.stderr
        assert not out.exists()

    def test_parse_error(self, runner, tmp_path):
        bad = tmp_path / "c.json"
        bad.write_text("{")
        pred = write(tmp_path / "f.json", z_predicate_doc())
        result = runner.invoke(main, ["wp", str(bad), pred, "--out", str(tmp_path / "g.json")])
        assert_exits(result, 1)


class TestVerifyCommand:
    def triple_doc(self, pre, prog, post):
        return {"pre": pre, "prog": prog, "post": post}

    def test_identity_triple_holds(self, runner, tmp_path):
        doc = self.triple_doc(z_predicate_doc(), named_program_doc("identity"), z_predicate_doc())
        path = write(tmp_path / "t.json", doc)
        result = runner.invoke(main, ["verify", path])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["verification"]["verdict"] == "holds"
        assert result.stderr == ""

    def test_basis_flip_fails_with_witness(self, runner, tmp_path):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        prog = {"dim": 2, "repr": "kraus", "payload": [matrix_to_json(x)], "label": "flip"}
        doc = self.triple_doc(z_predicate_doc(), prog, z_predicate_doc())
        path = write(tmp_path / "t.json", doc)
        result = runner.invoke(main, ["verify", path])
        assert result.exit_code == 3
        report = json.loads(result.stdout)
        assert report["verification"]["verdict"] == "fails"
        witness = report["verification"]["witness"]
        assert witness["lhs"] == pytest.approx(1.0, abs=1e-9)
        assert witness["rhs"] == pytest.approx(0.0, abs=1e-9)

    def test_mismatched_spaces(self, runner, tmp_path):
        other = predicate_to_json(Predicate(OutcomeSpace(("p", "q")), projective_predicate(2).effects))
        doc = self.triple_doc(z_predicate_doc(), named_program_doc("identity"), other)
        path = write(tmp_path / "t.json", doc)
        result = runner.invoke(main, ["verify", path])
        assert result.exit_code == 2

    def test_invalid_pre_exits_2(self, runner, tmp_path):
        # diag(0.5, -0.5) sits below wp = I, so only the validity check refuses it
        pre = {"atoms": ["0"], "effects": {"0": matrix_to_json(np.diag([0.5, -0.5]))}}
        post = {"atoms": ["0"], "effects": {"0": matrix_to_json(np.eye(2))}}
        doc = self.triple_doc(pre, named_program_doc("depolarizing", p=0.5), post)
        path = write(tmp_path / "t.json", doc)
        result = runner.invoke(main, ["verify", path])
        assert_exits(result, 2)
        assert result.stdout == ""
        assert result.stderr.startswith("invalid predicate: effect '0' is not PSD")


class TestSatCommand:
    def test_maximally_mixed(self, runner, tmp_path):
        state = write(tmp_path / "rho.json", state_to_json(DensityState(np.eye(2) / 2)))
        pred = write(tmp_path / "f.json", z_predicate_doc())
        out = tmp_path / "m.json"
        result = runner.invoke(main, ["sat", state, pred, "--out", str(out)])
        assert result.exit_code == 0
        measure = json.loads(out.read_text())
        assert measure["weights"]["0"] == pytest.approx(0.5)
        assert measure["weights"]["1"] == pytest.approx(0.5)
        assert measure["satisfied"] is True
        report = json.loads(result.stdout)
        assert report["result"] == measure

    def test_dim_mismatch(self, runner, tmp_path):
        state = write(tmp_path / "rho.json", state_to_json(DensityState(np.eye(3) / 3)))
        pred = write(tmp_path / "f.json", z_predicate_doc())
        result = runner.invoke(main, ["sat", state, pred])
        assert result.exit_code == 2

    def test_invalid_predicate_exits_2(self, runner, tmp_path):
        state = write(tmp_path / "rho.json", state_to_json(DensityState(np.eye(2) / 2)))
        pred = write(tmp_path / "f.json", {"atoms": ["0"], "effects": {"0": matrix_to_json(np.diag([1.5, -0.5]))}})
        out = tmp_path / "m.json"
        result = runner.invoke(main, ["sat", state, pred, "--out", str(out)])
        assert_exits(result, 2)
        assert result.stdout == "" and not out.exists()
        assert result.stderr.startswith("invalid predicate: effect '0' is not PSD")
        assert "total effect exceeds the identity" in result.stderr


class TestPropertiesCommand:
    def test_small_duality_run_passes(self, runner):
        result = runner.invoke(
            main, ["properties", "duality", "--dims", "2", "--samples", "20", "--seed", "3"]
        )
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        campaign = report["campaigns"][0]
        assert campaign["passed"] is True
        assert campaign["trials"] == 20
        assert campaign["seed"] == 3
        assert result.stderr == ""

    def test_bad_dims_rejected(self, runner):
        result = runner.invoke(main, ["properties", "duality", "--dims", "1,9"])
        assert result.exit_code == 2

    def test_tolerance_outside_its_range_rejected(self, runner):
        result = runner.invoke(main, ["properties", "duality", "--eig-tol", "1"])
        assert result.exit_code == 2
        assert "eig_tol must lie in" in result.stderr

    def test_unparseable_dims(self, runner):
        result = runner.invoke(main, ["properties", "duality", "--dims", "2,x"])
        assert result.exit_code == 2

    def test_byte_identical_reports_except_timestamp(self, runner):
        args = ["properties", "orders", "--dims", "2", "--samples", "10", "--seed", "8"]
        first = runner.invoke(main, args).stdout
        second = runner.invoke(main, args).stdout

        def strip_timestamp(text):
            return "\n".join(
                line for line in text.splitlines() if '"timestamp"' not in line
            )

        assert strip_timestamp(first) == strip_timestamp(second)

    @pytest.mark.parametrize(
        "suite, dims, samples, seed, residual_tol, message",
        [
            ("duality", "2,3", "50", "7", "0", "state is not hermitian"),
            ("weakest", "2,3", "50", "7", "0", "invalid predicate: effect 'a0' is not hermitian"),
            ("compose", "2,3", "50", "7", "0", "invalid predicate: effect 'a0' is not hermitian"),
            ("orders", "2,3", "20", "7", "0", "loewner_leq requires hermitian operands"),
            # trial 7's a2 is not hermitian, after an atom a0 that is not below g's
            ("orders", "2", "8", "3", "1e-16", "loewner_leq requires hermitian operands"),
        ],
    )
    def test_a_refused_trial_exits_2(self, runner, suite, dims, samples, seed, residual_tol, message):
        args = ["properties", suite, "--dims", dims, "--samples", samples, "--seed", seed, "--residual-tol", residual_tol]
        result = runner.invoke(main, args)
        assert_exits(result, 2)
        assert result.stdout == "" and message in result.stderr

    def test_failing_campaign_exits_3(self, runner, monkeypatch):
        from qwp.campaigns import CampaignResult

        def doomed(suite, dims, trials, seed, tol=None):
            return [CampaignResult(suite, tuple(dims), trials, 1, 0.5, seed)]

        monkeypatch.setattr("qwp.cli.run_suite", doomed)
        result = runner.invoke(main, ["properties", "duality", "--dims", "2", "--samples", "5"])
        assert result.exit_code == 3
        report = json.loads(result.stdout)
        assert report["campaigns"][0]["passed"] is False


class TestReportEnvelope:
    def test_tolerances_and_seed_always_recorded(self, runner, tmp_path):
        path = write(tmp_path / "p.json", z_predicate_doc())
        result = runner.invoke(main, ["validate", path, "--eig-tol", "1e-10"])
        report = json.loads(result.stdout)
        assert report["seed"] == 0
        assert report["tolerances"]["eig_tol"] == 1e-10
        assert report["tolerances"]["residual_tol"] == 1e-9
        assert "timestamp" in report

    def test_out_in_a_missing_directory_exits_1(self, runner, tmp_path):
        path = write(tmp_path / "p.json", z_predicate_doc())
        out = tmp_path / "missing" / "report.json"
        result = runner.invoke(main, ["validate", path, "--out", str(out)])
        assert_exits(result, 1)
        assert f"{out}: No such file or directory" in result.stderr
        assert not out.exists()

    def test_out_flag_writes_report_copy(self, runner, tmp_path):
        path = write(tmp_path / "p.json", z_predicate_doc())
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["validate", path, "--out", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text()) == json.loads(result.stdout)


def haar_kraus_doc(count, dim=32):
    """A CPTP map of count Kraus operators, sliced from one seeded Haar isometry (count·dim)×dim."""
    w = random_isometry(np.random.default_rng(32), count * dim, dim)
    return {"dim": dim, "repr": "kraus", "payload": [matrix_to_json(w[dim * k:dim * (k + 1)]) for k in range(count)]}


# the files that CONTRACT's rows name, by name: a JSON document, or a text written as it is
DOCS = {
    "prog.json": named_program_doc("identity"),
    "pred.json": z_predicate_doc(),
    "state.json": state_to_json(DensityState(np.eye(2) / 2)),
    "bad.json": "{",
    "transpose.json": dict(named_program_doc("transpose"), dim=3),
    "transpose32.json": dict(named_program_doc("transpose"), dim=32),
    "kraus_dim3.json": {"dim": 3, "repr": "kraus", "payload": [matrix_to_json(np.eye(2))] * 2},
    "super_dim3.json": MALFORMED["super_dim_disagrees"],
    "invalid.json": {"atoms": ["0"], "effects": {"0": matrix_to_json(np.diag([1.5, -0.5]))}},
    "depolarizing.json": named_program_doc("depolarizing", p=0.5),
    "identity17.json": dict(named_program_doc("identity"), dim=17),
    "kraus32.json": haar_kraus_doc(4),
    # the completely depolarizing map, of rank d²
    "depolarizing17.json": program_to_json(from_super(np.outer(vec(np.eye(17)) / 17, vec(np.eye(17))))),
    "kraus40_32.json": haar_kraus_doc(40),
    "lossy.json": {"dim": 2, "repr": "super", "payload": matrix_to_json(0.9 * np.eye(4)), "label": "lossy"},
    "lossy32.json": {"dim": 32, "repr": "kraus", "payload": [matrix_to_json(0.9 * np.eye(32))], "label": "lossy32"},
    "split32.json": projector_predicate_doc("0", np.eye(32)[0]),
}


def reports(name, command, status, *texts):
    """``qwp command``, run among the DOCS it names, exits with status and reports texts, with an empty stderr."""
    return pytest.param(command.split(), status, False, texts, id=name)


def dies(name, command, status, *texts):
    """``qwp command`` exits with status and prints texts on stderr, with no report and no file."""
    return pytest.param(command.split(), status, True, texts, id=name)


CERTIFIED = '"positivity": "certified_cp"'
BAD_SAMPLES, BAD_EIG_TOL = "sample_count must be positive, got 0", "eig_tol must lie in [0, 1e-3], got 1.0"

CONTRACT = [
    reports("properties_all", "properties all --dims 2,3 --samples 50 --seed 7", 0),
    # the supremum audit over all four program kinds, one (program, predicate) pair each
    reports("weakest_760", "properties weakest --dims 2 --samples 760 --seed 7", 0, '"failures": 0', '"trials": 760'),
    # the blocked positivity audit on a positive map that is not CP, and at d = 32, where the
    # leading blocks of the Choi matrix refute complete positivity
    reports("transpose", "validate transpose.json", 0, '"positivity": "no_counterexample"'),
    reports("transpose_d32", "validate transpose32.json", 0, '"positivity": "no_counterexample"'),
    # a superoperator's dim is read off its side, then checked against the document's, as a Kraus map's is
    reports("kraus_dim_disagrees", "validate kraus_dim3.json", 2, "program has dim 2, expected 3"),
    reports("super_dim_disagrees", "validate super_dim3.json", 2, "program has dim 2, expected 3"),
    # the stacked predicate check: a negative eigenvalue and a total above the identity
    reports("invalid", "validate invalid.json", 2, "effect '0' is not PSD", "total effect exceeds the identity"),
    reports("depolarizing", "validate depolarizing.json", 0, CERTIFIED),
    # the low-rank certificate, off the superoperator's Choi view
    reports("identity_d17", "validate identity17.json", 0, CERTIFIED),
    reports("kraus4_d32", "validate kraus32.json", 0, CERTIFIED),
    # rank above d: the full factorizations certify these
    reports("depolarizing_d17", "validate depolarizing17.json", 0, CERTIFIED),
    reports("kraus40_d32", "validate kraus40_32.json", 0, CERTIFIED),
    dies("wp_lossy", "wp lossy.json pred.json --out out.json", 2, "program 'lossy' is not trace preserving"),
    # at d = 32 the test reads only the rows k(d+1) of the superoperator
    reports("lossy_d32", "validate lossy32.json", 2, '"trace_preserving": false', "program is not trace preserving"),
    dies("wp_lossy_d32", "wp lossy32.json split32.json --out out.json", 2, "program 'lossy32' is not trace preserving"),
    # each command crossed with the contract's input faults: a missing file and JSON that does not parse
    # exit 1; a document of another kind exits 2, and so does a bad tolerance, before any file is read
    dies("validate_samples_0", "validate missing.json --samples 0", 2, BAD_SAMPLES),
    dies("validate_eig_tol_1", "validate missing.json --eig-tol 1", 2, BAD_EIG_TOL),
    dies("wp_missing", "wp missing.json pred.json --out out.json", 1, "missing.json: No such file"),
    dies("wp_samples_0", "wp missing.json missing.json --out out.json --samples 0", 2, BAD_SAMPLES),
    dies("wp_eig_tol_1", "wp missing.json missing.json --out out.json --eig-tol 1", 2, BAD_EIG_TOL),
    dies("wp_state_as_program", "wp state.json pred.json --out out.json", 2, "program JSON needs keys"),
    dies("verify_missing", "verify missing.json", 1, "missing.json: No such file"),
    dies("verify_unparseable", "verify bad.json", 1, "bad.json: JSON parse error"),
    dies("verify_samples_0", "verify missing.json --samples 0", 2, BAD_SAMPLES),
    dies("verify_eig_tol_1", "verify missing.json --eig-tol 1", 2, BAD_EIG_TOL),
    dies("verify_program_as_triple", "verify prog.json", 2, "triple JSON needs keys"),
    dies("sat_missing", "sat state.json missing.json", 1, "missing.json: No such file"),
    dies("sat_unparseable", "sat bad.json pred.json", 1, "bad.json: JSON parse error"),
    dies("sat_samples_0", "sat missing.json missing.json --samples 0", 2, BAD_SAMPLES),
    dies("sat_eig_tol_1", "sat missing.json missing.json --eig-tol 1", 2, BAD_EIG_TOL),
    dies("sat_program_as_state", "sat prog.json pred.json --out out.json", 2, "matrix JSON missing keys"),
    dies("properties_samples_0", "properties duality --samples 0", 2, BAD_SAMPLES),
]


@pytest.mark.parametrize("args, status, died, texts", CONTRACT)
def test_exit_code_contract(runner, tmp_path, monkeypatch, args, status, died, texts):
    monkeypatch.chdir(tmp_path)
    docs = sorted({arg for arg in args if arg in DOCS})
    for name in docs:
        write(tmp_path / name, DOCS[name])
    result = runner.invoke(main, args)
    assert_exits(result, status)
    if died:
        assert result.stdout == "" and sorted(path.name for path in tmp_path.iterdir()) == docs
        assert all(text in result.stderr for text in texts)
    else:
        assert json.loads(result.stdout)["status"] == status and result.stderr == ""
        assert all(text in result.stdout for text in texts)
