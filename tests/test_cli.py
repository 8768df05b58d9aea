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
from qwp.predicates import projective_predicate
from qwp.programs import DensityState, amplitude_damping, depolarizing, from_super
from qwp.serialize import (
    matrix_to_json,
    predicate_to_json,
    program_to_json,
    state_to_json,
)


@pytest.fixture
def runner():
    return CliRunner()


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def z_predicate_doc():
    return predicate_to_json(projective_predicate(2))


def named_program_doc(name, **params):
    return {"dim": 2, "repr": "named", "payload": {"name": name, **params}, "label": name}


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
        assert result.exit_code == 1
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
        assert result.exit_code == 1
        assert "JSON parse error" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    # a NaN eigenvalue from an overflowing symmetrization would pass every check
    @pytest.mark.filterwarnings("error")
    def test_huge_effect_exceeds_the_identity(self, runner, tmp_path):
        doc = {"atoms": ["0"], "effects": {"0": matrix_to_json(np.diag([1e308, 0.5]))}}
        path = write(tmp_path / "p.json", doc)
        result = runner.invoke(main, ["validate", path])
        assert result.exit_code == 2
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
        assert result.exit_code == 1

    def test_valid_program(self, runner, tmp_path):
        path = write(tmp_path / "c.json", program_to_json(amplitude_damping(0.3)))
        result = runner.invoke(main, ["validate", path, "--samples", "50"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["program"]["trace_preserving"] is True
        assert report["program"]["positivity"] == "certified_cp"

    def test_non_tp_program(self, runner, tmp_path):
        doc = {
            "dim": 2,
            "repr": "super",
            "payload": matrix_to_json(0.9 * np.eye(4)),
            "label": "lossy",
        }
        path = write(tmp_path / "c.json", doc)
        result = runner.invoke(main, ["validate", path, "--samples", "20"])
        assert result.exit_code == 2
        report = json.loads(result.stdout)
        assert "program is not trace preserving" in report["violations"]

    def test_non_positive_program(self, runner, tmp_path):
        # rho -> 1.5 rho - 0.5 Tr(rho) I/3: trace preserving, maps |0><0| outside the PSD cone
        flat = np.eye(3).reshape(-1, order="F")
        path = write(tmp_path / "c.json", program_to_json(from_super(1.5 * np.eye(9) - 0.5 * np.outer(flat, flat) / 3)))
        result = runner.invoke(main, ["validate", path])
        assert result.exit_code == 2
        report = json.loads(result.stdout)
        assert report["ok"] is False
        assert (report["program"]["positivity"], report["program"]["positivity_samples"]) == ("counterexample", 1)
        assert report["violations"] == [
            "program is not positive: sampled positivity found a counterexample state after 1 samples"
        ]

    def test_triple_with_non_positive_program(self, runner, tmp_path):
        # pre and post are valid and the program is trace preserving, but not positive
        flat = np.eye(3).reshape(-1, order="F")
        prog = program_to_json(from_super(1.5 * np.eye(9) - 0.5 * np.outer(flat, flat) / 3))
        post = predicate_to_json(projective_predicate(3))
        path = write(tmp_path / "t.json", {"pre": post, "prog": prog, "post": post})
        result = runner.invoke(main, ["validate", path])
        assert result.exit_code == 2
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

    @pytest.mark.parametrize(
        "kind",
        [
            "effects_list",
            "dim_inf",
            "depolarizing_without_p",
            "kraus_payload_number",
            "named_payload_number",
            "atoms_number",
            "dim_huge",
            "dim_list",
            "dim_null",
            "parameter_list",
            "name_list",
            "parameter_overflow",
        ],
    )
    def test_malformed_document_is_semantic_error(self, runner, tmp_path, kind):
        if kind == "effects_list":
            doc = z_predicate_doc()
            text = json.dumps(dict(doc, effects=list(doc["effects"].values())))
        elif kind == "dim_inf":
            text = json.dumps(named_program_doc("depolarizing", p=0.5)).replace('"dim": 2', '"dim": 1e400')
        elif kind == "depolarizing_without_p":
            text = json.dumps(named_program_doc("depolarizing"))
        elif kind == "kraus_payload_number":
            text = json.dumps({"dim": 2, "repr": "kraus", "payload": 5})
        elif kind == "named_payload_number":
            text = json.dumps({"dim": 2, "repr": "named", "payload": 5})
        elif kind == "atoms_number":
            text = json.dumps({"atoms": 5, "effects": {}})
        elif kind == "dim_huge":
            text = json.dumps(dict(named_program_doc("identity"), dim=10**6))
        elif kind == "dim_list":
            text = json.dumps(dict(named_program_doc("depolarizing", p=0.5), dim=[2]))
        elif kind == "dim_null":
            text = json.dumps(dict(named_program_doc("depolarizing", p=0.5), dim=None))
        elif kind == "parameter_list":
            text = json.dumps(named_program_doc("depolarizing", p=[0.5]))
        elif kind == "parameter_overflow":
            text = json.dumps(named_program_doc("depolarizing", p=10**400))
        else:
            text = json.dumps({"dim": 2, "repr": "named", "payload": {"name": ["depolarizing"], "p": 0.5}})
        path = tmp_path / "bad.json"
        path.write_text(text)
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2
        assert "Traceback" not in result.stderr
        report = json.loads(result.stdout)
        assert report["ok"] is False and report["violations"]

    def test_unrecognized_document(self, runner, tmp_path):
        path = write(tmp_path / "what.json", {"hello": 1})
        result = runner.invoke(main, ["validate", path])
        assert result.exit_code == 2


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
        assert result.exit_code == 2
        assert "finite" in result.stderr and "Traceback" not in result.stderr
        assert not out.exists()

    def test_parse_error(self, runner, tmp_path):
        bad = tmp_path / "c.json"
        bad.write_text("{")
        pred = write(tmp_path / "f.json", z_predicate_doc())
        result = runner.invoke(main, ["wp", str(bad), pred, "--out", str(tmp_path / "g.json")])
        assert result.exit_code == 1


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
        other = predicate_to_json(projective_predicate(2, labels=("p", "q")))
        doc = self.triple_doc(z_predicate_doc(), named_program_doc("identity"), other)
        path = write(tmp_path / "t.json", doc)
        result = runner.invoke(main, ["verify", path])
        assert result.exit_code == 2


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

    def test_seed_env_fallback(self, runner, monkeypatch):
        monkeypatch.setenv("QWP_SEED", "77")
        result = runner.invoke(
            main, ["properties", "compose", "--dims", "2", "--samples", "5"]
        )
        assert result.exit_code == 0
        assert json.loads(result.stdout)["seed"] == 77

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

    def test_out_flag_writes_report_copy(self, runner, tmp_path):
        path = write(tmp_path / "p.json", z_predicate_doc())
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["validate", path, "--out", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text()) == json.loads(result.stdout)
