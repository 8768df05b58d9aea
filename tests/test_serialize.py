import json

import numpy as np
import pytest

from qwp.errors import ValidationError
from qwp.linalg import random_density
from qwp.predicates import projective_predicate, random_predicate, sat, validate_predicate
from qwp.programs import (
    DensityState,
    amplitude_damping,
    depolarizing,
    random_cptp,
    seq,
    transpose_program,
)
from qwp.serialize import (
    matrix_from_json,
    matrix_to_json,
    predicate_from_json,
    predicate_to_json,
    program_from_json,
    program_to_json,
    sat_to_json,
    state_from_json,
    state_to_json,
    triple_from_json,
    triple_to_json,
)
from qwp.wp import HoareTriple


def through_json(obj):
    """Serialize to text and back, exactly as a file round trip would."""
    return json.loads(json.dumps(obj))


class TestMatrixFormat:
    def test_shape_of_document(self):
        doc = matrix_to_json(np.array([[1.0, 2.0j], [0.0, 1.0]]))
        assert doc["dim"] == 2
        assert doc["re"] == [[1.0, 0.0], [0.0, 1.0]]
        assert doc["im"] == [[0.0, 2.0], [0.0, 0.0]]

    def test_exact_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            dim = int(rng.integers(1, 7))
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            back = matrix_from_json(through_json(matrix_to_json(m)))
            assert np.abs(back - m).max() <= 1e-15

    def test_missing_keys(self):
        with pytest.raises(ValidationError):
            matrix_from_json({"dim": 2, "re": [[1, 0], [0, 1]]})

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            matrix_from_json({"dim": 2, "re": [[1, 0]], "im": [[0, 0], [0, 0]]})


class TestStateFormat:
    def test_round_trip(self):
        rho = DensityState(random_density(np.random.default_rng(2), 3))
        back = state_from_json(through_json(state_to_json(rho)))
        assert np.abs(back.matrix - rho.matrix).max() <= 1e-15

    def test_invalid_state_rejected_on_load(self):
        doc = matrix_to_json(np.diag([0.9, 0.9]))
        with pytest.raises(ValidationError):
            state_from_json(doc)


class TestPredicateFormat:
    def test_round_trip(self):
        p = random_predicate(np.random.default_rng(3), 3, n_atoms=3)
        back = predicate_from_json(through_json(predicate_to_json(p)))
        assert back.space == p.space
        for a in p.space.atoms:
            assert np.abs(back.effect(a) - p.effect(a)).max() <= 1e-15

    def test_missing_keys(self):
        with pytest.raises(ValidationError):
            predicate_from_json({"atoms": ["a"]})

    def test_effects_list_rejected(self):
        doc = predicate_to_json(projective_predicate(2))
        doc["effects"] = list(doc["effects"].values())
        with pytest.raises(ValidationError, match="'effects' must be an object"):
            predicate_from_json(doc)

    def test_atoms_number_rejected(self):
        with pytest.raises(ValidationError, match="'atoms' must be a list, got int"):
            predicate_from_json({"atoms": 5, "effects": {}})

    def test_huge_effect_loads_and_exceeds_the_identity(self):
        text = '{"atoms": ["0"], "effects": {"0": {"dim": 2, "re": [[1e308, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}}}'
        with np.errstate(all="raise"):
            report = validate_predicate(predicate_from_json(json.loads(text)))
        assert report.violations == ("total effect exceeds the identity (max eigenvalue 1e+308)",)


class TestSatFormat:
    def test_document_holds_the_weights_in_atom_order(self):
        rng = np.random.default_rng(4)
        measure = sat(DensityState(random_density(rng, 2)), projective_predicate(2))
        doc = through_json(sat_to_json(measure))
        assert list(doc["weights"]) == list(measure.space.atoms)
        assert doc == {"weights": measure.weights, "satisfied": measure.satisfied}


class TestProgramFormat:
    def test_kraus_round_trip(self):
        c = amplitude_damping(0.35)
        back = program_from_json(through_json(program_to_json(c)))
        assert back.kraus is not None
        assert np.abs(back.super - c.super).max() <= 1e-15
        assert back.label == c.label

    def test_parameter_beyond_float_range_rejected(self):
        text = '{"dim": 2, "repr": "named", "payload": {"name": "depolarizing", "p": 1' + "0" * 400 + "}}"
        with pytest.raises(ValidationError, match="too large for a float"):
            program_from_json(json.loads(text))

    def test_super_round_trip_for_kraus_free_program(self):
        t = transpose_program(3)
        doc = program_to_json(t)
        assert doc["repr"] == "super"
        back = program_from_json(through_json(doc))
        assert np.abs(back.super - t.super).max() <= 1e-15

    def test_seq_of_kraus_programs_serializes_as_super(self):
        c = seq(amplitude_damping(0.3), depolarizing(0.2))
        doc = program_to_json(c)
        assert doc["repr"] == "super"
        back = program_from_json(through_json(doc))
        assert back.kraus is None
        assert np.array_equal(back.super, c.super)
        assert back.label == c.label

    @pytest.mark.parametrize("name,key", [("depolarizing", "p"), ("amplitude_damping", "gamma")])
    def test_named_missing_parameter_is_named(self, name, key):
        with pytest.raises(ValidationError, match=f"requires parameter '{key}'"):
            program_from_json({"dim": 2, "repr": "named", "payload": {"name": name}})

    @pytest.mark.parametrize("dim", [float("inf"), float("nan"), 2.5, [2], None, "2", True])
    def test_non_integral_dim_rejected(self, dim):
        with pytest.raises(ValidationError, match="dim must be"):
            program_from_json({"dim": dim, "repr": "named", "payload": {"name": "depolarizing", "p": 0.5}})
        with pytest.raises(ValidationError, match="dim must be"):
            matrix_from_json({"dim": dim, "re": [[1.0]], "im": [[0.0]]})

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"name": "depolarizing", "p": [0.5]}, "named depolarizing parameter 'p' must be a number, got list"),
            ({"name": "depolarizing", "p": True}, "named depolarizing parameter 'p' must be a number, got bool"),
            (
                {"name": "amplitude_damping", "gamma": "0.5"},
                "named amplitude_damping parameter 'gamma' must be a number, got str",
            ),
            ({"name": ["depolarizing"], "p": 0.5}, r"unknown named program \['depolarizing'\]"),
            ({"p": 0.5}, "unknown named program None"),
        ],
    )
    def test_named_payload_of_the_wrong_type_rejected(self, payload, message):
        with pytest.raises(ValidationError, match=message):
            program_from_json({"dim": 2, "repr": "named", "payload": payload})

    def test_named_payload_ignores_keys_its_builder_does_not_read(self):
        doc = {"dim": 2, "repr": "named", "payload": {"name": "depolarizing", "p": 0.5, "note": ["any"]}}
        assert program_from_json(doc).dim == 2

    @pytest.mark.parametrize("repr_kind,expected", [("kraus", "a list"), ("named", "an object")])
    def test_payload_of_the_wrong_type_rejected(self, repr_kind, expected):
        with pytest.raises(ValidationError, match=f"{repr_kind} payload must be {expected}, got int"):
            program_from_json({"dim": 2, "repr": repr_kind, "payload": 5})

    @pytest.mark.parametrize("name", ["identity", "transpose"])
    def test_dim_above_the_limit_rejected_before_allocating(self, name):
        # a d = 10**6 superoperator would need 1.6e25 bytes
        with pytest.raises(ValidationError, match="exceeds the limit 64"):
            program_from_json({"dim": 10**6, "repr": "named", "payload": {"name": name}})
        assert program_from_json({"dim": 64, "repr": "named", "payload": {"name": name}}).dim == 64

    def test_named_payload(self):
        doc = {
            "dim": 2,
            "repr": "named",
            "payload": {"name": "depolarizing", "p": 0.25},
            "label": "noise",
        }
        c = program_from_json(doc)
        assert c.label == "noise"
        assert c.kraus is not None

    def test_named_identity_needs_dim(self):
        with pytest.raises(ValidationError):
            program_from_json({"repr": "named", "payload": {"name": "identity"}})

    def test_unknown_repr(self):
        with pytest.raises(ValidationError):
            program_from_json({"dim": 2, "repr": "chi", "payload": {}})

    def test_choi_payload_round_trip(self):
        from qwp.programs import to_choi

        c = random_cptp(np.random.default_rng(5), 2)
        doc = {"dim": 2, "repr": "choi", "payload": matrix_to_json(to_choi(c)), "label": ""}
        back = program_from_json(through_json(doc))
        assert np.abs(back.super - c.super).max() <= 1e-10


class TestTripleFormat:
    def test_round_trip(self):
        f = projective_predicate(2)
        t = HoareTriple(f, amplitude_damping(0.2), f)
        back = triple_from_json(through_json(triple_to_json(t)))
        assert np.abs(back.prog.super - t.prog.super).max() <= 1e-15
        for a in f.space.atoms:
            assert np.abs(back.pre.effect(a) - f.effect(a)).max() <= 1e-15

    def test_missing_part(self):
        with pytest.raises(ValidationError):
            triple_from_json({"pre": {}, "post": {}})
