import json

import numpy as np
import pytest

from qwp.errors import DimensionMismatchError, ValidationError
from qwp.linalg import random_density
from qwp.predicates import projective_predicate, random_predicate, sat, validate_predicate
from qwp.programs import (
    DensityState,
    QuantumProgram,
    amplitude_damping,
    depolarizing,
    random_cptp,
    seq,
    to_choi,
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

    @pytest.mark.parametrize("key", ["re", "im"])
    @pytest.mark.parametrize("part", [{"a": 1}, [[{"a": 1}]], [["1"]], [[False]], [["1", 0.0]]])
    def test_part_that_is_not_numbers_rejected_by_name(self, key, part):
        doc = dict({"dim": 1, "re": [[1.0]], "im": [[0.0]]}, **{key: part})
        with pytest.raises(ValidationError, match=f"matrix part '{key}'"):
            matrix_from_json(through_json(doc))

    @pytest.mark.parametrize("key", ["re", "im"])
    def test_integer_past_the_float_range_rejected_by_name(self, key):
        doc = dict({"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]})
        doc[key] = [[1, 0], [0, 10**400]]
        with pytest.raises(ValidationError, match=f"matrix part '{key}' holds a number too large for a float"):
            matrix_from_json(through_json(doc))

    def test_integer_entries_are_numbers(self):
        # JSON integers, also those past int64, read as the doubles they name
        m = matrix_from_json(through_json({"dim": 2, "re": [[1, 0], [0, 10**30]], "im": [[0, -2], [2, 0.5]]}))
        assert m.dtype == np.complex128
        assert np.array_equal(m, [[1.0, -2.0j], [2.0j, 1e30 + 0.5j]])


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


def quarter_depolarizing_document(repr_kind: str) -> dict:
    """depolarizing(0.25) as an unlabelled program document of the given repr."""
    c = depolarizing(0.25)
    payload = {
        "kraus": [matrix_to_json(k) for k in c.kraus],
        "super": matrix_to_json(c.super),
        "choi": matrix_to_json(to_choi(c)),
        "named": {"name": "depolarizing", "p": 0.25},
    }[repr_kind]
    return {"dim": 2, "repr": repr_kind, "payload": payload}


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
        with pytest.raises(ValidationError, match="too large for a float"):
            program_from_json({"repr": "named", "payload": {"name": "depolarizing", "p": 10**400}})

    def test_each_repr_goes_to_its_constructor(self):
        x = matrix_to_json([[0.0, 1.0], [1.0, 0.0]])
        assert program_from_json({"dim": 3, "repr": "named", "payload": {"name": "identity"}}).dim == 3
        assert program_from_json({"repr": "named", "payload": {"name": "depolarizing", "p": 0.5}}).kraus is not None
        assert program_from_json({"repr": "kraus", "payload": [x]}).dim == 2
        expected = (
            r"unknown named program 'werner'; "
            r"expected one of \('identity', 'transpose', 'depolarizing', 'amplitude_damping'\)"
        )
        with pytest.raises(ValidationError, match=expected):
            program_from_json({"repr": "named", "payload": {"name": "werner"}})
        with pytest.raises(DimensionMismatchError, match="program has dim 2, expected 3"):
            program_from_json({"dim": 3, "repr": "kraus", "payload": [x]})

    def test_named_parameter_takes_any_real_number(self):
        for p in (np.float64(0.5), np.int64(1), 1):
            assert program_from_json({"repr": "named", "payload": {"name": "depolarizing", "p": p}}).dim == 2

    @pytest.mark.parametrize(
        "repr_kind,default", [("kraus", "kraus"), ("super", "super"), ("choi", "choi"), ("named", "depolarizing(0.25)")]
    )
    def test_label_is_kept_or_left_to_the_constructor(self, repr_kind, default):
        doc = quarter_depolarizing_document(repr_kind)
        assert program_from_json({**doc, "label": "noise"}).label == "noise"
        assert program_from_json(doc).label == default
        assert program_from_json({**doc, "label": ""}).label == default
        assert program_from_json({**doc, "label": None}).label == default

    @pytest.mark.parametrize("label", [["a"], 7, 0, False, [], {}, 1.5])
    def test_label_that_is_not_a_string_rejected(self, label):
        doc = {**quarter_depolarizing_document("named"), "label": label}
        with pytest.raises(ValidationError, match="program label must be a string"):
            program_from_json(doc)

    @pytest.mark.parametrize("repr_kind", ["kraus", "super", "choi", "named"])
    def test_labelled_document_builds_one_program(self, repr_kind, monkeypatch):
        doc = {**quarter_depolarizing_document(repr_kind), "label": "noise"}
        builds = []
        hold = QuantumProgram._hold

        # every program, copied or adopted, is set up by _hold
        def counted(self, *args, **kwargs):
            builds.append(args)
            hold(self, *args, **kwargs)

        monkeypatch.setattr(QuantumProgram, "_hold", counted)
        assert program_from_json(doc).label == "noise"
        assert len(builds) == 1

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

    @pytest.mark.parametrize("dim", [0, -1, 0.0, -2.0])
    @pytest.mark.parametrize("name", ["identity", "transpose", "depolarizing"])
    def test_dim_below_one_rejected_by_name(self, dim, name):
        with pytest.raises(ValidationError, match=f"dim must be at least 1, got {dim!r}"):
            program_from_json({"dim": dim, "repr": "named", "payload": {"name": name, "p": 0.5}})
        with pytest.raises(ValidationError, match="dim must be at least 1"):
            matrix_from_json({"dim": dim, "re": [], "im": []})

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"name": "depolarizing", "p": [0.5]}, "named depolarizing parameter 'p' must be a number, got list"),
            ({"name": "depolarizing", "p": True}, "named depolarizing parameter 'p' must be a number, got bool"),
            ({"name": "depolarizing", "p": None}, "named depolarizing parameter 'p' must be a number, got NoneType"),
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

    def test_super_dim_is_read_off_the_payload_then_checked(self):
        assert program_from_json({"repr": "super", "payload": matrix_to_json(np.eye(9))}).dim == 3
        with pytest.raises(DimensionMismatchError, match="program has dim 2, expected 3"):
            program_from_json({"dim": 3, "repr": "super", "payload": matrix_to_json(np.eye(4))})
        with pytest.raises(DimensionMismatchError):
            program_from_json({"dim": 2, "repr": "super", "payload": matrix_to_json(np.eye(3))})

    def test_named_identity_needs_dim(self):
        with pytest.raises(ValidationError):
            program_from_json({"repr": "named", "payload": {"name": "identity"}})

    def test_unknown_repr(self):
        with pytest.raises(ValidationError):
            program_from_json({"dim": 2, "repr": "chi", "payload": {}})

    def test_choi_payload_round_trip(self):
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
