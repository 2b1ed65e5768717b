import json
import math

import numpy as np
import pytest

import mrpower as mp
from mrpower.errors import NonFiniteEntry, NotTracePreserving
from mrpower.serialize import (
    SchemaError,
    channel_from_dict,
    channel_to_dict,
    load_channel,
    matrix_from_wire,
    povm_from_dict,
    povm_to_dict,
    save_channel,
    stack_from_wire,
)


class TestChannelWireFormat:
    def test_round_trip(self):
        rng = mp.SeededRng(501)
        channel = mp.random_channel(3, 4, "general", rng)
        rebuilt = channel_from_dict(channel_to_dict(channel))
        assert mp.choi_distance(rebuilt, channel) <= 1e-12

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "channel.json"
        channel = mp.example_channels()["g"]
        save_channel(str(path), channel)
        assert mp.choi_distance(load_channel(str(path)), channel) <= 1e-12

    def test_rejects_missing_keys(self):
        with pytest.raises(SchemaError):
            channel_from_dict({"dim_in": 2, "kraus": []})

    def test_rejects_bad_dims(self):
        with pytest.raises(SchemaError):
            channel_from_dict({"dim_in": 0, "dim_out": 2, "kraus": [[[ [1, 0] ]]]})

    def test_rejects_wrong_shape(self):
        wire = channel_to_dict(mp.identity_channel(2))
        wire["dim_out"] = 3
        with pytest.raises(SchemaError):
            channel_from_dict(wire)

    def test_rejects_malformed_entry(self):
        wire = channel_to_dict(mp.identity_channel(2))
        wire["kraus"][0][0][0] = [1.0]
        with pytest.raises(SchemaError):
            channel_from_dict(wire)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_entry(self, bad):
        wire = json.loads(json.dumps(channel_to_dict(mp.identity_channel(2))))
        wire["kraus"][0][1][0] = [0.0, bad]
        with pytest.raises(NonFiniteEntry, match=r"kraus\[0\]"):
            channel_from_dict(wire)

    def test_rejects_non_finite_entry_in_a_later_operator(self):
        wire = json.loads(json.dumps(channel_to_dict(mp.dephasing_channel(3))))
        wire["kraus"][2][0][1] = [math.inf, 0.0]
        with pytest.raises(NonFiniteEntry, match=r"kraus\[2\]"):
            channel_from_dict(wire)

    @pytest.mark.parametrize("bad", ["0.5", None, [0.5, 0.0, 0.0], [[0.5, 0.0]], ["0.5", 0.0]])
    def test_rejects_bad_entry_in_a_multi_operator_file(self, bad):
        wire = json.loads(json.dumps(channel_to_dict(mp.dephasing_channel(2))))
        wire["kraus"][1][0][1] = bad
        with pytest.raises(SchemaError, match=r"kraus\[1\]: entry \(0, 1\)"):
            channel_from_dict(wire)

    def test_rejects_ragged_row_in_a_multi_operator_file(self):
        wire = json.loads(json.dumps(channel_to_dict(mp.dephasing_channel(2))))
        wire["kraus"][1][1].append([0.0, 0.0])
        with pytest.raises(SchemaError, match=r"kraus\[1\]: row 1"):
            channel_from_dict(wire)

    def test_whole_list_conversion_matches_the_entry_loop(self):
        channel = mp.random_channel(3, 5, "general", mp.SeededRng(504))
        kraus = json.loads(json.dumps(channel_to_dict(channel)))["kraus"]
        kraus[0][0][0] = [1, True]  # JSON integers and booleans are numbers too
        loop = np.array(
            [matrix_from_wire(k, 3, 3, f"kraus[{i}]") for i, k in enumerate(kraus)]
        )
        assert np.array_equal(stack_from_wire(kraus, 3, 3, "kraus"), loop)

    def test_invalid_channel_is_not_a_schema_error(self):
        wire = {
            "dim_in": 2,
            "dim_out": 2,
            "kraus": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]],
        }
        with pytest.raises(NotTracePreserving):
            channel_from_dict(wire)

    def test_rejects_unreadable_file(self, tmp_path):
        with pytest.raises(SchemaError):
            load_channel(str(tmp_path / "missing.json"))

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_channel(str(path))


class TestPovmWireFormat:
    def test_round_trip(self):
        rng = mp.SeededRng(502)
        povm = mp.random_povm(2, 3, False, rng)
        rebuilt = povm_from_dict(povm_to_dict(povm))
        for a, b in zip(rebuilt.elements, povm.elements):
            np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-15)

    def test_wire_is_json_serializable(self):
        rng = mp.SeededRng(503)
        povm = mp.random_povm(2, 2, True, rng)
        assert json.loads(json.dumps(povm_to_dict(povm)))["dim"] == 2

    def test_rejects_empty_elements(self):
        with pytest.raises(SchemaError):
            povm_from_dict({"dim": 2, "elements": []})
