import bisect
import json
import math
import re

import numpy as np
import pytest

import mrpower as mp
import reference as ref
from mrpower import serialize
from mrpower.errors import NonFiniteEntry, NotTracePreserving
from mrpower.serialize import (
    SchemaError,
    channel_from_dict,
    channel_to_dict,
    load_channel,
    save_channel,
    stack_from_wire,
)


class TestChannelWireFormat:
    def test_round_trip(self):
        rng = mp.SeededRng(501)
        channel = mp.random_channel(3, 4, "general", rng)
        rebuilt = channel_from_dict(channel_to_dict(channel))
        assert ref.choi_distance(rebuilt, channel) <= 1e-12

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "channel.json"
        channel = mp.example_channels()["g"]
        save_channel(str(path), channel)
        assert ref.choi_distance(load_channel(str(path)), channel) <= 1e-12

    def test_rejects_missing_keys(self):
        with pytest.raises(SchemaError):
            channel_from_dict({"dim_in": 2, "kraus": []})

    def test_rejects_bad_dims(self):
        with pytest.raises(SchemaError):
            channel_from_dict({"dim_in": 0, "dim_out": 2, "kraus": [[[ [1, 0] ]]]})

    def test_rejects_wrong_shape(self):
        wire = channel_to_dict(ref.identity_channel(2))
        wire["dim_out"] = 3
        with pytest.raises(SchemaError):
            channel_from_dict(wire)

    def test_rejects_rows_shorter_than_declared_dim_in_before_allocating(self):
        # numpy refuses a 10**30-column array, so this passes only if the rows
        # are checked before the declared size is allocated
        wire = {"dim_in": 10**30, "dim_out": 1, "kraus": [[[[1.0, 0.0]]]]}
        with pytest.raises(SchemaError, match="row 0 must have"):
            channel_from_dict(wire)

    def test_rejects_malformed_entry(self):
        wire = channel_to_dict(ref.identity_channel(2))
        wire["kraus"][0][0][0] = [1.0]
        with pytest.raises(SchemaError):
            channel_from_dict(wire)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_entry(self, bad):
        wire = json.loads(json.dumps(channel_to_dict(ref.identity_channel(2))))
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

    @pytest.mark.parametrize("pair", [[True, 0.0], [1.0, False], [True, False]])
    def test_rejects_boolean_entry(self, pair):
        wire = json.loads(json.dumps(channel_to_dict(ref.identity_channel(2))))
        wire["kraus"][0][0][0] = pair
        with pytest.raises(SchemaError, match=r"kraus\[0\]: entry \(0, 0\)"):
            channel_from_dict(wire)

    @pytest.mark.parametrize("replacements", [
        {"1.0": "true"},  # numpy reads [true, 0.0] as a float block
        {"1.0": "true", "0.0": "false"},  # and [true, false] as a bool block
    ])
    def test_rejects_boolean_entry_in_a_file(self, tmp_path, replacements):
        text = json.dumps(channel_to_dict(ref.identity_channel(2)))
        for number, word in replacements.items():
            text = text.replace(number, word)
        path = tmp_path / "boolean.json"
        path.write_text(text)
        with pytest.raises(SchemaError, match="must be a \\[re, im\\] pair"):
            load_channel(str(path))

    def test_boolean_text_outside_entries_still_loads(self, tmp_path):
        path = tmp_path / "annotated.json"
        wire = channel_to_dict(ref.identity_channel(2))
        path.write_text(json.dumps({"note": "true or false", **wire}))
        assert ref.choi_distance(load_channel(str(path)), ref.identity_channel(2)) <= 1e-12

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


def layout_text(kraus_text: str, dim: int = 2) -> bytes:
    """A channel file in the layout save_channel writes, around a Kraus list."""
    return f'{{"dim_in": {dim}, "dim_out": {dim}, "kraus": {kraus_text}}}\n'.encode()


def reference_kraus(data: bytes) -> np.ndarray:
    wire = json.loads(data)
    return stack_from_wire(wire["kraus"], wire["dim_out"], wire["dim_in"], "kraus")


def load_bytes(tmp_path, data: bytes):
    path = tmp_path / "channel.json"
    path.write_bytes(data)
    return load_channel(str(path))


class TestTextPath:
    """Files in save_channel's layout read by one numpy text pass, which must
    give the JSON reference's bits or hand the file over to it."""

    def test_negative_float_zero_keeps_its_sign(self, tmp_path):
        data = layout_text("[[[[1.0, 0.0], [-0.0, -0.0]], [[0.0, -0.0], [1.0, 0.0]]]]")
        assert serialize._kraus_from_layout(data) is not None
        kraus = load_bytes(tmp_path, data).kraus
        assert np.signbit(kraus[0, 0, 1].real) and np.signbit(kraus[0, 0, 1].imag)
        assert np.signbit(kraus[0, 1, 0].imag) and not np.signbit(kraus[0, 1, 0].real)

    @pytest.mark.parametrize("pair", ["[-0, -0]", "[-0, 0.0]", "[0.0, -0]"])
    def test_integer_minus_zero_loads_as_positive_zero(self, tmp_path, pair):
        # JSON reads the integer -0 as 0, strtod as -0.0
        data = layout_text(f"[[[[1.0, 0.0], {pair}], [[0.0, 0.0], [1.0, 0.0]]]]")
        assert serialize._kraus_from_layout(data) is None
        kraus = load_bytes(tmp_path, data).kraus
        assert not np.signbit(kraus[0, 0, 1].real) and not np.signbit(kraus[0, 0, 1].imag)

    @pytest.mark.parametrize("entries", [
        "[1e-05, 5e-324], [-1.5e-300, 2.5e-08]",
        "[1, 0], [-2, 12345678901234567890123]",
        "[0e5, -0e5], [1.0e-0, 7e01]",
    ])
    def test_exponents_and_integers_read_as_json_reads_them(self, entries):
        data = layout_text(f"[[[{entries}], [[0.5, 0.25], [3, -4]]]]")
        kraus = serialize._kraus_from_layout(data)
        assert kraus is not None
        assert kraus.tobytes() == reference_kraus(data).tobytes()

    @pytest.mark.parametrize("kraus_text", [
        "[[[[1.0, ]0.0, [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]",  # moved out of its slot
        "[[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]0.0",  # one number too many
        "0.0[[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]",
    ])
    def test_number_outside_a_slot_takes_the_json_path(self, tmp_path, kraus_text):
        data = layout_text(kraus_text)
        assert serialize._kraus_from_layout(data) is None
        with pytest.raises(SchemaError, match="is not valid JSON"):
            load_bytes(tmp_path, data)

    def test_integer_entries_load(self, tmp_path):
        data = layout_text("[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]")
        assert serialize._kraus_from_layout(data) is not None
        channel = load_bytes(tmp_path, data)
        assert channel.kraus.tobytes() == ref.identity_channel(2).kraus.tobytes()

    def test_malformed_token_at_every_window_edge(self, tmp_path):
        # a full-rank d = 16 file: what matters here is its size, not its channel
        numbers = np.random.default_rng(505).standard_normal((256, 16, 16, 2))
        wire = {"dim_in": 16, "dim_out": 16, "kraus": numbers.tolist()}
        data = (json.dumps(wire) + "\n").encode()
        assert serialize._kraus_from_layout(data).tobytes() == numbers.tobytes()
        begin = re.match(serialize._CHANNEL_PREFIX, data).end()
        edges = [end for _, end in serialize._windows(data, begin, len(data) - 2)][:-1]
        assert len(edges) > 10
        tokens = [m.span() for m in re.finditer(rb"[0-9.e-]+", data[begin:])]
        starts = [begin + start for start, _ in tokens]
        planted = {0, len(tokens) - 1}
        for edge in edges:
            after = bisect.bisect(starts, edge)  # the first token of the next window
            planted |= {after - 1, after}
        # same-length tokens, so that the windows stay where they were
        malformed = (
            lambda n: b"." + b"5" * (n - 1),
            lambda n: b"5" * (n - 1) + b".",
            lambda n: b"0" * n,
            lambda n: b"-0" + b"1" * (n - 2),
            lambda n: b"1" * (n - 1) + b"e",
        )
        for case, index in enumerate(sorted(planted)):
            start, end = (begin + offset for offset in tokens[index])
            token = malformed[case % len(malformed)](end - start)
            bad = data[:start] + token + data[end:]
            assert serialize._kraus_from_layout(bad) is None, (index, token)
            if case < 4 or index == len(tokens) - 1:  # the JSON path is slow here
                with pytest.raises(SchemaError, match="is not valid JSON"):
                    load_bytes(tmp_path, bad)


def signed_zero_rows_channel() -> mp.QuantumChannel:
    """Two Kraus operators: one with a row of -0.0 entries, a row that mixes
    +0.0 and -0.0, and a row of +0.0 entries, and one dense."""
    sparse = np.zeros((5, 2), dtype=complex)
    sparse[0, 0] = sparse[3, 1] = np.sqrt(0.5)
    sparse[1] = complex(-0.0, -0.0)
    sparse[2] = [complex(0.0, -0.0), complex(-0.0, 0.0)]
    dense = np.sqrt(0.5) * mp.haar_isometry(5, 2, mp.SeededRng(507))
    channel = mp.QuantumChannel(np.array([sparse, dense]))  # no product to drop a sign
    assert np.signbit(channel.kraus[0, 1].view(float)).all()
    return channel


class TestSaveChannel:
    def test_writes_the_bytes_of_one_json_dumps(self, tmp_path):
        rng = mp.SeededRng(506)
        channels = [mp.random_channel(d, d * d, "general", rng.spawn(d)) for d in (2, 3, 4, 16)]
        channels += list(mp.example_channels().values())
        for d in (2, 3, 4, 5):
            general = mp.random_channel(d, d * d, "general", rng.spawn(10 + d))
            channels.append(mp.conversion_channel(general))
        # non-C-contiguous stacks: the dense d = 3 one and the d = 5 conversion
        channels += [mp.QuantumChannel(np.asfortranarray(c.kraus))
                     for c in (channels[1], channels[-1])]
        assert not any(c.kraus.flags.c_contiguous for c in channels[-2:])
        channels.append(signed_zero_rows_channel())
        path = tmp_path / "saved.json"
        for channel in channels:
            save_channel(str(path), channel)
            expected = json.dumps(channel_to_dict(channel)) + "\n"
            assert path.read_bytes() == expected.encode()
            assert serialize._kraus_from_layout(path.read_bytes()).tobytes() == (
                channel.kraus.tobytes()
            )

