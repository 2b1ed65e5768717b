"""JSON wire format for channel files.

Complex entries travel as [re, im] pairs. A channel file is
{"dim_in": d, "dim_out": d', "kraus": [matrix, ...]} with each matrix a
nested list of [re, im] pairs of JSON numbers. A malformed file raises
SchemaError, and so does a `true` or `false` entry, which Python reads as
an int; a NaN or infinite entry is well-formed JSON to Python but invalid
input, and raises NonFiniteEntry.

Decoding with `json.loads` and checking entry by entry is the reference.
A channel file in exactly the layout `save_channel` writes also has a text
path, which converts its numbers window by window with Python's `float`,
as `json.loads` converts JSON floats; it returns only what the reference
would return, bit for bit, and hands every other file, and every error, to
the reference.
"""

from __future__ import annotations

import io
import json
import re
from typing import Any

import numpy as np

from .channels import QuantumChannel
from .errors import NonFiniteEntry
from .operators import require_finite


class SchemaError(ValueError):
    """File content does not match the wire format."""


def matrix_to_wire(matrix: np.ndarray) -> list:
    m = np.asarray(matrix, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def matrix_from_wire(obj: Any, rows: int, cols: int, what: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != rows:
        raise SchemaError(f"{what}: expected {rows} rows")
    out = np.empty((rows, cols), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{what}: row {i} must have {cols} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(v, (int, float)) for v in entry)
                or any(isinstance(v, bool) for v in entry)  # JSON true is an int to Python
            ):
                raise SchemaError(f"{what}: entry ({i}, {j}) must be a [re, im] pair")
            try:
                out[i, j] = complex(entry[0], entry[1])
            except OverflowError:  # a JSON integer beyond the float range
                raise NonFiniteEntry(
                    f"{what}: entry ({i}, {j}) is too large for a float"
                ) from None
    require_finite(out, what)
    return out


def stack_from_wire(items: list, rows: int, cols: int, what: str) -> np.ndarray:
    """The matrices of a wire list as one complex (n, rows, cols) array,
    checked entry by entry, so that an error names the matrix and entry at
    fault."""
    return np.array(
        [matrix_from_wire(m, rows, cols, f"{what}[{i}]") for i, m in enumerate(items)]
    )


def _require_positive_int(obj: Any, key: str, what: str) -> int:
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise SchemaError(f"{what}: {key!r} must be a positive integer")
    return value


def channel_to_dict(channel: QuantumChannel) -> dict:
    return {
        "dim_in": channel.dim_in,
        "dim_out": channel.dim_out,
        "kraus": [matrix_to_wire(k) for k in channel.kraus],
    }


def channel_from_dict(obj: Any) -> QuantumChannel:
    if not isinstance(obj, dict):
        raise SchemaError("channel file must hold a JSON object")
    dim_in = _require_positive_int(obj, "dim_in", "channel")
    dim_out = _require_positive_int(obj, "dim_out", "channel")
    kraus_obj = obj.get("kraus")
    if not isinstance(kraus_obj, list) or not kraus_obj:
        raise SchemaError("channel: 'kraus' must be a non-empty list")
    return QuantumChannel(stack_from_wire(kraus_obj, dim_out, dim_in, "kraus"))


# The layout `save_channel` writes, with `json.dumps` defaults: this prefix,
# each dimension without a leading zero, the Kraus list, then "}" or "}\n".
_CHANNEL_PREFIX = rb'\{"dim_in": ([1-9][0-9]{0,8}), "dim_out": ([1-9][0-9]{0,8}), "kraus": '
_NUMBER_BYTES = b"0123456789.e-"
_PREFIX_SKELETON = b'{"dim_in": , "dim_out": , "kraus": '
_TO_SPACES = bytes.maketrans(b"[],", b"   ")
_WINDOW = 1 << 16  # bytes per checked window, which bounds the check temporaries


def _windows(data: bytes, start: int, stop: int):
    """Cut data[start:stop] into windows of at least _WINDOW bytes, but the
    last, each ending on the comma of a ", "; yields (start, end) pairs."""
    while start < stop:
        end = data.find(b", ", start + _WINDOW, stop) + 1 or stop
        yield start, end
        start = end


def _kraus_skeleton(n: int, rows: int, cols: int) -> bytes:
    """What is left of a list of n rows x cols matrices of [re, im] pairs,
    as `json.dumps` writes it, once the number bytes are deleted."""
    row = b"[" + b", ".join([b"[, ]"] * cols) + b"]"
    matrix = b"[" + b", ".join([row] * rows) + b"]"
    return b"[" + b", ".join([matrix] * n) + b"]"


def _numbers_are_json(window: np.ndarray) -> bool:
    """Whether the numbers in a window of the layout (its bytes, as uint8)
    read as JSON as they read as `float`: no empty [re, im] slot, no
    mantissa of '0' and another digit, no integer -0, which JSON reads as 0
    and `float` as -0.0, and a digit on each side of every '.'."""
    digit = (window - 48) < 10
    opens = window == 91  # '[' or ' ', after which a slot starts
    opens |= window == 32
    closes = window == 44  # ',' or ']', before which a slot ends
    closes |= window == 93
    zero = window == 48
    dot = window == 46
    # each flag at the first byte of the pattern it marks
    bad = opens[:-1] & closes[1:]
    bad[:-1] |= opens[:-2] & zero[1:-1] & digit[2:]
    bad[:-2] |= (
        opens[:-3] & (window[1:-2] == 45) & zero[2:-1] & (digit[3:] | closes[3:])
    )
    bad[:-1] |= dot[1:-1] & ~(digit[:-2] & digit[2:])
    return not bad.any()


def _kraus_from_layout(data: bytes) -> np.ndarray | None:
    """The Kraus stack of a channel file in exactly the layout `save_channel`
    writes, or None, which hands the file to the JSON reference path.

    Deleting the number bytes must leave the brackets, commas and spaces of
    n operators of the declared shape. In one pass over the windows, every
    number must be one that JSON reads as `float` does, with no [re, im]
    slot empty, and `float` must read every token whole. The values must
    come to 2 n dim_out dim_in finite numbers: with no slot empty, a number
    outside the slots is one too many. Windows end on the comma of a ", ",
    so no checked pattern spans two of them.
    """
    head = re.match(_CHANNEL_PREFIX, data)  # compiled on first use, not on import
    tail = b"}\n" if data.endswith(b"}\n") else b"}"
    if head is None or not data.endswith(tail):
        return None
    dim_in, dim_out = int(head[1]), int(head[2])
    skeleton = data.translate(None, _NUMBER_BYTES)
    per_matrix = 6 * dim_out * dim_in + 2 * dim_out + 2  # with its ", "
    n, extra = divmod(len(skeleton) - len(_PREFIX_SKELETON) - len(tail), per_matrix)
    if n < 1 or extra or skeleton != (
        _PREFIX_SKELETON + _kraus_skeleton(n, dim_out, dim_in) + tail
    ):
        return None
    as_bytes = np.frombuffer(data, np.uint8)
    parts = []
    for start, end in _windows(data, head.end(), len(data) - len(tail)):
        if not _numbers_are_json(as_bytes[start:end]):
            return None
        try:
            parts.append(np.array(data[start:end].translate(_TO_SPACES).split(), dtype=float))
        except ValueError:  # a token that float cannot read whole
            return None
    values = np.concatenate(parts)
    if values.size != 2 * n * dim_out * dim_in or not np.isfinite(values).all():
        return None
    return values.view(complex).reshape(n, dim_out, dim_in)


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _decode_json(data: bytes, path: str) -> Any:
    try:
        # as a file opened in text mode decodes it: UTF-8, universal newlines
        return json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    except ValueError as exc:  # JSONDecodeError, bad UTF-8, or an integer past int's digit limit
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def load_channel(path: str) -> QuantumChannel:
    data = _read(path)
    kraus = _kraus_from_layout(data)
    if kraus is None:
        return channel_from_dict(_decode_json(data, path))
    return QuantumChannel(kraus)


def save_channel(path: str, channel: QuantumChannel) -> None:
    """Write json.dumps(channel_to_dict(channel)) + "\\n", one Kraus operator
    at a time."""
    kraus = channel.kraus
    head = f'{{"dim_in": {channel.dim_in}, "dim_out": {channel.dim_out}, "kraus": ['
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(head)
        for i, k in enumerate(kraus):
            # dumps, unlike dump, runs the C encoder
            handle.write((", " if i else "") + json.dumps(matrix_to_wire(k)))
        handle.write("]}\n")

