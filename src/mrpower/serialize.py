"""JSON wire formats for channels, POVMs, and verification reports.

Complex entries travel as [re, im] pairs. A channel file is
{"dim_in": d, "dim_out": d', "kraus": [matrix, ...]} and a POVM file is
{"dim": d, "elements": [matrix, ...]} with each matrix a nested list of
[re, im] pairs. A malformed file raises SchemaError; a NaN or infinite
entry is well-formed JSON to Python but invalid input, and raises
NonFiniteEntry.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .channels import Povm, QuantumChannel
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
            ):
                raise SchemaError(f"{what}: entry ({i}, {j}) must be a [re, im] pair")
            out[i, j] = complex(entry[0], entry[1])
    require_finite(out, what)
    return out


def stack_from_wire(items: list, rows: int, cols: int, what: str) -> np.ndarray:
    """The matrices of a wire list as one complex (n, rows, cols) array.

    A list that numpy reads as one real (n, rows, cols, 2) block converts in
    one step; for JSON input that is exactly what the entry-by-entry
    `matrix_from_wire` accepts. Anything else goes through that loop, which
    names the matrix and entry at fault.
    """
    try:
        block = np.array(items)
    except ValueError:  # ragged nesting
        block = None
    if (
        block is None
        or block.shape != (len(items), rows, cols, 2)
        or block.dtype.kind not in "biuf"
    ):
        return np.array(
            [matrix_from_wire(m, rows, cols, f"{what}[{i}]") for i, m in enumerate(items)]
        )
    # each trailing [re, im] pair of float64 is one complex128
    stack = np.ascontiguousarray(block, dtype=float).view(complex)[..., 0]
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        bad = int(np.argmin(finite))
        require_finite(stack[bad], f"{what}[{bad}]")
    return stack


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


def povm_to_dict(povm: Povm) -> dict:
    return {
        "dim": povm.dim,
        "elements": matrix_to_wire(povm.stack),
    }


def povm_from_dict(obj: Any) -> Povm:
    if not isinstance(obj, dict):
        raise SchemaError("POVM file must hold a JSON object")
    dim = _require_positive_int(obj, "dim", "povm")
    elements_obj = obj.get("elements")
    if not isinstance(elements_obj, list) or not elements_obj:
        raise SchemaError("povm: 'elements' must be a non-empty list")
    return Povm(stack_from_wire(elements_obj, dim, dim, "elements"))


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def load_channel(path: str) -> QuantumChannel:
    return channel_from_dict(_load_json(path))


def save_channel(path: str, channel: QuantumChannel) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        # dumps, unlike dump, runs the C encoder
        handle.write(json.dumps(channel_to_dict(channel)) + "\n")


def load_povm(path: str) -> Povm:
    return povm_from_dict(_load_json(path))


def save_povm(path: str, povm: Povm) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        # dumps, unlike dump, runs the C encoder
        handle.write(json.dumps(povm_to_dict(povm)) + "\n")
