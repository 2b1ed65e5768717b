"""JSON wire formats for channels, POVMs, and verification reports.

Complex entries travel as [re, im] pairs. A channel file is
{"dim_in": d, "dim_out": d', "kraus": [matrix, ...]} and a POVM file is
{"dim": d, "elements": [matrix, ...]} with each matrix a nested list of
[re, im] pairs of JSON numbers. A malformed file raises SchemaError, and so
does a `true` or `false` entry, which Python reads as an int; a NaN or
infinite entry is well-formed JSON to Python but invalid input, and raises
NonFiniteEntry.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .channels import Povm, QuantumChannel
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


def stack_from_wire(
    items: list, rows: int, cols: int, what: str, *, boolean_free: bool = False
) -> np.ndarray:
    """The matrices of a wire list as one complex (n, rows, cols) array.

    With `boolean_free`, the caller's word that the list holds no bool (it
    was decoded from JSON text without `true` or `false`), a list that numpy
    reads as one real (n, rows, cols, 2) block converts in one step: numpy
    reads True as 1.0, and without bools that block is exactly what the
    entry-by-entry `matrix_from_wire` accepts. Anything else goes through
    that loop, which names the matrix and entry at fault.
    """
    try:
        block = np.array(items) if boolean_free else None
    except ValueError:  # ragged nesting
        block = None
    if (
        block is None
        or block.shape != (len(items), rows, cols, 2)
        or block.dtype.kind not in "iuf"
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


def channel_from_dict(obj: Any, *, boolean_free: bool = False) -> QuantumChannel:
    if not isinstance(obj, dict):
        raise SchemaError("channel file must hold a JSON object")
    dim_in = _require_positive_int(obj, "dim_in", "channel")
    dim_out = _require_positive_int(obj, "dim_out", "channel")
    kraus_obj = obj.get("kraus")
    if not isinstance(kraus_obj, list) or not kraus_obj:
        raise SchemaError("channel: 'kraus' must be a non-empty list")
    kraus = stack_from_wire(kraus_obj, dim_out, dim_in, "kraus", boolean_free=boolean_free)
    return QuantumChannel(kraus)


def povm_to_dict(povm: Povm) -> dict:
    return {
        "dim": povm.dim,
        "elements": matrix_to_wire(povm.stack),
    }


def povm_from_dict(obj: Any, *, boolean_free: bool = False) -> Povm:
    if not isinstance(obj, dict):
        raise SchemaError("POVM file must hold a JSON object")
    dim = _require_positive_int(obj, "dim", "povm")
    elements_obj = obj.get("elements")
    if not isinstance(elements_obj, list) or not elements_obj:
        raise SchemaError("povm: 'elements' must be a non-empty list")
    return Povm(stack_from_wire(elements_obj, dim, dim, "elements", boolean_free=boolean_free))


def _has_boolean_token(text: str) -> bool:
    """Whether `true` or `false` occurs in the text: two memchr-speed scans for
    the first letters when they are absent, where `"true" in text` crawls."""
    for word in ("true", "false"):
        at = text.find(word[0])
        while at >= 0:
            if text.startswith(word, at):
                return True
            at = text.find(word[0], at + 1)
    return False


def _load_json(path: str) -> tuple[Any, bool]:
    """The decoded file, and whether its text is free of JSON booleans."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        return json.loads(text), not _has_boolean_token(text)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def load_channel(path: str) -> QuantumChannel:
    obj, boolean_free = _load_json(path)
    return channel_from_dict(obj, boolean_free=boolean_free)


def save_channel(path: str, channel: QuantumChannel) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        # dumps, unlike dump, runs the C encoder
        handle.write(json.dumps(channel_to_dict(channel)) + "\n")


def load_povm(path: str) -> Povm:
    obj, boolean_free = _load_json(path)
    return povm_from_dict(obj, boolean_free=boolean_free)


def save_povm(path: str, povm: Povm) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        # dumps, unlike dump, runs the C encoder
        handle.write(json.dumps(povm_to_dict(povm)) + "\n")
