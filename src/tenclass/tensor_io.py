"""Tensor file format and canonical JSON serialization.

The canonical tensor format is COO:

    {"order": m, "dim": n, "format": "coo", "entries": [[[i1, ..., im], value], ...]}

with 0-based indices and unspecified entries equal to zero.  A "dense" variant
stores the entries as nested arrays of depth ``m``.  Reports and fixture files
are written through :func:`canonical_dumps`, which fixes key order and prints
floats with 17 significant digits so equal objects serialize to equal bytes.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .core import Tensor, _number

__all__ = [
    "parse_tensor",
    "load_tensor",
    "tensor_to_json",
    "save_tensor",
    "canonical_dumps",
    "tensor_digest",
]


class TensorFormatError(ValueError):
    """Raised when a tensor file does not match the documented schema."""


# the keys of a tensor document; any other, a misspelt "entries" say, is an error
_KEYS = ("order", "dim", "format", "entries")


def parse_tensor(obj) -> Tensor:
    """Build a :class:`Tensor` from a decoded JSON object."""
    if not isinstance(obj, dict):
        raise TensorFormatError("tensor document must be a JSON object")
    unknown = [key for key in obj if key not in _KEYS]
    if unknown:
        raise TensorFormatError(f"unknown key {unknown[0]!r} in tensor document; "
                                f"the keys are {', '.join(_KEYS)}")
    order, dim = obj.get("order"), obj.get("dim")
    if type(order) is not int or type(dim) is not int:  # no float, string or bool
        raise TensorFormatError("missing or malformed 'order'/'dim'")
    if order < 2:
        raise TensorFormatError("'order' must be at least 2")
    if dim < 1:
        raise TensorFormatError("'dim' must be a positive integer")
    fmt = obj.get("format", "coo")
    if fmt not in ("coo", "dense"):
        raise TensorFormatError(f"unknown format {fmt!r}")
    shape = (dim,) * order
    try:
        if fmt == "coo":
            return Tensor.from_coo(order, dim, obj.get("entries", []))
        arr = np.asarray(_dense_numbers(obj.get("entries", [])), dtype=np.float64)
        if arr.shape == shape:
            return Tensor(arr)
    except (TypeError, ValueError) as exc:
        # Tensor makes the one finite-entry check, for both formats
        raise TensorFormatError(f"{fmt} entries: {exc}") from exc
    raise TensorFormatError(f"dense entries have shape {arr.shape}, expected {shape}")


def _dense_numbers(entries):
    """The nested dense lists with every leaf read as a COO value is; numpy
    alone would turn a string or a bool into a float."""
    if isinstance(entries, list):
        return [_dense_numbers(e) for e in entries]
    return _number(entries)


def load_tensor(path) -> Tensor:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TensorFormatError(f"invalid JSON in {path}: {exc}") from exc
    return parse_tensor(obj)


def tensor_to_json(A: Tensor) -> dict:
    """Canonical COO document: nonzero entries sorted by index tuple."""
    entries = []
    for idx in sorted(zip(*np.nonzero(A.data))):
        entries.append([[int(i) for i in idx], float(A.data[idx])])
    return {"order": A.order, "dim": A.dim, "format": "coo", "entries": entries}


def save_tensor(A: Tensor, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(tensor_to_json(A), indent=2))
        fh.write("\n")


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError("cannot serialize non-finite float")
    return format(value, ".17g")


def _write(obj, out, indent, level) -> None:
    pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
    end = "" if indent is None else "\n" + " " * (indent * level)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        for k, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"object keys must be strings, got {key!r}")
            if k:
                out.append(",")
            out.append(pad)
            out.append(json.dumps(key))
            out.append(": " if indent is not None else ":")
            _write(value, out, indent, level + 1)
        out.append(end + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = obj.tolist() if isinstance(obj, np.ndarray) else obj
        if not len(items):
            out.append("[]")
            return
        out.append("[")
        for k, value in enumerate(items):
            if k:
                out.append(",")
            out.append(pad)
            _write(value, out, indent, level + 1)
        out.append(end + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj, indent: int | None = None) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 significant digits."""
    out: list[str] = []
    _write(obj, out, indent, 0)
    return "".join(out)


def tensor_digest(A: Tensor) -> str:
    """Stable identifier of the tensor contents (sha256 of its canonical document)."""
    return hashlib.sha256(canonical_dumps(tensor_to_json(A)).encode()).hexdigest()
