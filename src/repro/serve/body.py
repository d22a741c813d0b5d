"""JSON bodies for the server and its client, formatted and parsed
natively.

:func:`encode_json` returns ``json.dumps(obj).encode()`` byte for byte
— ``json.dumps`` with an ndarray written as its ``.tolist()``.  What it
saves is ``float.__repr__``: a 1-D float64 or int64 ndarray, and a list
whose items are all exactly ``float`` or all exactly ``int`` in int64
range (``bool`` is not ``int`` here), of :data:`NATIVE_MIN_ITEMS` items
or more, is written by the native library's formatter
(:func:`~repro.spgemm.native.native_json`); everything around such
arrays, and everything else, by ``json.dumps``.  Without the native
library the encoder *is* ``json.dumps``.

:func:`decode_json` returns what ``json.loads`` returns, with the same
float bits, and raises what it raises.  What it saves is the parse of
the floats: one native scan
(:func:`~repro.spgemm.native.native_json_arrays`) reads every numeric
array of :data:`NATIVE_MIN_ITEMS` items or more, outside strings, that
it can read exactly — all int64 or all floats, each float by
Eisel–Lemire — and ``json.loads`` reads the rest of the body, each such
array in it replaced by a ``NaN`` whose ``parse_constant`` hook hands
back the array's ``.tolist()``.  A ``NaN`` elsewhere in the body, a BOM,
a UTF-16/32 body, or any error on this path, and the body goes to
``json.loads`` whole.  Without the native library the decoder *is*
``json.loads``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any, Optional, Union

import numpy as np

from ..spgemm.native import native_available, native_json, native_json_arrays

__all__ = ["MAX_BODY_BYTES", "decode_json", "encode_json"]

#: the largest request body the server reads (``ServerConfig``'s default)
#: and the longest NDJSON event line the client reads
MAX_BODY_BYTES = 256 << 20


def _tolist(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} "
                    f"is not JSON serializable")


#: ``json.dumps``'s own settings, plus ndarrays as their ``.tolist()``
_ENCODER = json.JSONEncoder(default=_tolist)


def _dumps(obj: Any) -> bytes:
    return _ENCODER.encode(obj).encode()


#: shorter arrays go to ``json.dumps``: below this the formatter's fixed
#: cost (~4 µs) is more than ``repr`` of the items
NATIVE_MIN_ITEMS = 64

#: the ndarray dtypes the formatter writes (native byte order)
_FORMATTED = (np.dtype(np.float64), np.dtype(np.int64))


def _list_array(items: list) -> Optional[np.ndarray]:
    """``items`` as the array the formatter writes as ``json.dumps``
    would — all exactly ``float``, or all exactly ``int`` in int64
    range — or None."""
    if len(items) < NATIVE_MIN_ITEMS:
        return None
    kinds = set(map(type, items))
    if kinds == {float}:
        return np.array(items, dtype=np.float64)
    if kinds == {int}:
        try:
            return np.array(items, dtype=np.int64)
        except OverflowError:
            return None
    return None


#: what may hold an array the formatter writes
_CONTAINERS = frozenset({dict, list, tuple, np.ndarray})

_OPEN = object()  # a container whose text is being written


def _splice(obj: Any, seen: dict) -> Optional[Union[bytes, bytearray]]:
    """``obj``'s JSON text when an array the formatter writes, or an
    ndarray, lies inside it; None when ``json.dumps`` may write it whole.
    ``seen`` maps each container met so far to its text: one shared by
    two keys (a job's ``"a"`` and ``"b"`` spec) is written once."""
    key = id(obj)
    if key in seen:
        if seen[key] is _OPEN:
            raise ValueError("Circular reference detected")
        return seen[key]
    seen[key] = _OPEN
    seen[key] = text = _text(obj, seen)
    return text


def _text(obj: Any, seen: dict) -> Optional[Union[bytes, bytearray]]:
    kind = type(obj)
    if kind is np.ndarray:
        if (obj.ndim == 1 and obj.size >= NATIVE_MIN_ITEMS
                and obj.dtype in _FORMATTED):
            return native_json(obj)
        return _dumps(obj)
    if kind is list:
        arr = _list_array(obj)
        if arr is not None:
            return native_json(arr)
    values = obj.values() if kind is dict else obj
    parts = [_splice(v, seen) if type(v) in _CONTAINERS else None
             for v in values]
    if parts.count(None) == len(parts):
        return None
    items = [_dumps(v) if p is None else p for v, p in zip(values, parts)]
    if kind is not dict:
        return b"[" + b", ".join(items) + b"]"
    # a key is written as json.dumps writes it inside an object
    keys = [encode_basestring_ascii(k) if type(k) is str
            else _ENCODER.encode({k: 0})[1:-4] for k in obj]
    return b"{" + b", ".join(k.encode() + b": " + v
                             for k, v in zip(keys, items)) + b"}"


def encode_json(obj: Any) -> bytes:
    """``json.dumps(obj).encode()``, with the numeric arrays inside
    ``obj`` formatted natively (see the module docstring)."""
    if native_available() and type(obj) in _CONTAINERS:
        text = _splice(obj, {})
        if text is not None:
            return bytes(text)
    return _dumps(obj)


def decode_json(raw: bytes) -> Any:
    """``json.loads(raw)``, with the numeric arrays inside ``raw`` parsed
    natively (see the module docstring)."""
    # an array the scan reads holds NATIVE_MIN_ITEMS - 1 commas at least
    if (raw.count(b",") < NATIVE_MIN_ITEMS - 1 or not native_available()
            or json.detect_encoding(raw) != "utf-8"):
        return json.loads(raw)
    try:
        arrays = native_json_arrays(raw, NATIVE_MIN_ITEMS)
        if not arrays:
            return json.loads(raw)
        pieces, prev = [], 0
        for start, end, _ in arrays:
            pieces.append(raw[prev:start])
            prev = end
        pieces.append(raw[prev:])
        lists = (arr.tolist() for _, _, arr in arrays)

        def constant(name: str) -> Any:
            return next(lists) if name == "NaN" else float(name)

        obj = json.loads(b"NaN".join(pieces), parse_constant=constant)
        if next(lists, None) is None:
            return obj
    except Exception:
        pass
    return json.loads(raw)
