"""The TCP wire codec: a versioned, self-describing encoding of envelopes.

A frame is one version byte followed by UTF-8 JSON text::

    VERSION | [src, dst, seq, size_bytes, [rel, row, rel, row, ...], mids]

Every value carries its type in its own lexical form, so decoding needs
no schema: ``null``, ``true``/``false``, an integer literal (``int``), a
literal with a fraction, exponent, ``NaN`` or ``Infinity`` (``float``,
so -0.0 and ±inf survive), a string (``str``) and an array (``tuple``).
Two one-key objects tag what JSON cannot say: ``{"b": base64}`` is
``bytes``, and ``{"u": base64 of surrogatepass UTF-8}`` is a ``str``
holding lone surrogates (JSON would fuse an adjacent high/low pair).

That is the whole value domain: ``None``, ``bool``, ``int`` of at most
:data:`MAX_INT_BITS` bits, ``float``, ``str``, ``bytes`` and ``tuple``
nested at most :data:`MAX_DEPTH` deep (a flat row is depth 1), all of
exact type.  The encoder refuses anything else — sets, lists, dicts,
objects, subclasses — rather than let the receiver discover it mid-step.

Decoding runs the C ``json`` scanner and then checks shape and domain;
it never evaluates received bytes.  Whatever the input, :func:`decode`
returns the envelope's fields or raises :class:`CodecError`, whose
``reason`` the transport counts.  ``size_bytes`` travels in the frame,
so a decoded envelope accounts exactly the bytes its sender did without
walking the rows again.
"""

from __future__ import annotations

import json
from base64 import b64decode, b64encode
from itertools import chain
from typing import Optional

VERSION = 1
MAX_FRAME_BYTES = 1 << 24  # longest frame body a reader accepts (16 MiB)
MAX_DEPTH = 32  # tuple nesting levels, the row itself included
MAX_INT_BITS = 1024  # widest int: |n| < 2**MAX_INT_BITS

_VERSION_BYTE = bytes((VERSION,))
_SCALARS = frozenset({type(None), bool, int, float, str, bytes})
_MID_TYPES = frozenset({type(None), int})


class CodecError(ValueError):
    """A frame (or envelope) outside the wire format.  ``reason`` says
    why: ``oversize`` (longer than MAX_FRAME_BYTES), ``version`` (first
    byte is not VERSION), ``malformed`` (not UTF-8 JSON, an unknown tag,
    bad base64), ``shape`` (not an envelope: field types, delta pairs,
    mids), ``type`` (a value outside the domain), ``depth`` (tuples
    nested deeper than MAX_DEPTH) or ``range`` (an int wider than
    MAX_INT_BITS)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _b64(data: bytes) -> str:
    return b64encode(data).decode("ascii")


def _tag_bytes(value: object) -> dict:
    # json.JSONEncoder's fallback for types it cannot write; the domain
    # check has already refused everything but bytes.
    return {"b": _b64(value)}


def _tag_surrogates(value: object) -> object:
    """``value`` with every str that UTF-8 cannot carry tagged ``u``."""
    if type(value) is str:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            return {"u": _b64(value.encode("utf-8", "surrogatepass"))}
        return value
    if type(value) in (list, tuple):
        return [_tag_surrogates(item) for item in value]
    return value


def _untag(obj: dict) -> object:
    if len(obj) == 1:
        ((tag, text),) = obj.items()
        if type(text) is str:
            if tag == "b":
                return b64decode(text, validate=True)
            if tag == "u":
                return b64decode(text, validate=True).decode(
                    "utf-8", "surrogatepass"
                )
    raise CodecError("malformed")


_ENCODER = json.JSONEncoder(
    ensure_ascii=False,
    check_circular=False,
    separators=(",", ":"),
    default=_tag_bytes,
)
_DECODER = json.JSONDecoder(object_hook=_untag)


# An int wider than MAX_INT_BITS spells at least this many decimal
# digits, so a frame with no such digit run cannot hold one; only a
# frame with one (a wide int, or a long numeric string) pays the walk.
_WIDE_DIGITS = len(str(1 << MAX_INT_BITS))
_DIGITS_TO_ONES = bytes.maketrans(b"0123456789", b"1" * 10)


def _leaves(values):
    for value in values:
        if type(value) in (list, tuple):
            yield from _leaves(value)
        else:
            yield value


def _check_int_width(text: bytes, fields: list) -> None:
    if b"1" * _WIDE_DIGITS in text.translate(_DIGITS_TO_ONES) and any(
        type(v) is int and v.bit_length() > MAX_INT_BITS for v in _leaves(fields)
    ):
        raise CodecError("range")


def _check_values(tuples: list, depth: int) -> None:
    """Raise unless the items of ``tuples`` (at nesting ``depth``), and
    everything nested in them, have domain types and nest no deeper than
    MAX_DEPTH.  One pass of C iterators per level, not a call per value."""
    kinds = set(map(type, chain.from_iterable(tuples)))
    if kinds <= _SCALARS:
        return
    if not kinds <= _SCALARS | {tuple}:
        raise CodecError("type")
    if depth == MAX_DEPTH:
        raise CodecError("depth")
    nested = [v for v in chain.from_iterable(tuples) if type(v) is tuple]
    _check_values(nested, depth + 1)


def _check_shape(src, dst, seq, size, rels, rows, mids, row_type) -> None:
    if not (
        type(src) is str
        and type(dst) is str
        and type(seq) is int
        and type(size) is int
        and size >= 0
        and len(rels) == len(rows)
        and set(map(type, rels)) <= {str}
        and set(map(type, rows)) <= {row_type}
        and (not mids or len(mids) == len(rows))
        and set(map(type, mids)) <= _MID_TYPES
    ):
        raise CodecError("shape")


def encode(
    src: str,
    dst: str,
    seq: int,
    size: int,
    deltas: tuple,
    mids: tuple[Optional[int], ...],
) -> bytes:
    """One frame body; raises :class:`CodecError` for an envelope outside
    the domain or longer than :data:`MAX_FRAME_BYTES`."""
    flat = list(chain.from_iterable(deltas))
    rows = flat[1::2]
    if len(flat) != 2 * len(deltas):
        raise CodecError("shape")
    _check_shape(src, dst, seq, size, flat[0::2], rows, mids, tuple)
    _check_values(rows, 1)
    payload = [src, dst, seq, size, flat, mids]
    try:
        text = _ENCODER.encode(payload).encode("utf-8")
    except UnicodeEncodeError:
        text = _ENCODER.encode(_tag_surrogates(payload)).encode("utf-8")
    _check_int_width(text, payload)
    frame = _VERSION_BYTE + text
    if len(frame) > MAX_FRAME_BYTES:
        raise CodecError("oversize")
    return frame


def _freeze(items: list, depth: int) -> tuple:
    if depth > MAX_DEPTH:
        raise CodecError("depth")
    return tuple(
        _freeze(item, depth + 1) if type(item) is list else item
        for item in items
    )


def decode(data: bytes) -> tuple:
    """``(src, dst, deltas, mids, seq, size_bytes)`` from one frame body;
    raises :class:`CodecError` and nothing else."""
    if len(data) > MAX_FRAME_BYTES:
        raise CodecError("oversize")
    if data[:1] != _VERSION_BYTE:
        raise CodecError("version")
    try:
        text = data.decode("utf-8")
        fields, end = _DECODER.raw_decode(text, 1)  # past the version byte
    except CodecError:
        raise
    except RecursionError:
        raise CodecError("depth") from None
    except ValueError:  # bad UTF-8, JSON, base64 or surrogate bytes
        raise CodecError("malformed") from None
    if end != len(text):
        raise CodecError("malformed")
    if type(fields) is not list or len(fields) != 6:
        raise CodecError("shape")
    src, dst, seq, size, flat, mids = fields
    if type(flat) is not list or type(mids) is not list:
        raise CodecError("shape")
    rels = flat[0::2]
    rows = flat[1::2]
    _check_shape(src, dst, seq, size, rels, rows, mids, list)
    # JSON yields only domain types, lists and (through _untag) bytes
    # and str, so no type check is needed: lists become tuples, and the
    # depth and int-width bounds are checked.
    rows = list(map(tuple, rows))
    if list in map(type, chain.from_iterable(rows)):
        rows = [_freeze(row, 1) for row in rows]
    _check_int_width(data, [seq, size, mids, rows])
    return src, dst, tuple(zip(rels, rows)), tuple(mids), seq, size
