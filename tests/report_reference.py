"""Reference for the canonical JSON writer and its text layout.

The writer that ``dinicvx.cli.canonical_json`` replaced: one ``isinstance``
chain per value, one formatted float per occurrence, one list append per
token.  A string, a key included, is escaped as ASCII JSON.  ``render_text``
is the text renderer that walked a report's values itself, before ``--output
text`` became a layout of the JSON report.  The tests require the package's
writer and its text output to give the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii

import numpy as np


def _f17(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def _dump(obj, out: list[str], ind: int) -> None:
    pad = "  " * ind
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj.keys())
        for i, k in enumerate(keys):
            out.append(f"{pad}  {encode_basestring_ascii(str(k))}: ")
            _dump(obj[k], out, ind + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad + "  ")
            _dump(v, out, ind + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_f17(float(obj)))
    elif is_dataclass(obj):
        _dump(_fields(obj), out, ind)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(obj) -> str:
    out: list[str] = []
    _dump(obj, out, 0)
    return "".join(out) + "\n"


def _fields(obj) -> dict:
    """A dataclass as the dict of its fields, unconverted.  Not ``vars()``:
    a cached property, such as ``DiniSchedule._steps``, is no field."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def render_text(obj) -> str:
    out: list[str] = []
    _render(obj, 0, out)
    return "".join(line + "\n" for line in out)


def _render(obj, depth: int, out: list[str]) -> None:
    pad = "  " * depth
    if is_dataclass(obj):
        obj = _fields(obj)
    if isinstance(obj, dict):
        for k in sorted(obj.keys()):
            v = obj[k]
            if is_dataclass(v) or isinstance(v, (dict, list, tuple)) and v:
                out.append(f"{pad}{_scalar_text(str(k))}:")
                _render(v, depth + 1, out)
            else:
                out.append(f"{pad}{_scalar_text(str(k))}: {_scalar_text(v)}")
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            if is_dataclass(v) or isinstance(v, (dict, list, tuple)):
                out.append(f"{pad}-")
                _render(v, depth + 1, out)
            else:
                out.append(f"{pad}- {_scalar_text(v)}")


def _scalar_text(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, str):
        return encode_basestring_ascii(v)[1:-1]
    if isinstance(v, (dict, list, tuple)) and not v:
        return "(empty)"
    return str(v)
