"""Character escaping and entity resolution for the XML layer."""

from __future__ import annotations

import re

import numpy as np

from repro.errors import XMLSyntaxError

_BUILTIN_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}


def _is_xml_char(cp: int) -> bool:
    """The XML 1.0 ``Char`` production: surrogates, most control
    characters and out-of-range codepoints are not storable characters
    even via character references."""
    return (
        cp in (0x9, 0xA, 0xD)
        or 0x20 <= cp <= 0xD7FF
        or 0xE000 <= cp <= 0xFFFD
        or 0x10000 <= cp <= 0x10FFFF
    )


def _position(raw: str, offset: int, line: int, column: int) -> tuple[int, int]:
    """The line/column of ``raw[offset]`` given the position of ``raw[0]``
    — so a reference error points at the reference, not at the start of
    the character-data run it sits in."""
    newlines = raw.count("\n", 0, offset)
    if newlines:
        return line + newlines, offset - raw.rfind("\n", 0, offset)
    return line, column + offset


def _resolve_charref(name: str, line: int, column: int) -> str:
    """Decode ``name`` (``#...`` / ``#x...``) to its character, raising
    :class:`XMLSyntaxError` — never a bare ``ValueError`` — on malformed
    digits or codepoints outside the XML ``Char`` production (e.g.
    ``&#xD800;``, a surrogate, or ``&#x110000;``, past Unicode)."""
    digits = name[2:] if name[1:2] in ("x", "X") else name[1:]
    base = 16 if name[1:2] in ("x", "X") else 10
    try:
        cp = int(digits, base)
    except ValueError:
        raise XMLSyntaxError(
            f"malformed character reference &{name};", line, column
        ) from None
    if not _is_xml_char(cp):
        raise XMLSyntaxError(
            f"character reference &{name}; is not a valid XML character",
            line,
            column,
        )
    return chr(cp)


def resolve_entities(raw: str, line: int = 0, column: int = 0) -> str:
    """Replace entity and character references in character data."""
    if "&" not in raw:
        return raw
    out: list[str] = []
    i = 0
    n = len(raw)
    while i < n:
        ch = raw[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = raw.find(";", i + 1)
        if end < 0:
            raise XMLSyntaxError(
                "unterminated entity reference", *_position(raw, i, line, column)
            )
        name = raw[i + 1 : end]
        if name.startswith("#"):
            out.append(_resolve_charref(name, *_position(raw, i, line, column)))
        elif name in _BUILTIN_ENTITIES:
            out.append(_BUILTIN_ENTITIES[name])
        else:
            raise XMLSyntaxError(
                f"unknown entity &{name};", *_position(raw, i, line, column)
            )
        i = end + 1
    return "".join(out)


#: serialization escape tables for ``str.translate`` — one pass over the
#: string instead of three chained ``.replace()`` copies
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", '"': "&quot;"})


def escape_text(text: str) -> str:
    """Escape character data for serialization.

    These run once per text node on the serialization hot loop, so the
    overwhelmingly common no-markup case returns the input unchanged
    (three C-level scans, no allocation) and only strings that contain a
    special character pay for the ``translate``.
    """
    if "&" in text or "<" in text or ">" in text:
        return text.translate(_TEXT_ESCAPES)
    return text


def escape_attr(text: str) -> str:
    """Escape an attribute value for serialization (double-quoted)."""
    if "&" in text or "<" in text or '"' in text:
        return text.translate(_ATTR_ESCAPES)
    return text


_TEXT_SPECIAL = re.compile(r"[&<>]")
_ATTR_SPECIAL = re.compile(r'[&<"]')


def _escape_many(strings: list[str], special: re.Pattern, table: dict) -> list[str]:
    """Escape a batch of strings, translating only those that hold a
    special character: one regex scan over the joined batch finds them,
    and each hit is mapped back to its string by the running lengths."""
    hits = [m.start() for m in special.finditer("\0".join(strings))]
    if not hits:
        return strings
    ends = np.cumsum(np.fromiter(map(len, strings), np.int64, len(strings)) + 1)
    out = list(strings)
    for i in np.unique(np.searchsorted(ends, hits, side="right")).tolist():
        out[i] = out[i].translate(table)
    return out


def escape_texts(strings: list[str]) -> list[str]:
    """:func:`escape_text` over a batch of strings."""
    return _escape_many(strings, _TEXT_SPECIAL, _TEXT_ESCAPES)


def escape_attrs(strings: list[str]) -> list[str]:
    """:func:`escape_attr` over a batch of strings."""
    return _escape_many(strings, _ATTR_SPECIAL, _ATTR_ESCAPES)
