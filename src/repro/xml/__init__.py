"""A small, self-contained XML layer: parser, escaping and serializer.

Pathfinder only needs well-formed document parsing (elements, attributes,
character data, CDATA, comments, processing instructions, the five builtin
entities and numeric character references) — no DTDs, no namespaces-aware
processing.  Documents are shredded column at a time by
:func:`repro.encoding.shred.shred_text`, which builds no tree;
:func:`parse_events` streams start/text/end callbacks with the same
grammar and is what names the line and column when a document is
malformed.  The serializer runs the other direction as a vectorised scan
over the pre/size/level tables.
"""

from repro.xml.parser import XMLEventHandler, parse_events
from repro.xml.serializer import scan_parts, serialize_node

__all__ = [
    "parse_events",
    "XMLEventHandler",
    "scan_parts",
    "serialize_node",
]
